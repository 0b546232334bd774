"""Tests for the 3D-to-screen projection pipeline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import DILATION, Camera, Gaussian3D
from splatgrad.core import quat_to_rotmat
from splatgrad.projection import (
    bounding_radius,
    camera_to_pixel,
    pixel_to_world,
    project_covariance,
    project_gaussian,
    projection_jacobian,
    world_to_camera,
)

from helpers import frustum_camera, oracle_perspective, rotated_camera


def quat_mul(a, b):
    """Hamilton product of two (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


class TestWorldToCamera:
    def test_identity_view(self):
        cam = frustum_camera(16, 16)
        assert_allclose(world_to_camera([1.0, 2.0, 3.0], cam), [1, 2, 3])

    def test_translation_only(self):
        cam = frustum_camera(16, 16)
        cam.view[:3, 3] = [0.0, 0.0, 5.0]
        assert_allclose(world_to_camera([0.0, 0.0, 0.0], cam), [0, 0, 5])

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            cam = rotated_camera(rng, 16, 16)
            mean = rng.normal(size=3)
            expect = cam.view @ np.array([mean[0], mean[1], mean[2], 1.0])
            assert world_to_camera(mean, cam).shape == (3,)
            assert_allclose(world_to_camera(mean, cam), expect[:3], atol=1e-15)


class TestCameraToPixel:
    def test_optical_axis_with_zero_principal_point(self):
        cam = Camera(
            view=np.eye(4), fx=50.0, fy=50.0, cx=0.0, cy=0.0,
            width=64, height=64, near=0.1, far=100.0,
        )
        for z in (0.5, 2.0, 50.0):
            assert_allclose(
                camera_to_pixel(np.array([0.0, 0.0, z]), cam), [0.5, 0.5]
            )

    def test_substitution_oracle(self):
        # Push a specific camera-space point through the perspective matrix
        # by hand and compare coordinate by coordinate.
        cam = Camera(
            view=np.eye(4), fx=40.0, fy=30.0, cx=2.0, cy=-1.0,
            width=48, height=32, near=0.5, far=20.0,
        )
        t_z = 3.0
        t = np.array([t_z * cam.width / (2.0 * cam.fx), 0.4, t_z])
        got = camera_to_pixel(t, cam)
        ndc_x = (2.0 * cam.fx / cam.width) * t[0] / t_z
        ndc_y = (2.0 * cam.fy / cam.height) * t[1] / t_z
        assert_allclose(got[0], (cam.width * ndc_x + 1.0) / 2.0 + cam.cx, rtol=1e-14)
        assert_allclose(got[1], (cam.height * ndc_y + 1.0) / 2.0 + cam.cy, rtol=1e-14)
        # By construction ndc_x is exactly 1 here.
        assert_allclose(got[0], (cam.width + 1.0) / 2.0 + cam.cx, rtol=1e-14)

    def test_focal_doubling_doubles_ndc(self):
        cam1 = frustum_camera(64, 64, fx=30.0)
        cam2 = frustum_camera(64, 64, fx=60.0)
        t = np.array([0.7, -0.3, 4.0])
        off1 = camera_to_pixel(t, cam1) - np.array([0.5 + cam1.cx, 0.5 + cam1.cy])
        off2 = camera_to_pixel(t, cam2) - np.array([0.5 + cam2.cx, 0.5 + cam2.cy])
        assert_allclose(off2, 2.0 * off1, rtol=1e-12)

    def test_matches_perspective_matrix_oracle(self):
        # The pinhole map against the supplement's perspective matrix,
        # divide and viewport map, on a non-square, off-centre camera
        # whose depths span near 1e-3 to far 1e6.
        cam = Camera(
            view=np.eye(4), fx=83.0, fy=61.5, cx=57.3, cy=12.9,
            width=96, height=40, near=1e-3, far=1e6,
        )
        rng = np.random.default_rng(44)
        px = rng.uniform([1.0, 1.0], [cam.width - 1.0, cam.height - 1.0], size=(200, 2))
        tz = np.exp(rng.uniform(np.log(2e-3), np.log(5e5), size=200))
        t = np.stack([(px[:, 0] - cam.cx) * tz / cam.fx, (px[:, 1] - cam.cy) * tz / cam.fy,
                      tz], axis=1)
        proj = oracle_perspective(cam)
        for row, got in zip(t, camera_to_pixel(t, cam)):
            clip = proj @ np.append(row, 1.0)
            want = [(cam.width * clip[0] / clip[3] + 1.0) / 2.0 + cam.cx,
                    (cam.height * clip[1] / clip[3] + 1.0) / 2.0 + cam.cy]
            assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert_allclose(camera_to_pixel(row, cam), want, rtol=1e-12, atol=0.0)

    def test_pixel_to_world_round_trip(self):
        # pixel_to_world, which places the audit's and init_random's
        # splats, is the inverse of world_to_camera then camera_to_pixel.
        cam = rotated_camera(np.random.default_rng(8), 48, 20)
        cam.fx, cam.fy, cam.cx, cam.cy = 37.0, 29.5, 31.3, 4.7
        for px, py, depth in [(0.0, 0.0, 2.0), (47.9, 19.9, 7.5), (13.25, 4.5, 0.7)]:
            t = world_to_camera(pixel_to_world(px, py, depth, cam), cam)
            assert abs(t[2] - depth) <= 1e-12
            assert np.max(np.abs(camera_to_pixel(t, cam) - [px, py])) <= 1e-12

    def test_degenerate_homogeneous_raises(self):
        cam = frustum_camera(16, 16)
        with pytest.raises(ValueError):
            camera_to_pixel(np.array([1.0, 1.0, 0.0]), cam)


class TestProjectionJacobian:
    def test_on_axis_unit_depth(self):
        cam = frustum_camera(16, 16, fx=1.0)
        got = projection_jacobian(np.array([0.0, 0.0, 1.0]), cam)
        assert_allclose(got, [[1, 0, 0], [0, 1, 0]])

    def test_inverse_depth_scaling(self):
        cam = frustum_camera(16, 16, fx=1.0)
        got = projection_jacobian(np.array([0.0, 0.0, 2.0]), cam)
        assert_allclose(got, [[0.5, 0, 0], [0, 0.5, 0]])

    def test_matches_finite_difference(self):
        # J should be the derivative of the perspective map
        # (fx tx / tz, fy ty / tz) at t.
        rng = np.random.default_rng(42)
        cam = frustum_camera(32, 32, fx=24.0)
        h = 1e-6
        for _ in range(50):
            t = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(1.0, 8.0)])
            jac = projection_jacobian(t, cam)

            def persp(t3):
                return np.array(
                    [cam.fx * t3[0] / t3[2], cam.fy * t3[1] / t3[2]]
                )

            fd = np.empty((2, 3))
            for k in range(3):
                hi = t.copy()
                hi[k] += h
                lo = t.copy()
                lo[k] -= h
                fd[:, k] = (persp(hi) - persp(lo)) / (2.0 * h)
            assert_allclose(jac, fd, rtol=1e-6, atol=1e-9)

    def test_behind_camera_raises(self):
        cam = frustum_camera(16, 16)
        with pytest.raises(ValueError):
            projection_jacobian(np.array([0.0, 0.0, -1.0]), cam)
        with pytest.raises(ValueError):
            projection_jacobian(np.array([0.0, 0.0, 0.0]), cam)


class TestProjectCovariance:
    def test_identity_passthrough_plus_dilation(self):
        j = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        got = project_covariance(j, np.eye(3))
        assert_allclose(got, np.eye(2) + DILATION * np.eye(2))

    def test_z_row_dropped(self):
        j = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        got = project_covariance(j, np.diag([4.0, 9.0, 16.0]))
        assert_allclose(got, np.diag([4.0 + DILATION, 9.0 + DILATION]))

    def test_matches_triple_product_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            j = rng.normal(size=(2, 3))
            r = quat_to_rotmat(unit_quat(rng))
            a = rng.normal(size=(3, 3))
            sigma = a @ a.T
            got = project_covariance(j @ r, sigma)
            expect = j @ r @ sigma @ r.T @ j.T + DILATION * np.eye(2)
            assert_allclose(got, expect, atol=1e-12)

    def test_psd_before_dilation(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            j = rng.normal(size=(2, 3))
            r = quat_to_rotmat(unit_quat(rng))
            a = rng.normal(size=(3, 3))
            got = project_covariance(j @ r, a @ a.T) - DILATION * np.eye(2)
            assert np.linalg.eigvalsh(got).min() >= -1e-12


class TestBoundingRadius:
    def test_unit_isotropic(self):
        assert bounding_radius(np.eye(2)) == 3

    def test_axis_aligned(self):
        assert bounding_radius(np.diag([4.0, 1.0])) == 6

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            a = rng.normal(size=(2, 2))
            cov = a @ a.T + 0.05 * np.eye(2)
            lam_max = np.linalg.eigvalsh(cov)[-1]
            assert bounding_radius(cov) == int(np.ceil(3.0 * np.sqrt(lam_max)))

    def test_non_positive_definite_raises(self):
        with pytest.raises(ValueError):
            bounding_radius(np.diag([1.0, -0.5]))
        with pytest.raises(ValueError):
            bounding_radius(np.zeros((2, 2)))


class TestProjectGaussian:
    def make_gaussian(self, mean, scale=0.1):
        return Gaussian3D(
            mean=mean, scale=np.full(3, scale), quat=[1, 0, 0, 0],
            opacity=0.8, color=[0.5, 0.5, 0.5],
        )

    def test_behind_camera_culled(self):
        cam = frustum_camera(32, 32)
        assert project_gaussian(self.make_gaussian([0, 0, -2.0]), cam) is None

    def test_near_plane_culled(self):
        cam = frustum_camera(32, 32, near=1.0)
        assert project_gaussian(self.make_gaussian([0, 0, 0.5]), cam) is None

    def test_far_plane_culled(self):
        cam = frustum_camera(32, 32, far=10.0)
        assert project_gaussian(self.make_gaussian([0, 0, 20.0]), cam) is None

    def test_offscreen_culled(self):
        cam = frustum_camera(32, 32)
        # Far to the side: the footprint cannot reach the image.
        assert project_gaussian(self.make_gaussian([50.0, 0, 3.0]), cam) is None

    def test_pinhole_example(self):
        # Hand-composed pipeline for an on-axis splat: isotropic scale maps
        # through J = f/z on both axes, so cov2d is (f s / z)^2 I plus the
        # dilation, and the pixel lands at the (+1)/2 offset.
        cam = Camera(
            view=np.eye(4), fx=100.0, fy=100.0, cx=0.0, cy=0.0,
            width=64, height=64, near=0.1, far=100.0,
        )
        g = self.make_gaussian([0.0, 0.0, 4.0], scale=0.1)
        p = project_gaussian(g, cam)
        assert p is not None
        assert_allclose(p.mean2d[0], [0.5, 0.5])
        assert_allclose(p.cov2d[0], np.diag([6.25 + DILATION, 6.25 + DILATION]))
        assert p.depth[0] == 4.0
        assert p.radius[0] == int(np.ceil(3.0 * np.sqrt(6.25 + DILATION)))

    def test_mean2d_ignores_shape(self):
        rng = np.random.default_rng(46)
        cam = frustum_camera(32, 32)
        base = self.make_gaussian([0.2, -0.1, 3.0])
        p0 = project_gaussian(base, cam)
        for _ in range(20):
            g = Gaussian3D(
                mean=base.mean, scale=rng.uniform(0.05, 0.3, size=3),
                quat=rng.normal(size=4), opacity=0.8, color=base.color,
            )
            p = project_gaussian(g, cam)
            assert_allclose(p.mean2d, p0.mean2d)

    def test_frame_invariance(self):
        # Rotating the world and compensating the camera must leave the
        # projection unchanged.
        rng = np.random.default_rng(47)
        for _ in range(20):
            cam = rotated_camera(rng, 32, 32)
            g = Gaussian3D(
                mean=rng.uniform(-0.5, 0.5, size=3) + [0, 0, 3.0],
                scale=rng.uniform(0.05, 0.2, size=3),
                quat=unit_quat(rng), opacity=0.7,
                color=[0.2, 0.4, 0.6],
            )
            w_quat = unit_quat(rng)
            w_rot = quat_to_rotmat(w_quat)
            # Rotation composition sanity for the helper itself.
            assert_allclose(
                quat_to_rotmat(quat_mul(w_quat, g.quat / np.linalg.norm(g.quat))),
                w_rot @ quat_to_rotmat(g.quat),
                atol=1e-12,
            )
            g2 = Gaussian3D(
                mean=w_rot @ g.mean,
                scale=g.scale,
                quat=quat_mul(w_quat, g.quat / np.linalg.norm(g.quat)),
                opacity=g.opacity,
                color=g.color,
            )
            view2 = cam.view.copy()
            view2[:3, :3] = cam.rotation @ w_rot.T
            cam2 = Camera(
                view=view2, fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                width=cam.width, height=cam.height, near=cam.near, far=cam.far,
            )
            p1 = project_gaussian(g, cam)
            p2 = project_gaussian(g2, cam2)
            if p1 is None:
                assert p2 is None
                continue
            assert_allclose(p2.mean2d, p1.mean2d, atol=1e-9)
            assert_allclose(p2.cov2d, p1.cov2d, atol=1e-9)
            assert_allclose(p2.depth, p1.depth, atol=1e-9)
            assert p2.radius == p1.radius
