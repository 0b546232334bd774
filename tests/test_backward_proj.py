"""Projection backward tests.

Each op is checked against central differences through the matching
forward op, plus hand-derived values where the algebra collapses.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    Camera,
    Gaussian3D,
    projection,
    render,
    scene_backward,
)
from splatgrad.core import compose_covariance_3d
from splatgrad.proj_backward import (
    cov2d_backward,
    covariance3d_backward,
    mean2d_backward,
    world_backward,
)
from splatgrad.projection import (
    camera_to_pixel,
    project_covariance,
    project_gaussian,
    projection_jacobian,
    world_to_camera,
)

from helpers import frustum_camera, frustum_scene, rotated_camera


def fd_check(analytic, numeric, rel=1e-5, floor=1e-7, abs_tol=1e-8):
    scale = max(abs(analytic), abs(numeric))
    if scale > floor:
        assert abs(analytic - numeric) / scale < rel, (analytic, numeric)
    else:
        assert abs(analytic - numeric) < abs_tol, (analytic, numeric)


def random_cov3d(rng):
    mat = rng.normal(size=(3, 3))
    return mat @ mat.T + 0.2 * np.eye(3)


class TestMean2DBackward:
    def setup_method(self):
        self.camera = frustum_camera(64, 48, fx=70.0)

    def test_zero_upstream_is_zero(self):
        t = np.array([0.3, -0.2, 5.0])
        d_t = mean2d_backward(np.zeros(2), t, self.camera)
        assert_allclose(d_t, np.zeros(3), atol=0.0)

    def test_on_axis_point_is_separable(self):
        # At t = (0, 0, z) the perspective divide has no cross terms:
        # the x pixel moves only with t_x and the y pixel only with t_y.
        t = np.array([0.0, 0.0, 4.0])
        d_t = mean2d_backward(np.array([1.0, 0.0]), t, self.camera)
        assert d_t[0] != 0.0
        assert_allclose(d_t[1], 0.0, atol=1e-15)
        assert_allclose(d_t[2], 0.0, atol=1e-15)
        d_t = mean2d_backward(np.array([0.0, 1.0]), t, self.camera)
        assert_allclose(d_t[0], 0.0, atol=1e-15)
        assert d_t[1] != 0.0

    def test_matches_jacobian_rows(self):
        # The pixel map's derivative in (t_x, t_y, t_z) is exactly
        # projection_jacobian, so pulling back a basis vector must
        # reproduce the corresponding Jacobian row.
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(2.0, 8.0)])
            jac = projection_jacobian(t, self.camera)
            for row, unit in enumerate(np.eye(2)):
                d_t = mean2d_backward(unit, t, self.camera)
                assert_allclose(d_t, jac[row], rtol=1e-10, atol=1e-12)

    def test_finite_differences_full_4vector(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(25):
            t = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(2.0, 8.0)])
            u = rng.normal(size=2)
            d_t = mean2d_backward(u, t, self.camera)
            assert d_t.shape == (3,)
            for k in range(3):
                tp, tm = t.copy(), t.copy()
                tp[k] += h
                tm[k] -= h
                num = (float(u @ camera_to_pixel(tp, self.camera))
                       - float(u @ camera_to_pixel(tm, self.camera))) / (2 * h)
                fd_check(d_t[k], num, rel=1e-5)

    def test_degenerate_homogeneous_raises(self):
        t = np.array([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            mean2d_backward(np.ones(2), t, self.camera)


class TestCov2DBackward:
    def setup_method(self):
        self.camera = frustum_camera(64, 48, fx=70.0)
        self.rng = np.random.default_rng(9)

    def sample(self):
        t = np.array([self.rng.uniform(-1, 1), self.rng.uniform(-1, 1),
                      self.rng.uniform(2.5, 7.0)])
        sigma = random_cov3d(self.rng)
        jac = projection_jacobian(t, self.camera)
        r_cw = self.camera.rotation
        return t, sigma, jac, r_cw, jac @ r_cw

    def test_zero_upstream_is_zero(self):
        t, sigma, jac, r_cw, t_proj = self.sample()
        d_sigma, d_t, d_rot = cov2d_backward(np.zeros((2, 2)), t_proj, sigma,
                                             jac, r_cw, t)
        assert_allclose(d_sigma, 0.0, atol=0.0)
        assert_allclose(d_t, 0.0, atol=0.0)
        assert_allclose(d_rot, 0.0, atol=0.0)

    def test_identity_transport_passes_gradient_through(self):
        # With T equal to the z-dropping selector, cov2d just reads the
        # upper-left block of sigma, so d_sigma embeds the upstream
        # gradient there and nothing else.
        t_proj = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        sigma = random_cov3d(self.rng)
        g = np.array([[0.4, -0.1], [-0.1, 0.9]])
        d_sigma = t_proj.T @ g @ t_proj
        want = np.zeros((3, 3))
        want[:2, :2] = g
        assert_allclose(d_sigma, want, atol=0.0)

    def test_d_sigma_finite_differences(self):
        h = 1e-6
        for _ in range(20):
            t, sigma, jac, r_cw, t_proj = self.sample()
            g = self.rng.normal(size=(2, 2))
            g = 0.5 * (g + g.T)
            d_sigma, _, _ = cov2d_backward(g, t_proj, sigma, jac, r_cw, t)
            pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
            for (r, c) in pairs:
                sp, sm = sigma.copy(), sigma.copy()
                sp[r, c] += h
                sp[c, r] = sp[r, c]
                sm[r, c] -= h
                sm[c, r] = sm[r, c]
                num = (float(np.sum(g * project_covariance(jac @ r_cw, sp)))
                       - float(np.sum(g * project_covariance(jac @ r_cw, sm)))
                       ) / (2 * h)
                analytic = d_sigma[r, c]
                if r != c:
                    analytic = analytic + d_sigma[c, r]
                fd_check(analytic, num)

    def test_d_t_finite_differences(self):
        h = 1e-6
        for _ in range(20):
            t, sigma, jac, r_cw, t_proj = self.sample()
            g = self.rng.normal(size=(2, 2))
            g = 0.5 * (g + g.T)
            _, d_t, _ = cov2d_backward(g, t_proj, sigma, jac, r_cw, t)

            def loss(t_probe):
                j = projection_jacobian(t_probe, self.camera)
                return float(np.sum(g * project_covariance(j @ r_cw, sigma)))

            for k in range(3):
                tp, tm = t.copy(), t.copy()
                tp[k] += h
                tm[k] -= h
                num = (loss(tp) - loss(tm)) / (2 * h)
                fd_check(d_t[k], num)
            assert d_t.shape == (3,)

    def test_d_rotation_finite_differences(self):
        # The third output is the gradient of the view's rotation block
        # through T = J R_cw, with J held at t.
        h = 1e-6
        for _ in range(10):
            t, sigma, jac, r_cw, t_proj = self.sample()
            g = self.rng.normal(size=(2, 2))
            g = 0.5 * (g + g.T)
            _, _, d_rot = cov2d_backward(g, t_proj, sigma, jac, r_cw, t)
            for r in range(3):
                for c in range(3):
                    rp, rm = r_cw.copy(), r_cw.copy()
                    rp[r, c] += h
                    rm[r, c] -= h
                    num = (float(np.sum(g * project_covariance(jac @ rp, sigma)))
                           - float(np.sum(g * project_covariance(jac @ rm, sigma)))
                           ) / (2 * h)
                    fd_check(d_rot[r, c], num)

    def test_dilation_does_not_leak_into_gradient(self, monkeypatch):
        # The forward dilation shifts cov2d by a constant, so with it at 0
        # and at 2 the central differences in sigma match the one analytic
        # d_sigma. A dilation that depended on sigma would move them apart.
        h = 1e-6
        t, sigma, jac, r_cw, t_proj = self.sample()
        g = np.array([[1.0, 0.2], [0.2, 2.0]])
        d_sigma, _, _ = cov2d_backward(g, t_proj, sigma, jac, r_cw, t)
        for dilation in (0.0, 2.0):
            monkeypatch.setattr(projection, "DILATION", dilation)
            for (r, c) in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]:
                sp, sm = sigma.copy(), sigma.copy()
                sp[r, c] += h
                sp[c, r] = sp[r, c]
                sm[r, c] -= h
                sm[c, r] = sm[r, c]
                num = (float(np.sum(g * project_covariance(t_proj, sp)))
                       - float(np.sum(g * project_covariance(t_proj, sm)))
                       ) / (2 * h)
                analytic = d_sigma[r, c]
                if r != c:
                    analytic = analytic + d_sigma[c, r]
                fd_check(analytic, num)


class TestWorldBackward:
    def test_identity_view_passes_rotation_block(self):
        camera = frustum_camera(32, 32)
        d_t = np.array([0.3, -0.7, 1.1])
        mean = np.array([1.0, 2.0, 3.0])
        d_mean, d_view = world_backward(d_t, camera, mean)
        assert_allclose(d_mean, d_t, atol=0.0)
        assert_allclose(d_view, np.outer([0.3, -0.7, 1.1, 0.0], [1.0, 2.0, 3.0, 1.0]),
                        atol=0.0)

    def test_zero_upstream_is_zero(self):
        camera = frustum_camera(32, 32)
        d_mean, d_view = world_backward(np.zeros(3), camera, np.ones(3))
        assert_allclose(d_mean, 0.0, atol=0.0)
        assert_allclose(d_view, 0.0, atol=0.0)

    def test_finite_differences_mean(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(25):
            camera = rotated_camera(rng, 32, 32)
            mean = rng.uniform(-1.0, 1.0, size=3) + np.array([0, 0, 4.0])
            u = rng.normal(size=3)
            d_mean, _ = world_backward(u, camera, mean)
            for k in range(3):
                mp, mm = mean.copy(), mean.copy()
                mp[k] += h
                mm[k] -= h
                num = (float(u @ world_to_camera(mp, camera))
                       - float(u @ world_to_camera(mm, camera))) / (2 * h)
                fd_check(d_mean[k], num)

    def test_finite_differences_view(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        camera = rotated_camera(rng, 32, 32)
        mean = np.array([0.4, -0.3, 4.5])
        u = rng.normal(size=3)
        _, d_view = world_backward(u, camera, mean)
        for r in range(4):
            for c in range(4):
                view_p = camera.view.copy()
                view_m = camera.view.copy()
                view_p[r, c] += h
                view_m[r, c] -= h
                q = np.array([mean[0], mean[1], mean[2], 1.0])
                num = (float(u @ (view_p @ q)[:3])
                       - float(u @ (view_m @ q)[:3])) / (2 * h)
                fd_check(d_view[r, c], num)


class TestCovariance3DBackward:
    def test_zero_upstream_is_zero(self):
        rot, _ = compose_covariance_3d(np.array([1.0, 0, 0, 0]),
                                       np.ones(3))
        d_quat, d_scale = covariance3d_backward(np.zeros((3, 3)), rot,
                                                np.array([1.0, 0, 0, 0]),
                                                np.ones(3))
        assert_allclose(d_quat, 0.0, atol=0.0)
        assert_allclose(d_scale, 0.0, atol=0.0)

    def test_identity_orientation_unit_scale(self):
        # sigma = diag(s^2): with upstream gradient I the scale gradient
        # is d(s_k^2)/d s_k = 2 s_k = 2, and the orientation is at a
        # stationary point so the quaternion gradient vanishes.
        quat = np.array([1.0, 0.0, 0.0, 0.0])
        scale = np.ones(3)
        rot, _ = compose_covariance_3d(quat, scale)
        d_quat, d_scale = covariance3d_backward(np.eye(3), rot, quat,
                                                scale)
        assert_allclose(d_scale, [2.0, 2.0, 2.0], rtol=1e-14)
        assert_allclose(d_quat, 0.0, atol=1e-14)

    def test_scale_finite_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(30):
            quat = rng.normal(size=4)
            scale = rng.uniform(0.3, 2.0, size=3)
            g = rng.normal(size=(3, 3))
            g = 0.5 * (g + g.T)
            rot, _ = compose_covariance_3d(quat, scale)
            _, d_scale = covariance3d_backward(g, rot, quat, scale)
            for k in range(3):
                sp, sm = scale.copy(), scale.copy()
                sp[k] += h
                sm[k] -= h
                num = (float(np.sum(g * compose_covariance_3d(quat, sp)[1]))
                       - float(np.sum(g * compose_covariance_3d(quat, sm)[1]))
                       ) / (2 * h)
                fd_check(d_scale[k], num)

    def test_quat_finite_differences(self):
        rng = np.random.default_rng(29)
        h = 1e-6
        for _ in range(30):
            quat = rng.normal(size=4)
            if np.linalg.norm(quat) < 0.5:
                quat = quat + np.array([1.0, 0, 0, 0])
            scale = rng.uniform(0.3, 2.0, size=3)
            g = rng.normal(size=(3, 3))
            g = 0.5 * (g + g.T)
            rot, _ = compose_covariance_3d(quat, scale)
            d_quat, _ = covariance3d_backward(g, rot, quat, scale)
            for k in range(4):
                qp, qm = quat.copy(), quat.copy()
                qp[k] += h
                qm[k] -= h
                num = (float(np.sum(g * compose_covariance_3d(qp, scale)[1]))
                       - float(np.sum(g * compose_covariance_3d(qm, scale)[1]))
                       ) / (2 * h)
                fd_check(d_quat[k], num)

    def test_quat_grad_orthogonal_to_direction(self):
        # The covariance only sees q through q / |q|, so the stored
        # gradient has no component along q itself.
        rng = np.random.default_rng(31)
        for _ in range(50):
            quat = rng.normal(size=4) * rng.uniform(0.5, 2.0)
            if np.linalg.norm(quat) < 0.3:
                quat = quat + np.array([1.0, 0, 0, 0])
            scale = rng.uniform(0.3, 2.0, size=3)
            g = rng.normal(size=(3, 3))
            g = 0.5 * (g + g.T)
            rot, _ = compose_covariance_3d(quat, scale)
            d_quat, _ = covariance3d_backward(g, rot, quat, scale)
            q_hat = quat / np.linalg.norm(quat)
            assert abs(float(d_quat @ q_hat)) < 1e-9


class TestSceneBackward:
    def test_zero_image_gradient_zeroes_everything(self):
        rng = np.random.default_rng(37)
        camera = frustum_camera(32, 32)
        scene = frustum_scene(rng, 6, camera)
        res = render(scene, camera, np.zeros(3))
        grads = scene_backward(scene, camera, res, np.zeros((32, 32, 3)))
        assert_allclose(grads.d_mean, 0.0, atol=0.0)
        assert_allclose(grads.d_scale, 0.0, atol=0.0)
        assert_allclose(grads.d_quat, 0.0, atol=0.0)
        assert_allclose(grads.d_opacity, 0.0, atol=0.0)
        assert_allclose(grads.d_color, 0.0, atol=0.0)
        assert_allclose(grads.d_view, 0.0, atol=0.0)

    def test_culled_splat_gets_zero_rows(self):
        camera = frustum_camera(32, 32)
        scene = [
            Gaussian3D(mean=np.array([0.0, 0.0, 4.0]),
                       scale=np.array([0.4, 0.4, 0.4]),
                       quat=np.array([1.0, 0, 0, 0]), opacity=0.7,
                       color=np.array([1.0, 0.5, 0.2])),
            # Behind the camera: projected away entirely.
            Gaussian3D(mean=np.array([0.0, 0.0, -4.0]),
                       scale=np.array([0.4, 0.4, 0.4]),
                       quat=np.array([1.0, 0, 0, 0]), opacity=0.7,
                       color=np.array([0.2, 0.5, 1.0])),
        ]
        res = render(scene, camera, np.zeros(3))
        grads = scene_backward(scene, camera, res, np.ones((32, 32, 3)))
        assert np.any(grads.d_mean[0] != 0.0)
        assert np.any(grads.d_color[0] != 0.0)
        for field in (grads.d_mean[1], grads.d_scale[1], grads.d_quat[1],
                      grads.d_color[1]):
            assert_allclose(field, 0.0, atol=0.0)
        assert grads.d_opacity[1] == 0.0

    def test_offscreen_footprint_gets_zero_grads(self):
        # Projected but touching no pixel with sigma under the cutoff:
        # the tile bins never hand it to a pixel, so every gradient row
        # stays zero even though the splat was not culled.
        camera = Camera(
            view=np.eye(4), fx=24.0, fy=24.0, cx=7.5, cy=7.5,
            width=16, height=16, near=0.1, far=100.0,
        )
        scene = [
            Gaussian3D(mean=np.array([-9.2 * 3.0 / 24.0, 0.0, 3.0]),
                       scale=np.array([0.01, 0.01, 0.01]),
                       quat=np.array([1.0, 0, 0, 0]), opacity=0.9,
                       color=np.array([1.0, 1.0, 1.0])),
        ]
        p = project_gaussian(scene[0], camera)
        assert p is not None
        assert p.mean2d[0, 0] < 0.0
        res = render(scene, camera, np.zeros(3))
        assert_allclose(res.image.channels, 0.0, atol=1e-12)
        grads = scene_backward(scene, camera, res, np.ones((16, 16, 3)))
        assert_allclose(grads.d_mean, 0.0, atol=0.0)
        assert_allclose(grads.d_scale, 0.0, atol=0.0)
        assert_allclose(grads.d_quat, 0.0, atol=0.0)
        assert_allclose(grads.d_view, 0.0, atol=0.0)

    @staticmethod
    def smooth_scene(camera):
        """Two broad isotropic splats whose footprint cutoff rings sit
        outside the frame, so finite differences never cross the skip or
        termination branches anywhere on the image."""
        rot = camera.rotation
        trans = camera.view[:3, 3]
        layout = [((11.5, 11.5), 4.0, 0.6, (0.9, 0.2, 0.1)),
                  ((13.5, 9.5), 6.0, 0.5, (0.1, 0.4, 0.8))]
        scene = []
        for (px, py), depth, opacity, color in layout:
            t_cam = np.array([(px - camera.cx) * depth / camera.fx,
                              (py - camera.cy) * depth / camera.fy, depth])
            mean = rot.T @ (t_cam - trans)
            # Projected std of roughly half the frame width.
            s = 12.0 * depth / camera.fx
            scene.append(Gaussian3D(mean=mean, scale=np.full(3, s),
                                    quat=np.array([1.0, 0, 0, 0]),
                                    opacity=opacity,
                                    color=np.asarray(color)))
        return scene

    def test_mean_grad_finite_differences(self):
        rng = np.random.default_rng(41)
        camera = rotated_camera(rng, 24, 24)
        scene = self.smooth_scene(camera)
        bg = np.array([0.2, 0.3, 0.4])
        res = render(scene, camera, bg)
        weights = rng.normal(size=(24, 24, 3))
        grads = scene_backward(scene, camera, res, weights)
        h = 1e-5
        for i in range(len(scene)):
            for k in range(3):
                def loss(delta):
                    probe = [Gaussian3D(mean=g.mean.copy(), scale=g.scale,
                                        quat=g.quat, opacity=g.opacity,
                                        color=g.color)
                             for g in scene]
                    probe[i].mean[k] += delta
                    out = render(probe, camera, bg)
                    return float(np.sum(weights * out.image.channels))

                num = (loss(h) - loss(-h)) / (2 * h)
                fd_check(grads.d_mean[i, k], num, rel=5e-4, abs_tol=5e-6)

    def test_view_grad_finite_differences(self):
        rng = np.random.default_rng(43)
        camera = rotated_camera(rng, 24, 24)
        scene = self.smooth_scene(camera)
        bg = np.array([0.1, 0.1, 0.1])
        res = render(scene, camera, bg)
        weights = rng.normal(size=(24, 24, 3))
        grads = scene_backward(scene, camera, res, weights)
        h = 1e-5
        for r in range(3):
            for c in range(4):
                def loss(delta):
                    view = camera.view.copy()
                    view[r, c] += delta
                    cam = Camera(view=view, fx=camera.fx, fy=camera.fy,
                                 cx=camera.cx, cy=camera.cy,
                                 width=camera.width, height=camera.height,
                                 near=camera.near, far=camera.far)
                    out = render(scene, cam, bg)
                    return float(np.sum(weights * out.image.channels))

                num = (loss(h) - loss(-h)) / (2 * h)
                fd_check(grads.d_view[r, c], num, rel=5e-4, abs_tol=5e-6)

    def test_view_bottom_row_is_structurally_zero(self):
        rng = np.random.default_rng(47)
        camera = rotated_camera(rng, 24, 24)
        scene = frustum_scene(rng, 5, camera)
        res = render(scene, camera, np.zeros(3))
        grads = scene_backward(scene, camera, res,
                               rng.normal(size=(24, 24, 3)))
        assert_allclose(grads.d_view[3], 0.0, atol=0.0)
