"""Tests for the value types and covariance kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    Camera,
    Gaussian3D,
    Splats,
    compose_covariance_3d,
    frobenius_inner,
    quat_to_rotmat,
)


def axis_angle_rotmat(axis, angle):
    """Independent rotation oracle via the Rodrigues formula."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_quat(rng):
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 0.1:
        q = rng.normal(size=4)
    return q


class TestQuatToRotmat:
    def test_identity_quaternion(self):
        assert_allclose(quat_to_rotmat([1.0, 0.0, 0.0, 0.0]), np.eye(3))

    def test_half_turn_about_x(self):
        assert_allclose(
            quat_to_rotmat([0.0, 1.0, 0.0, 0.0]),
            np.diag([1.0, -1.0, -1.0]),
            atol=1e-15,
        )

    def test_quarter_turn_about_y(self):
        # pi/2 about y, checked against the axis-angle oracle and the
        # expected permutation-like matrix.
        got = quat_to_rotmat([0.7071068, 0.0, 0.7071068, 0.0])
        assert_allclose(got, axis_angle_rotmat([0, 1, 0], np.pi / 2), atol=1e-7)
        assert_allclose(
            got,
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
            atol=1e-7,
        )

    def test_matches_axis_angle_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis = axis / np.linalg.norm(axis)
            angle = rng.uniform(-np.pi, np.pi)
            quat = np.concatenate(
                [[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis]
            )
            assert_allclose(
                quat_to_rotmat(quat),
                axis_angle_rotmat(axis, angle),
                atol=1e-12,
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            q = random_quat(rng)
            k = rng.uniform(0.1, 10.0)
            assert_allclose(quat_to_rotmat(k * q), quat_to_rotmat(q), atol=1e-12)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            r = quat_to_rotmat(random_quat(rng))
            assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_degenerate_norm_raises(self):
        with pytest.raises(ValueError):
            quat_to_rotmat([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            quat_to_rotmat([1e-13, 0.0, 0.0, 0.0])


class TestComposeCovariance:
    def test_identity(self):
        bundle = compose_covariance_3d([1, 0, 0, 0], [1.0, 1.0, 1.0])
        assert_allclose(bundle.sigma, np.eye(3))

    def test_diagonal_squares(self):
        bundle = compose_covariance_3d([1, 0, 0, 0], [2.0, 3.0, 4.0])
        assert_allclose(bundle.sigma, np.diag([4.0, 9.0, 16.0]))

    def test_rotated_ellipsoid(self):
        # A quarter turn about y carries the x-elongated ellipsoid onto z.
        quat = [0.7071068, 0.0, 0.7071068, 0.0]
        bundle = compose_covariance_3d(quat, [2.0, 1.0, 1.0])
        assert_allclose(bundle.sigma, np.diag([1.0, 1.0, 4.0]), atol=1e-7)
        r = quat_to_rotmat(quat)
        assert_allclose(bundle.sigma, r @ np.diag([4.0, 1.0, 1.0]) @ r.T, atol=1e-12)

    def test_matches_sandwich_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            q = random_quat(rng)
            s = rng.uniform(0.1, 3.0, size=3)
            bundle = compose_covariance_3d(q, s)
            r = quat_to_rotmat(q)
            assert_allclose(bundle.sigma, r @ np.diag(s * s) @ r.T, atol=1e-12)

    def test_factors_are_consistent(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            q = random_quat(rng)
            s = rng.uniform(0.1, 3.0, size=3)
            bundle = compose_covariance_3d(q, s)
            assert_allclose(bundle.M, bundle.R @ np.diag(s))
            assert np.array_equal(bundle.sigma, bundle.M @ bundle.M.T)
            assert np.max(np.abs(bundle.sigma - bundle.sigma.T)) <= 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            bundle = compose_covariance_3d(
                random_quat(rng), rng.uniform(1e-3, 5.0, size=3)
            )
            assert np.linalg.eigvalsh(bundle.sigma).min() >= -1e-12

    def test_nonpositive_scale_raises(self):
        with pytest.raises(ValueError):
            compose_covariance_3d([1, 0, 0, 0], [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            compose_covariance_3d([1, 0, 0, 0], [1.0, 0.0, 1.0])


class TestFrobeniusInner:
    def test_trace_selection(self):
        assert frobenius_inner(np.eye(2), [[3.0, 5.0], [7.0, 11.0]]) == 14.0

    def test_sum_of_squares(self):
        x = [[1.0, 2.0], [3.0, 4.0]]
        assert frobenius_inner(x, x) == 30.0

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.normal(size=(3, 3))
            y = rng.normal(size=(3, 3))
            assert_allclose(frobenius_inner(x, y), np.trace(x.T @ y), rtol=1e-12)

    def test_algebraic_identities(self):
        # symmetry, transpose invariance, the two product rotations, and
        # additivity, on random matrices.
        rng = np.random.default_rng(32)
        for _ in range(200):
            x = rng.normal(size=(3, 3))
            y = rng.normal(size=(3, 3))
            z = rng.normal(size=(3, 3))
            assert_allclose(frobenius_inner(x, y), frobenius_inner(y, x), rtol=1e-9)
            assert_allclose(
                frobenius_inner(x, y), frobenius_inner(x.T, y.T), rtol=1e-9
            )
            lhs = frobenius_inner(x, y @ z)
            assert_allclose(lhs, frobenius_inner(y.T @ x, z), rtol=1e-9)
            assert_allclose(lhs, frobenius_inner(x @ z.T, y), rtol=1e-9)
            assert_allclose(
                frobenius_inner(x, y + z),
                frobenius_inner(x, y) + frobenius_inner(x, z),
                rtol=1e-9,
            )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            frobenius_inner(np.eye(2), np.eye(3))


class TestGaussianValidation:
    """Splats.validate on a scene of one Gaussian3D row."""

    def test_valid_gaussian_passes(self):
        g = Gaussian3D(
            mean=[0, 0, 3], scale=[0.1, 0.2, 0.3], quat=[1, 0, 0, 0],
            opacity=0.5, color=[0.1, 0.5, 0.9],
        )
        Splats.of([g]).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": [0.1, -0.2, 0.3]},
            {"scale": [0.0, 0.2, 0.3]},
            {"quat": [0, 0, 0, 0]},
            {"opacity": 1.5},
            {"opacity": -0.1},
            {"color": [0.1, 1.5, 0.9]},
            {"mean": [np.inf, 0, 3]},
            {"quat": [np.nan, 0, 0, 1]},
            {"quat": [1, np.inf, 0, 0]},
            {"color": [0.1, np.nan, 0.9]},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        base = dict(
            mean=[0, 0, 3], scale=[0.1, 0.2, 0.3], quat=[1, 0, 0, 0],
            opacity=0.5, color=[0.1, 0.5, 0.9],
        )
        base.update(kwargs)
        field = next(iter(kwargs))
        with pytest.raises(ValueError, match=rf"^gaussians\[0\]\.{field} "):
            Splats.of([Gaussian3D(**base)]).validate()

    def test_bad_shape_raises_on_construction(self):
        with pytest.raises(ValueError):
            Gaussian3D(
                mean=[0, 0], scale=[1, 1, 1], quat=[1, 0, 0, 0],
                opacity=0.5, color=[0, 0, 0],
            )


class TestCameraValidation:
    def make_camera(self, **overrides):
        fields = dict(
            view=np.eye(4), fx=32.0, fy=32.0, cx=15.5, cy=15.5,
            width=32, height=32, near=0.1, far=100.0,
        )
        fields.update(overrides)
        return Camera(**fields)

    def test_valid_camera_passes(self):
        self.make_camera().validate()

    def test_skewed_rotation_rejected(self):
        view = np.eye(4)
        view[0, 1] = 0.01
        with pytest.raises(ValueError):
            self.make_camera(view=view).validate()

    def test_reflection_rejected(self):
        view = np.eye(4)
        view[0, 0] = -1.0
        with pytest.raises(ValueError):
            self.make_camera(view=view).validate()

    def test_bad_bottom_row_rejected(self):
        view = np.eye(4)
        view[3, 0] = 1e-6
        with pytest.raises(ValueError):
            self.make_camera(view=view).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"near": 0.0},
            {"near": 5.0, "far": 1.0},
            {"width": 0},
            {"fx": 0.0},
            {"fy": -2.0},
            {"fx": np.nan},
            {"fy": np.inf},
            {"cx": np.nan},
            {"cy": -np.inf},
        ],
    )
    def test_bad_scalars_rejected(self, overrides):
        with pytest.raises(ValueError):
            self.make_camera(**overrides).validate()
