"""Tests for the value types and covariance kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    Camera,
    Gaussian3D,
    Splats,
    compose_covariance_3d,
    quat_to_rotmat,
    render,
)
from splatgrad.core import matprod

from helpers import frustum_camera


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
        _, sigma = compose_covariance_3d([1, 0, 0, 0], [1.0, 1.0, 1.0])
        assert_allclose(sigma, np.eye(3))

    def test_diagonal_squares(self):
        _, sigma = compose_covariance_3d([1, 0, 0, 0], [2.0, 3.0, 4.0])
        assert_allclose(sigma, np.diag([4.0, 9.0, 16.0]))

    def test_rotated_ellipsoid(self):
        # A quarter turn about y carries the x-elongated ellipsoid onto z.
        quat = [0.7071068, 0.0, 0.7071068, 0.0]
        _, sigma = compose_covariance_3d(quat, [2.0, 1.0, 1.0])
        assert_allclose(sigma, np.diag([1.0, 1.0, 4.0]), atol=1e-7)
        r = quat_to_rotmat(quat)
        assert_allclose(sigma, r @ np.diag([4.0, 1.0, 1.0]) @ r.T, atol=1e-12)

    def test_matches_sandwich_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            q = random_quat(rng)
            s = rng.uniform(0.1, 3.0, size=3)
            _, sigma = compose_covariance_3d(q, s)
            r = quat_to_rotmat(q)
            assert_allclose(sigma, r @ np.diag(s * s) @ r.T, atol=1e-12)

    def test_factors_are_consistent(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            q = random_quat(rng)
            s = rng.uniform(0.1, 3.0, size=3)
            rot, sigma = compose_covariance_3d(q, s)
            m = rot * s[..., None, :]
            assert_allclose(m, rot @ np.diag(s))
            assert np.array_equal(sigma, matprod(m, m.T))
            assert np.max(np.abs(sigma - sigma.T)) <= 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            _, sigma = compose_covariance_3d(
                random_quat(rng), rng.uniform(1e-3, 5.0, size=3)
            )
            assert np.linalg.eigvalsh(sigma).min() >= -1e-12

    def test_nonpositive_scale_raises(self):
        with pytest.raises(ValueError):
            compose_covariance_3d([1, 0, 0, 0], [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            compose_covariance_3d([1, 0, 0, 0], [1.0, 0.0, 1.0])


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


class TestShapesAfterConstruction:
    """A scene changed in place after construction is checked again: a
    field of the wrong shape is named before anything indexes it."""

    def scene(self):
        return [Gaussian3D(mean=[0.0, 0.0, 3.0 + i], scale=[0.3] * 3, quat=[1, 0, 0, 0],
                           opacity=0.5, color=[0.2, 0.4, 0.6]) for i in range(2)]

    def test_replaced_array(self):
        splats = Splats.of(self.scene())
        splats.means = np.zeros((2, 2))
        with pytest.raises(ValueError, match=r"^means must have shape \(2, 3\), got \(2, 2\)$"):
            render(splats, frustum_camera(16, 16), np.zeros(3))

    @pytest.mark.parametrize("field,value,kind", [
        ("quats", [[1.0, 0.0, 0.0, 0.0]] * 2, "list"),
        ("means", np.array([["0", "0", "3"]] * 2), "<U1"),
    ], ids=["list", "string_array"])
    def test_replaced_by_non_float_array(self, field, value, kind):
        # Named before any arithmetic reads the field.
        splats = Splats.of(self.scene())
        setattr(splats, field, value)
        with pytest.raises(ValueError, match=rf"^{field} must be a float64 array, got {kind}$"):
            render(splats, frustum_camera(16, 16), np.zeros(3))

    def test_replaced_row_count(self):
        # The row count is len(opacities), the scene's length, so the
        # first array that disagrees with it is named.
        splats = Splats.of(self.scene())
        splats.opacities = np.full(3, 0.5)
        with pytest.raises(ValueError, match=r"^means must have shape \(3, 3\), got \(2, 3\)$"):
            render(splats, frustum_camera(16, 16), np.zeros(3))

    @pytest.mark.parametrize("field,value,shape", [
        ("mean", np.array([1.0, 2.0]), r"\(3,\), got \(2,\)"),
        ("quat", np.zeros((2, 2)), r"\(4,\), got \(2, 2\)"),
        ("opacity", np.array([0.5]), r"\(\), got \(1,\)"),
    ])
    def test_reassigned_row_field(self, field, value, shape):
        scene = self.scene()
        setattr(scene[1], field, value)
        with pytest.raises(ValueError,
                           match=rf"^gaussians\[1\]\.{field} must have shape {shape}$"):
            render(scene, frustum_camera(16, 16), np.zeros(3))


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

    def test_check_leaves_rigidity_to_validate(self):
        # render calls check() only: the audit renders stepped views.
        view = np.eye(4)
        view[0, 1] = 0.01
        self.make_camera(view=view).check()
        with pytest.raises(ValueError, match="orthonormal"):
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
