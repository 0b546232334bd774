"""Shared value types and the orientation/scale covariance kernels.

Everything downstream (projection, rasterization, gradients) builds on the
types here. All math is in 64-bit floats. Quaternions are stored in
(w, x, y, z) order and may be unnormalized; they are normalized on use so
optimizer steps need no constraint handling.

A scene is one Splats: an array per field, one row per splat. The
builders, the scene parser and fit return it. Gaussian3D is one row, a
record a caller may build a scene from as a list: the public entry
points stack such a list once with Splats.of, and everything inside
them takes the Splats. The geometric ops here and downstream take one
splat or a stack with leading axes, and the stacked forms are written
as broadcast products and sums (matprod, matvec), never as BLAS matrix
products, so their results cannot depend on the BLAS thread count. A
failed check on a stack, Splats.check included, raises RowError naming
the row as a splat; a caller that stacked several scenes renames it by
scene index.
"""

import math
from dataclasses import dataclass

import numpy as np

QUAT_NORM_EPS = 1e-12
# The splat format, in scene-file order: each field's row name (Gaussian3D
# field, scene-file key, name in messages, and d_<name> in SceneGradients),
# its Splats array and one splat's shape.
SPLAT_FIELDS = (("mean", "means", (3,)), ("scale", "scales", (3,)), ("quat", "quats", (4,)),
                ("opacity", "opacities", ()), ("color", "colors", (3,)))


def _as_f64(value, shape, name):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def as_finite(value, shape, name):
    """value as a float64 array; ValueError naming it unless it has shape
    and every entry is finite."""
    arr = _as_f64(value, shape, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} of shape {arr.shape} must be finite")
    return arr


def as_integer(value, name):
    """int(value); ValueError naming it unless value is a finite whole
    number, so 16.0 and np.int64(16) pass and 20.9 does not."""
    if not (math.isfinite(value) and int(value) == value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


@dataclass
class Gaussian3D:
    """One splat as a row record: position, per-axis extent, orientation,
    opacity and color. Splats.of stacks a list of them into a scene."""

    mean: np.ndarray
    scale: np.ndarray
    quat: np.ndarray
    opacity: float
    color: np.ndarray

    def __post_init__(self):
        for name, _, shape in SPLAT_FIELDS:
            setattr(self, name, _as_f64(getattr(self, name), shape, name))
        self.opacity = float(self.opacity)


@dataclass
class Splats:
    """A scene as arrays, one row per splat: an (N,) + shape array per
    SPLAT_FIELDS entry, quats in (w, x, y, z) order. validate() is the
    one domain check of a scene.
    """

    means: np.ndarray
    scales: np.ndarray
    quats: np.ndarray
    opacities: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        for _, attr, _ in SPLAT_FIELDS:
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=np.float64))
        self._check_shapes()

    def _check_shapes(self):
        """ValueError naming the first array that is not a float64 array of
        its shape, N = len(opacities)."""
        n = np.shape(self.opacities)
        if len(n) != 1:
            raise ValueError(f"opacities must have shape (N,), got {n}")
        for _, attr, shape in SPLAT_FIELDS:
            value = getattr(self, attr)
            kind = value.dtype if isinstance(value, np.ndarray) else type(value).__name__
            if kind != np.float64:
                raise ValueError(f"{attr} must be a float64 array, got {kind}")
            if value.shape != n + shape:
                raise ValueError(f"{attr} must have shape {n + shape}, got {value.shape}")

    def __len__(self):
        return self.opacities.shape[0]

    @classmethod
    def of(cls, scene):
        """scene itself if it is a Splats, else its Gaussian3D rows stacked;
        RowError names a row field of the wrong shape, e.g. gaussians[1].mean."""
        if isinstance(scene, cls):
            return scene
        for name, _, shape in SPLAT_FIELDS:
            got = [np.shape(getattr(g, name)) for g in scene]
            if got.count(shape) < len(got):
                i = next(i for i, s in enumerate(got) if s != shape)
                raise RowError(f"must have shape {shape}, got {got[i]}", i, name)
        return cls(**{attr: np.array([getattr(g, name) for g in scene], dtype=np.float64)
                      .reshape((len(scene),) + shape) for name, attr, shape in SPLAT_FIELDS})

    def check(self):
        """Raise ValueError unless every splat can be rendered.

        Every field must still be a float64 array of its shape, every
        value be finite, every scale positive and every quaternion norm
        above QUAT_NORM_EPS. The message names the first offending array,
        or splat and field, e.g. quats or gaussians[17].opacity.
        """
        self._check_shapes()
        fields = [(name, getattr(self, attr).reshape(len(self), math.prod(shape)))
                  for name, attr, shape in SPLAT_FIELDS]
        norms = np.sqrt(np.sum(self.quats * self.quats, axis=1))
        if (np.isfinite(np.concatenate([v for _, v in fields], axis=1)).all()
                and (self.scales > 0.0).all() and (norms > QUAT_NORM_EPS).all()):
            return
        for field, values in fields:
            reject(~np.all(np.isfinite(values), axis=1), "must be finite", field)
        reject(np.any(self.scales <= 0.0, axis=1), "components must be positive", "scale")
        reject(norms <= QUAT_NORM_EPS, "norm is too small", "quat")

    def validate(self):
        """check(), then the ranges: opacity and color channels in [0, 1].
        The message names the field, e.g. gaussians[1].opacity must lie in
        [0, 1]."""
        self.check()
        reject((self.opacities < 0.0) | (self.opacities > 1.0), "must lie in [0, 1]", "opacity")
        reject(np.any((self.colors < 0.0) | (self.colors > 1.0), axis=1),
               "channels must lie in [0, 1]", "color")


@dataclass
class Camera:
    """Pinhole camera: a rigid world-to-camera transform plus intrinsics.

    view is the 4x4 world-to-camera matrix. fx, fy, cx, cy are in pixels;
    near and far are positive clip depths in world units.
    """

    view: np.ndarray
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float
    far: float

    def __post_init__(self):
        self.view = _as_f64(self.view, (4, 4), "camera.view")
        for name in ("fx", "fy", "cx", "cy", "near", "far"):
            setattr(self, name, float(getattr(self, name)))
        for name in ("width", "height"):
            setattr(self, name, as_integer(getattr(self, name), f"camera.{name}"))

    @property
    def rotation(self):
        """The 3x3 rotation block of the view matrix."""
        return self.view[:3, :3]

    @property
    def translation(self):
        return self.view[:3, 3]

    def check(self):
        """Raise ValueError unless the camera can render: a finite view,
        finite fx, fy, cx and cy, positive focal lengths, a pixel each way
        and 0 < near < far. The audit renders non-rigid stepped views. The
        message names the field, e.g. camera.fx must be finite."""
        if not np.isfinite(self.view).all():
            raise ValueError("camera.view must be finite")
        for name in ("fx", "fy", "cx", "cy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"camera.{name} must be finite")
        for name in ("fx", "fy"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"camera.{name} must be positive")
        for name in ("width", "height"):
            if getattr(self, name) < 1:
                raise ValueError(f"camera.{name} must be at least 1")
        if not self.near > 0.0:
            raise ValueError("camera.near must be positive")
        if not self.far > self.near:
            raise ValueError("camera.far must exceed camera.near")

    def validate(self):
        """check(), then rigidity: an orthonormal rotation block with
        determinant +1 and the bottom row [0, 0, 0, 1]."""
        self.check()
        r = self.rotation
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise ValueError("camera.view rotation block must be orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("camera.view rotation block must have determinant +1")
        if np.max(np.abs(self.view[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-12:
            raise ValueError("camera.view bottom row must be [0, 0, 0, 1]")


def matprod(a, b):
    """Matrix product over the last two axes, broadcasting the others.

    Written as broadcast products added in index order, so a stack of
    small products never reaches BLAS and the result does not depend on
    the thread count. The adds start from +0.0, as np.sum over the shared
    index does, so the result is bitwise that sum's, signed zeros
    included.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    out += 0.0
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def matvec(a, v):
    """Matrix-vector product over the last axes, broadcasting the others,
    as products added in index order from +0.0, like matprod."""
    out = a[..., 0] * v[..., None, 0]
    out += 0.0
    for k in range(1, a.shape[-1]):
        out += a[..., k] * v[..., None, k]
    return out


class RowError(ValueError):
    """A check failed on row `row` of a stack of splats, in `field` when
    known; the message names the row as splat gaussians[row]."""

    def __init__(self, problem, row, field=None):
        super().__init__(f"gaussians[{row}]" + (f".{field} " if field else ": ") + problem)
        self.problem, self.row, self.field = problem, row, field


def reject(bad, problem, field=None):
    """Raise where bad holds: ValueError(problem) for a single splat, or
    RowError naming the first bad row of a stack, and field when given."""
    bad = np.asarray(bad)
    if not bad.any():
        return
    if bad.ndim == 0:
        raise ValueError(problem)
    raise RowError(problem, int(np.flatnonzero(bad.ravel())[0]), field)


# Entry k of a rotation matrix, row-major, is I_k + 2 (SA_k p[A_k] + SB_k p[B_k])
# where p holds the 16 products of unit-quaternion components, index
# 4 * i + j for components i, j in (w, x, y, z) order. For example R[0, 0]
# is 1 - 2 (yy + zz) and R[0, 1] is 2 (xy - wz).
_ROT_A = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])
_ROT_B = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])
_ROT_SA = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
_ROT_SB = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0])


def quat_to_rotmat(quat):
    """Rotation matrix for a quaternion given in (w, x, y, z) order.

    The input is normalized first, so any positive rescaling of the same
    quaternion produces the identical matrix.

    Args:
        quat: length-4 array-like with nonzero norm, or a stack (..., 4).

    Returns:
        3x3 orthonormal matrix with determinant +1, with the stack's
        leading axes in front.
    """
    q = np.asarray(quat, dtype=np.float64)
    if q.shape[-1:] != (4,):
        raise ValueError(f"quat must have shape (4,) or (..., 4), got {q.shape}")
    norm = np.sqrt(np.sum(q * q, axis=-1))
    reject(norm <= QUAT_NORM_EPS,
           "quaternion norm is too small to define an orientation")
    q = q / norm[..., None]
    p = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,))
    r = 2.0 * (_ROT_SA * p[..., _ROT_A] + _ROT_SB * p[..., _ROT_B])
    return (np.eye(3).ravel() + r).reshape(q.shape[:-1] + (3, 3))


def compose_covariance_3d(quat, scale):
    """Build the world-space covariance of a splat from orientation and scale.

    The covariance factors as M M^T with M = R diag(scale), which keeps it
    symmetric positive semi-definite for any inputs.

    Args:
        quat: length-4 orientation, (w, x, y, z), nonzero norm; or a
            stack (..., 4) of them.
        scale: length-3 per-axis extents, strictly positive; or a stack
            (..., 3) matching quat.

    Returns:
        (R, sigma): the rotation of the quaternion and the covariance,
        with the stack's leading axes in front.
    """
    s = np.asarray(scale, dtype=np.float64)
    if s.shape[-1:] != (3,):
        raise ValueError(f"scale must have shape (3,) or (..., 3), got {s.shape}")
    reject(np.any(s <= 0.0, axis=-1), "scale components must be positive")
    rot = quat_to_rotmat(quat)
    m = rot * s[..., None, :]
    return rot, matprod(m, np.swapaxes(m, -1, -2))
