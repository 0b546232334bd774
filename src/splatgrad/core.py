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

from dataclasses import dataclass

import numpy as np

QUAT_NORM_EPS = 1e-12


def _as_f64(value, shape, name):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


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
        self.mean = _as_f64(self.mean, (3,), "mean")
        self.scale = _as_f64(self.scale, (3,), "scale")
        self.quat = _as_f64(self.quat, (4,), "quat")
        self.opacity = float(self.opacity)
        self.color = _as_f64(self.color, (3,), "color")


def _raise_first(bad, field, problem):
    hit = np.flatnonzero(bad)
    if hit.size:
        raise RowError(problem, int(hit[0]), field)


@dataclass
class Splats:
    """A scene as arrays, one row per splat.

    means (N, 3), scales (N, 3), quats (N, 4) in (w, x, y, z) order,
    opacities (N,) and colors (N, 3). validate() is the one domain check
    of a scene.
    """

    means: np.ndarray
    scales: np.ndarray
    quats: np.ndarray
    opacities: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        self.opacities = np.asarray(self.opacities, dtype=np.float64)
        if self.opacities.ndim != 1:
            raise ValueError(
                f"opacities must have shape (N,), got {self.opacities.shape}"
            )
        n = self.opacities.shape[0]
        self.means = _as_f64(self.means, (n, 3), "means")
        self.scales = _as_f64(self.scales, (n, 3), "scales")
        self.quats = _as_f64(self.quats, (n, 4), "quats")
        self.colors = _as_f64(self.colors, (n, 3), "colors")

    def __len__(self):
        return self.opacities.shape[0]

    @classmethod
    def of(cls, scene):
        """scene itself if it is a Splats, else its Gaussian3D rows stacked."""
        if isinstance(scene, cls):
            return scene
        n = len(scene)
        return cls(
            means=np.array([g.mean for g in scene]).reshape(n, 3),
            scales=np.array([g.scale for g in scene]).reshape(n, 3),
            quats=np.array([g.quat for g in scene]).reshape(n, 4),
            opacities=np.array([g.opacity for g in scene], dtype=np.float64),
            colors=np.array([g.color for g in scene]).reshape(n, 3),
        )

    def check(self):
        """Raise ValueError unless every splat can be rendered.

        Every value must be finite, every scale positive and every
        quaternion norm above QUAT_NORM_EPS. The message names the first
        offending splat and field, e.g. gaussians[17].opacity.
        """
        fields = (("mean", self.means), ("scale", self.scales),
                  ("quat", self.quats), ("opacity", self.opacities[:, None]),
                  ("color", self.colors))
        norms = np.sqrt(np.sum(self.quats * self.quats, axis=1))
        if (np.isfinite(np.concatenate([v for _, v in fields], axis=1)).all()
                and (self.scales > 0.0).all() and (norms > QUAT_NORM_EPS).all()):
            return
        for field, values in fields:
            _raise_first(~np.all(np.isfinite(values), axis=1), field,
                         "must be finite")
        _raise_first(np.any(self.scales <= 0.0, axis=1), "scale",
                     "components must be positive")
        _raise_first(norms <= QUAT_NORM_EPS, "quat", "norm is too small")

    def validate(self):
        """check(), then the ranges: opacity and color channels in [0, 1].
        The message names the field, e.g. gaussians[1].opacity must lie in
        [0, 1]."""
        self.check()
        _raise_first((self.opacities < 0.0) | (self.opacities > 1.0),
                     "opacity", "must lie in [0, 1]")
        _raise_first(np.any((self.colors < 0.0) | (self.colors > 1.0), axis=1),
                     "color", "channels must lie in [0, 1]")


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
        self.view = _as_f64(self.view, (4, 4), "view")
        self.fx = float(self.fx)
        self.fy = float(self.fy)
        self.cx = float(self.cx)
        self.cy = float(self.cy)
        self.width = int(self.width)
        self.height = int(self.height)
        self.near = float(self.near)
        self.far = float(self.far)

    @property
    def rotation(self):
        """The 3x3 rotation block of the view matrix."""
        return self.view[:3, :3]

    @property
    def translation(self):
        return self.view[:3, 3]

    def projection_matrix(self):
        """Perspective matrix taking camera space to clip space.

        Focal lengths are rescaled by the image size so the visible frustum
        maps x and y into [-1, 1]; the third row encodes the near/far depth
        remap and the last row copies z into the homogeneous slot.
        """
        n, f = self.near, self.far
        p = np.zeros((4, 4))
        p[0, 0] = 2.0 * self.fx / self.width
        p[1, 1] = 2.0 * self.fy / self.height
        p[2, 2] = (f + n) / (f - n)
        p[2, 3] = -2.0 * f * n / (f - n)
        p[3, 2] = 1.0
        return p

    def validate(self):
        """Raise ValueError unless the camera is rigid and well-formed."""
        if not np.all(np.isfinite(self.view)):
            raise ValueError("view must be finite")
        r = self.rotation
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise ValueError("view rotation block must be orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("view rotation block must have determinant +1")
        if np.max(np.abs(self.view[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-12:
            raise ValueError("view bottom row must be [0, 0, 0, 1]")
        if not 0.0 < self.near < self.far:
            raise ValueError("clip planes must satisfy 0 < near < far")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1 pixel")
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError("fx, fy, cx and cy must be finite")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")


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


def reject(bad, problem):
    """Raise where bad holds: ValueError(problem) for a single splat, or
    RowError naming the first bad row of a stack."""
    bad = np.asarray(bad)
    if not bad.any():
        return
    if bad.ndim == 0:
        raise ValueError(problem)
    raise RowError(problem, int(np.flatnonzero(bad.ravel())[0]))


@dataclass
class Cov3DBundle:
    """World-space covariance with its factors.

    R is the rotation from the quaternion, M = R diag(scale), and sigma =
    M M^T the covariance itself. For stacked inputs every field has the
    stack's leading axes. project_splats keeps R and sigma for the
    backward pass, which forms M again from R and the scale.
    """

    R: np.ndarray
    M: np.ndarray
    sigma: np.ndarray


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
        Cov3DBundle holding R, M and sigma.
    """
    s = np.asarray(scale, dtype=np.float64)
    if s.shape[-1:] != (3,):
        raise ValueError(f"scale must have shape (3,) or (..., 3), got {s.shape}")
    reject(np.any(s <= 0.0, axis=-1), "scale components must be positive")
    rot = quat_to_rotmat(quat)
    m = rot * s[..., None, :]
    mt = np.swapaxes(m, -1, -2)
    # One splat keeps the BLAS product, so its sigma is M @ M.T bitwise; a
    # stack never reaches BLAS.
    sigma = m @ mt if m.ndim == 2 else matprod(m, mt)
    return Cov3DBundle(R=rot, M=m, sigma=sigma)


def frobenius_inner(x, y):
    """Matrix dot product: the sum of elementwise products, Tr(X^T Y)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
