"""Perspective projection of 3D splats onto the image plane.

The camera-space mean goes through the perspective matrix to pixel
coordinates. The covariance is mapped by the Jacobian of that projection
(a first-order approximation) and then inflated by a small diagonal
dilation so the 2x2 result stays invertible even for sub-pixel splats.

Each step takes one splat or a stack of them. project_splats runs the
steps once for every splat of a scene and returns a ProjectedSplats; the
renderer uses it. project_gaussian is its one-splat case.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    Camera,
    Gaussian3D,
    RowError,
    Splats,
    compose_covariance_3d,
    matprod,
    matvec,
    reject,
)

# Added to both diagonal entries of the projected covariance. Keeps the
# footprint at least about one pixel wide and its determinant positive.
DILATION = 0.3


@dataclass
class ProjectedGaussian:
    """Per-view footprint of one splat.

    radius is a conservative integer half-width in pixels covering the
    3-sigma extent of cov2d; depth is the camera-space z used as sort key.
    """

    t_cam: np.ndarray
    mean2d: np.ndarray
    cov2d: np.ndarray
    depth: float
    radius: int
    source_index: int


@dataclass
class ProjectedSplats:
    """Footprints of the splats that survived culling, one row each.

    Rows keep source order. t_cam (K, 4), mean2d (K, 2), cov2d (K, 2, 2),
    depth (K,), radius (K,) and source_index (K,), the row's index in the
    scene, hold what ProjectedGaussian holds for one splat; indexing a row
    returns it as a ProjectedGaussian. The factors project_splats formed
    on the way, which the backward pass reads, follow: rot (K, 3, 3), the
    rotation of the splat's quaternion, sigma (K, 3, 3), its world
    covariance, jac (K, 2, 3), the projection's Jacobian at t_cam, and
    t_proj (K, 2, 3) = jac R_cw. of() leaves them None.
    """

    t_cam: np.ndarray
    mean2d: np.ndarray
    cov2d: np.ndarray
    depth: np.ndarray
    radius: np.ndarray
    source_index: np.ndarray
    rot: np.ndarray = None
    sigma: np.ndarray = None
    jac: np.ndarray = None
    t_proj: np.ndarray = None

    def __len__(self):
        return self.depth.shape[0]

    def __getitem__(self, k):
        return ProjectedGaussian(
            t_cam=self.t_cam[k].copy(),
            mean2d=self.mean2d[k].copy(),
            cov2d=self.cov2d[k].copy(),
            depth=float(self.depth[k]),
            radius=int(self.radius[k]),
            source_index=int(self.source_index[k]),
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @classmethod
    def of(cls, projected):
        """projected itself if it is a ProjectedSplats, else its
        ProjectedGaussian entries stacked."""
        if isinstance(projected, cls):
            return projected
        n = len(projected)
        return cls(
            t_cam=np.array([p.t_cam for p in projected], dtype=np.float64).reshape(n, 4),
            mean2d=np.array([p.mean2d for p in projected], dtype=np.float64).reshape(n, 2),
            cov2d=np.array([p.cov2d for p in projected], dtype=np.float64).reshape(n, 2, 2),
            depth=np.array([p.depth for p in projected], dtype=np.float64),
            radius=np.array([p.radius for p in projected], dtype=np.int64),
            source_index=np.array([p.source_index for p in projected], dtype=np.int64),
        )


def world_to_camera(mean, camera: Camera, view=None):
    """Map a world-space point, or a stack (..., 3) of them, to
    homogeneous camera space through camera.view, or through view when
    given (one 4x4 matrix or one per point); w is 1 for a rigid view."""
    m = np.asarray(mean, dtype=np.float64)
    homog = np.concatenate([m, np.ones(m.shape[:-1] + (1,))], axis=-1)
    return matvec(camera.view if view is None else view, homog)


def camera_to_pixel(t_cam, camera: Camera):
    """Pixel coordinates of a camera-space point, or of a stack (..., 4).

    Applies the perspective matrix, divides by the homogeneous component,
    and maps the [-1, 1] range onto the image with the principal point
    added in pixels.
    """
    t_prime = matvec(camera.projection_matrix(), np.asarray(t_cam, dtype=np.float64))
    t_w = t_prime[..., 3:]
    reject(np.abs(t_w[..., 0]) < 1e-12,
           "degenerate projection: homogeneous component is ~0")
    size = np.array([camera.width, camera.height], dtype=np.float64)
    centre = np.array([camera.cx, camera.cy])
    return (size * t_prime[..., :2] / t_w + 1.0) / 2.0 + centre


def projection_jacobian(t_cam, camera: Camera):
    """Derivative of the camera-to-pixel map at t_cam, as a 2x3 matrix.

    Args:
        t_cam: homogeneous camera-space point with positive depth, or a
            stack (..., 4) of them.
        camera: supplies the focal lengths.

    Returns:
        [[fx/tz, 0, -fx*tx/tz^2], [0, fy/tz, -fy*ty/tz^2]], with the
        stack's leading axes in front.
    """
    t = np.asarray(t_cam, dtype=np.float64)
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    reject(tz <= 0.0, "point is behind the camera")
    jac = np.zeros(t.shape[:-1] + (2, 3))
    jac[..., 0, 0] = camera.fx / tz
    jac[..., 0, 2] = -camera.fx * tx / (tz * tz)
    jac[..., 1, 1] = camera.fy / tz
    jac[..., 1, 2] = -camera.fy * ty / (tz * tz)
    return jac


def project_covariance(t_proj, sigma):
    """Push a world covariance through the linearized projection.

    Computes T sigma T^T for T = J R_cw, the projection's Jacobian times
    the view's rotation block, and adds the diagonal dilation. The
    backward pass treats the dilation as a constant, so gradients flow
    through this map unchanged. T and sigma may be stacks (..., 2, 3) and
    (..., 3, 3).
    """
    cov2d = matprod(matprod(t_proj, sigma), np.swapaxes(t_proj, -1, -2))
    cov2d[..., 0, 0] += DILATION
    cov2d[..., 1, 1] += DILATION
    return cov2d


def bounding_radius(cov2d):
    """Integer pixel half-width covering the 3-sigma ellipse of cov2d.

    Uses the closed-form larger eigenvalue of the symmetric 2x2 matrix and
    rounds up, so the square [mean - r, mean + r] contains the whole
    ellipse on both axes. A stack (..., 2, 2) gives an int64 array.
    """
    cov2d = np.asarray(cov2d, dtype=np.float64)
    a, b, c = cov2d[..., 0, 0], cov2d[..., 0, 1], cov2d[..., 1, 1]
    det = a * c - b * b
    mid = 0.5 * (a + c)
    lam_max = mid + np.sqrt(0.25 * (a - c) * (a - c) + b * b)
    reject(~((det > 0.0) & (a + c > 0.0) & np.isfinite(lam_max)),
           "2d covariance must be finite and positive definite")
    # A radius past 2**62 pixels covers any image; the cap keeps the cast
    # to int64 exact.
    radius = np.minimum(np.ceil(3.0 * np.sqrt(lam_max)), 2.0**62).astype(np.int64)
    return int(radius) if radius.ndim == 0 else radius


def project_gaussian(g: Gaussian3D, camera: Camera, source_index=0):
    """Run the full projection pipeline for one splat: project_splats on a
    one-splat scene.

    Returns a ProjectedGaussian, or None when the splat is culled: depth
    outside (near, far), or a footprint that cannot touch any pixel.
    Culling is a normal outcome, not an error.
    """
    projected = project_splats(Splats.of([g]), camera)
    if not len(projected):
        return None
    row = projected[0]
    row.source_index = source_index
    return row


def project_splats(splats, camera: Camera, *, view=None, keep_offscreen=False):
    """Project every splat of a Splats in one pass.

    The batched project_gaussian: the same ops run once on stacks, giving
    t_cam, J, T = J R_cw, cov2d, mean2d, radius and the cull decisions
    for all splats. Splats with depth outside (near, far) are culled, and
    so are splats whose footprint misses the image unless keep_offscreen
    is set. view, an (N, 4, 4) stack, replaces camera.view splat by splat.

    Raises ValueError naming the splat, e.g. gaussians[4], where
    project_gaussian raises: a point behind the camera or a degenerate
    projection (possible only when near <= 0), or a 2D covariance that is
    not finite and positive definite.

    Returns:
        ProjectedSplats, rows in source order, with the factors the
        backward pass reads.
    """
    t_all = world_to_camera(splats.means, camera, view)
    depth_all = t_all[:, 2]
    # Written as the negation of the cull test, so a NaN depth is kept and
    # fails below by name instead of vanishing.
    src = np.flatnonzero(~((depth_all <= camera.near) | (depth_all >= camera.far)))
    t_cam = t_all[src]
    try:
        bundle = compose_covariance_3d(splats.quats[src], splats.scales[src])
        jac = projection_jacobian(t_cam, camera)
        t_proj = matprod(jac, camera.rotation if view is None else view[src, :3, :3])
        cov2d = project_covariance(t_proj, bundle.sigma)
        mean2d = camera_to_pixel(t_cam, camera)
        radius = bounding_radius(cov2d)
    except RowError as exc:
        raise RowError(exc.problem, src[exc.row], exc.field) from None

    keep = slice(None)
    if not keep_offscreen:
        keep = ~(
            (mean2d[:, 0] + radius < 0.0)
            | (mean2d[:, 0] - radius >= camera.width)
            | (mean2d[:, 1] + radius < 0.0)
            | (mean2d[:, 1] - radius >= camera.height)
        )
    return ProjectedSplats(
        t_cam=t_cam[keep],
        mean2d=mean2d[keep],
        cov2d=cov2d[keep],
        depth=t_cam[keep, 2],
        radius=radius[keep],
        source_index=src[keep],
        rot=bundle.R[keep],
        sigma=bundle.sigma[keep],
        jac=jac[keep],
        t_proj=t_proj[keep],
    )
