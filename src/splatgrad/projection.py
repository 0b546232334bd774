"""Perspective projection of 3D splats onto the image plane.

The camera-space mean, the 3-vector R m + t of the view's top three
rows, goes to pixel coordinates through the pinhole map (fx tx / tz + cx
+ 1/2, fy ty / tz + cy + 1/2). The covariance is mapped by the Jacobian
of that map (a first-order approximation) and then inflated by a small
diagonal dilation so the 2x2 result stays invertible even for sub-pixel
splats.

Each step takes one splat or a stack of them. project_splats runs the
steps once for every splat of a scene and returns a ProjectedSplats, the
one projection record: each kept splat's footprint, conic, opacity and
color, which the rasterizer reads, and its mean, scale and quaternion
and the factors, which the backward pass reads. project_gaussian is its
one-splat case. Every render, audit probe and audit mask projects
through project_splats, which runs Camera.check and Splats.check first.
"""

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .core import (
    SPLAT_FIELDS,
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
class ProjectedSplats:
    """Footprints of the splats that survived culling, one row each.

    Rows keep source order. t_cam (K, 3) is the camera-space point,
    mean2d (K, 2) and cov2d (K, 2, 2) the footprint on the image, conic
    (K, 3) the entries (A, B, C) of its inverse [[A, B], [B, C]], depth
    (K,) the camera-space z used as sort key, radius (K,) a conservative
    integer half-width in pixels covering the 3-sigma extent of cov2d,
    source_index (K,) the row's index in the scene, then, by keyword, the
    splat's values, copied, in SPLAT_FIELDS order: mean (K, 3), scale (K,
    3), quat (K, 4), opacity (K,) and color (K, 3). Only the backward pass
    reads mean, scale, quat and the factors project_splats formed on the
    way: rot (K, 3, 3), the rotation of the quaternion, sigma (K, 3, 3),
    the world covariance, jac (K, 2, 3), the projection's Jacobian at
    t_cam, and t_proj (K, 2, 3) = jac R_cw. Only the audit's probe rows
    (gradcheck._take) leave those None.
    """

    t_cam: np.ndarray
    mean2d: np.ndarray
    cov2d: np.ndarray
    conic: np.ndarray
    depth: np.ndarray
    radius: np.ndarray
    source_index: np.ndarray
    _: KW_ONLY
    mean: np.ndarray = None
    scale: np.ndarray = None
    quat: np.ndarray = None
    opacity: np.ndarray
    color: np.ndarray
    rot: np.ndarray = None
    sigma: np.ndarray = None
    jac: np.ndarray = None
    t_proj: np.ndarray = None

    def __len__(self):
        return self.depth.shape[0]


def world_to_camera(mean, camera: Camera, view=None):
    """Map a world-space point, or a stack (..., 3) of them, to the
    camera-space point R m + t through camera.view, or through view when
    given (one 4x4 matrix or one per point), R and t its top three rows."""
    v = camera.view if view is None else view
    return matvec(v[..., :3, :3], np.asarray(mean, dtype=np.float64)) + v[..., :3, 3]


def camera_to_pixel(t_cam, camera: Camera):
    """Pixel coordinates (fx tx / tz + cx + 1/2, fy ty / tz + cy + 1/2) of
    a camera-space point, or of a stack (..., 3): the supplement's
    perspective matrix (x and y rows 2 fx / width and 2 fy / height), its
    divide by tz and its map of [-1, 1] onto the image, written out.
    projection_jacobian is its derivative."""
    t = np.asarray(t_cam, dtype=np.float64)
    tz = t[..., 2:3]
    reject(np.abs(tz[..., 0]) < 1e-12,
           "degenerate projection: homogeneous component is ~0")
    return (np.array([camera.fx, camera.fy]) * t[..., :2] / tz
            + np.array([camera.cx, camera.cy]) + 0.5)


def pixel_to_world(px, py, depth, camera: Camera):
    """The world point at depth `depth` on pixel (px, py): camera_to_pixel's
    inverse, then world_to_camera's for a rigid view, R^T (t - translation)."""
    t_cam = np.array([(px - 0.5 - camera.cx) * depth / camera.fx,
                      (py - 0.5 - camera.cy) * depth / camera.fy, depth])
    return camera.rotation.T @ (t_cam - camera.translation)


def projection_jacobian(t_cam, camera: Camera):
    """Derivative of the camera-to-pixel map at t_cam, as a 2x3 matrix.

    Args:
        t_cam: camera-space point with positive depth, or a stack
            (..., 3) of them.
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
    ellipse on both axes. Returns int64, with a stack's leading axes.
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
    return np.minimum(np.ceil(3.0 * np.sqrt(lam_max)), 2.0**62).astype(np.int64)


def _conic(cov2d):
    """The conics (A, B, C) = (c, -b, a) / det of a stack (K, 2, 2) of
    symmetric [[a, b], [b, c]] with positive det = ac - b^2, (K, 3):
    [[A, B], [B, C]] is the inverse."""
    a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
    det = a * c - b * b
    return np.stack([c, -b, a], axis=1) / det[:, None]


def project_gaussian(g: Gaussian3D, camera: Camera):
    """project_splats on the one-splat scene [g], checks included.

    Returns its one-row ProjectedSplats, or None when the splat is culled:
    depth outside (near, far), or a footprint that cannot touch any pixel.
    Culling is a normal outcome, not an error.
    """
    projected = project_splats(Splats.of([g]), camera)
    return projected if len(projected) else None


def project_splats(splats, camera: Camera, *, view=None, keep_offscreen=False):
    """Project every splat of a Splats in one pass.

    The steps above run once on stacks, giving t_cam, J, T = J R_cw,
    cov2d, mean2d, radius and the cull decisions for all splats. Splats
    with depth outside (near, far) are culled, and so are splats whose
    footprint misses the image unless keep_offscreen is set. view, an
    (N, 4, 4) stack, replaces camera.view splat by splat.

    Raises ValueError naming the field on a camera that fails
    Camera.check or a scene that fails Splats.check (camera.fx must be
    finite, gaussians[4].scale components must be positive), and naming
    the splat on a 2D covariance that is not finite and positive
    definite. Kept depths exceed near > 0: none is behind the camera.

    Returns:
        ProjectedSplats, rows in source order, with each row's conic and
        a copy of its splat's values and the factors the backward pass
        reads.
    """
    camera.check()
    splats.check()
    t_all = world_to_camera(splats.means, camera, view)
    depth_all = t_all[:, 2]
    # Written as the negation of the cull test, so a NaN depth is kept and
    # fails below by name instead of vanishing.
    src = np.flatnonzero(~((depth_all <= camera.near) | (depth_all >= camera.far)))
    t_cam = t_all[src]
    try:
        rot, sigma = compose_covariance_3d(splats.quats[src], splats.scales[src])
        jac = projection_jacobian(t_cam, camera)
        t_proj = matprod(jac, camera.rotation if view is None else view[src, :3, :3])
        cov2d = project_covariance(t_proj, sigma)
        mean2d = camera_to_pixel(t_cam, camera)
        radius = bounding_radius(cov2d)
    except RowError as exc:
        raise RowError(exc.problem, src[exc.row], exc.field) from None

    if not keep_offscreen:
        keep = ~(
            (mean2d[:, 0] + radius < 0.0)
            | (mean2d[:, 0] - radius >= camera.width)
            | (mean2d[:, 1] + radius < 0.0)
            | (mean2d[:, 1] - radius >= camera.height)
        )
        src, t_cam, mean2d, cov2d, radius, rot, sigma, jac, t_proj = (
            x[keep] for x in (src, t_cam, mean2d, cov2d, radius, rot, sigma, jac, t_proj))
    # bounding_radius has checked that every det is positive.
    return ProjectedSplats(
        t_cam=t_cam, mean2d=mean2d, cov2d=cov2d, conic=_conic(cov2d), depth=t_cam[:, 2],
        radius=radius, source_index=src,
        **{name: getattr(splats, attr)[src] for name, attr, _ in SPLAT_FIELDS},
        rot=rot, sigma=sigma, jac=jac, t_proj=t_proj)
