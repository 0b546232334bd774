"""Backward pass through the projection: screen-space gradients become
gradients for the 3D mean, covariance factors (scale and quaternion), and
the camera's world-to-camera transform.

Matrix-valued chain rules are written with Frobenius contractions: for a
scalar loss, d<X> means the array of sensitivities dL/dX_ij, and the
gradient through a product is read off by pairing terms under Tr(A^T B).

Each op (mean2d_backward, cov2d_backward, world_backward,
covariance3d_backward) takes one splat or a stack of them, written as
broadcast products and sums on its operands' structure: J's two zeros,
the symmetry of sigma and of the 2D covariance gradient, the diagonal
scale matrix. Camera-space point gradients are 3-vectors, as the
points are. scene_backward runs the chain once on the stack of
projected splats, reading the factors the projection kept (R, sigma, J
and T = J R_cw) instead of forming them again.
"""

from dataclasses import dataclass, fields

import numpy as np

from .core import QUAT_NORM_EPS, SPLAT_FIELDS, Camera, Splats, matprod, matvec, reject
# compose_covariance_3d is not called here; it stays importable from this
# module because perfbench/spans.py wraps proj_backward.compose_covariance_3d.
from .core import compose_covariance_3d  # noqa: F401
from .raster_backward import accumulate_image_backward


@dataclass
class SceneGradients:
    """Loss gradients for every optimizable quantity.

    Per-gaussian arrays have one row per splat of the scene's Splats, in
    its order; d_view is the 4x4 gradient of the world-to-camera matrix
    summed over all splats (its bottom row is structurally zero).
    """

    d_mean: np.ndarray
    d_scale: np.ndarray
    d_quat: np.ndarray
    d_opacity: np.ndarray
    d_color: np.ndarray
    d_view: np.ndarray

    @classmethod
    def zeros(cls, n):
        return cls(**{"d_" + name: np.zeros((n,) + shape) for name, _, shape in SPLAT_FIELDS},
                   d_view=np.zeros((4, 4)))


def _t(x):
    return np.swapaxes(x, -1, -2)


def mean2d_backward(d_mean2d, t_cam, camera: Camera):
    """Pull a pixel-coordinate gradient back to the camera-space point.

    The perspective divide's homogeneous component is tz, so the pixel
    coordinates are fx tx / tz and fy ty / tz plus constants.

    Returns dL/dt as a 3-vector, or a stack (..., 3) for stacked inputs.
    """
    t = np.asarray(t_cam, dtype=np.float64)
    tz = t[..., 2]
    reject(np.abs(tz) < 1e-12,
           "degenerate projection: homogeneous component is ~0")
    d = np.asarray(d_mean2d, dtype=np.float64)
    dx, dy = camera.fx * d[..., 0] / tz, camera.fy * d[..., 1] / tz
    return np.stack([dx, dy, -(dx * t[..., 0] + dy * t[..., 1]) / tz], axis=-1)


def cov2d_backward(d_cov2d, T_proj, sigma, J, R_cw, t_cam):
    """Pull a 2D-covariance gradient back to the 3D covariance, the point
    and the view's rotation block.

    T_proj must be J @ R_cw, with J the projection's Jacobian at t_cam,
    and d_cov2d and sigma symmetric, so that dL/dT = G T sigma^T + G^T T
    sigma is twice either half. The gradient reaches t_cam only through
    J; the diagonal dilation added in the forward pass is constant and
    drops out. Every argument but R_cw may be a stack with leading axes.

    Returns (d_sigma 3x3, d_t 3-vector, d_R_cw 3x3), with the stack's
    leading axes.
    """
    g = np.asarray(d_cov2d, dtype=np.float64)
    g_T = matprod(g, T_proj)
    d_sigma = matprod(_t(T_proj), g_T)
    half = matprod(g_T, sigma)
    d_T = half + half
    d_J = matprod(d_T, R_cw.T)
    # J's nonzero entries are fx/tz, -fx tx/tz^2, fy/tz and -fy ty/tz^2,
    # so each one's derivative in t is an entry of J over -tz (twice the
    # entry for the tz^-2 terms).
    j00, j02, j11, j12 = J[..., 0, 0], J[..., 0, 2], J[..., 1, 1], J[..., 1, 2]
    tz = np.asarray(t_cam, dtype=np.float64)[..., 2:3]
    d_t = np.stack([j00 * d_J[..., 0, 2], j11 * d_J[..., 1, 2],
                    j00 * d_J[..., 0, 0] + j11 * d_J[..., 1, 1]
                    + 2.0 * (j02 * d_J[..., 0, 2] + j12 * d_J[..., 1, 2])], axis=-1) / -tz
    return d_sigma, d_t, matprod(_t(J), d_T)


def world_backward(d_t_total, camera: Camera, mean):
    """Distribute a camera-space point gradient to the world mean and view.

    t = R mean + t_view from the view's top three rows, so those rows'
    gradient is the outer product of d_t with [mean, 1], and the mean
    feels d_t through the rotation block. The view's bottom row does not
    reach t, so its gradient is zero.

    Returns (d_mean 3-vector, d_view 4x4); for stacked inputs, d_mean per
    row and d_view summed over the rows, which share the view.
    """
    d_t = np.asarray(d_t_total, dtype=np.float64)
    m = np.asarray(mean, dtype=np.float64)
    rows = tuple(range(d_t.ndim - 1))
    d_view = np.zeros((4, 4))
    d_view[:3, :3] = np.sum(d_t[..., :, None] * m[..., None, :], axis=rows)
    d_view[:3, 3] = np.sum(d_t, axis=rows)
    return matvec(camera.rotation.T, d_t), d_view


def covariance3d_backward(d_sigma, rot, quat, scale):
    """Pull a world-covariance gradient back to scale and quaternion.

    Walks sigma = M M^T with M = R diag(scale), R = rot the rotation of
    quat: the scale gradient reads off the diagonal of R^T dM, and the
    quaternion gradient contracts dR with R's derivative along each
    unit-quaternion component, then goes through the normalization map
    q / |q| so it is valid for unnormalized storage. All inputs may be
    stacks with matching leading axes.

    Returns (d_quat 4-vector in (w, x, y, z) order, d_scale 3-vector),
    with the stack's leading axes.
    """
    g = np.asarray(d_sigma, dtype=np.float64)
    s = np.asarray(scale, dtype=np.float64)[..., None, :]
    d_M = matprod(g + _t(g), rot * s)
    d_R = d_M * s
    # The diagonal of R^T dM.
    d_scale = np.sum(rot * d_M, axis=-2)

    q = np.asarray(quat, dtype=np.float64)
    norm = np.sqrt(np.sum(q * q, axis=-1))
    reject(norm <= QUAT_NORM_EPS,
           "quaternion norm is too small to define an orientation")
    q_hat = q / norm[..., None]
    w, v = q_hat[..., :1], q_hat[..., 1:]
    # For R = I + 2 (w [v]x + [v]x^2), dR contracts with dR/dw through
    # the axial vector a of dR - dR^T, and with dR/dv through a, the
    # symmetric part dR + dR^T and the trace.
    a = np.stack([d_R[..., 2, 1] - d_R[..., 1, 2], d_R[..., 0, 2] - d_R[..., 2, 0],
                  d_R[..., 1, 0] - d_R[..., 0, 1]], axis=-1)
    trace = d_R[..., 0, 0] + d_R[..., 1, 1] + d_R[..., 2, 2]
    d_q_hat = 2.0 * np.concatenate(
        [np.sum(v * a, axis=-1, keepdims=True),
         w * a + matvec(d_R + _t(d_R), v) - 2.0 * trace[..., None] * v], axis=-1)
    along = np.sum(q_hat * d_q_hat, axis=-1)
    d_quat = (d_q_hat - q_hat * along[..., None]) / norm[..., None]
    return d_quat, d_scale


def scene_backward(scene, camera: Camera, result, d_image):
    """Full backward pass: image gradient to every scene parameter.

    Runs the compositing backward pass, then, for every non-culled splat
    at once, joins the two camera-point contributions (one through the
    projected mean, one through the projected covariance) and continues
    to the world mean, scale, quaternion and view matrix. The ops above
    run on stacks over the projected splats. Culled splats keep exactly
    zero gradients.

    Args:
        scene: Splats, or a list of Gaussian3D, as rendered.
        camera: the render's camera.
        result: RenderResult from render() on identical inputs; the
            chain reads the splat values and factors its projection kept.
        d_image: upstream gradient, shape (height, width, 3).

    Returns:
        SceneGradients.

    Raises:
        ValueError naming the first camera field that is not the
        render's (camera.fx differs from the render's), and as
        accumulate_image_backward does.
    """
    for f in fields(Camera):
        given, rendered = getattr(camera, f.name), getattr(result.camera, f.name)
        if not (np.array_equal(given, rendered) if f.name == "view" else given == rendered):
            raise ValueError(f"camera.{f.name} differs from the render's")
    splats = Splats.of(scene)
    splat = accumulate_image_backward(splats, result, d_image)
    grads = SceneGradients.zeros(len(splats))
    grads.d_color = splat.d_color
    grads.d_opacity = splat.d_opacity

    p = result.projected
    src = p.source_index
    d_t_mean = mean2d_backward(splat.d_mean2d[src], p.t_cam, camera)
    d_sigma, d_t_cov, d_rot = cov2d_backward(splat.d_cov2d[src], p.t_proj, p.sigma, p.jac,
                                             camera.rotation, p.t_cam)
    d_mean, d_view = world_backward(d_t_mean + d_t_cov, camera, p.mean)
    d_quat, d_scale = covariance3d_backward(d_sigma, p.rot, p.quat, p.scale)
    grads.d_mean[src] = d_mean
    grads.d_scale[src] = d_scale
    grads.d_quat[src] = d_quat
    # The view's rotation block also enters the covariance projection
    # directly through T_proj = J R_cw; the point-gradient outer product
    # in world_backward cannot see that path.
    d_view[:3, :3] += np.sum(d_rot, axis=0)
    grads.d_view = d_view
    return grads
