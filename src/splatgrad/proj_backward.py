"""Backward pass through the projection: screen-space gradients become
gradients for the 3D mean, covariance factors (scale and quaternion), and
the camera's world-to-camera transform.

Matrix-valued chain rules are written with Frobenius contractions: for a
scalar loss, d<X> means the array of sensitivities dL/dX_ij, and the
gradient through a product is read off by pairing terms under Tr(A^T B).

Each op (mean2d_backward, cov2d_backward, world_backward,
covariance3d_backward) takes one splat or a stack of them, written as
broadcast products and sums; scene_backward runs the chain once on the
stack of projected splats.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    QUAT_NORM_EPS,
    Camera,
    Cov3DBundle,
    Splats,
    compose_covariance_3d,
    matprod,
    matvec,
    reject,
)
from .projection import projection_jacobian
from .raster_backward import accumulate_image_backward


@dataclass
class SceneGradients:
    """Loss gradients for every optimizable quantity.

    Per-gaussian arrays are indexed like the scene list; d_view is the
    4x4 gradient of the world-to-camera matrix summed over all splats
    (its bottom row is structurally zero).
    """

    d_mean: np.ndarray
    d_scale: np.ndarray
    d_quat: np.ndarray
    d_opacity: np.ndarray
    d_color: np.ndarray
    d_view: np.ndarray

    @classmethod
    def zeros(cls, n):
        return cls(
            d_mean=np.zeros((n, 3)),
            d_scale=np.zeros((n, 3)),
            d_quat=np.zeros((n, 4)),
            d_opacity=np.zeros(n),
            d_color=np.zeros((n, 3)),
            d_view=np.zeros((4, 4)),
        )


def _t(x):
    return np.swapaxes(x, -1, -2)


def mean2d_backward(d_mean2d, t_cam, camera: Camera):
    """Pull a pixel-coordinate gradient back to the camera-space point.

    Differentiates the pixel mapping through the perspective divide: with
    t' = P t, the x pixel coordinate is (width * t'_x / t'_w + 1) / 2 plus
    a constant, and likewise for y with the height.

    Returns dL/dt as a 4-vector, or a stack (..., 4) for stacked inputs.
    """
    proj = camera.projection_matrix()
    t_prime = matvec(proj, np.asarray(t_cam, dtype=np.float64))
    t_w = t_prime[..., 3]
    reject(np.abs(t_w) < 1e-12,
           "degenerate projection: homogeneous component is ~0")
    d_mean2d = np.asarray(d_mean2d, dtype=np.float64)
    wdx = camera.width * d_mean2d[..., 0]
    hdy = camera.height * d_mean2d[..., 1]
    d_t_prime = np.stack(
        [
            0.5 * wdx / t_w,
            0.5 * hdy / t_w,
            np.zeros_like(t_w),
            -0.5 * (wdx * t_prime[..., 0] + hdy * t_prime[..., 1]) / (t_w * t_w),
        ],
        axis=-1,
    )
    return matvec(proj.T, d_t_prime)


def _cov_transform_grad(d_cov2d, T_proj, sigma):
    # dL/dT for cov2d = T sigma T^T: G T sigma^T + G^T T sigma. Shared by
    # cov2d_backward (continuing to J and t) and scene_backward (continuing
    # to the view rotation block), so the two consumers cannot drift apart.
    return (matprod(matprod(d_cov2d, T_proj), _t(sigma))
            + matprod(matprod(_t(d_cov2d), T_proj), sigma))


def cov2d_backward(d_cov2d, T_proj, sigma, J, R_cw, t_cam, camera: Camera):
    """Pull a 2D-covariance gradient back to the 3D covariance and point.

    T_proj must be the forward pass's J @ R_cw. The gradient reaches t_cam
    only through J's dependence on it; the diagonal dilation added in the
    forward pass is constant and drops out. Every argument but R_cw and
    the camera may be a stack with leading axes.

    Returns (d_sigma 3x3, d_t 4-vector), with the stack's leading axes.
    """
    g = np.asarray(d_cov2d, dtype=np.float64)
    d_sigma = matprod(matprod(_t(T_proj), g), T_proj)
    d_J = matprod(_cov_transform_grad(g, T_proj, sigma), R_cw.T)

    t = np.asarray(t_cam, dtype=np.float64)
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    fx, fy = camera.fx, camera.fy
    tz2 = tz * tz
    tz3 = tz2 * tz
    # Contractions of d_J with dJ/dt_x, dJ/dt_y, dJ/dt_z; J does not
    # depend on the homogeneous component.
    d_t = np.stack(
        [
            -fx / tz2 * d_J[..., 0, 2],
            -fy / tz2 * d_J[..., 1, 2],
            (
                -fx / tz2 * d_J[..., 0, 0]
                + 2.0 * fx * tx / tz3 * d_J[..., 0, 2]
                - fy / tz2 * d_J[..., 1, 1]
                + 2.0 * fy * ty / tz3 * d_J[..., 1, 2]
            ),
            np.zeros_like(tz),
        ],
        axis=-1,
    )
    return d_sigma, d_t


def world_backward(d_t_total, camera: Camera, mean):
    """Distribute a camera-space point gradient to the world mean and view.

    t = view @ [mean, 1], so the view gradient is the outer product of
    d_t with the homogeneous point, and the mean feels d_t through the
    rotation block.

    Returns (d_mean 3-vector, d_view 4x4); for stacked inputs, one of each
    per row.
    """
    d_t = np.asarray(d_t_total, dtype=np.float64)
    m = np.asarray(mean, dtype=np.float64)
    homog = np.concatenate([m, np.ones(m.shape[:-1] + (1,))], axis=-1)
    d_view = d_t[..., :, None] * homog[..., None, :]
    d_mean = matvec(camera.rotation.T, d_t[..., :3])
    return d_mean, d_view


def _rotmat_quat_jacobians(w, x, y, z):
    """dR/d(w, x, y, z) for unit quaternions given by their components:
    shape (..., 4, 3, 3) for components of shape (...)."""
    o = np.zeros_like(w)
    return 2.0 * np.stack(
        [
            o, -z, y, z, o, -x, -y, x, o,
            o, y, z, y, -2.0 * x, -w, z, w, -2.0 * x,
            -2.0 * y, x, w, x, o, z, -w, z, -2.0 * y,
            -2.0 * z, -w, x, w, -2.0 * z, y, x, y, o,
        ],
        axis=-1,
    ).reshape(np.shape(w) + (4, 3, 3))


def covariance3d_backward(d_sigma, bundle: Cov3DBundle, quat, scale):
    """Pull a world-covariance gradient back to scale and quaternion.

    Walks sigma = M M^T with M = R S: the scale gradient reads off the
    diagonal of R^T dM, and the quaternion gradient contracts dR with the
    rotation's per-component Jacobians, then goes through the
    normalization map q / |q| so it is valid for unnormalized storage.
    All inputs may be stacks with matching leading axes.

    Returns (d_quat 4-vector in (w, x, y, z) order, d_scale 3-vector),
    with the stack's leading axes.
    """
    g = np.asarray(d_sigma, dtype=np.float64)
    d_M = matprod(g, bundle.M) + matprod(_t(g), bundle.M)
    d_R = matprod(d_M, _t(bundle.S))
    # The diagonal of R^T dM.
    d_scale = np.sum(bundle.R * d_M, axis=-2)

    q = np.asarray(quat, dtype=np.float64)
    norm = np.sqrt(np.sum(q * q, axis=-1))
    reject(norm <= QUAT_NORM_EPS,
           "quaternion norm is too small to define an orientation")
    q_hat = q / norm[..., None]
    jacs = _rotmat_quat_jacobians(*np.moveaxis(q_hat, -1, 0))
    d_q_hat = np.sum(jacs * d_R[..., None, :, :], axis=(-2, -1))
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
        result: RenderResult from render() on identical inputs.
        d_image: upstream gradient, shape (height, width, 3).

    Returns:
        SceneGradients.
    """
    splats = Splats.of(scene)
    splat = accumulate_image_backward(splats, result, d_image)
    grads = SceneGradients.zeros(len(splats))
    grads.d_color = splat.d_color
    grads.d_opacity = splat.d_opacity

    projected = result.projected
    src = projected.source_index
    t_cam = projected.t_cam
    quats, scales = splats.quats[src], splats.scales[src]
    d_cov2d = splat.d_cov2d[src]
    bundle = compose_covariance_3d(quats, scales)
    jac = projection_jacobian(t_cam, camera)
    t_proj = matprod(jac, camera.rotation)
    d_t_mean = mean2d_backward(splat.d_mean2d[src], t_cam, camera)
    d_sigma, d_t_cov = cov2d_backward(d_cov2d, t_proj, bundle.sigma, jac,
                                      camera.rotation, t_cam, camera)
    d_mean, d_view = world_backward(d_t_mean + d_t_cov, camera, splats.means[src])
    d_quat, d_scale = covariance3d_backward(d_sigma, bundle, quats, scales)
    grads.d_mean[src] = d_mean
    grads.d_scale[src] = d_scale
    grads.d_quat[src] = d_quat
    grads.d_view = np.sum(d_view, axis=0)
    # The view's rotation block also enters the covariance projection
    # directly through T_proj = J R_cw; the point-gradient outer product
    # in world_backward cannot see that path.
    d_T = _cov_transform_grad(d_cov2d, t_proj, bundle.sigma)
    grads.d_view[:3, :3] += np.sum(matprod(_t(jac), d_T), axis=0)
    return grads
