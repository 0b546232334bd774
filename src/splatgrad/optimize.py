"""Image fitting: adjust a fixed set of splats until their rendering
matches a target, using adaptive moment estimation on reparameterized
coordinates (log for scale, logit for opacity) so hard constraints never
need projection.
"""

from dataclasses import dataclass

import numpy as np

from .core import QUAT_NORM_EPS, Camera, Splats, as_finite
from .proj_backward import scene_backward
from .raster_forward import render


# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class FitConfig:
    """Knobs for fit(): the splat count, the iteration count, a learning
    rate per parameter class (scale and opacity rates apply in log and
    logit space respectively), the init_random seed and the background
    color."""

    n_gaussians: int = 100
    iterations: int = 1000
    lr_mean: float = 2e-3
    lr_scale: float = 5e-3
    lr_quat: float = 2e-3
    lr_opacity: float = 2e-2
    lr_color: float = 1e-2
    seed: int = 0
    background: tuple = (0.0, 0.0, 0.0)


def init_random(config: FitConfig, camera: Camera, target):
    """Seeded starting scene for a fit, as a Splats.

    Splats are backprojected from uniformly drawn pixels at depths in a
    band past the near plane, sized so their footprints roughly tile the
    image area, colored from the target pixel under their center, and
    given opacity 0.5. Each splat draws its pixel and depth in turn.
    A camera that fails Camera.check, or a negative config.n_gaussians,
    raises ValueError naming the field.
    """
    camera.check()
    n = config.n_gaussians
    if n < 0:
        raise ValueError(f"config.n_gaussians must be at least 0, got {n}")
    rng = np.random.default_rng(config.seed)
    target = np.asarray(target, dtype=np.float64)
    depth_lo = camera.near + 2.0
    depth_hi = min(camera.far, depth_lo + 4.0)
    if n > 0:
        sigma_px = 0.5 * np.sqrt(camera.width * camera.height / n / np.pi)
    means, scales, colors = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        px = rng.uniform(0.0, camera.width)
        py = rng.uniform(0.0, camera.height)
        depth = rng.uniform(depth_lo, depth_hi)
        t_cam = np.array([(px - 0.5 - camera.cx) * depth / camera.fx,
                          (py - 0.5 - camera.cy) * depth / camera.fy, depth])
        means[i] = camera.rotation.T @ (t_cam - camera.translation)
        scales[i] = sigma_px * depth / camera.fx
        colors[i] = target[min(camera.height - 1, max(0, int(py))),
                           min(camera.width - 1, max(0, int(px)))]
    return Splats(means=means, scales=scales, quats=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                  opacities=np.full(n, 0.5), colors=colors)


@dataclass
class _AdamState:
    m: np.ndarray
    v: np.ndarray


def _adam_step(param, grad, state, lr, step):
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** step)
    v_hat = state.v / (1.0 - BETA2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _logit(p):
    return np.log(p) - np.log1p(-p)


def fit(target, camera: Camera, config: FitConfig, init=None):
    """Fit splats to a target image.

    Each iteration renders, forms the summed squared pixel error, runs the
    analytic backward pass, maps gradients into the optimization space
    (scale via d_log_s = s * d_s, opacity via the logit chain), and takes
    one adaptive-moment step per parameter class. Colors are clipped back
    to [0, 1] after each step.

    The parameters live in one Splats for the whole fit; each iteration
    hands it to render and scene_backward as it is. The backward pass
    reads the committed pairs the render kept instead of evaluating them
    again.

    Args:
        target: (height, width, 3) array in [0, 1] matching the camera.
        camera: fixed viewpoint; its parameters are not optimized.
        config: FitConfig.
        init: optional starting scene (Splats or list of Gaussian3D);
            defaults to init_random(config, ...). It must pass
            Splats.validate; opacities are clipped into (0, 1) for the
            logit map.

    Returns:
        (scene, loss_history): the fitted scene as a Splats, and one loss
        value per iteration, measured before that iteration's update.

    Raises:
        ValueError naming the field when the camera fails Camera.check,
        checked before anything else; ValueError naming target unless it
        has the camera's (height, width, 3) shape and is finite;
        ValueError naming the field when config.iterations or a learning
        rate (config.lr_mean, ...) is negative, a learning rate is not
        finite, or config.n_gaussians when init_random builds the start, or
        naming the splat and field when init fails Splats.validate.
        FloatingPointError when the loss or a gradient class turns
        non-finite, naming the loss or the class (e.g. d_quat) and the
        iteration, or when a step leaves a quaternion with norm at or
        below QUAT_NORM_EPS, naming the splat and the iteration (e.g.
        gaussians[2].quat norm collapsed at iteration 41).
    """
    camera.check()
    target = as_finite(target, (camera.height, camera.width, 3), "target")
    if config.iterations < 0:
        raise ValueError(f"config.iterations must be at least 0, got {config.iterations}")
    for name in ("lr_mean", "lr_scale", "lr_quat", "lr_opacity", "lr_color"):
        value = getattr(config, name)
        if not 0.0 <= value < np.inf:
            raise ValueError(f"config.{name} must be finite and non-negative, got {value}")
    background = np.asarray(config.background, dtype=np.float64)

    start = init_random(config, camera, target) if init is None else Splats.of(init)
    start.validate()
    # Copies, so the fitted scene shares no array with init even when no
    # iteration runs; every update below makes new arrays.
    means = start.means.copy()
    log_scales = np.log(start.scales)
    quats = start.quats.copy()
    logits = _logit(np.clip(start.opacities, 1e-4, 1.0 - 1e-4))
    colors = start.colors.copy()

    adam = {
        name: _AdamState(np.zeros_like(p), np.zeros_like(p))
        for name, p in (
            ("mean", means), ("scale", log_scales), ("quat", quats),
            ("opacity", logits), ("color", colors),
        )
    }

    history = []
    for it in range(config.iterations):
        scales = np.exp(log_scales)
        opacities = 1.0 / (1.0 + np.exp(-logits))
        scene = Splats(means=means, scales=scales, quats=quats,
                       opacities=opacities, colors=colors)
        result = render(scene, camera, background)
        resid = result.image.channels - target
        loss = float(np.sum(resid * resid))
        if not np.isfinite(loss):
            raise FloatingPointError(f"loss diverged at iteration {it}")
        history.append(loss)

        grads = scene_backward(scene, camera, result, 2.0 * resid)
        for name in adam:
            if not np.isfinite(getattr(grads, "d_" + name)).all():
                raise FloatingPointError(
                    f"d_{name} is not finite at iteration {it}")
        step = it + 1
        means = _adam_step(means, grads.d_mean, adam["mean"], config.lr_mean, step)
        log_scales = _adam_step(log_scales, grads.d_scale * scales, adam["scale"],
                                config.lr_scale, step)
        quats = _adam_step(quats, grads.d_quat, adam["quat"], config.lr_quat, step)
        collapsed = np.flatnonzero(np.sqrt(np.sum(quats * quats, axis=1))
                                   <= QUAT_NORM_EPS)
        if collapsed.size:
            raise FloatingPointError(f"gaussians[{collapsed[0]}].quat norm "
                                     f"collapsed at iteration {it}")
        logits = _adam_step(logits,
                            grads.d_opacity * opacities * (1.0 - opacities),
                            adam["opacity"], config.lr_opacity, step)
        colors = _adam_step(colors, grads.d_color, adam["color"], config.lr_color, step)
        colors = np.clip(colors, 0.0, 1.0)

    final = Splats(means=means, scales=np.exp(log_scales), quats=quats,
                   opacities=1.0 / (1.0 + np.exp(-logits)), colors=colors)
    return final, history
