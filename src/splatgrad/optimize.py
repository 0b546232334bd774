"""Image fitting: adjust a fixed set of splats until their rendering
matches a target, using adaptive moment estimation on reparameterized
coordinates (log for scale, logit for opacity) so hard constraints never
need projection.
"""

from dataclasses import dataclass

import numpy as np

from .core import (QUAT_NORM_EPS, SPLAT_FIELDS, Camera, Splats, as_background, as_finite,
                   as_integer)
from .proj_backward import scene_backward
from .projection import pixel_to_world
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


def _check_target(target, camera):
    """target as a float64 array; ValueError naming it unless it has the
    camera's (height, width, 3) shape, is finite and lies in [0, 1]."""
    target = as_finite(target, (camera.height, camera.width, 3), "target")
    if not ((target >= 0.0) & (target <= 1.0)).all():
        raise ValueError("target values must lie in [0, 1]")
    return target


def init_random(config: FitConfig, camera: Camera, target):
    """Seeded starting scene for a fit, as a Splats.

    Splats are backprojected from uniformly drawn pixels at depths in a
    band past the near plane, sized so their footprints roughly tile the
    image area, colored from the target pixel under their center, and
    given opacity 0.5. Each splat draws its pixel and depth in turn.
    A camera that fails Camera.check, a target that is not a finite
    (height, width, 3) array in [0, 1], or a config.n_gaussians or
    config.seed that is negative or not a whole number, raises ValueError
    naming the field before anything is drawn.
    """
    camera.check()
    target = _check_target(target, camera)
    n = as_integer(config.n_gaussians, "config.n_gaussians", 0)
    rng = np.random.default_rng(as_integer(config.seed, "config.seed", 0))
    depth_lo = camera.near + 2.0
    depth_hi = min(camera.far, depth_lo + 4.0)
    if n > 0:
        sigma_px = 0.5 * np.sqrt(camera.width * camera.height / n / np.pi)
    means, scales, colors = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        px = rng.uniform(0.0, camera.width)
        py = rng.uniform(0.0, camera.height)
        depth = rng.uniform(depth_lo, depth_hi)
        means[i] = pixel_to_world(px, py, depth, camera)
        scales[i] = sigma_px * depth / camera.fx
        colors[i] = target[min(camera.height - 1, max(0, int(py))),
                           min(camera.width - 1, max(0, int(px)))]
    return Splats(means=means, scales=scales, quats=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                  opacities=np.full(n, 0.5), colors=colors)


def _adam_step(param, grad, moments, lr, step):
    """param after one adaptive-moment step; moments, its [m, v], are
    updated in place."""
    moments[0] = BETA1 * moments[0] + (1.0 - BETA1) * grad
    moments[1] = BETA2 * moments[1] + (1.0 - BETA2) * grad * grad
    m_hat = moments[0] / (1.0 - BETA1 ** step)
    v_hat = moments[1] / (1.0 - BETA2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _scene(params):
    """The Splats of fit's parameters: scale from its log, opacity from
    its logit."""
    values = dict(params, scale=np.exp(params["scale"]),
                  opacity=1.0 / (1.0 + np.exp(-params["opacity"])))
    return Splats(**{attr: values[name] for name, attr, _ in SPLAT_FIELDS})


def fit(target, camera: Camera, config: FitConfig, init=None):
    """Fit splats to a target image.

    Each iteration renders, forms the summed squared pixel error, runs the
    analytic backward pass, maps gradients into the optimization space
    (scale via d_log_s = s * d_s, opacity via the logit chain), and takes
    one adaptive-moment step per parameter class. Colors are clipped back
    to [0, 1] after each step.

    Each iteration builds one Splats from the parameters and hands it to
    render and scene_backward as it is. The backward pass reads the
    committed pairs the render kept instead of evaluating them again.

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
        is a finite (height, width, 3) array in [0, 1]; ValueError naming
        the field when config.iterations is not a whole number at least 0
        (nor config.n_gaussians or config.seed, when init_random builds
        the start), a learning rate (config.lr_mean, ...) is negative or
        not finite or config.background is not a finite 3-vector, or
        naming the splat and field when init fails Splats.validate.
        FloatingPointError when the loss or a gradient class turns
        non-finite, naming the loss or the class (e.g. d_quat) and the
        iteration, or when a step leaves a quaternion with norm at or
        below QUAT_NORM_EPS, naming the splat and the iteration (e.g.
        gaussians[2].quat norm collapsed at iteration 41).
    """
    camera.check()
    target = _check_target(target, camera)
    iterations = as_integer(config.iterations, "config.iterations", 0)
    rates = {name: getattr(config, "lr_" + name) for name, _, _ in SPLAT_FIELDS}
    for name, value in rates.items():
        if not 0.0 <= value < np.inf:
            raise ValueError(f"config.lr_{name} must be finite and non-negative, got {value}")
    background = as_background(config.background, "config.background")

    start = init_random(config, camera, target) if init is None else Splats.of(init)
    start.validate()
    # The parameters by class, copied, so the fitted scene shares no array
    # with init even when no iteration runs; every update below makes new
    # arrays. Scale is held as its log and opacity as its logit.
    params = {name: getattr(start, attr).copy() for name, attr, _ in SPLAT_FIELDS}
    params["scale"] = np.log(params["scale"])
    p = np.clip(params["opacity"], 1e-4, 1.0 - 1e-4)
    params["opacity"] = np.log(p) - np.log1p(-p)
    moments = {name: [np.zeros_like(p), np.zeros_like(p)] for name, p in params.items()}

    history = []
    for it in range(iterations):
        scene = _scene(params)
        result = render(scene, camera, background)
        resid = result.image.channels - target
        loss = float(np.sum(resid * resid))
        if not np.isfinite(loss):
            raise FloatingPointError(f"loss diverged at iteration {it}")
        history.append(loss)

        grads = scene_backward(scene, camera, result, 2.0 * resid)
        d = {name: getattr(grads, "d_" + name) for name in params}
        for name, value in d.items():
            if not np.isfinite(value).all():
                raise FloatingPointError(f"d_{name} is not finite at iteration {it}")
        d["scale"] = d["scale"] * scene.scales
        d["opacity"] = d["opacity"] * scene.opacities * (1.0 - scene.opacities)
        for name in params:
            params[name] = _adam_step(params[name], d[name], moments[name], rates[name], it + 1)
        collapsed = np.flatnonzero(np.sqrt(np.sum(params["quat"] * params["quat"], axis=1))
                                   <= QUAT_NORM_EPS)
        if collapsed.size:
            raise FloatingPointError(f"gaussians[{collapsed[0]}].quat norm "
                                     f"collapsed at iteration {it}")
        params["color"] = np.clip(params["color"], 0.0, 1.0)
    return _scene(params), history
