"""Finite-difference audit of the analytic gradients.

The audit renders small generated scenes, probes the scalar image loss
through every optimizable coordinate with central differences, and compares
the result against scene_backward. The loss is restricted to pixels that
stay clear of the rasterizer's branch points (the footprint cutoff, the
termination threshold), and scenes are redrawn when depths tie or sit near
the clip planes, so the numeric derivative is trustworthy at the audit
step sizes.

A scene's probes are rendered together: every (scene, camera) pair, a
+h and a -h step on each splat coordinate and on each of the twelve view
entries, is projected in one pass (they share the camera's intrinsics),
then binned and composited PROBE_PIXELS pixels at a time. Each image
equals a render of its probe alone bitwise, and each loss is summed over
its own image, so every probe loss is the one a separate render gives.

_probes alone fixes the probe order. Beside the probes it returns a
coordinate table with one row per probed coordinate: class, report label,
SceneGradients field and index. audit_scene reads the analytic values
through it and compares each class with array operations.
"""

from dataclasses import dataclass, replace

import numpy as np

# compose_covariance_3d is not called here; it stays importable from this
# module because perfbench/spans.py wraps gradcheck.compose_covariance_3d.
from .core import Camera, Gaussian3D, Splats, compose_covariance_3d, quat_to_rotmat  # noqa: F401
from .projection import project_splats
from .proj_backward import scene_backward
from .raster_forward import (SIGMA_CUT, T_MIN, _pack_splats, _pair_alpha, _project_images,
                             _render_batch, render)

AUDIT_CLASSES = ("mean", "scale", "quat", "opacity", "color", "view")
# Probe pixels binned and composited at once: PROBE_PIXELS // (height *
# width) probe images, at least one. Peak memory grows with the pairs a
# batch evaluates at once, up to a PAIR_BUDGET block of about 1.7 MB.
# With every probe projected in one pass, four 20 s perfbench audit pairs
# (BENCH_one_projection.json) measured peak_rss_mb 42.16 MB (median) at
# 2,048 pixels against 41.94 MB one probe image at a time, +0.5%.
PROBE_PIXELS = 1 << 11
# The splat fields probed, in probe order, and their Splats arrays.
PROBE_FIELDS = (("mean", "means"), ("scale", "scales"), ("quat", "quats"),
                ("color", "colors"), ("opacity", "opacities"))
# A coordinate table row; index is into the raveled SceneGradients field.
COORDS = np.dtype([("cls", object), ("label", object), ("field", object),
                   ("index", np.intp)])


def _central(f_hi, f_lo, h):
    """(f(x + h) - f(x - h)) / (2 h) from the probe values f_hi = f(x + h)
    and f_lo = f(x - h), elementwise; FloatingPointError if any of them
    is not finite."""
    f_hi = np.asarray(f_hi, dtype=np.float64)
    f_lo = np.asarray(f_lo, dtype=np.float64)
    if not (np.isfinite(f_hi).all() and np.isfinite(f_lo).all()):
        raise FloatingPointError("probe returned a non-finite value")
    return (f_hi - f_lo) / (2.0 * h)


def finite_difference(probe, params, h=1e-5):
    """Central-difference gradient of a scalar function.

    Args:
        probe: scalar function accepting an array shaped like params.
        params: base point, any shape.
        h: step size.

    Returns:
        Array of params' shape holding (f(x + h e) - f(x - h e)) / (2 h)
        for each coordinate direction e.
    """
    base = np.asarray(params, dtype=np.float64)
    grad = np.empty(base.shape)
    for idx in np.ndindex(base.shape):
        hi = base.copy()
        hi[idx] += h
        lo = base.copy()
        lo[idx] -= h
        grad[idx] = _central(probe(hi), probe(lo), h)
    return grad


@dataclass
class ClassCheck:
    """Comparison outcome for one parameter class."""

    name: str
    max_rel: float
    max_abs: float
    worst_coord: str
    passed: bool


@dataclass
class GradReport:
    """Per-class gradient comparison results plus the overall verdict."""

    classes: dict
    passed: bool
    h: float
    rel_tol: float
    abs_tol: float
    grad_floor: float

    def to_text(self):
        """Line-oriented table, one row per parameter class."""
        lines = [
            f"{'class':<10}{'max_rel':>12}{'max_abs':>12}  {'worst coordinate':<24}status"
        ]
        for name in AUDIT_CLASSES:
            c = self.classes[name]
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<10}{c.max_rel:>12.3e}{c.max_abs:>12.3e}  {c.worst_coord:<24}{status}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "passed": self.passed,
            "h": self.h,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "grad_floor": self.grad_floor,
            "classes": {
                name: {
                    "max_rel": c.max_rel,
                    "max_abs": c.max_abs,
                    "worst_coord": c.worst_coord,
                    "passed": c.passed,
                }
                for name, c in self.classes.items()
            },
        }


def _probes(splats, camera, h):
    """(probes, coords): the (scene, camera) pair of every probe of
    audit_scene, a +h then a -h step on each splat coordinate, splat by
    splat in PROBE_FIELDS order, then on each entry of the view matrix's
    top three rows; and the COORDS table of those coordinates in the same
    order. Every probe keeps camera's intrinsics, so _probe_losses
    projects them all in one pass."""
    probes, coords = [], []
    for i in range(len(splats)):
        for name, attr in PROBE_FIELDS:
            values = getattr(splats, attr)
            for j in np.ndindex(values.shape[1:]):
                at = (i,) + j
                coords.append((name, f"gaussian[{i}].{name}" + "".join(f"[{k}]" for k in j),
                               "d_" + name, np.ravel_multi_index(at, values.shape)))
                for step in (h, -h):
                    moved = values.copy()
                    moved[at] += step
                    probes.append((replace(splats, **{attr: moved}), camera))
    for j in np.ndindex(3, 4):
        index = np.ravel_multi_index(j, (4, 4))
        coords.append(("view", f"view[{index}]", "d_view", index))
        for step in (h, -h):
            view = camera.view.copy()
            view[j] += step
            probes.append((splats, replace(camera, view=view)))
    return probes, np.array(coords, dtype=COORDS)


def _probe_losses(probes, target, weight, background):
    """The masked loss of every (scene, camera) probe, each summed over its
    own image. Every probe is projected in one pass; the images are then
    binned and composited PROBE_PIXELS pixels at a time."""
    height, width = target.shape[:2]
    batch = max(1, PROBE_PIXELS // (height * width))
    proj = _project_images(*zip(*probes))
    losses = np.empty(len(probes))
    for a in range(0, len(probes), batch):
        n = min(batch, len(probes) - a)
        _, (color, *_) = _render_batch(proj.images(a, a + n), width, height, n, background, True)
        diff = color.T.reshape(n, height, width, 3) - target
        weighted = weight[:, :, None] * diff * diff
        losses[a:a + n] = weighted.reshape(n, -1).sum(axis=1)
    return losses


def audit_scene(scene, camera, target, *, background=(0.0, 0.0, 0.0), h=1e-5,
                rel_tol=1e-4, abs_tol=1e-8, grad_floor=1e-7,
                gradient_transform=None, pixel_mask=None):
    """Compare analytic gradients against central differences on one scene.

    The probed scalar is the summed squared pixel error against target.
    Every gaussian coordinate is probed, plus the twelve entries of the
    view matrix's rotation/translation block, each read through _probes'
    coordinate table. Coordinates whose magnitude exceeds grad_floor are
    held to rel_tol relative error; the rest to abs_tol absolute error. A
    class's worst coordinate is the first with the largest error over
    tolerance. A non-finite analytic coordinate fails its class, whose
    max_rel then reads inf and max_abs the nan or inf |analytic - fd|.

    pixel_mask, when given, restricts the loss to the selected pixels.
    The generated audit scenes use it to drop the few pixels that sit
    near a compositing branch point, where the loss is genuinely
    non-differentiable and central differences measure the jump instead
    of the slope.

    gradient_transform, when given, is applied to the analytic
    SceneGradients before comparison. It exists so fault-injection tests
    can corrupt one block and confirm the audit flags that class.

    Returns a GradReport.
    """
    target = np.asarray(target, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if pixel_mask is None:
        weight = np.ones(target.shape[:2])
    else:
        weight = np.asarray(pixel_mask, dtype=np.float64)

    result = render(scene, camera, background)
    d_image = 2.0 * weight[:, :, None] * (result.image.channels - target)
    analytic = scene_backward(scene, camera, result, d_image)
    if gradient_transform is not None:
        analytic = gradient_transform(analytic)

    probes, coords = _probes(Splats.of(scene), camera, h)
    losses = _probe_losses(probes, target, weight, background)
    fd = _central(losses[0::2], losses[1::2], h)
    a = np.empty(len(coords))
    for field in set(coords["field"]):
        rows = coords["field"] == field
        a[rows] = np.ravel(getattr(analytic, field))[coords["index"][rows]]

    diff = np.abs(a - fd)
    mag = np.maximum(np.abs(a), np.abs(fd))
    finite = np.isfinite(a)
    big = finite & (mag > grad_floor)
    rel = np.divide(diff, mag, out=np.zeros(len(a)), where=big)
    ratio = np.where(big, rel / rel_tol, diff / abs_tol)
    # A non-finite analytic coordinate is left out of big, so its relative
    # error was never formed (inf / inf would be a NaN); it fails outright
    # and reads inf instead (the probes are always finite).
    rel[~finite] = ratio[~finite] = np.inf

    classes = {}
    for name in AUDIT_CLASSES:
        rows = coords["cls"] == name
        worst = coords["label"][rows][np.argmax(ratio[rows])] if rows.any() else ""
        classes[name] = ClassCheck(
            name=name, max_rel=float(rel[rows].max(initial=0.0)),
            max_abs=float(diff[rows].max(initial=0.0)),
            worst_coord=worst, passed=bool(np.all(ratio[rows] <= 1.0)),
        )
    return GradReport(
        classes=classes, passed=all(c.passed for c in classes.values()), h=h,
        rel_tol=rel_tol, abs_tol=abs_tol, grad_floor=grad_floor,
    )


def _audit_camera(rng, image_size):
    # A mildly rotated and shifted view. An identity view would make
    # several transpose mistakes in the backward chain invisible.
    axis = rng.normal(size=3)
    axis = axis / np.sqrt(np.dot(axis, axis))
    angle = rng.uniform(0.1, 0.3)
    quat = np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])
    view = np.eye(4)
    view[:3, :3] = quat_to_rotmat(quat)
    view[:3, 3] = rng.uniform(-0.3, 0.3, size=3)
    focal = 1.5 * image_size
    return Camera(
        view=view, fx=focal, fy=focal,
        cx=(image_size - 1) / 2.0, cy=(image_size - 1) / 2.0,
        width=image_size, height=image_size, near=0.1, far=100.0,
    )


def _draw_scene(rng, n, camera):
    # Splats are placed by choosing a pixel and a depth, then backprojecting,
    # so footprints land on the image. Opacity stays in [0.5, 0.9]: high
    # enough that nothing hovers near the ALPHA_MIN skip, low enough that
    # the ALPHA_MAX clamp never engages.
    gaussians = []
    for _ in range(n):
        px = rng.uniform(2.0, camera.width - 2.0)
        py = rng.uniform(2.0, camera.height - 2.0)
        depth = rng.uniform(2.5, 4.5)
        t_cam = np.array(
            [
                (px - 0.5 - camera.cx) * depth / camera.fx,
                (py - 0.5 - camera.cy) * depth / camera.fy,
                depth,
            ]
        )
        mean = camera.rotation.T @ (t_cam - camera.translation)
        scale_px = rng.uniform(1.0, 2.2, size=3)
        quat = rng.normal(size=4)
        quat = quat / np.sqrt(np.dot(quat, quat)) * rng.uniform(0.8, 1.4)
        gaussians.append(
            Gaussian3D(
                mean=mean,
                scale=scale_px * depth / camera.fx,
                quat=quat,
                opacity=rng.uniform(0.5, 0.9),
                color=rng.uniform(0.05, 0.95, size=3),
            )
        )
    background = rng.uniform(0.1, 0.5, size=3)
    return gaussians, background


# _pixel_safety_mask's margins around SIGMA_CUT, around T_MIN (a factor)
# and between splat depths.
SIGMA_MARGIN = 0.05
T_MARGIN = 4.0
DEPTH_MARGIN = 5e-3


def _pixel_safety_mask(scene, camera, background):
    """Pixels whose color stays differentiable under probes up to ~1e-4.

    Returns None to reject the whole scene when a depth sits near the clip
    planes or two depths lie within DEPTH_MARGIN (either could flip the
    global sort). Otherwise returns a boolean (height, width) mask that
    clears any pixel sitting near a branch point: within SIGMA_MARGIN of
    the footprint cutoff for any non-depth-culled splat (image-culled ones
    included, since a probe can re-admit them), or with a transmittance
    step within a factor of T_MARGIN of the termination threshold. Probes
    shift sigma by at most ~1e-2 at step 1e-4, so the margins hold
    fivefold headroom.
    """
    splats = Splats.of(scene)
    # Every splat in front of the camera, image-culled ones included; a
    # splat missing here was depth-culled, which rejects the scene anyway.
    projected = project_splats(splats, camera, keep_offscreen=True)
    depth = projected.depth
    if len(projected) < len(splats) or not np.all(
        (camera.near + 0.5 < depth) & (depth < camera.far - 0.5)
    ):
        return None
    if np.any(np.diff(np.sort(depth)) < DEPTH_MARGIN):
        return None

    h, w = camera.height, camera.width
    n = len(projected)
    xs = np.tile(np.arange(w, dtype=np.float64) + 0.5, h * n)
    ys = np.tile(np.repeat(np.arange(h, dtype=np.float64) + 0.5, w), n)
    sigma = _pair_alpha(xs, ys, _pack_splats(projected, splats),
                        np.repeat(np.arange(n), h * w))[2]
    mask = np.all(np.abs(sigma.reshape(n, h * w) - SIGMA_CUT) > SIGMA_MARGIN,
                  axis=0).reshape(h, w)

    # A pixel is cleared when a transmittance step of its front-to-back
    # walk lands in the band around T_MIN. T never increases, so a walk
    # that stops by stepping below the band stays below it: testing every
    # visible step of the walk without early termination finds exactly
    # the steps the walk reaches. Without early termination every visible
    # pair commits, so those steps are each kept pair's T before (the
    # first is 1, outside the band) and the pixel's final T.
    def near_t_min(t):
        return (T_MIN / T_MARGIN < t) & (t < T_MIN * T_MARGIN)

    res = render(splats, camera, background, early_termination=False)
    cleared = near_t_min(res.aux.final_T.ravel())
    for p in res.pairs:
        cleared[p.pix[near_t_min(p.t_before)]] = True
    return mask & ~cleared.reshape(h, w)


def _pattern_target(width, height):
    # Deterministic trig ramps. Rendering the scene itself would zero every
    # gradient at the start point and make the audit vacuous.
    ys, xs = np.mgrid[0:height, 0:width]
    xs = xs.astype(np.float64)
    ys = ys.astype(np.float64)
    target = np.empty((height, width, 3))
    target[..., 0] = 0.5 + 0.45 * np.sin(0.37 * xs)
    target[..., 1] = 0.5 + 0.45 * np.cos(0.23 * ys)
    target[..., 2] = 0.5 + 0.45 * np.sin(0.17 * (xs + ys))
    return target


def make_audit_scene(seed, image_size=16):
    """Deterministic (scene, camera, target, background, mask) for one run.

    Scenes are redrawn from the seeded stream until depths are safely
    separated and at least half the pixels are branch-safe; the mask marks
    those pixels and the audit loss is restricted to them, so probes at
    the audit step sizes cannot cross any compositing branch. The target
    is a fixed trig pattern rather than a render of the scene, keeping
    gradients O(1) at the start point.
    """
    rng = np.random.default_rng(seed)
    camera = _audit_camera(rng, image_size)
    n = int(rng.integers(5, 11))
    for _ in range(64):
        scene, background = _draw_scene(rng, n, camera)
        mask = _pixel_safety_mask(scene, camera, background)
        if mask is not None and mask.mean() >= 0.5:
            target = _pattern_target(image_size, image_size)
            return scene, camera, target, background, mask
    raise RuntimeError(f"no branch-safe audit scene found for seed {seed}")


def run_audit(seed, *, image_size=None, h=1e-5, rel_tol=1e-4, abs_tol=1e-8,
              grad_floor=1e-7, gradient_transform=None):
    """Generate the audit scene for a seed and run audit_scene on it.

    Even seeds use a 16x16 image, odd seeds 32x32, unless image_size is
    given explicitly.
    """
    if image_size is None:
        image_size = 16 if seed % 2 == 0 else 32
    scene, camera, target, background, mask = make_audit_scene(seed, image_size)
    return audit_scene(
        scene, camera, target, background=background, h=h,
        rel_tol=rel_tol, abs_tol=abs_tol, grad_floor=grad_floor,
        gradient_transform=gradient_transform, pixel_mask=mask,
    )
