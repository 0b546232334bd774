"""Finite-difference audit of the analytic gradients.

The audit renders small generated scenes, probes the scalar image loss
through every optimizable coordinate with central differences, and compares
the result against scene_backward. The loss is restricted to pixels that
stay clear of the rasterizer's branch points (the footprint cutoff, the
termination threshold), and scenes are redrawn when depths tie or sit near
the clip planes, so the numeric derivative is trustworthy at the audit
step sizes.

A scene's probes are rendered together. The probe pairs, a +h and a -h
step on each splat coordinate and on each of the twelve view entries,
form a table over distinct rows: the scene once, one stepped row per
splat-coordinate probe, and n rows per view probe, each with its view.
Each distinct row is projected once, in one pass (they share the
camera's intrinsics), and gathered into the probe images. A step on
splat i changes only the pixels inside splat i's footprint
(raster_forward._footprints), so each pair gets a window: the box around
splat i's footprints in its two probe images, clipped to the image (the
whole image for a view entry, empty when both probes cull the splat).
Rows whose footprint misses their pair's window are dropped before
binning. Only the windows are binned and composited, PROBE_PIXELS window
pixels at a time, and each window pixel equals the same pixel of a
render of its probe alone bitwise.

Each pair's loss difference is summed pixel by pixel over its window as
w (I+ - I-) (I+ + I- - 2 T). Subtracting the two whole-image losses
instead leaves a rounding floor near eps * L / h, which fails a
coordinate whose gradient is small beside the loss.

_probes alone fixes the probe order. Beside the probes it returns a
coordinate table with one row per probed coordinate: class, report label,
SceneGradients field and index. audit_scene reads the analytic values
through it and compares each class with array operations.
"""

from dataclasses import dataclass

import numpy as np

from .core import SPLAT_FIELDS, Camera, Splats, as_finite, quat_to_rotmat
# compose_covariance_3d is not called here; it stays importable from this
# module because perfbench/spans.py wraps gradcheck.compose_covariance_3d.
from .core import compose_covariance_3d  # noqa: F401
from .projection import ProjectedSplats, pixel_to_world, project_splats
from .proj_backward import scene_backward
from .raster_forward import (SIGMA_CUT, T_MIN, _footprints, _pair_alpha, _project_stack,
                             _render_batch, render)

AUDIT_CLASSES = tuple(name for name, _, _ in SPLAT_FIELDS) + ("view",)
# Probe window pixels binned and composited at once: whole probe pairs,
# both images of each pair's window, up to PROBE_PIXELS, at least one
# pair. A batch holds its per-pixel state (48 bytes a pixel), its kept
# pairs (28 bytes each, about four a window pixel) and one PAIR_BUDGET
# block of about 1.1 MB, and nothing of it outlives its slice. At
# 2^14, audit seeds 0-19 take 52 batches (358 at 2^11) and peak under
# tracemalloc at 4.88 MB (seed 2; 2.97 MB at 2^11); 2^15 and 2^16 were no
# faster and peaked near 9 MB. perfbench figures: BENCH_probe_batches.json.
PROBE_PIXELS = 1 << 14
# A coordinate table row; index is into the raveled SceneGradients field.
COORDS = np.dtype([("cls", object), ("label", object), ("field", object),
                   ("index", np.intp)])
# Coordinates whose analytic or numeric magnitude exceeds this are held to
# the relative tolerance; the rest to the absolute one.
GRAD_FLOOR = 1e-7


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
    """Every probe of audit_scene, as a table over distinct rows: a +h
    then a -h step on each splat coordinate, splat by splat in
    SPLAT_FIELDS order, then on each entry of the view matrix's top three
    rows. Probe pair c is probes 2c and 2c + 1.

    Returns (stack, views, table, probed, coords). stack is a Splats of
    the distinct rows, each seen through its view in views (R, 4, 4): the
    scene (rows 0 to n - 1, n = len(splats)), then probe k's stepped row
    n + k for each splat-coordinate probe, then n rows, the scene seen
    through the probe's view, for each view probe. Row j of probe k's
    scene is stack row table[k, j] ((2C, n)). probed (C,) is the splat
    pair c moves (-1 for a view entry), and coords the COORDS table, one
    row per pair."""
    n = len(splats)
    # The coordinates of one splat, in probe order.
    row = [(name, attr, j) for name, attr, shape in SPLAT_FIELDS for j in np.ndindex(shape)]
    coords = [(name, f"gaussian[{i}].{name}" + "".join(f"[{k}]" for k in j), "d_" + name,
               np.ravel_multi_index((i,) + j, getattr(splats, attr).shape))
              for i in range(n) for name, attr, j in row]
    coords += [("view", f"view[{q}]", "d_view", q) for q in range(12)]
    stepped = 2 * n * len(row)
    arrays = {attr: np.concatenate([a, a.repeat(2 * len(row), axis=0),
                                    np.tile(a, (24,) + (1,) * (a.ndim - 1))])
              for attr, a in ((attr, getattr(splats, attr)) for _, attr, _ in SPLAT_FIELDS)}
    step = np.array([h, -h])
    for s, (_, attr, j) in enumerate(row):
        pair = np.arange(n) * len(row) + s
        arrays[attr][(n + 2 * pair[:, None] + [0, 1],) + j] += step
    views = np.repeat(camera.view[None], n + stepped + 24 * n, axis=0)
    q = np.arange(12)[:, None, None]
    views[n + stepped + n * (2 * q + [[0], [1]]) + np.arange(n), q // 4, q % 4] += step[:, None]
    table = np.tile(np.arange(n), (stepped + 24, 1))
    k = np.arange(stepped)
    table[k, k // (2 * len(row))] = n + k
    table[stepped:] += n + stepped + n * np.arange(24)[:, None]
    probed = np.concatenate([np.repeat(np.arange(n), len(row)), np.full(12, -1)])
    return Splats(**arrays), views, table, probed, np.array(coords, dtype=COORDS)


def _take(projected, rows):
    """The rows of a ProjectedSplats at the indices rows, in their order.
    The rows taken are probe rows, composited but never differentiated, so
    the factors the backward pass reads stay behind (None)."""
    p = projected
    return ProjectedSplats(*(np.take(x, rows, axis=0) for x in (
        p.t_cam, p.mean2d, p.cov2d, p.conic, p.depth, p.radius, p.source_index)),
        opacity=np.take(p.opacity, rows, axis=0), color=np.take(p.color, rows, axis=0))


def _probe_rows(stack, views, table, probed, camera):
    """Project _probes' distinct rows once and gather them into the probe
    images. Returns (projected, image, footprints, windows).

    windows (C, 4) holds each pair's window (x0, y0, x1, y1): the box
    bounding the footprints of the probed splat in the pair's two images,
    clipped to the image; empty (zero area) when both probes cull it. View
    pairs get the whole image. Outside its window a pair's two images are
    bitwise equal. projected holds the rows of the 2C probe images, image k
    being probe k, less those whose footprint misses their pair's window:
    they cover no window pixel, and each image keeps its rows' order.
    image holds each row's image, ascending, and footprints its
    _footprints box."""
    # A row's scene-local index is its column in the table. (Only a
    # one-splat scene leaves a row, its scene row, out of every probe.)
    local = np.zeros(len(views), dtype=np.intp)
    local[table] = np.arange(table.shape[1])
    rows, stack_row = _project_stack(stack, camera, local, views)
    footprints = _footprints(rows)
    # Each stack row's footprint; a culled row's is empty.
    box = np.tile([np.inf, np.inf, -np.inf, -np.inf], (len(views), 1))
    box[stack_row] = footprints
    size = (camera.width, camera.height)
    c = (probed >= 0).nonzero()[0]
    moved = box[table[2 * c[:, None] + [0, 1], probed[c, None]]]
    lo, hi = np.zeros((len(probed), 2)), np.tile(size, (len(probed), 1)).astype(np.float64)
    lo[c], hi[c] = moved[:, :, :2].min(axis=1), moved[:, :, 2:].max(axis=1)
    lo = lo.clip(0, size)
    windows = np.concatenate([lo, hi.clip(lo, size)], axis=1).astype(np.int64)
    # The probe images' rows, dropping those that miss their window; the
    # kept rows' stack indices (stack_row) ascend.
    win = windows.repeat(2, axis=0)[:, None]
    moved = box[table]
    hit = (np.maximum(moved[..., :2], win[..., :2])
           < np.minimum(moved[..., 2:], win[..., 2:])).all(axis=2).ravel().nonzero()[0]
    index = stack_row.searchsorted(table.ravel()[hit])
    return (_take(rows, index), hit // table.shape[1], np.take(footprints, index, axis=0),
            windows)


def _slices(area):
    """Pair ranges [c0, c1) of whole probe pairs whose window pixels (two
    images of area[c] each) stay within PROBE_PIXELS, or a single pair."""
    edges, total = [0], 0
    for c, pixels in enumerate((2 * area).tolist()):
        if total and total + pixels > PROBE_PIXELS:
            edges.append(c)
            total = 0
        total += pixels
    edges.append(len(area))
    return list(zip(edges[:-1], edges[1:]))


def _probe_differences(projected, image, footprints, windows, target, weight,
                       background):
    """L(+h) - L(-h) of every probe pair c, the images 2c and 2c + 1 of
    _probe_rows' (projected, image, footprints), summed over the pair's
    window as w (I+ - I-) (I+ + I- - 2 T) with w the pixel weight and T
    the target; its pixels in row-major order, the three channels of a
    pixel together.

    Outside the window I+ = I- bitwise, so this is the difference of the
    two masked losses, without the rounding of subtracting two sums of
    the whole image. The windows are binned and composited in slices of
    about PROBE_PIXELS pixels; nothing of a slice outlives its
    _slice_differences call."""
    size = windows[:, 2:] - windows[:, :2]
    area = size[:, 0] * size[:, 1]
    delta = np.zeros(len(windows))
    for c0, c1 in _slices(area):
        # The rows of images 2 c0 to 2 c1 - 1, renumbered from image 0.
        rows = np.arange(*image.searchsorted([2 * c0, 2 * c1]))
        delta[c0:c1] = _slice_differences(
            _take(projected, rows), image[rows] - 2 * c0, np.take(footprints, rows, axis=0),
            windows[c0:c1], area[c0:c1], target, weight, background)
    return delta


def _slice_differences(projected, image, footprints, win, a, target, weight, background):
    """_probe_differences of the pairs of one slice: (projected, image,
    footprints) holds the rows of their images, win their windows and a
    their areas."""
    height, width = target.shape[:2]
    # The batch lives until its terms are formed, so they reuse the memory
    # its compositing freed; dropped first, glibc trimmed and re-faulted it
    # (1,990 minor faults per audited seed, not 255; 2.8 us each on a Xeon VM).
    batch = _render_batch(projected, image, footprints, width, height, win.repeat(2, axis=0),
                          background, True)
    color = batch[1][0]
    # Pair c's window pixels follow those of the pairs before it, and in
    # the slice's layout its +h image comes before its -h image.
    lo = a.cumsum() - a
    local = np.arange(a.sum()) - lo.repeat(a)
    stride = (win[:, 2] - win[:, 0]).repeat(a)
    pix = (win[:, 1].repeat(a) + local // stride) * width + win[:, 0].repeat(a) + local % stride
    plus = local + 2 * lo.repeat(a)
    # Channel-major, then one transpose copy, so each pair's terms are the
    # contiguous (area, 3) block the sums below run over.
    plus, minus = np.take(color, plus, axis=1), np.take(color, plus + a.repeat(a), axis=1)
    terms = np.ascontiguousarray((weight.reshape(-1)[pix] * (plus - minus) * (
        plus + minus - 2.0 * np.take(target.reshape(-1, 3).T, pix, axis=1))).T)
    return [terms[b:b + n].sum() for b, n in zip(lo.tolist(), a.tolist())]


def audit_scene(scene, camera, target, *, background=(0.0, 0.0, 0.0), h=1e-5,
                rel_tol=1e-4, abs_tol=1e-8, pixel_mask=None):
    """Compare analytic gradients against central differences on one scene.

    The probed scalar is the summed squared pixel error against target.
    Every gaussian coordinate is probed, plus the twelve entries of the
    view matrix's rotation/translation block, each read through _probes'
    coordinate table. Coordinates whose magnitude exceeds GRAD_FLOOR are
    held to rel_tol relative error; the rest to abs_tol absolute error. A
    class's worst coordinate is the first with the largest error over
    tolerance. A non-finite analytic coordinate fails its class, whose
    max_rel then reads inf and max_abs the nan or inf |analytic - fd|.

    The camera is checked first, with Camera.check, then h, rel_tol and
    abs_tol, each of which must be finite and positive. target must be
    (height, width, 3) and pixel_mask (height, width), both finite;
    anything else raises ValueError naming the camera field or the
    argument. A non-finite probe difference raises FloatingPointError
    naming its coordinate.

    pixel_mask, when given, restricts the loss to the selected pixels.
    The generated audit scenes use it to drop the few pixels that sit
    near a compositing branch point, where the loss is genuinely
    non-differentiable and central differences measure the jump instead
    of the slope.

    Returns a GradReport.
    """
    camera.check()
    for name, value in (("h", h), ("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    shape = (camera.height, camera.width)
    target = as_finite(target, shape + (3,), "target")
    weight = np.ones(shape) if pixel_mask is None else as_finite(
        pixel_mask, shape, "pixel_mask")
    background = np.asarray(background, dtype=np.float64)

    splats = Splats.of(scene)
    result = render(splats, camera, background)
    d_image = 2.0 * weight[:, :, None] * (result.image.channels - target)
    analytic = scene_backward(splats, camera, result, d_image)

    stack, views, table, probed, coords = _probes(splats, camera, h)
    probe = _probe_rows(stack, views, table, probed, camera)
    del stack, views, table  # not read again while the probes are composited
    delta = _probe_differences(*probe, target, weight, background)
    bad = ~np.isfinite(delta)
    if bad.any():
        raise FloatingPointError(
            f"probe difference of {coords['label'][bad][0]} is not finite")
    fd = delta / (2.0 * h)
    a = np.empty(len(coords))
    for field in set(coords["field"]):
        rows = coords["field"] == field
        a[rows] = np.ravel(getattr(analytic, field))[coords["index"][rows]]

    diff = np.abs(a - fd)
    mag = np.maximum(np.abs(a), np.abs(fd))
    finite = np.isfinite(a)
    big = finite & (mag > GRAD_FLOOR)
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
        rel_tol=rel_tol, abs_tol=abs_tol, grad_floor=GRAD_FLOOR,
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
    """(Splats, background) drawn from rng, splat by splat.

    Splats are placed by choosing a pixel and a depth, then backprojecting,
    so footprints land on the image. Opacity stays in [0.5, 0.9]: high
    enough that nothing hovers near the ALPHA_MIN skip, low enough that
    the ALPHA_MAX clamp never engages."""
    scene = Splats(*(np.empty((n,) + shape) for _, _, shape in SPLAT_FIELDS))
    for i in range(n):
        px = rng.uniform(2.0, camera.width - 2.0)
        py = rng.uniform(2.0, camera.height - 2.0)
        depth = rng.uniform(2.5, 4.5)
        scene.means[i] = pixel_to_world(px, py, depth, camera)
        scene.scales[i] = rng.uniform(1.0, 2.2, size=3) * depth / camera.fx
        quat = rng.normal(size=4)
        scene.quats[i] = quat / np.sqrt(np.dot(quat, quat)) * rng.uniform(0.8, 1.4)
        scene.opacities[i] = rng.uniform(0.5, 0.9)
        scene.colors[i] = rng.uniform(0.05, 0.95, size=3)
    return scene, rng.uniform(0.1, 0.5, size=3)


# _pixel_safety_mask's margins around SIGMA_CUT, around T_MIN (a factor)
# and between splat depths.
SIGMA_MARGIN = 0.05
T_MARGIN = 4.0
DEPTH_MARGIN = 5e-3


def _pixel_safety_mask(splats, camera, background):
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
    sigma = _pair_alpha(xs, ys, projected, np.repeat(np.arange(n), h * w))[2]
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
    """Deterministic (scene, camera, target, background, mask) for one
    run; scene is a Splats.

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


def run_audit(seed, *, h=1e-5, rel_tol=1e-4, abs_tol=1e-8):
    """Generate the audit scene for a seed, on a 16x16 image for an even
    seed and 32x32 for an odd one, and run audit_scene on it."""
    size = 16 if seed % 2 == 0 else 32
    scene, camera, target, background, mask = make_audit_scene(seed, size)
    return audit_scene(
        scene, camera, target, background=background, h=h, rel_tol=rel_tol,
        abs_tol=abs_tol, pixel_mask=mask,
    )
