"""Front-to-back alpha compositing of depth-sorted splats over flat
(splat, pixel) pairs.

The tile bins are flattened once and ordered by (bin position, tile).
Each entry expands only over the pixels of its tile whose centers lie in
the splat's footprint (_footprints): the box of the ellipse its opacity
and SIGMA_CUT leave visible, capped by its bounding square. No other
pixel can pass _pair_alpha's visibility test, so the footprints change
which pairs are evaluated, never which commit. One kernel, _pair_alpha,
evaluates sigma and alpha on those flat pairs. The forward pass, the
backward pass, the audit mask and the per-pixel operations all run it,
so every view of the math agrees bitwise.

Transmittance comes from a walk with one step per bin position,
vectorised over pixels. A pixel sits in exactly one tile, so it has at
most one pair per bin position, and each step is a gather, a multiply
and a scatter of per-pixel state. The walk multiplies in bin order, so
it equals the loop T = T * (1 - alpha) bitwise. Pairs are generated in
blocks of whole bin positions of about PAIR_BUDGET pairs; only
per-pixel state outlives a block, and color accumulates in pair order
across blocks, so where the blocks fall changes no bit. The brute-force
renderer reuses the compositor with the tile bins replaced by the full
globally sorted list, which is what makes the tiled-versus-brute-force
equivalence checks meaningful.

The pipeline has an image axis. _project_stack projects a stack of
rows in one project_splats pass, each row through its own view, and the
caller maps each kept row to its image. Then tile t of image k is
binned as k * n_tiles + t (the sort key stays tile, depth, scene-local
source index), and one walk composites the pixels of all K images. A
pixel still has at most one pair per bin position, so image k equals a
render of its rows alone bitwise. render is the K = 1 case; the audit
projects each distinct row of a scene's probes once, then bins and
composites the probes in slices.

Each image is composited only inside its window, a pixel rectangle
(x0, y0, x1, y1): entries are clipped to it as well as to their tile,
and the windows' pixels are laid out one after another, each
row-major. render and render_brute_force pass the whole image. The
audit passes the pixels a probed splat can reach; every pixel inside a
window equals the same pixel of the whole image bitwise.

render takes the scene as a Splats or a list of Gaussian3D, stacks it
once with Splats.of, checks it with Splats.check, and projects every
splat in one batched pass; result.projected is the resulting
ProjectedSplats.

render keeps the pairs it commits, one CommittedPairs record per block
(28 bytes per pair, 2.2-2.5 MB for a 256 x 256 view of 1,000 splats),
on result.pairs. The backward pass reads them instead of evaluating and
walking the pairs a second time.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .binning import TILE_SIZE, TileGrid, assign_tiles, grid_shape, sort_bins
from .core import Camera, RowError, Splats
# project_gaussian is not called here; it stays importable from this
# module because perfbench/spans.py wraps raster_forward.project_gaussian.
from .projection import ProjectedSplats, project_gaussian, project_splats  # noqa: F401

# Contributions below one quantization step are skipped (and receive zero
# gradient); alpha is clamped below 1 so transmittance never hits exact 0.
ALPHA_MIN = 1.0 / 255.0
ALPHA_MAX = 0.999
# Early termination: a pixel stops compositing once transmittance would
# drop below this.
T_MIN = 1e-4
# Per-pixel footprint cutoff on the exponent. A pair is visible only
# where sigma <= SIGMA_CUT and alpha >= ALPHA_MIN, so only inside the
# ellipse sigma <= c, c = min(SIGMA_CUT, ln(opacity / ALPHA_MIN)). The
# compositor evaluates a splat only at the pixels of its footprint
# (_footprints): the axis-aligned box of that ellipse, capped by the
# bounding square, which covers the 3-sigma ellipse sigma <= 4.5. So the
# set of contributing splats at a pixel does not depend on tile
# membership, and tiled and untiled rendering match exactly. Lowering the
# square's radius factor below 3, or raising this cutoff, would silently
# drop contributions.
SIGMA_CUT = 4.5
# Rounding slack of the footprint. _pair_alpha rounds, so a pair may pass
# its test a little outside the exact ellipse, and the box grows c:
# - sigma is off by a few ulps of 0.5 (A dx^2 + C dy^2) + |B dx dy|, which
#   is at most kappa * sigma, kappa = (A + C)^2 / (A C - B^2) bounding the
#   condition number of the packed inverse [[A, B], [B, C]]; the box's own
#   A C - B^2 cancels to within as many ulps. So c grows by the relative
#   FOOTPRINT_SLACK * kappa, over a million ulps times kappa.
# - exp, the product with opacity and the log move the alpha cut by a few
#   ulps of sigma; c grows by the absolute FOOTPRINT_SLACK.
# The grown half-extent then exceeds the exact one by at least
# FOOTPRINT_SLACK * sqrt(S_xx / (2 SIGMA_CUT)) >= 1.8e-10 pixels (the
# dilation keeps S_xx >= 0.3), which covers the rounding of dx = x - mean
# and of the box's pixel bounds for any mean within 4e5 pixels.
FOOTPRINT_SLACK = 1e-9
# Pairs generated and evaluated at once. A block holds whole bin
# positions, at least one, so it can exceed this by one position's pairs
# (at most one per pixel); blocks change no image, transmittance or
# gradient bit. Compositing a block peaks at about 129 bytes per
# evaluated pair, its kept pairs included (tracemalloc, a 13,636-pair
# block of a 256 x 256 render), so a block of PAIR_BUDGET pairs takes
# about 1.1 MB, which bounds peak memory and keeps the kernel's arrays in
# cache. With footprints this tight, most evaluated pairs commit; at
# 2^14 one fit iteration of the criterion-5 scene peaked at 3.13 MB,
# past its 2.9 MB guard (2.24 MB at 2^13).
PAIR_BUDGET = 1 << 13


@dataclass
class ImageBuffer:
    """Rendered pixels: channels has shape (height, width, 3), values in
    [0, 1] before quantization."""

    width: int
    height: int
    channels: np.ndarray


@dataclass
class RenderAux:
    """Per-pixel state saved by the forward pass for the backward pass.

    final_T is the transmittance left after the last composited splat.
    n_contrib is the number of bin entries processed up to and including
    the last splat that contributed; entries past it were skipped or cut
    off by early termination and get zero gradient.
    """

    final_T: np.ndarray
    n_contrib: np.ndarray


class PixelAux(NamedTuple):
    final_T: float
    n_contrib: int


@dataclass
class RenderResult:
    """Everything the backward pass consumes, bundled.

    projected holds the splats that survived culling; the grid's bins
    index its rows. pairs is one CommittedPairs per pair block.
    """

    image: ImageBuffer
    aux: RenderAux
    grid: TileGrid
    projected: ProjectedSplats
    background: np.ndarray
    pairs: list


@dataclass
class _PackedSplats:
    """Per-splat scalars the kernels read, packed once per pass.

    inv_a, inv_b and inv_c are the entries of the symmetric inverse
    [[A, B], [B, C]] of each 2D covariance.
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    inv_a: np.ndarray
    inv_b: np.ndarray
    inv_c: np.ndarray
    opacity: np.ndarray
    color: np.ndarray

    @classmethod
    def of(cls, mean2d, cov2d, opacity, color):
        """Pack mean2d (N, 2), cov2d (N, 2, 2), opacity (N,), color (N, 3)."""
        a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
        det = a * c - b * b
        bad = np.flatnonzero(~(det > 0.0))
        if bad.size:
            raise ValueError(
                f"2d covariance of projected splat {bad[0]} is not invertible"
            )
        return cls(
            mean_x=mean2d[:, 0],
            mean_y=mean2d[:, 1],
            inv_a=c / det,
            inv_b=-b / det,
            inv_c=a / det,
            opacity=opacity,
            color=color,
        )


def _pack_splats(projected, splats):
    """Pack the projected splats (ProjectedSplats or a list of
    ProjectedGaussian) with their opacity and color from the Splats."""
    p = ProjectedSplats.of(projected)
    return _PackedSplats.of(
        mean2d=p.mean2d,
        cov2d=p.cov2d,
        opacity=splats.opacities[p.source_index],
        color=splats.colors[p.source_index],
    )


def _pair_alpha(xs, ys, packed, splat):
    """Evaluate the splats packed[splat] at the pixel centers (xs, ys), one
    pair per index; all three are (M,). The one sigma/alpha expression of
    the rasterizer.

    Returns (dx, dy, sigma, exp_neg, alpha_raw, alpha, visible), each (M,):
    (dx, dy) is pixel center minus mean2d, sigma half the squared
    Mahalanobis distance, alpha_raw = opacity * exp(-sigma) and alpha its
    clamp at ALPHA_MAX. visible marks the pairs inside the SIGMA_CUT
    footprint with alpha >= ALPHA_MIN; every other pair is skipped.
    """
    dx = xs - packed.mean_x[splat]
    dy = ys - packed.mean_y[splat]
    sigma = (
        0.5 * (packed.inv_a[splat] * dx * dx + packed.inv_c[splat] * dy * dy)
        + packed.inv_b[splat] * dx * dy
    )
    exp_neg = np.exp(-sigma)
    alpha_raw = packed.opacity[splat] * exp_neg
    alpha = np.minimum(alpha_raw, ALPHA_MAX)
    visible = (sigma <= SIGMA_CUT) & (alpha >= ALPHA_MIN)
    return dx, dy, sigma, exp_neg, alpha_raw, alpha, visible


class _Entries(NamedTuple):
    """Bin entries in walk order (bin position, then tile), each with the
    rectangle of pixels it covers; every field is (E,).

    An entry covers height rows of width pixels; its first pixel has index
    base and center (x0, y0), and consecutive rows are row_stride pixel
    indices apart.
    """

    pos: np.ndarray
    splat: np.ndarray
    base: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    width: np.ndarray
    height: np.ndarray
    row_stride: np.ndarray


def _footprints(packed, radius):
    """Each packed splat's footprint, (K, 4) floats (x_lo, y_lo, x_hi,
    y_hi): the pixels x_lo <= x < x_hi, y_lo <= y < y_hi whose centers lie
    within (hx, hy) of the mean. No other pixel is visible.

    (hx, hy) = (sqrt(2 c S_xx), sqrt(2 c S_yy)) bound the ellipse
    sigma <= c of SIGMA_CUT, c grown by FOOTPRINT_SLACK, with
    S = [[A, B], [B, C]]^-1 the covariance _pair_alpha evaluates. They are
    capped at the square's half-width radius (K,), and a conic too
    ill-conditioned for A C - B^2 to stay positive gets the square."""
    a, b, c = packed.inv_a, packed.inv_b, packed.inv_c
    ratio = packed.opacity / ALPHA_MIN
    cut = np.minimum(SIGMA_CUT, np.log(ratio, out=np.full(ratio.shape, -np.inf),
                                       where=ratio > 0.0))
    radius = radius[:, None].astype(np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det = a * c - b * b
        cut = (cut + FOOTPRINT_SLACK) * (1.0 + FOOTPRINT_SLACK * (a + c) ** 2 / det)
        half = np.sqrt(2.0 * np.maximum(cut, 0.0)[:, None]
                       * (np.stack([c, a], axis=1) / det[:, None]))
    half = np.where(det[:, None] > 0.0, np.fmin(half, radius), radius)
    # Centers x + 0.5 within h of the mean m span
    # [ceil(m - h - 0.5), floor(m + h + 0.5)) in each axis.
    mean = np.stack([packed.mean_x, packed.mean_y], axis=1)
    return np.concatenate([np.ceil(mean - (half + 0.5)), np.floor(mean + (half + 0.5))],
                          axis=1)


def _full_windows(n_images, width, height):
    """n_images whole-image windows, (n_images, 4)."""
    return np.tile(np.array([0, 0, width, height]), (n_images, 1))


def _image_entries(grid, footprints, windows):
    """The grid's entries in walk order, each clipped to the pixels of its
    tile and its image's window that lie in its splat's footprint
    (footprints, _footprints' boxes of the grid's splats). Entries that
    cover no pixel are dropped.

    The grid may span several images, tile t of image k having id
    k * tiles_x * tiles_y + t. windows (K, 4) holds image k's window
    (x0, y0, x1, y1), which lies inside the image; its pixels follow
    those of the windows before it, row-major, so pixel (x, y) of image k
    has index offset_k + (y - y0) * (x1 - x0) + x - x0."""
    tile, splat = grid.entry_tile, grid.entry_splat
    pos = np.arange(tile.size) - tile.searchsorted(tile)
    order = pos.argsort(kind="stable")
    tile, splat, pos = tile[order], splat[order], pos[order]
    # The pixels of each tile of each image that lie in the image's
    # window, [lo, hi) in x and y, as clip bounds for a box.
    n_tiles = grid.tiles_x * grid.tiles_y
    ty, tx = np.divmod(np.arange(n_tiles), grid.tiles_x)
    tile_lo = np.stack([tx, ty], axis=1) * grid.tile_size
    lo = np.maximum(tile_lo, windows[:, None, :2])
    hi = np.minimum(tile_lo + grid.tile_size, windows[:, None, 2:])
    lo, hi = (np.concatenate([b, b], axis=2).reshape(-1, 4) for b in (lo, hi))
    # The box is clipped while still floats, so a huge footprint cannot
    # overflow the cast. (np.take gathers rows several times faster than
    # fancy indexing.)
    box = np.take(footprints, splat, axis=0).clip(
        np.take(lo, tile, axis=0), np.take(hi, tile, axis=0)).astype(np.int64)
    size = box[:, 2:] - box[:, :2]
    keep = (size.min(axis=1) > 0).nonzero()[0]
    box, size, image = box[keep], size[keep], tile[keep] // n_tiles
    stride = windows[:, 2] - windows[:, 0]
    area = stride * (windows[:, 3] - windows[:, 1])
    origin = area.cumsum() - area - windows[:, 1] * stride - windows[:, 0]
    stride = stride[image]
    return _Entries(
        pos=pos[keep],
        splat=splat[keep],
        base=origin[image] + box[:, 1] * stride + box[:, 0],
        x0=box[:, 0] + 0.5,
        y0=box[:, 1] + 0.5,
        width=size[:, 0],
        height=size[:, 1],
        row_stride=stride,
    )


def _pixel_entries(sorted_bin, pixel_center):
    """One entry per bin position, each covering the single pixel 0 at
    pixel_center."""
    splat = np.asarray(sorted_bin, dtype=np.int64).reshape(-1)
    ones = np.ones(splat.size, dtype=np.int64)
    return _Entries(
        pos=np.arange(splat.size),
        splat=splat,
        base=np.zeros(splat.size, dtype=np.int64),
        x0=np.full(splat.size, float(pixel_center[0])),
        y0=np.full(splat.size, float(pixel_center[1])),
        width=ones,
        height=ones,
        row_stride=ones,
    )


def _blocks(entries):
    """Entry ranges [e0, e1) holding whole bin positions and about
    PAIR_BUDGET pairs each; a block starts at the first position whose
    preceding pair total enters a new multiple of the budget."""
    count = entries.width * entries.height
    before = count.cumsum() - count
    n = count.size
    if n == 0 or before[-1] + count[-1] <= PAIR_BUDGET:
        return [(0, n)]
    first = (entries.pos[1:] != entries.pos[:-1]).nonzero()[0] + 1
    block = before[first] // PAIR_BUDGET
    cuts = first[np.diff(block, prepend=0).nonzero()[0]].tolist()
    edges = [0] + cuts + [n]
    return list(zip(edges[:-1], edges[1:]))


class _Pairs(NamedTuple):
    """Evaluated (splat, pixel) pairs of a block, in walk order; every
    field is (M,). pix indexes the per-pixel state, pos is the entry's
    bin position, and the rest is the part of _pair_alpha's output that
    later steps read."""

    pix: np.ndarray
    pos: np.ndarray
    splat: np.ndarray
    exp_neg: np.ndarray
    alpha: np.ndarray
    visible: np.ndarray


def _evaluate(entries, e0, e1, packed):
    """Expand entries[e0:e1] into pairs, row-major within each entry, and
    evaluate them."""
    height = entries.height[e0:e1]
    # One item per pixel row of an entry, then one per pixel of the row.
    entry = np.arange(e0, e1).repeat(height)
    row = np.arange(entry.size) - (height.cumsum() - height).repeat(height)
    width = entries.width[entry]
    col = np.arange(width.sum()) - (width.cumsum() - width).repeat(width)
    splat = entries.splat[entry].repeat(width)
    _, _, _, exp_neg, _, alpha, visible = _pair_alpha(
        entries.x0[entry].repeat(width) + col,
        (entries.y0[entry] + row).repeat(width), packed, splat)
    return _Pairs(
        (entries.base[entry] + row * entries.row_stride[entry]).repeat(width) + col,
        entries.pos[entry].repeat(width),
        splat, exp_neg, alpha, visible,
    )


def _walk(pix, pos, values, state, step):
    """Walk pairs one bin position at a time, in their order, updating the
    per-pixel state in place to step(state, value) at every pair. Returns
    the state before each pair.

    A pixel has at most one pair per bin position, so every step is one
    gather and one scatter with no duplicate index, and the updates at a
    pixel happen in the pairs' order (bin order, or its reverse).
    """
    edges = [0] + ((pos[1:] != pos[:-1]).nonzero()[0] + 1).tolist() + [pos.size]
    before = np.empty_like(values)
    for a, b in zip(edges[:-1], edges[1:]):
        p = pix[a:b]
        s = state[p]
        before[a:b] = s
        state[p] = step(s, values[a:b])
    return before


class CommittedPairs(NamedTuple):
    """The committed pairs of one block, in walk order: each pair's pixel
    index, bin position and packed splat (int32), exp(-sigma) and the
    transmittance before it (float64), 28 bytes per pair. The backward
    pass reads alpha back from exp_neg with the forward expression, and
    dx, dy from the pixel centers."""

    pix: np.ndarray
    pos: np.ndarray
    splat: np.ndarray
    exp_neg: np.ndarray
    t_before: np.ndarray


def _composite(entries, packed, n_px, background, early_termination):
    """Composite the entries' pairs onto n_px pixels.

    Transmittance multiplies through every visible pair, stops included.
    T never increases, so with early termination a pair commits exactly
    when its T after is at least T_MIN: past a pixel's first stop, no
    later pair can. A pixel's final T is the T after its last committed
    pair, which is also the smallest. Color accumulates in pair order,
    which is bin order at each pixel.

    Returns (color (3, n_px), final_T (n_px,), n_contrib (n_px,), pairs):
    pairs is one CommittedPairs per block.
    """
    color = np.zeros((3, n_px))
    trans = np.ones(n_px)
    final_t = np.ones(n_px)
    n_contrib = np.zeros(n_px, dtype=np.int64)
    kept = [_composite_block(entries, e0, e1, packed, early_termination,
                             trans, color, final_t, n_contrib)
            for e0, e1 in _blocks(entries)]
    color += background[:, None] * final_t
    return color, final_t, n_contrib, kept


def _composite_block(entries, e0, e1, packed, early_termination,
                     trans, color, final_t, n_contrib):
    """Evaluate entries[e0:e1], walk its visible pairs from the per-pixel
    transmittance trans and commit them, updating trans, color, final_t
    and n_contrib in place. Returns the block's CommittedPairs; nothing
    else outlives the call."""
    pairs = _evaluate(entries, e0, e1, packed)
    index = pairs.visible.nonzero()[0]
    pix, pos, alpha = pairs.pix[index], pairs.pos[index], pairs.alpha[index]
    one_minus = 1.0 - alpha
    t_before = _walk(pix, pos, one_minus, trans, np.multiply)
    t_after = t_before * one_minus
    if early_termination:
        commit = t_after >= T_MIN
        if not commit.all():
            commit = commit.nonzero()[0]
            index, pix, pos, alpha, t_before, t_after = (
                x[commit] for x in (index, pix, pos, alpha, t_before, t_after))
    splat = pairs.splat[index]
    weight = alpha * t_before
    # (np.take gathers rows several times faster than fancy indexing.)
    c = np.take(packed.color, splat, axis=0)
    for ch in range(3):
        np.add.at(color[ch], pix, weight * c[:, ch])
    np.minimum.at(final_t, pix, t_after)
    np.maximum.at(n_contrib, pix, pos + 1)
    return CommittedPairs(pix.astype(np.int32), pos.astype(np.int32),
                          splat.astype(np.int32), pairs.exp_neg[index], t_before)


def eval_alpha(g, opacity, pixel_center):
    """Evaluate one splat's opacity contribution at a pixel center.

    Args:
        g: ProjectedGaussian supplying mean2d and cov2d.
        opacity: the splat's opacity in [0, 1].
        pixel_center: length-2 pixel coordinates.

    Returns:
        (alpha, delta, sigma) where delta = pixel_center - mean2d and
        sigma is half the squared Mahalanobis distance. alpha is 0.0 when
        the contribution falls below ALPHA_MIN or past the SIGMA_CUT
        footprint cutoff, marking the splat as skipped at this pixel.
    """
    packed = _PackedSplats.of(
        mean2d=np.asarray(g.mean2d, dtype=np.float64).reshape(1, 2),
        cov2d=np.asarray(g.cov2d, dtype=np.float64).reshape(1, 2, 2),
        opacity=np.array([opacity], dtype=np.float64),
        color=np.zeros((1, 3)),
    )
    dx, dy, sigma, _, _, alpha, visible = _pair_alpha(
        np.array([float(pixel_center[0])]),
        np.array([float(pixel_center[1])]),
        packed,
        np.zeros(1, dtype=np.int64),
    )
    return (float(alpha[0]) if visible[0] else 0.0,
            np.array([dx[0], dy[0]]), float(sigma[0]))


def composite_pixel(sorted_bin, projected, scene, pixel_center, background,
                    early_termination=True):
    """Composite one pixel against its tile's depth-ordered splats.

    sorted_bin holds indices into `projected` in front-to-back order, and
    scene supplies opacity and color via each splat's source_index. Splats
    whose alpha falls below ALPHA_MIN are skipped without counting toward
    n_contrib; compositing stops once transmittance would drop below T_MIN
    (the stopping splat is not composited). The background, attenuated by
    the final transmittance, is added after the loop.

    Returns (color 3-vector, PixelAux(final_T, n_contrib)).
    """
    color, trans, n_contrib, _ = _composite(
        _pixel_entries(sorted_bin, pixel_center),
        _pack_splats(projected, Splats.of(scene)),
        1,
        np.asarray(background, dtype=np.float64),
        early_termination,
    )
    return color[:, 0], PixelAux(float(trans[0]), int(n_contrib[0]))


class _Projection(NamedTuple):
    """The splats of K images that survived culling, one row each:
    projected (its source_index scene-local), the image each row belongs
    to, and each row's opacity and color."""

    projected: ProjectedSplats
    image: np.ndarray
    opacity: np.ndarray
    color: np.ndarray

    def packed(self):
        """The rows packed for the kernels."""
        p = self.projected
        return _PackedSplats.of(p.mean2d, p.cov2d, self.opacity, self.color)

    def take(self, rows):
        """The rows at the indices rows, in their order. The rows taken
        are probe rows, composited but never differentiated, so the
        factors the backward pass reads stay behind."""
        p = self.projected
        footprint = (p.t_cam, p.mean2d, p.cov2d, p.depth, p.radius, p.source_index)
        return _Projection(ProjectedSplats(*(np.take(x, rows, axis=0) for x in footprint)),
                           *(np.take(x, rows, axis=0) for x in self[1:]))

    def images(self, a, b):
        """The rows of images a to b - 1, renumbered from image 0."""
        part = self.take(((self.image >= a) & (self.image < b)).nonzero()[0])
        return part._replace(image=part.image - a)


def _project_stack(stack, camera, local, views=None):
    """Check the Splats stack with Splats.check and project it in one
    pass with camera's intrinsics, row r seen through views[r] ((N, 4, 4);
    camera.view when views is None).

    local (N,) holds each row's index in its own scene: source_index comes
    back as it, and a failure names the splat by it. image holds each
    kept row's index in the stack."""
    try:
        stack.check()
        p = project_splats(stack, camera, view=views)
    except RowError as exc:
        raise RowError(exc.problem, local[exc.row], exc.field) from None
    row = p.source_index
    return _Projection(replace(p, source_index=local[row]), row,
                       stack.opacities[row], stack.colors[row])


def _composite_grid(grid, proj, windows, background, early_termination):
    """Composite the windows (K, 4) of the K images of grid's entries:
    _composite's (color, final_T, n_contrib, pairs) over the windows'
    pixels, laid out as _image_entries lays them out."""
    packed = proj.packed()
    return _composite(
        _image_entries(grid, _footprints(packed, proj.projected.radius), windows),
        packed,
        int(np.prod(windows[:, 2:] - windows[:, :2], axis=1).sum()),
        background,
        early_termination,
    )


def _render_batch(proj, width, height, windows, background, early_termination):
    """Bin, sort and composite the windows (K, 4) of the K width x height
    images of the projected rows proj, tile t of image k binned as
    k * n_tiles + t. Returns (the grid over all images, _composite_grid's
    output)."""
    grid = assign_tiles(proj.projected, width, height)
    grid = replace(grid, entry_tile=grid.entry_tile
                   + proj.image[grid.entry_splat] * (grid.tiles_x * grid.tiles_y))
    grid = sort_bins(grid, proj.projected)
    return grid, _composite_grid(grid, proj, windows, background, early_termination)


def _result(camera, background, projected, grid, composited):
    h, w = camera.height, camera.width
    color, trans, n_contrib, pairs = composited
    return RenderResult(
        image=ImageBuffer(width=w, height=h,
                          channels=np.ascontiguousarray(color.T).reshape(h, w, 3)),
        aux=RenderAux(final_T=trans.reshape(h, w), n_contrib=n_contrib.reshape(h, w)),
        grid=grid,
        projected=projected,
        background=background,
        pairs=pairs,
    )


def render(scene, camera: Camera, background, *, early_termination=True):
    """Render a scene: project, bin, sort, then composite every pixel.

    Args:
        scene: Splats, or a list of Gaussian3D. Checked with Splats.check,
            so a non-finite value, a non-positive scale or a vanishing
            quaternion raises ValueError naming the splat and field.
        camera: the viewpoint; not re-validated here.
        background: 3-vector composited behind the splats.
        early_termination: stop per-pixel compositing below T_MIN. Disable
            to compare renderers bitwise.

    Returns:
        RenderResult with the image and everything the backward pass
        needs, the committed (splat, pixel) pairs included (28 bytes per
        pair, n_contrib.sum() pairs at most).
    """
    background = np.asarray(background, dtype=np.float64)
    splats = Splats.of(scene)
    proj = _project_stack(splats, camera, np.arange(len(splats)))
    # _project_stack tags each row with its stack index; all are image 0.
    proj = proj._replace(image=np.zeros_like(proj.image))
    grid, composited = _render_batch(proj, camera.width, camera.height,
                                     _full_windows(1, camera.width, camera.height),
                                     background, early_termination)
    return _result(camera, background, proj.projected, grid, composited)


def render_brute_force(scene, camera: Camera, background, *, early_termination=True):
    """Reference renderer: every pixel composites against every splat.

    Identical to render() except that binning is bypassed: each tile's bin
    is the full list of non-culled splats in global front-to-back order.
    Any disagreement with render() therefore isolates a binning bug.
    """
    background = np.asarray(background, dtype=np.float64)
    splats = Splats.of(scene)
    proj = _project_stack(splats, camera, np.arange(len(splats)))
    projected = proj.projected
    tiles_x, tiles_y = grid_shape(camera.width, camera.height)
    order = np.lexsort((projected.source_index, projected.depth))
    n_tiles = tiles_x * tiles_y
    grid = TileGrid(
        tile_size=TILE_SIZE,
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        entry_tile=np.repeat(np.arange(n_tiles), order.size),
        entry_splat=np.tile(order, n_tiles),
    )
    return _result(camera, background, projected, grid,
                   _composite_grid(grid, proj, _full_windows(1, camera.width, camera.height),
                                   background, early_termination))
