"""Tile binning, then front-to-back alpha compositing of the binned
splats over flat (splat, pixel) pairs.

Binning is one sort of rows and one of entries. assign_tiles takes the
projected rows in _front_to_back order (depth, then source index) and
emits one entry per 16 x 16 tile a row's bounding square touches, then
sorts the entries stably by tile id (sort_bins), so every bin is front
to back. The tile ids, an image's offset included, are encoded in
assign_tiles and decoded in _image_entries, beside that order.

The tile bins are flattened once and ordered by (bin position, tile).
Each entry expands only over the pixels of its tile whose centers lie in
the splat's footprint (_footprints): the box of the ellipse its opacity
and SIGMA_CUT leave visible, capped by its bounding square. No other
pixel can pass _pair_alpha's visibility test, so the footprints change
which pairs are evaluated, never which commit. One kernel, _pair_alpha,
evaluates sigma and alpha on those flat pairs from the rows of one
ProjectedSplats: mean2d, conic, opacity and color. The forward pass, the
backward pass and the audit mask all run it, so every view of the math
agrees bitwise.

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
rows in one project_splats pass, each row through its own view, and
returns each kept row's stack index, from which the caller maps the row
to its image. _render_batch takes the rows, that image array and their
footprints. assign_tiles bins tile t of image k as k * n_tiles + t in
its one entry sort, so each bin is front to back (depth, scene-local
source index), and one walk composites the pixels of all K images. A
pixel still has at most one pair per bin position, so image k equals a
render of its rows alone bitwise. The audit projects
each distinct row of a scene's probes once, then bins and composites the
probes in slices.

Each image is composited only inside its window, a pixel rectangle
(x0, y0, x1, y1): entries are clipped to it as well as to their tile,
and the windows' pixels are laid out one after another, each
row-major. render and render_brute_force pass the whole image. The
audit passes the pixels a probed splat can reach; every pixel inside a
window equals the same pixel of the whole image bitwise.

render projects every splat in one project_splats pass, which checks
the camera and the scene first; the backward pass reads the resulting
ProjectedSplats (result.projected) and the pairs render commits, one
CommittedPairs record per block (28 bytes per pair, 2.2-2.5 MB for a
256 x 256 view of 1,000 splats, on result.pairs), instead of evaluating
and walking the pairs a second time.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import Camera, RowError, Splats, as_background
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
#   condition number of the conic [[A, B], [B, C]]; the box's own
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
TILE_SIZE = 16


@dataclass
class TileGrid:
    """The (tile, splat) entries of a tile grid, flat and grouped by tile.

    entry_tile (E,) holds row-major tile ids in ascending order, the tile
    (tx, ty) of image k being (k * tiles_y + ty) * tiles_x + tx (assign_tiles
    encodes the image); entry_splat (E,) holds the matching indices into
    a projected-splat list, front to back within each tile.
    """

    tile_size: int
    tiles_x: int
    tiles_y: int
    entry_tile: np.ndarray
    entry_splat: np.ndarray

    @property
    def bins(self):
        """One list of projected-splat indices per tile, row-major."""
        n_tiles = self.tiles_x * self.tiles_y
        ends = np.cumsum(np.bincount(self.entry_tile, minlength=n_tiles)).tolist()
        flat = self.entry_splat.tolist()
        return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


def grid_shape(width, height):
    """(tiles_x, tiles_y) of the tile grid covering a width x height image."""
    return (width + TILE_SIZE - 1) // TILE_SIZE, (height + TILE_SIZE - 1) // TILE_SIZE


def _front_to_back(projected):
    """The rows of a ProjectedSplats in the rasterizer's one order, depth
    ascending, ties by source index, then by row. Every bin, the brute-force
    list and the audit mask's walk follow it, so compositing is deterministic."""
    return np.lexsort((projected.source_index, projected.depth))


def assign_tiles(projected: ProjectedSplats, width, height, image=None):
    """Bin splats by bounding-box overlap, each bin front to back.

    A splat lands in every tile whose pixel rectangle intersects the closed
    square [mean2d - radius, mean2d + radius]. Tile rectangles are treated
    as half-open ([16*tx, 16*tx + 16) and likewise in y), which makes the
    floor arithmetic below exact at shared edges. With image (K,), row r
    is binned in image image[r]: tile t of image k gets id
    k * tiles_x * tiles_y + t. The entries are emitted row by row in
    _front_to_back order, then regrouped by id with sort_bins: one sort of
    rows and one of entries.
    """
    tiles_x, tiles_y = grid_shape(width, height)
    # The rows front to back, each with its tile range, clamped to the grid
    # while still floats so the cast to integers cannot overflow.
    rows = _front_to_back(projected)
    mean2d, r = projected.mean2d[rows], projected.radius[rows, None]
    last = np.array([tiles_x - 1, tiles_y - 1])
    lo = np.clip(np.floor((mean2d - r) / TILE_SIZE), 0, last + 1).astype(np.int64)
    hi = np.clip(np.floor((mean2d + r) / TILE_SIZE), -1, last).astype(np.int64)
    (tx0, ty0), (nx, ny) = lo.T, np.maximum(0, hi - lo + 1).T
    count = nx * ny
    # One entry per (row, tile) pair, row by row, each row's tiles row-major.
    k = np.repeat(np.arange(rows.size), count)
    offset = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    tile = (ty0[k] + offset // nx[k]) * tiles_x + tx0[k] + offset % nx[k]
    splat = rows[k]
    if image is not None:
        tile += image[splat] * (tiles_x * tiles_y)
    return sort_bins(TileGrid(TILE_SIZE, tiles_x, tiles_y, tile, splat))


def sort_bins(grid: TileGrid):
    """grid with its entries regrouped by tile id, each bin keeping its
    entries' order: one stable sort, the one sort of entries, which
    assign_tiles makes on the entries it emits front to back."""
    order = np.argsort(grid.entry_tile, kind="stable")
    return replace(grid, entry_tile=grid.entry_tile[order], entry_splat=grid.entry_splat[order])


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


@dataclass
class RenderResult:
    """Everything the backward pass consumes, bundled.

    projected holds the splats that survived culling; the grid's bins
    index its rows. pairs is one CommittedPairs per pair block, and
    camera a copy of the render's camera.
    """

    image: ImageBuffer
    aux: RenderAux
    grid: TileGrid
    projected: ProjectedSplats
    background: np.ndarray
    pairs: list
    camera: Camera


def _pair_alpha(xs, ys, projected, splat):
    """Evaluate the rows projected[splat] of a ProjectedSplats at the
    pixel centers (xs, ys), one pair per index; all three are (M,). The
    one sigma/alpha expression of the rasterizer.

    Returns (dx, dy, sigma, exp_neg, alpha_raw, alpha, visible), each (M,):
    (dx, dy) is pixel center minus mean2d, sigma half the squared
    Mahalanobis distance, alpha_raw = opacity * exp(-sigma) and alpha its
    clamp at ALPHA_MAX. visible marks the pairs inside the SIGMA_CUT
    footprint with alpha >= ALPHA_MIN; every other pair is skipped.
    """
    mean_x, mean_y = projected.mean2d.T
    a, b, c = projected.conic.T
    dx = xs - mean_x[splat]
    dy = ys - mean_y[splat]
    sigma = 0.5 * (a[splat] * dx * dx + c[splat] * dy * dy) + b[splat] * dx * dy
    exp_neg = np.exp(-sigma)
    alpha_raw = projected.opacity[splat] * exp_neg
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


def _footprints(projected):
    """Each row's footprint, (K, 4) floats (x_lo, y_lo, x_hi, y_hi): the
    pixels x_lo <= x < x_hi, y_lo <= y < y_hi whose centers lie within
    (hx, hy) of the mean. No other pixel is visible.

    (hx, hy) = (sqrt(2 c S_xx), sqrt(2 c S_yy)) bound the ellipse
    sigma <= c of SIGMA_CUT, c grown by FOOTPRINT_SLACK, with
    S = [[A, B], [B, C]]^-1 the covariance of the conic _pair_alpha
    evaluates. They are capped at the square's half-width radius, and a
    conic too ill-conditioned for A C - B^2 to stay positive gets the
    square."""
    a, b, c = projected.conic.T
    ratio = projected.opacity / ALPHA_MIN
    cut = np.minimum(SIGMA_CUT, np.log(ratio, out=np.full(ratio.shape, -np.inf),
                                       where=ratio > 0.0))
    radius = projected.radius[:, None].astype(np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det = a * c - b * b
        cut = (cut + FOOTPRINT_SLACK) * (1.0 + FOOTPRINT_SLACK * (a + c) ** 2 / det)
        half = np.sqrt(2.0 * np.maximum(cut, 0.0)[:, None]
                       * (np.stack([c, a], axis=1) / det[:, None]))
    half = np.where(det[:, None] > 0.0, np.fmin(half, radius), radius)
    # Centers x + 0.5 within h of the mean m span
    # [ceil(m - h - 0.5), floor(m + h + 0.5)) in each axis.
    mean = projected.mean2d
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


def _blocks(entries):
    """Entry ranges [e0, e1) holding whole bin positions and about
    PAIR_BUDGET pairs each; a block starts at the first position whose
    preceding pair total enters a new multiple of the budget."""
    count = entries.width * entries.height
    before = count.cumsum() - count
    first = (entries.pos[1:] != entries.pos[:-1]).nonzero()[0] + 1
    block = before[first] // PAIR_BUDGET
    cuts = first[np.diff(block, prepend=0).nonzero()[0]].tolist()
    edges = [0] + cuts + [count.size]
    return list(zip(edges[:-1], edges[1:]))


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
    index, bin position and projected row (int32), exp(-sigma) and the
    transmittance before it (float64), 28 bytes per pair. The backward
    pass reads alpha back from exp_neg with the forward expression, and
    dx, dy from the pixel centers."""

    pix: np.ndarray
    pos: np.ndarray
    splat: np.ndarray
    exp_neg: np.ndarray
    t_before: np.ndarray


def _composite(entries, projected, n_px, background, early_termination):
    """Composite the entries' pairs, whose splats index the rows of the
    ProjectedSplats projected, onto n_px pixels.

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
    kept = [_composite_block(entries, e0, e1, projected, early_termination,
                             trans, color, final_t, n_contrib)
            for e0, e1 in _blocks(entries)]
    color += background[:, None] * final_t
    return color, final_t, n_contrib, kept


def _composite_block(entries, e0, e1, projected, early_termination,
                     trans, color, final_t, n_contrib):
    """Expand entries[e0:e1] into pairs, row-major within each entry,
    evaluate them, walk the visible pairs from the per-pixel transmittance
    trans and commit them, updating trans, color, final_t and n_contrib in
    place. Returns the block's CommittedPairs; nothing else outlives the
    call."""
    height = entries.height[e0:e1]
    # One item per pixel row of an entry, then one per pixel of the row.
    entry = np.arange(e0, e1).repeat(height)
    row = np.arange(entry.size) - (height.cumsum() - height).repeat(height)
    width = entries.width[entry]
    col = np.arange(width.sum()) - (width.cumsum() - width).repeat(width)
    splat = entries.splat[entry].repeat(width)
    _, _, _, exp_neg, _, alpha, visible = _pair_alpha(
        entries.x0[entry].repeat(width) + col,
        (entries.y0[entry] + row).repeat(width), projected, splat)
    index = visible.nonzero()[0]
    pix = ((entries.base[entry] + row * entries.row_stride[entry]).repeat(width)
           + col)[index]
    pos = entries.pos[entry].repeat(width)[index]
    alpha = alpha[index]
    one_minus = 1.0 - alpha
    t_before = _walk(pix, pos, one_minus, trans, np.multiply)
    t_after = t_before * one_minus
    if early_termination:
        commit = t_after >= T_MIN
        if not commit.all():
            commit = commit.nonzero()[0]
            index, pix, pos, alpha, t_before, t_after = (
                x[commit] for x in (index, pix, pos, alpha, t_before, t_after))
    splat = splat[index]
    weight = alpha * t_before
    # (np.take gathers rows several times faster than fancy indexing.)
    c = np.take(projected.color, splat, axis=0)
    for ch in range(3):
        np.add.at(color[ch], pix, weight * c[:, ch])
    np.minimum.at(final_t, pix, t_after)
    np.maximum.at(n_contrib, pix, pos + 1)
    return CommittedPairs(pix.astype(np.int32), pos.astype(np.int32),
                          splat.astype(np.int32), exp_neg[index], t_before)


def _project_stack(stack, camera, local, views):
    """Project the Splats stack in one project_splats pass with camera's
    intrinsics, row r seen through views[r] ((N, 4, 4)).

    local (N,) holds each row's index in its own scene: source_index comes
    back as it, and a failure names the splat by it. Returns (projected,
    stack_row), stack_row (K,) holding each kept row's index in the
    stack."""
    try:
        p = project_splats(stack, camera, view=views)
    except RowError as exc:
        raise RowError(exc.problem, local[exc.row], exc.field) from None
    return replace(p, source_index=local[p.source_index]), p.source_index


def _render_batch(projected, image, footprints, width, height, windows, background):
    """Bin and composite, with early termination, the windows (K, 4) of
    the K width x height images of the projected rows, row r in image
    image[r] with footprint footprints[r]; assign_tiles bins tile t of
    image k as k * n_tiles + t in its one entry sort. Returns the grid
    over all images and _composite's output over the windows' pixels,
    laid out as _image_entries lays them out."""
    grid = assign_tiles(projected, width, height, image)
    n_px = int(np.prod(windows[:, 2:] - windows[:, :2], axis=1).sum())
    return grid, _composite(_image_entries(grid, footprints, windows), projected, n_px,
                            background, True)


def _result(camera, background, projected, grid, early_termination):
    """Composite every pixel of the one image of grid's entries, which
    index the rows of projected, into a RenderResult."""
    h, w = camera.height, camera.width
    color, trans, n_contrib, pairs = _composite(
        _image_entries(grid, _footprints(projected), _full_windows(1, w, h)), projected,
        w * h, background, early_termination)
    return RenderResult(
        image=ImageBuffer(width=w, height=h,
                          channels=np.ascontiguousarray(color.T).reshape(h, w, 3)),
        aux=RenderAux(final_T=trans.reshape(h, w), n_contrib=n_contrib.reshape(h, w)),
        grid=grid,
        projected=projected,
        background=background,
        pairs=pairs,
        camera=replace(camera, view=camera.view.copy()),
    )


def render(scene, camera: Camera, background, *, early_termination=True):
    """Render a scene: project, bin front to back, composite every pixel.

    Args:
        scene: Splats, or a list of Gaussian3D. Checked with Splats.check,
            so a non-finite value, a non-positive scale or a vanishing
            quaternion raises ValueError naming the splat and field.
        camera: the viewpoint. Checked with Camera.check, which needs no
            rigid view; a failure raises ValueError naming the field,
            e.g. camera.fx must be finite.
        background: 3-vector composited behind the splats. Anything but
            a finite (3,) vector in [0, 1] raises ValueError naming it.
        early_termination: stop per-pixel compositing below T_MIN. Disable
            to compare renderers bitwise.

    Returns:
        RenderResult with the image and everything the backward pass
        needs, the committed (splat, pixel) pairs included (28 bytes per
        pair, n_contrib.sum() pairs at most).
    """
    background = as_background(background)
    projected = project_splats(Splats.of(scene), camera)
    grid = assign_tiles(projected, camera.width, camera.height)
    return _result(camera, background, projected, grid, early_termination)


def render_brute_force(scene, camera: Camera, background, *, early_termination=True):
    """Reference renderer: every pixel composites against every splat.

    Identical to render() except that binning is bypassed: each tile's bin
    is the full list of non-culled splats in global front-to-back order.
    Any disagreement with render() therefore isolates a binning bug.
    """
    background = as_background(background)
    projected = project_splats(Splats.of(scene), camera)
    tiles_x, tiles_y = grid_shape(camera.width, camera.height)
    order, n_tiles = _front_to_back(projected), tiles_x * tiles_y
    grid = TileGrid(TILE_SIZE, tiles_x, tiles_y, np.arange(n_tiles).repeat(order.size),
                    np.tile(order, n_tiles))
    return _result(camera, background, projected, grid, early_termination)
