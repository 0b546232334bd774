"""Front-to-back alpha compositing of depth-sorted splats, tile by tile.

One kernel, _block_alpha, evaluates a block of K splats against P pixel
centers at once. The tile compositor runs it on a tile's bin, the
backward pass and the audit mask run it again, and the per-pixel
operations run it with P = 1, so every view of the math agrees bitwise.
Transmittance is a cumprod along the splat axis, which is sequential and
therefore equal to the front-to-back loop. The brute-force renderer
reuses the compositor with the tile bins replaced by the full globally
sorted list, which is what makes the tiled-versus-brute-force
equivalence checks meaningful.

render takes the scene as a Splats or a list of Gaussian3D, checks it
once with Splats.check, and projects every splat in one batched pass
(projection.project_splats); result.projected is the resulting
ProjectedSplats.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binning import TILE_SIZE, TileGrid, assign_tiles, grid_shape, sort_bins
from .core import Camera, Splats
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
# Per-pixel footprint cutoff on the exponent. Any pixel outside a splat's
# bounding square has sigma > 4.5 (the square covers the 3-sigma ellipse),
# so with this cutoff the set of contributing splats at a pixel does not
# depend on tile membership, and tiled and untiled rendering match exactly.
SIGMA_CUT = 4.5
# Splats per kernel block. Longer bins (the brute-force renderer puts
# every splat in every tile) are walked in blocks, which bounds the
# (K, P) temporaries; no result depends on the block size.
BLOCK = 64


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
    index its rows.
    """

    image: ImageBuffer
    aux: RenderAux
    grid: TileGrid
    projected: ProjectedSplats
    background: np.ndarray


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


def _pack_splats(projected, scene):
    """Pack the projected splats (ProjectedSplats or a list of
    ProjectedGaussian) with their scene opacity and color (scene a Splats
    or a list of Gaussian3D)."""
    p = ProjectedSplats.of(projected)
    splats = Splats.of(scene)
    return _PackedSplats.of(
        mean2d=p.mean2d,
        cov2d=p.cov2d,
        opacity=splats.opacities[p.source_index],
        color=splats.colors[p.source_index],
    )


class _Alpha(NamedTuple):
    """K splats evaluated at P pixel centers; every field is (K, P).

    (dx, dy) is pixel center minus mean2d, sigma half the squared
    Mahalanobis distance, alpha_raw = opacity * exp(-sigma) and alpha its
    clamp at ALPHA_MAX. visible marks the pairs inside the SIGMA_CUT
    footprint with alpha >= ALPHA_MIN; every other pair is skipped.
    """

    dx: np.ndarray
    dy: np.ndarray
    sigma: np.ndarray
    exp_neg: np.ndarray
    alpha_raw: np.ndarray
    alpha: np.ndarray
    visible: np.ndarray


def _block_alpha(xs, ys, packed, idx):
    """Evaluate the splats packed[idx] (K,) at the pixel centers (xs, ys)
    (P,). The one sigma/alpha expression of the rasterizer."""
    dx = xs[None, :] - packed.mean_x[idx, None]
    dy = ys[None, :] - packed.mean_y[idx, None]
    sigma = (
        0.5 * (packed.inv_a[idx, None] * dx * dx + packed.inv_c[idx, None] * dy * dy)
        + packed.inv_b[idx, None] * dx * dy
    )
    exp_neg = np.exp(-sigma)
    alpha_raw = packed.opacity[idx, None] * exp_neg
    alpha = np.minimum(alpha_raw, ALPHA_MAX)
    visible = (sigma <= SIGMA_CUT) & (alpha >= ALPHA_MIN)
    return _Alpha(dx, dy, sigma, exp_neg, alpha_raw, alpha, visible)


def _transmittance(trans, alpha, mask):
    """Transmittance before each of K splats and after the last, (K + 1, P).

    A cumprod along K seeded with the carried trans (P,), where pairs
    outside mask pass T through unchanged. The product is sequential, so
    it equals the loop T = T * (1 - alpha) bitwise.
    """
    factors = np.empty((alpha.shape[0] + 1, alpha.shape[1]))
    factors[0] = trans
    factors[1:] = np.where(mask, 1.0 - alpha, 1.0)
    return np.cumprod(factors, axis=0)


def _composite_tile(xs, ys, order, packed, background, early_termination):
    """Composite the splats in `order` onto the pixel centers (xs, ys).

    The bin is walked in blocks of BLOCK splats, carrying T, color and the
    stopped mask from block to block. Every operation is elementwise over
    the pixel axis and sequential along the splat axis, so the result at a
    pixel depends neither on which other pixels share the call nor on the
    block size.

    Returns (color (P, 3), final_T (P,), n_contrib (P,)).
    """
    n_px = xs.shape[0]
    order = np.asarray(order, dtype=np.int64)
    color = np.zeros((3, n_px))
    trans = np.ones(n_px)
    n_contrib = np.zeros(n_px, dtype=np.int64)
    done = np.zeros(n_px, dtype=bool)
    for start in range(0, order.size, BLOCK):
        idx = order[start:start + BLOCK]
        a = _block_alpha(xs, ys, packed, idx)
        visible = a.visible & ~done
        if not visible.any():
            continue
        t = _transmittance(trans, a.alpha, visible)
        if early_termination:
            # The first splat that would take T below T_MIN stops the
            # pixel without being composited. T never increases, so every
            # later visible splat in the block is a stop too.
            stops = visible & (t[1:] < T_MIN)
            commit = visible & ~stops
            stopped = stops.any(axis=0)
            first = np.argmax(stops, axis=0)
            trans = np.where(stopped, t[first, np.arange(n_px)], t[-1])
            done |= stopped
        else:
            commit = visible
            trans = t[-1]
        weight = np.where(commit, a.alpha * t[:-1], 0.0)
        # Row 0 seeds the sum with the carried color. The reduced axis is
        # never the innermost, so numpy adds the rows in order, exactly as
        # color += weight * c does splat by splat.
        terms = np.empty((idx.size + 1, 3, n_px))
        terms[0] = color
        np.multiply(weight[:, None, :], packed.color[idx, :, None], out=terms[1:])
        color = np.add.reduce(terms, axis=0)
        pos = np.arange(start + 1, start + idx.size + 1)
        n_contrib = np.maximum(n_contrib, np.max(np.where(commit, pos[:, None], 0), axis=0))
        if done.all():
            break
    color += background[:, None] * trans[None, :]
    return color.T, trans, n_contrib


def _iter_tiles(grid: TileGrid, width, height):
    """Yield (tile index, row slice, col slice, xs, ys) over the image.

    Pixel centers sit at integer + 0.5; edge tiles are clipped to the
    image rectangle.
    """
    ts = grid.tile_size
    for ty in range(grid.tiles_y):
        r0, r1 = ty * ts, min((ty + 1) * ts, height)
        for tx in range(grid.tiles_x):
            c0, c1 = tx * ts, min((tx + 1) * ts, width)
            cols = np.arange(c0, c1, dtype=np.float64) + 0.5
            rows = np.arange(r0, r1, dtype=np.float64) + 0.5
            xs = np.tile(cols, r1 - r0)
            ys = np.repeat(rows, c1 - c0)
            yield ty * grid.tiles_x + tx, slice(r0, r1), slice(c0, c1), xs, ys


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
    a = _block_alpha(
        np.array([float(pixel_center[0])]),
        np.array([float(pixel_center[1])]),
        packed,
        np.zeros(1, dtype=np.int64),
    )
    alpha = float(a.alpha[0, 0]) if a.visible[0, 0] else 0.0
    return alpha, np.array([a.dx[0, 0], a.dy[0, 0]]), float(a.sigma[0, 0])


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
    packed = _pack_splats(projected, scene)
    xs = np.array([float(pixel_center[0])])
    ys = np.array([float(pixel_center[1])])
    bg = np.asarray(background, dtype=np.float64)
    color, trans, n_contrib = _composite_tile(
        xs, ys, list(sorted_bin), packed, bg, early_termination
    )
    return color[0], PixelAux(float(trans[0]), int(n_contrib[0]))


def _render_with_grid(scene, camera, background, projected, grid, early_termination):
    packed = _pack_splats(projected, scene)
    h, w = camera.height, camera.width
    img = np.zeros((h, w, 3))
    final_t = np.ones((h, w))
    n_contrib = np.zeros((h, w), dtype=np.int64)
    for b, rows, cols, xs, ys in _iter_tiles(grid, w, h):
        color, trans, contrib = _composite_tile(
            xs, ys, grid.bins[b], packed, background, early_termination
        )
        nr = rows.stop - rows.start
        nc = cols.stop - cols.start
        img[rows, cols] = color.reshape(nr, nc, 3)
        final_t[rows, cols] = trans.reshape(nr, nc)
        n_contrib[rows, cols] = contrib.reshape(nr, nc)
    return RenderResult(
        image=ImageBuffer(width=w, height=h, channels=img),
        aux=RenderAux(final_T=final_t, n_contrib=n_contrib),
        grid=grid,
        projected=projected,
        background=background,
    )


def _checked_projection(scene, camera):
    splats = Splats.of(scene)
    splats.check()
    return splats, project_splats(splats, camera)


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
        RenderResult with the image and everything the backward pass needs.
    """
    background = np.asarray(background, dtype=np.float64)
    splats, projected = _checked_projection(scene, camera)
    grid = sort_bins(assign_tiles(projected, camera.width, camera.height), projected)
    return _render_with_grid(splats, camera, background, projected, grid, early_termination)


def render_brute_force(scene, camera: Camera, background, *, early_termination=True):
    """Reference renderer: every pixel composites against every splat.

    Identical to render() except that binning is bypassed: each tile's bin
    is the full list of non-culled splats in global front-to-back order.
    Any disagreement with render() therefore isolates a binning bug.
    """
    background = np.asarray(background, dtype=np.float64)
    splats, projected = _checked_projection(scene, camera)
    tiles_x, tiles_y = grid_shape(camera.width, camera.height)
    order = np.lexsort((projected.source_index, projected.depth)).tolist()
    grid = TileGrid(
        tile_size=TILE_SIZE,
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        bins=[list(order) for _ in range(tiles_x * tiles_y)],
    )
    return _render_with_grid(splats, camera, background, projected, grid, early_termination)
