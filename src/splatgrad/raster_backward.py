"""Reverse-mode compositing.

Works on a tile's bin in blocks of K splats by P pixels, like the forward
pass, and pushes each pixel's loss gradient onto every contributor's
color, opacity, 2D mean and 2D covariance. Alpha and sigma come from the
forward kernel itself, so skip decisions and clamping replay
identically. Transmittance before each splat is the forward cumprod
replayed front to back, bitwise equal to the forward values; nothing is
divided by (1 - alpha). The color composited behind each splat is needed
only through its product with dL/dC, so a back-to-front cumulative sum
carries that scalar and every array stays (K, P). Per-splat totals are
reductions along the pixel axis, scattered once per tile.
"""

from dataclasses import dataclass

import numpy as np

from .projection import ProjectedSplats
from .raster_forward import (
    ALPHA_MAX,
    BLOCK,
    _block_alpha,
    _iter_tiles,
    _pack_splats,
    _transmittance,
)


@dataclass
class Splat2DGrads:
    """Screen-space gradients, one row per scene gaussian.

    Rows of splats that contributed to no pixel stay zero. d_cov2d is
    symmetric by construction.
    """

    d_color: np.ndarray
    d_opacity: np.ndarray
    d_mean2d: np.ndarray
    d_cov2d: np.ndarray

    @classmethod
    def zeros(cls, n):
        return cls(
            d_color=np.zeros((n, 3)),
            d_opacity=np.zeros(n),
            d_mean2d=np.zeros((n, 2)),
            d_cov2d=np.zeros((n, 2, 2)),
        )


def _backward_tile(xs, ys, order, packed, sources, background, final_t,
                   n_contrib, d_pixels, grads, t_log=None):
    """Accumulate screen-space gradients for one tile's pixels.

    final_t and n_contrib are the forward pass's per-pixel aux values for
    these pixels; d_pixels is the upstream gradient, shape (P, 3). When
    t_log is a list, (bin position, T before the splat) snapshots are
    appended back to front for diagnostics, with non-contributing pixels
    masked to NaN.
    """
    max_n = int(n_contrib.max()) if len(order) else 0
    if max_n == 0:
        return
    order = np.asarray(order[:max_n], dtype=np.int64)
    d_r, d_g, d_b = (np.ascontiguousarray(d_pixels[:, ch]) for ch in range(3))

    # Front to back: replay the forward cumprod, block by block, for T
    # before every splat.
    blocks = []
    trans = np.ones(xs.shape[0])
    for start in range(0, max_n, BLOCK):
        idx = order[start:start + BLOCK]
        a = _block_alpha(xs, ys, packed, idx)
        pos = np.arange(start, start + idx.size)
        contrib = a.visible & (n_contrib[None, :] > pos[:, None])
        t = _transmittance(trans, a.alpha, contrib)
        trans = t[-1]
        blocks.append((start, idx, a, contrib, t[:-1]))

    # Back to front. The color behind each splat enters only through its
    # product with dL/dC, so carry s = suffix . dL/dC, seeded with the
    # attenuated background, as a reverse cumulative sum.
    s = (background[0] * d_r + background[1] * d_g + background[2] * d_b) * final_t
    d_color = np.zeros((max_n, 3))
    d_opacity = np.zeros(max_n)
    d_mean2d = np.zeros((max_n, 2))
    d_cov2d = np.zeros((max_n, 2, 2))
    for start, idx, a, contrib, t_before in reversed(blocks):
        rows = slice(start, start + idx.size)
        c = packed.color[idx]
        c_dl = c[:, 0, None] * d_r + c[:, 1, None] * d_g + c[:, 2, None] * d_b
        weight = np.where(contrib, a.alpha * t_before, 0.0)
        term = weight * c_dl
        # behind[k] = s + sum of term over the splats after k in the block.
        behind = np.empty_like(term)
        behind[0] = s
        behind[1:] = term[:0:-1]
        behind = np.cumsum(behind, axis=0)[::-1]
        s = behind[0] + term[0]
        if t_log is not None:
            for k in range(idx.size - 1, -1, -1):
                if contrib[k].any():
                    t_log.append((start + k, np.where(contrib[k], t_before[k], np.nan)))

        for ch, d_ch in enumerate((d_r, d_g, d_b)):
            d_color[rows, ch] = np.add.reduce(weight * d_ch, axis=1)

        # dC/dalpha . dL/dC is (c . dL/dC) * T - s / (1 - alpha); splats
        # clamped at ALPHA_MAX keep their color gradient but have a flat
        # alpha, so the opacity/mean/covariance paths go dead there.
        d_alpha = c_dl * t_before - behind / (1.0 - a.alpha)
        live = contrib & (a.alpha_raw < ALPHA_MAX)
        d_opacity[rows] = np.add.reduce(np.where(live, d_alpha * a.exp_neg, 0.0), axis=1)
        # Gradient with respect to -sigma, so that the mean and covariance
        # sums below carry no sign flips.
        d_neg_sig = np.where(live, a.alpha_raw * d_alpha, 0.0)

        y0 = packed.inv_a[idx, None] * a.dx + packed.inv_b[idx, None] * a.dy
        y1 = packed.inv_b[idx, None] * a.dx + packed.inv_c[idx, None] * a.dy
        g0 = d_neg_sig * y0
        g1 = d_neg_sig * y1
        d_mean2d[rows, 0] = np.add.reduce(g0, axis=1)
        d_mean2d[rows, 1] = np.add.reduce(g1, axis=1)
        d_cov2d[rows, 0, 0] = 0.5 * np.add.reduce(g0 * y0, axis=1)
        d_cov2d[rows, 0, 1] = 0.5 * np.add.reduce(g0 * y1, axis=1)
        d_cov2d[rows, 1, 1] = 0.5 * np.add.reduce(g1 * y1, axis=1)
    d_cov2d[:, 1, 0] = d_cov2d[:, 0, 1]

    src = sources[order]
    np.add.at(grads.d_color, src, d_color)
    np.add.at(grads.d_opacity, src, d_opacity)
    np.add.at(grads.d_mean2d, src, d_mean2d)
    np.add.at(grads.d_cov2d, src, d_cov2d)


def _pixel_backward(sorted_bin, projected, scene, pixel_center, background,
                    aux_entry, d_pixel, t_log=None):
    """Run the tile kernel on the single pixel at pixel_center."""
    grads = Splat2DGrads.zeros(len(scene))
    _backward_tile(
        xs=np.array([float(pixel_center[0])]),
        ys=np.array([float(pixel_center[1])]),
        order=list(sorted_bin),
        packed=_pack_splats(projected, scene),
        sources=ProjectedSplats.of(projected).source_index,
        background=np.asarray(background, dtype=np.float64),
        final_t=np.array([aux_entry.final_T]),
        n_contrib=np.array([aux_entry.n_contrib], dtype=np.int64),
        d_pixels=np.asarray(d_pixel, dtype=np.float64).reshape(1, 3),
        grads=grads,
        t_log=t_log,
    )
    return grads


def composite_pixel_backward(sorted_bin, projected, scene, pixel_center,
                             background, aux_entry, d_pixel):
    """Gradients of one pixel's composited color, per scene gaussian.

    aux_entry must come from composite_pixel on identical inputs; only the
    first n_contrib bin entries are revisited, and the background term
    starts from its final_T. Returns a Splat2DGrads with one row per
    gaussian in `scene`.
    """
    return _pixel_backward(sorted_bin, projected, scene, pixel_center,
                           background, aux_entry, d_pixel)


def transmittance_replay(sorted_bin, projected, scene, pixel_center,
                         background, aux_entry):
    """Transmittance values the backward pass replays at one pixel.

    Returns (bin position, T before the splat) pairs in back-to-front
    order, one per splat that contributed in the forward pass. Exposed so
    the replay can be checked against independently recomputed forward
    values.
    """
    t_log = []
    _pixel_backward(sorted_bin, projected, scene, pixel_center, background,
                    aux_entry, np.zeros(3), t_log)
    return [(pos, float(t[0])) for pos, t in t_log if np.isfinite(t[0])]


def accumulate_image_backward(scene, result, d_image):
    """Sum per-pixel compositing gradients over the whole image.

    Args:
        scene: the Splats or gaussian list the render used.
        result: RenderResult from render() on identical inputs.
        d_image: upstream gradient, shape (height, width, 3).

    Returns:
        Splat2DGrads totals, one row per scene gaussian, accumulated tile
        by tile in a fixed order so repeated runs agree bitwise.
    """
    d_image = np.asarray(d_image, dtype=np.float64)
    h, w = result.image.height, result.image.width
    if d_image.shape != (h, w, 3):
        raise ValueError(
            f"d_image must have shape {(h, w, 3)}, got {d_image.shape}"
        )
    grads = Splat2DGrads.zeros(len(scene))
    packed = _pack_splats(result.projected, scene)
    sources = ProjectedSplats.of(result.projected).source_index
    for b, rows, cols, xs, ys in _iter_tiles(result.grid, w, h):
        order = result.grid.bins[b]
        if not order:
            continue
        _backward_tile(
            xs=xs,
            ys=ys,
            order=order,
            packed=packed,
            sources=sources,
            background=result.background,
            final_t=result.aux.final_T[rows, cols].ravel(),
            n_contrib=result.aux.n_contrib[rows, cols].ravel(),
            d_pixels=d_image[rows, cols].reshape(-1, 3),
            grads=grads,
        )
    return grads
