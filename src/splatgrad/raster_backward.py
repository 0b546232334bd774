"""Reverse-mode compositing.

Replays the forward pass's flat (splat, pixel) pairs and pushes each
pixel's loss gradient onto every contributor's color, opacity, 2D mean
and 2D covariance. Alpha and sigma come from the forward kernel itself,
so skip decisions and clamping replay identically. Transmittance before
each pair is the forward walk replayed front to back, bitwise equal to
the forward values; nothing is divided by (1 - alpha). The color
composited behind each pair is needed only through its product with
dL/dC, so a back-to-front walk carries that scalar per pixel. Per-splat
totals are sums over the pairs in pair order (np.bincount), block by
block, with no BLAS product.
"""

from dataclasses import dataclass

import numpy as np

from .projection import ProjectedSplats
from .raster_forward import (
    ALPHA_MAX,
    _blocks,
    _evaluate,
    _image_entries,
    _pack_splats,
    _pixel_entries,
    _walk,
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


def _contributing_walk(entries, e0, e1, packed, n_contrib, trans):
    """The pairs of entries[e0:e1] that contributed in the forward pass
    (visible, and before the pixel's n_contrib), with the T before each
    from a walk that starts at the per-pixel trans (updated in place).
    Returns (pairs, T before)."""
    pairs = _evaluate(entries, e0, e1, packed)
    keep = (pairs.visible & (pairs.pos < n_contrib[pairs.pix])).nonzero()[0]
    pairs = pairs._make(f[keep] for f in pairs)
    return pairs, _walk(pairs.pix, pairs.pos, 1.0 - pairs.alpha, trans, np.multiply)


def _backward(entries, packed, rows, n, background, final_t, n_contrib, d_pixels):
    """Screen-space gradients of the entries' pixels, summed into n rows;
    packed splat k lands in row rows[k].

    final_t and n_contrib are the forward pass's per-pixel aux values and
    d_pixels the upstream gradient, (P, 3). Blocks are visited back to
    front; each replays its transmittance from the value the front-to-back
    walk reached at its start, so only per-pixel state outlives a block.
    """
    blocks = _blocks(entries)
    starts = [np.ones(final_t.size)]
    for e0, e1 in blocks[:-1]:
        trans = starts[-1].copy()
        _contributing_walk(entries, e0, e1, packed, n_contrib, trans)
        starts.append(trans)

    # The color behind each pair enters only through its product with
    # dL/dC, so carry s = suffix . dL/dC, seeded with the attenuated
    # background, back to front.
    s = (background[0] * d_pixels[:, 0] + background[1] * d_pixels[:, 1]
         + background[2] * d_pixels[:, 2]) * final_t
    grads = Splat2DGrads.zeros(n)
    for (e0, e1), trans in zip(reversed(blocks), reversed(starts)):
        _backward_block(entries, e0, e1, packed, rows, n_contrib, d_pixels,
                        trans, s, grads)
    # The covariance terms carry a factor 1/2, applied once to the totals
    # (scaling by 0.5 is exact).
    grads.d_cov2d *= 0.5
    grads.d_cov2d[:, 1, 0] = grads.d_cov2d[:, 0, 1]
    return grads


def _backward_block(entries, e0, e1, packed, rows, n_contrib, d_pixels,
                    trans, s, grads):
    """Add the gradients of the pairs of entries[e0:e1] to grads.

    trans is the transmittance the front-to-back walk reached at the
    block's start, s the suffix . dL/dC carried back from the blocks
    behind it; both are per-pixel and updated in place.
    """
    p, t_before = _contributing_walk(entries, e0, e1, packed, n_contrib, trans)
    row = rows[p.splat]
    n = grads.d_opacity.size

    def add(out, x):
        out += np.bincount(row, weights=x, minlength=n)

    c = packed.color[p.splat]
    d = d_pixels[p.pix]
    c_dl = c[:, 0] * d[:, 0] + c[:, 1] * d[:, 1] + c[:, 2] * d[:, 2]
    weight = p.alpha * t_before
    for ch in range(3):
        add(grads.d_color[:, ch], weight * d[:, ch])
    behind = _walk(p.pix, p.pos, weight * c_dl, s, np.add, reverse=True)
    # dC/dalpha . dL/dC is (c . dL/dC) * T - s / (1 - alpha); splats
    # clamped at ALPHA_MAX keep their color gradient but have a flat
    # alpha, so the opacity/mean/covariance paths go dead there.
    d_alpha = c_dl * t_before - behind / (1.0 - p.alpha)
    live = p.alpha_raw < ALPHA_MAX
    add(grads.d_opacity, np.where(live, d_alpha * p.exp_neg, 0.0))
    # Gradient with respect to -sigma, so that the mean and covariance
    # sums below carry no sign flips.
    d_neg_sig = np.where(live, p.alpha_raw * d_alpha, 0.0)
    y0 = packed.inv_a[p.splat] * p.dx + packed.inv_b[p.splat] * p.dy
    y1 = packed.inv_b[p.splat] * p.dx + packed.inv_c[p.splat] * p.dy
    g = d_neg_sig * y0
    add(grads.d_mean2d[:, 0], g)
    add(grads.d_cov2d[:, 0, 0], g * y0)
    add(grads.d_cov2d[:, 0, 1], g * y1)
    g = d_neg_sig * y1
    add(grads.d_mean2d[:, 1], g)
    add(grads.d_cov2d[:, 1, 1], g * y1)


def composite_pixel_backward(sorted_bin, projected, scene, pixel_center,
                             background, aux_entry, d_pixel):
    """Gradients of one pixel's composited color, per scene gaussian.

    aux_entry must come from composite_pixel on identical inputs; only the
    first n_contrib bin entries are revisited, and the background term
    starts from its final_T. Returns a Splat2DGrads with one row per
    gaussian in `scene`.
    """
    return _backward(
        _pixel_entries(sorted_bin, pixel_center),
        _pack_splats(projected, scene),
        ProjectedSplats.of(projected).source_index,
        len(scene),
        np.asarray(background, dtype=np.float64),
        np.array([aux_entry.final_T]),
        np.array([aux_entry.n_contrib], dtype=np.int64),
        np.asarray(d_pixel, dtype=np.float64).reshape(1, 3),
    )


def transmittance_replay(sorted_bin, projected, scene, pixel_center,
                         background, aux_entry):
    """Transmittance values the backward pass replays at one pixel.

    Returns (bin position, T before the splat) pairs in back-to-front
    order, one per splat that contributed in the forward pass. Exposed so
    the replay can be checked against independently recomputed forward
    values. background is unused; it is accepted so the call mirrors
    composite_pixel_backward.
    """
    entries = _pixel_entries(sorted_bin, pixel_center)
    pairs, t_before = _contributing_walk(
        entries, 0, entries.pos.size, _pack_splats(projected, scene),
        np.array([aux_entry.n_contrib], dtype=np.int64), np.ones(1))
    return [(int(k), float(t)) for k, t in zip(pairs.pos[::-1], t_before[::-1])]


def accumulate_image_backward(scene, result, d_image):
    """Sum per-pixel compositing gradients over the whole image.

    Args:
        scene: the Splats or gaussian list the render used.
        result: RenderResult from render() on identical inputs.
        d_image: upstream gradient, shape (height, width, 3).

    Returns:
        Splat2DGrads totals, one row per scene gaussian, summed in a fixed
        pair order so repeated runs agree bitwise.
    """
    d_image = np.asarray(d_image, dtype=np.float64)
    h, w = result.image.height, result.image.width
    if d_image.shape != (h, w, 3):
        raise ValueError(
            f"d_image must have shape {(h, w, 3)}, got {d_image.shape}"
        )
    return _backward(
        _image_entries(result.grid, result.projected, w, h),
        _pack_splats(result.projected, scene),
        result.projected.source_index,
        len(scene),
        result.background,
        result.aux.final_T.ravel(),
        result.aux.n_contrib.ravel(),
        d_image.reshape(-1, 3),
    )
