"""Reverse-mode compositing.

Pushes each pixel's loss gradient onto every contributor's color,
opacity, 2D mean and 2D covariance. It reads the pairs the forward pass
committed and render kept on its result, one CommittedPairs record per
pair block: pixel, bin position, splat, exp(-sigma) and the
transmittance before the pair. The per-pixel operations composite their
one pixel with early termination off, where every visible pair commits
with the T before it that any render gives it, and keep the pairs
before its n_contrib. Alpha and its clamp come back from exp(-sigma)
through the forward kernel's expressions, and dx, dy from the pixel
centers, so every value equals the forward pass's bitwise and nothing
is divided by (1 - alpha). The color composited behind each pair is
needed only through its product with dL/dC, so one walk over the pairs
back to front (the blocks last to first, each block's pairs reversed)
carries that scalar per pixel and adds each pair's terms as it goes.
Each per-splat total is one sequential sum over the pairs in reverse
pair order (np.add.at), with no BLAS product, so the gradients do not
depend on where the blocks fall.
"""

from dataclasses import dataclass

import numpy as np

from .core import Splats
from .projection import ProjectedSplats
from .raster_forward import ALPHA_MAX, _composite, _pack_splats, _pixel_entries, _walk


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


def _backward(blocks, packed, centers, rows, n, background, final_t, d_pixels):
    """Screen-space gradients of the committed pairs in blocks, summed
    into n rows; packed splat k lands in row rows[k].

    centers is (x, y), the center of every pixel, and final_t the forward
    pass's per-pixel final T; d_pixels is the upstream gradient, (P, 3).
    """
    # The color behind each pair enters only through its product with
    # dL/dC, so carry s = suffix . dL/dC, seeded with the attenuated
    # background, back to front: each block's pairs reversed, the blocks
    # last to first. Every term is added to its total as it is built, with
    # np.add.at: one sequential sum per total in reverse pair order, so
    # where the blocks fall changes no bit. Rows: d_color (3), d_opacity,
    # d_mean2d (2), d_cov2d [0, 0], [0, 1] and [1, 1].
    s = (background[0] * d_pixels[:, 0] + background[1] * d_pixels[:, 1]
         + background[2] * d_pixels[:, 2]) * final_t
    totals = np.zeros((9, n))
    for pairs in reversed(blocks):
        _add_block(pairs._make(x[::-1] for x in pairs), packed, d_pixels, s, centers, rows, totals)
    # The covariance terms carry a factor 1/2, applied once to the totals
    # (scaling by 0.5 is exact).
    totals[6:] *= 0.5
    return Splat2DGrads(
        d_color=np.ascontiguousarray(totals[:3].T),
        d_opacity=totals[3],
        d_mean2d=np.ascontiguousarray(totals[4:6].T),
        d_cov2d=totals[[6, 7, 7, 8]].T.reshape(n, 2, 2),
    )


def _add_block(pairs, packed, d_pixels, s, centers, rows, totals):
    """Walk one block's CommittedPairs in their order, carrying the
    per-pixel s = suffix . dL/dC in place, and add their gradient terms to
    totals (9, n) in that order.

    alpha and its clamp come from the forward kernel's expressions, so
    they are bitwise the forward values."""
    # Indexing with int32 arrays converts them on every gather; once here.
    pix, splat = pairs.pix.astype(np.intp), pairs.splat.astype(np.intp)
    alpha_raw = packed.opacity[splat] * pairs.exp_neg
    alpha = np.minimum(alpha_raw, ALPHA_MAX)
    # (np.take gathers rows several times faster than fancy indexing.)
    c = np.take(packed.color, splat, axis=0)
    d = np.take(d_pixels, pix, axis=0)
    c_dl = c[:, 0] * d[:, 0] + c[:, 1] * d[:, 1] + c[:, 2] * d[:, 2]
    weight = alpha * pairs.t_before
    behind = _walk(pix, pairs.pos, weight * c_dl, s, np.add)
    row = rows[splat]

    def add(k, x):
        np.add.at(totals[k], row, x)

    for ch in range(3):
        add(ch, weight * d[:, ch])
    # dC/dalpha . dL/dC is (c . dL/dC) * T - s / (1 - alpha); splats
    # clamped at ALPHA_MAX keep their color gradient but have a flat
    # alpha, so the opacity/mean/covariance paths go dead there.
    d_alpha = c_dl * pairs.t_before - behind / (1.0 - alpha)
    live = alpha_raw < ALPHA_MAX
    add(3, np.where(live, d_alpha * pairs.exp_neg, 0.0))
    # Gradient with respect to -sigma, so that the mean and covariance
    # sums below carry no sign flips.
    d_neg_sig = np.where(live, alpha_raw * d_alpha, 0.0)
    # The pixel centers the forward kernel used (integers plus 0.5 in an
    # image, exact in float64), so dx and dy equal its values bitwise.
    dx = centers[0][pix] - packed.mean_x[splat]
    dy = centers[1][pix] - packed.mean_y[splat]
    inv_b = packed.inv_b[splat]
    y0 = packed.inv_a[splat] * dx + inv_b * dy
    y1 = inv_b * dx + packed.inv_c[splat] * dy
    g = d_neg_sig * y0
    add(4, g)
    add(6, g * y0)
    add(7, g * y1)
    g = d_neg_sig * y1
    add(5, g)
    add(8, g * y1)


def _pixel_pairs(sorted_bin, projected, splats, pixel_center, n_contrib):
    """The packed splats and contributing pairs of composite_pixel's one
    pixel. Composited without early termination, every visible pair
    commits; T never increases, so the ones before n_contrib are exactly
    those the forward pass committed, with either setting."""
    packed = _pack_splats(projected, splats)
    *_, blocks = _composite(_pixel_entries(sorted_bin, pixel_center), packed, 1,
                            np.zeros(3), False)
    return packed, [p._make(x[p.pos < n_contrib] for x in p) for p in blocks]


def composite_pixel_backward(sorted_bin, projected, scene, pixel_center,
                             background, aux_entry, d_pixel):
    """Gradients of one pixel's composited color, per scene gaussian.

    aux_entry must come from composite_pixel on identical inputs; only the
    first n_contrib bin entries are revisited, and the background term
    starts from its final_T. Returns a Splat2DGrads with one row per
    gaussian in `scene`.
    """
    splats = Splats.of(scene)
    packed, pairs = _pixel_pairs(sorted_bin, projected, splats, pixel_center,
                                 aux_entry.n_contrib)
    return _backward(
        pairs,
        packed,
        (np.array([float(pixel_center[0])]), np.array([float(pixel_center[1])])),
        ProjectedSplats.of(projected).source_index,
        len(splats),
        np.asarray(background, dtype=np.float64),
        np.array([aux_entry.final_T]),
        np.asarray(d_pixel, dtype=np.float64).reshape(1, 3),
    )


def transmittance_replay(sorted_bin, projected, scene, pixel_center,
                         background, aux_entry):
    """Transmittance values the backward pass reads at one pixel.

    Returns (bin position, T before the splat) pairs in back-to-front
    order, one per splat that contributed in the forward pass. Exposed so
    the walk can be checked against independently recomputed forward
    values. background is unused; it is accepted so the call mirrors
    composite_pixel_backward.
    """
    _, pairs = _pixel_pairs(sorted_bin, projected, Splats.of(scene), pixel_center,
                            aux_entry.n_contrib)
    return [(int(k), float(t)) for p in reversed(pairs)
            for k, t in zip(p.pos[::-1], p.t_before[::-1])]


def accumulate_image_backward(scene, result, d_image):
    """Sum per-pixel compositing gradients over the whole image.

    Reads the committed pairs render kept on result.pairs.

    Args:
        scene: the Splats, or list of Gaussian3D, the render used.
        result: RenderResult from render() on identical inputs.
        d_image: upstream gradient, shape (height, width, 3).

    Returns:
        Splat2DGrads totals, one row per scene gaussian, summed in a fixed
        pair order so repeated runs agree bitwise.
    """
    splats = Splats.of(scene)
    d_image = np.asarray(d_image, dtype=np.float64)
    h, w = result.image.height, result.image.width
    if d_image.shape != (h, w, 3):
        raise ValueError(
            f"d_image must have shape {(h, w, 3)}, got {d_image.shape}"
        )
    return _backward(
        result.pairs,
        _pack_splats(result.projected, splats),
        (np.tile(np.arange(w) + 0.5, h), np.repeat(np.arange(h) + 0.5, w)),
        result.projected.source_index,
        len(splats),
        result.background,
        result.aux.final_T.ravel(),
        d_image.reshape(-1, 3),
    )
