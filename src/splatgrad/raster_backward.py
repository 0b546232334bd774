"""Reverse-mode compositing.

Pushes each pixel's loss gradient onto every contributor's color,
opacity, 2D mean and 2D covariance. It reads the pairs the forward pass
committed and render kept on its result, one CommittedPairs record per
pair block: pixel, bin position, splat, exp(-sigma) and the
transmittance before the pair; and each splat's mean2d, conic, opacity
and color from the result's ProjectedSplats. Alpha and its clamp come
back from exp(-sigma) through the forward kernel's expressions, and dx,
dy from the pixel centers, so every value equals the forward pass's
bitwise and nothing is divided by (1 - alpha). The color composited
behind each pair is needed only through its product with dL/dC, so one
walk over the pairs back to front (the blocks last to first, each
block's pairs reversed) carries that scalar per pixel and adds each
pair's terms as it goes.
The reversed pairs fall into runs: stretches of consecutive pairs with
the same splat and bin position, such as one entry's pairs. Each term is
summed once per run (np.add.reduceat), and the run sums are added to
their splat's total in reverse pair order (np.add.at), with no BLAS
product. A run never spans a bin position and a block holds whole
positions, so the gradients do not depend on where the blocks fall.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SPLAT_FIELDS, RowError, Splats, as_finite
from .raster_forward import ALPHA_MAX, _walk


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


def _backward(blocks, projected, centers, n, background, final_t, d_pixels):
    """Screen-space gradients of the committed pairs in blocks, whose
    splats index the rows of the ProjectedSplats projected, summed into n
    rows; row k lands in row projected.source_index[k].

    centers is (x, y), the center of every pixel, and final_t the forward
    pass's per-pixel final T; d_pixels is the upstream gradient, (P, 3).
    """
    # The color behind each pair enters only through its product with
    # dL/dC, so carry s = suffix . dL/dC, seeded with the attenuated
    # background, back to front: each block's pairs reversed, the blocks
    # last to first. Every term is summed per run of pairs with one splat
    # and bin position (np.add.reduceat) as it is built, and the run sums
    # are added to their totals in reverse pair order (np.add.at). Runs end
    # at every bin position, and so at every block edge, so where the
    # blocks fall changes no bit. Rows: d_color (3), d_opacity, d_mean2d
    # (2), d_cov2d [0, 0], [0, 1] and [1, 1].
    s = (background[0] * d_pixels[:, 0] + background[1] * d_pixels[:, 1]
         + background[2] * d_pixels[:, 2]) * final_t
    totals = np.zeros((9, n))
    for pairs in reversed(blocks):
        _add_block(pairs._make(x[::-1] for x in pairs), projected, d_pixels, s, centers, totals)
    # The covariance terms carry a factor 1/2, applied once to the totals
    # (scaling by 0.5 is exact).
    totals[6:] *= 0.5
    return Splat2DGrads(
        d_color=np.ascontiguousarray(totals[:3].T),
        d_opacity=totals[3],
        d_mean2d=np.ascontiguousarray(totals[4:6].T),
        d_cov2d=totals[[6, 7, 7, 8]].T.reshape(n, 2, 2),
    )


def _add_block(pairs, projected, d_pixels, s, centers, totals):
    """Walk one block's CommittedPairs in their order, carrying the
    per-pixel s = suffix . dL/dC in place, and add their gradient terms to
    totals (9, n), one sum per run of pairs with the same splat and bin
    position, in that order.

    alpha and its clamp come from the forward kernel's expressions, so
    they are bitwise the forward values."""
    if not pairs.pix.size:
        # A block may commit no pair; a render with no bin entries keeps
        # one empty block.
        return
    # Indexing with int32 arrays converts them on every gather; once here.
    pix, splat = pairs.pix.astype(np.intp), pairs.splat.astype(np.intp)
    alpha_raw = projected.opacity[splat] * pairs.exp_neg
    alpha = np.minimum(alpha_raw, ALPHA_MAX)
    # (np.take gathers rows several times faster than fancy indexing.)
    c = np.take(projected.color, splat, axis=0)
    d = np.take(d_pixels, pix, axis=0)
    c_dl = c[:, 0] * d[:, 0] + c[:, 1] * d[:, 1] + c[:, 2] * d[:, 2]
    weight = alpha * pairs.t_before
    behind = _walk(pix, pairs.pos, weight * c_dl, s, np.add)
    # The first pair of each run of pairs with one splat and bin position.
    start = np.flatnonzero((splat[1:] != splat[:-1]) | (pairs.pos[1:] != pairs.pos[:-1]))
    start = np.concatenate(([0], start + 1))
    row = projected.source_index[splat[start]]

    def add(k, x):
        np.add.at(totals[k], row, np.add.reduceat(x, start))

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
    mean_x, mean_y = projected.mean2d.T
    inv_a, inv_b, inv_c = projected.conic.T
    dx = centers[0][pix] - mean_x[splat]
    dy = centers[1][pix] - mean_y[splat]
    inv_b = inv_b[splat]
    y0 = inv_a[splat] * dx + inv_b * dy
    y1 = inv_b * dx + inv_c[splat] * dy
    g = d_neg_sig * y0
    add(4, g)
    add(6, g * y0)
    add(7, g * y1)
    g = d_neg_sig * y1
    add(5, g)
    add(8, g * y1)


def accumulate_image_backward(scene, result, d_image):
    """Sum per-pixel compositing gradients over the whole image.

    Reads the committed pairs render kept on result.pairs, and each
    splat's opacity and color from result.projected; the scene must hold
    the rendered values.

    Args:
        scene: the Splats, or list of Gaussian3D, the render used.
        result: RenderResult from render() on identical inputs.
        d_image: upstream gradient, shape (height, width, 3), finite.

    Returns:
        Splat2DGrads totals, one row per scene gaussian, summed in a fixed
        pair order so repeated runs agree bitwise.

    Raises:
        ValueError naming d_image unless it has the image's shape and is
        finite; naming a scene array whose shape changed (means must have
        shape (2, 3), got (2, 2)), or the scene when it has too few splats
        for the render's rows; and naming the first splat and field (e.g.
        gaussians[3].opacity) whose mean, scale, quat, opacity or color
        differs from the render's.
    """
    h, w = result.image.height, result.image.width
    d_image = as_finite(d_image, (h, w, 3), "d_image")
    splats = Splats.of(scene)
    _check_scene(splats, result.projected)
    return _backward(
        result.pairs,
        result.projected,
        (np.tile(np.arange(w) + 0.5, h), np.repeat(np.arange(h) + 0.5, w)),
        len(splats),
        result.background,
        result.aux.final_T.ravel(),
        d_image.reshape(-1, 3),
    )


def _check_scene(splats, projected):
    """Raise ValueError unless the Splats holds the rows of the
    ProjectedSplats projected: at least source_index.max() + 1 splats,
    with the same mean, scale, quat, opacity and color at each
    source_index. A culled splat may differ."""
    splats._check_shapes()
    src = projected.source_index
    n = int(src.max(initial=-1)) + 1
    if len(splats) < n:
        raise ValueError(f"scene has {len(splats)} splats, but the render "
                         f"projected gaussians[{n - 1}]")
    bad = [(np.take(getattr(splats, attr), src, axis=0) != getattr(projected, name))
           .reshape(len(src), math.prod(shape)) for name, attr, shape in SPLAT_FIELDS]
    if any(b.any() for b in bad):
        # Rows are in source order, so the first bad row is the first splat.
        k = np.concatenate(bad, axis=1).any(axis=1).argmax()
        name = next(name for (name, _, _), b in zip(SPLAT_FIELDS, bad) if b[k].any())
        raise RowError("differs from the render's", int(src[k]), name)
