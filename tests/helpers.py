"""Shared scene builders, the independent reference compositor, and the
one-pixel views of the compositing kernels used across the test
modules."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from splatgrad import Camera, Gaussian3D, ProjectedSplats, Splats, project_splats
from splatgrad import gradcheck, proj_backward
from splatgrad.projection import _conic
from splatgrad.raster_backward import _backward
from splatgrad.raster_forward import (
    ALPHA_MAX,
    ALPHA_MIN,
    SIGMA_CUT,
    T_MIN,
    _composite,
    _Entries,
    _pair_alpha,
)


def wrap_backward(monkeypatch, transform):
    """Make the audit compare transform(grads), grads being the
    SceneGradients scene_backward returns, so a test can corrupt a block
    and see the audit flag it. The patch wraps proj_backward's
    scene_backward, not gradcheck's current one, so patching again
    replaces the wrapper instead of stacking another."""
    monkeypatch.setattr(gradcheck, "scene_backward",
                        lambda *args: transform(proj_backward.scene_backward(*args)))


def rows(scene):
    """The scene (a Splats or a list of Gaussian3D) as a list of
    Gaussian3D rows holding copies of its values, for the per-splat
    oracles."""
    s = Splats.of(scene)
    return [Gaussian3D(*(x.copy() for x in row))
            for row in zip(s.means, s.scales, s.quats, s.opacities, s.colors)]


def stack_projected(entries):
    """A ProjectedSplats from (t_cam, mean2d, cov2d, depth, radius,
    source_index) entries, one row each, its conic formed as in
    project_splats. Opacity and color are zero (the per-pixel helpers take
    them from a Splats); the backward pass's factors stay None."""
    n = len(entries)
    columns = list(zip(*entries)) if n else [()] * 6
    shapes = ((n, 3), (n, 2), (n, 2, 2), (n,), (n,), (n,))
    types = (np.float64,) * 4 + (np.int64,) * 2
    t_cam, mean2d, cov2d, depth, radius, source_index = (
        np.array(c, dtype=t).reshape(shape) for c, shape, t in zip(columns, shapes, types))
    return ProjectedSplats(t_cam, mean2d, cov2d, _conic(cov2d), depth, radius, source_index,
                           opacity=np.zeros(n), color=np.zeros((n, 3)))


def with_scene_values(projected, splats):
    """projected with the opacity and color of the Splats splats at its
    source_index, so a test can perturb them against one projection."""
    src = projected.source_index
    return replace(projected, opacity=splats.opacities[src], color=splats.colors[src])


def frustum_camera(width, height, fx=None, near=0.1, far=100.0):
    """Identity-view pinhole camera with the principal point at the
    image center."""
    if fx is None:
        fx = float(max(width, height))
    return Camera(
        view=np.eye(4), fx=fx, fy=fx,
        cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
        width=width, height=height, near=near, far=far,
    )


def rotated_camera(rng, width, height):
    """Camera with a small random rotation and translation."""
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    angle = rng.uniform(0.05, 0.4)
    w = np.cos(angle / 2.0)
    v = np.sin(angle / 2.0) * axis
    q = np.array([w, v[0], v[1], v[2]])
    from splatgrad import quat_to_rotmat

    view = np.eye(4)
    view[:3, :3] = quat_to_rotmat(q)
    view[:3, 3] = rng.uniform(-0.2, 0.2, size=3)
    cam = frustum_camera(width, height)
    cam.view = view
    return cam


def frustum_scene(rng, n, camera, depth_range=(2.0, 8.0),
                  scale_px=(1.0, 3.0), opacity=(0.2, 0.95)):
    """Random splats backprojected onto the image so footprints land on
    visible pixels."""
    scene = []
    for _ in range(n):
        px = rng.uniform(1.0, camera.width - 1.0)
        py = rng.uniform(1.0, camera.height - 1.0)
        depth = rng.uniform(*depth_range)
        t_cam = np.array(
            [
                (px - 0.5 - camera.cx) * depth / camera.fx,
                (py - 0.5 - camera.cy) * depth / camera.fy,
                depth,
            ]
        )
        mean = camera.rotation.T @ (t_cam - camera.translation)
        scene.append(
            Gaussian3D(
                mean=mean,
                scale=rng.uniform(*scale_px, size=3) * depth / camera.fx,
                quat=rng.normal(size=4),
                opacity=rng.uniform(*opacity),
                color=rng.uniform(0.0, 1.0, size=3),
            )
        )
    return scene


def naive_render(scene, camera, background, early_termination=True):
    """Reference renderer: no tiles, one python loop per pixel.

    Projection reuses the library ops (each has its own oracle tests);
    everything after that point is written independently. Splats are
    sorted globally, the quadratic form goes through numpy's linear
    solver rather than a hand-inverted 2x2, and compositing walks every
    splat for every pixel. Agreement with render() is expected to ~1e-12,
    not bitwise, because the solver path rounds differently.
    """
    background = np.asarray(background, dtype=np.float64)
    splats = Splats.of(scene)
    p = project_splats(splats, camera)
    order = np.lexsort((p.source_index, p.depth)).tolist()

    image = np.empty((camera.height, camera.width, 3))
    final_t = np.empty((camera.height, camera.width))
    for row in range(camera.height):
        for col in range(camera.width):
            center = np.array([col + 0.5, row + 0.5])
            color = np.zeros(3)
            trans = 1.0
            for k in order:
                delta = center - p.mean2d[k]
                sigma = 0.5 * float(delta @ np.linalg.solve(p.cov2d[k], delta))
                if sigma > SIGMA_CUT:
                    continue
                src = p.source_index[k]
                alpha = min(splats.opacities[src] * float(np.exp(-sigma)), ALPHA_MAX)
                if alpha < ALPHA_MIN:
                    continue
                next_trans = trans * (1.0 - alpha)
                if early_termination and next_trans < T_MIN:
                    break
                color = color + alpha * trans * splats.colors[src]
                trans = next_trans
            image[row, col] = color + background * trans
            final_t[row, col] = trans
    return image, final_t


# One pixel through the library's compositing kernels (_pair_alpha,
# _composite, _backward): each pixel's bin is composited alone, as one
# entry per bin position covering pixel 0 at pixel_center, which need not
# be a pixel center of any image.


class PixelAux(NamedTuple):
    """One pixel's final transmittance and contributor count."""

    final_T: float
    n_contrib: int


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


def eval_alpha(projected, row, opacity, pixel_center):
    """_pair_alpha for row `row` of a ProjectedSplats at one pixel center.

    Returns (alpha, delta, sigma): delta = pixel_center - mean2d, sigma
    half the squared Mahalanobis distance, and alpha 0.0 where the pair is
    not visible (below ALPHA_MIN or past the SIGMA_CUT cutoff).
    """
    dx, dy, sigma, _, _, alpha, visible = _pair_alpha(
        np.array([float(pixel_center[0])]), np.array([float(pixel_center[1])]),
        replace(projected, opacity=np.full(len(projected), float(opacity))), np.array([row]))
    return (float(alpha[0]) if visible[0] else 0.0,
            np.array([dx[0], dy[0]]), float(sigma[0]))


def composite_pixel(sorted_bin, projected, splats, pixel_center, background,
                    early_termination=True):
    """Composite one pixel against sorted_bin, indices into the
    ProjectedSplats projected in front-to-back order; opacity and color
    come from the Splats splats by source_index.

    Returns (color 3-vector, PixelAux(final_T, n_contrib)).
    """
    color, trans, n_contrib, _ = _composite(
        _pixel_entries(sorted_bin, pixel_center), with_scene_values(projected, splats), 1,
        np.asarray(background, dtype=np.float64), early_termination)
    return color[:, 0], PixelAux(float(trans[0]), int(n_contrib[0]))


def _pixel_pairs(sorted_bin, projected, splats, pixel_center, n_contrib):
    """The projected rows, with the opacity and color of splats, and the
    contributing pairs of one pixel. Composited without early termination,
    every visible pair commits; T never increases, so the ones before
    n_contrib are exactly those the forward pass committed, with either
    setting."""
    projected = with_scene_values(projected, splats)
    *_, blocks = _composite(_pixel_entries(sorted_bin, pixel_center), projected, 1,
                            np.zeros(3), False)
    return projected, [p._make(x[p.pos < n_contrib] for x in p) for p in blocks]


def composite_pixel_backward(sorted_bin, projected, splats, pixel_center,
                             background, aux, d_pixel):
    """Gradients of one pixel's composited color, a Splat2DGrads with one
    row per splat of splats. aux must come from composite_pixel (or the
    render) on identical inputs."""
    projected, pairs = _pixel_pairs(sorted_bin, projected, splats, pixel_center,
                                    aux.n_contrib)
    return _backward(
        pairs,
        projected,
        (np.array([float(pixel_center[0])]), np.array([float(pixel_center[1])])),
        len(splats),
        np.asarray(background, dtype=np.float64),
        np.array([aux.final_T]),
        np.asarray(d_pixel, dtype=np.float64).reshape(1, 3),
    )


def transmittance_replay(sorted_bin, projected, splats, pixel_center, aux):
    """(bin position, T before the splat) for every splat that contributed
    at one pixel, back to front."""
    _, pairs = _pixel_pairs(sorted_bin, projected, splats, pixel_center,
                            aux.n_contrib)
    return [(int(k), float(t)) for p in reversed(pairs)
            for k, t in zip(p.pos[::-1], p.t_before[::-1])]


# Reference oracles for the compositing passes: the per-splat loops the
# rasterizer used before its kernels were vectorised, run tile by tile
# over every pixel of each tile's bin (oracle_render, oracle_image_backward).


def iter_tiles(grid, width, height):
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


def oracle_render(scene, result, early_termination):
    """(image, final_T, n_contrib) of result's grid and projection,
    composited tile by tile with oracle_composite_tile at every pixel."""
    projected = with_scene_values(result.projected, Splats.of(scene))
    h, w = result.image.height, result.image.width
    image = np.zeros((h, w, 3))
    final_t = np.ones((h, w))
    n_contrib = np.zeros((h, w), dtype=np.int64)
    bins = result.grid.bins
    for b, rows, cols, xs, ys in iter_tiles(result.grid, w, h):
        color, trans, contrib = oracle_composite_tile(
            xs, ys, bins[b], projected, result.background, early_termination)
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        image[rows, cols] = color.reshape(shape + (3,))
        final_t[rows, cols] = trans.reshape(shape)
        n_contrib[rows, cols] = contrib.reshape(shape)
    return image, final_t, n_contrib


def oracle_image_backward(scene, result, d_image):
    """accumulate_image_backward computed tile by tile with
    oracle_backward_tile."""
    from splatgrad import Splat2DGrads

    grads = Splat2DGrads.zeros(len(scene))
    projected = with_scene_values(result.projected, Splats.of(scene))
    h, w = result.image.height, result.image.width
    bins = result.grid.bins
    for b, rows, cols, xs, ys in iter_tiles(result.grid, w, h):
        if bins[b]:
            oracle_backward_tile(
                xs, ys, bins[b], projected, result.background,
                result.aux.final_T[rows, cols].ravel(), result.aux.n_contrib[rows, cols].ravel(),
                d_image[rows, cols].reshape(-1, 3), grads)
    return grads


def oracle_composite_tile(xs, ys, order, projected, background,
                          early_termination, t_log=None):
    """Front-to-back compositing, one row of the ProjectedSplats projected
    in `order` at a time.

    Returns (color (P, 3), final_T (P,), n_contrib (P,)). When t_log is a
    list, (bin position, T before the splat) is appended for every splat
    that commits at some pixel, with the other pixels set to NaN.
    """
    n_px = xs.shape[0]
    color = np.zeros((n_px, 3))
    trans = np.ones(n_px)
    n_contrib = np.zeros(n_px, dtype=np.int64)
    done = np.zeros(n_px, dtype=bool)
    for pos, j in enumerate(order):
        dx = xs - projected.mean2d[j, 0]
        dy = ys - projected.mean2d[j, 1]
        inv_a, inv_b, inv_c = projected.conic[j]
        sigma = 0.5 * (inv_a * dx * dx + inv_c * dy * dy) + inv_b * dx * dy
        alpha = np.minimum(projected.opacity[j] * np.exp(-sigma), ALPHA_MAX)
        visible = (sigma <= SIGMA_CUT) & (alpha >= ALPHA_MIN) & ~done
        if not visible.any():
            continue
        next_trans = trans * (1.0 - alpha)
        if early_termination:
            stops = visible & (next_trans < T_MIN)
            done |= stops
            commit = visible & ~stops
        else:
            commit = visible
        if t_log is not None and commit.any():
            t_log.append((pos, np.where(commit, trans, np.nan)))
        weight = np.where(commit, alpha * trans, 0.0)
        color += weight[:, None] * projected.color[j]
        trans = np.where(commit, next_trans, trans)
        n_contrib = np.where(commit, pos + 1, n_contrib)
        if done.all():
            break
    color += background[None, :] * trans[:, None]
    return color, trans, n_contrib


def oracle_backward_tile(xs, ys, order, projected, background, final_t,
                         n_contrib, d_pixels, grads, t_log=None):
    """Back-to-front gradient walk, one splat at a time, rebuilding T from
    final_t by division (T_before = T_after / (1 - alpha)) and carrying
    the full color suffix per pixel."""
    max_n = int(n_contrib.max()) if len(order) else 0
    trans = final_t.astype(np.float64, copy=True)
    suffix = background[None, :] * trans[:, None]
    for pos in range(max_n - 1, -1, -1):
        j = order[pos]
        active = n_contrib > pos
        dx = xs - projected.mean2d[j, 0]
        dy = ys - projected.mean2d[j, 1]
        inv_a, inv_b, inv_c = projected.conic[j]
        sigma = 0.5 * (inv_a * dx * dx + inv_c * dy * dy) + inv_b * dx * dy
        exp_neg = np.exp(-sigma)
        alpha_raw = projected.opacity[j] * exp_neg
        alpha = np.minimum(alpha_raw, ALPHA_MAX)
        contrib = active & (sigma <= SIGMA_CUT) & (alpha >= ALPHA_MIN)
        if not contrib.any():
            continue
        one_minus = 1.0 - alpha
        t_here = np.where(contrib, trans / one_minus, trans)
        if t_log is not None:
            t_log.append((pos, np.where(contrib, t_here, np.nan)))

        src = projected.source_index[j]
        weight = np.where(contrib, alpha * t_here, 0.0)
        grads.d_color[src] += np.sum(weight[:, None] * d_pixels, axis=0)
        d_alpha = np.sum(
            (projected.color[j][None, :] * t_here[:, None]
             - suffix / one_minus[:, None]) * d_pixels,
            axis=1,
        )
        live = contrib & (alpha_raw < ALPHA_MAX)
        grads.d_opacity[src] += np.sum(np.where(live, d_alpha * exp_neg, 0.0))
        d_sig = np.where(live, -alpha_raw * d_alpha, 0.0)

        y0 = inv_a * dx + inv_b * dy
        y1 = inv_b * dx + inv_c * dy
        grads.d_mean2d[src, 0] += np.sum(-d_sig * y0)
        grads.d_mean2d[src, 1] += np.sum(-d_sig * y1)
        c00 = np.sum(-0.5 * d_sig * y0 * y0)
        c01 = np.sum(-0.5 * d_sig * y0 * y1)
        c11 = np.sum(-0.5 * d_sig * y1 * y1)
        grads.d_cov2d[src, 0, 0] += c00
        grads.d_cov2d[src, 0, 1] += c01
        grads.d_cov2d[src, 1, 0] += c01
        grads.d_cov2d[src, 1, 1] += c11

        suffix = suffix + weight[:, None] * projected.color[j][None, :]
        trans = t_here


def reference_pixel_safety_mask(scene, camera, background, sigma_margin=0.05,
                                t_margin=4.0, depth_margin=5e-3):
    """The audit's branch-safety mask computed pixel by pixel: the same
    contract as gradcheck._pixel_safety_mask, with the transmittance band
    found by walking every pixel's bin in pure Python and a scalar alpha
    expression of its own."""
    from splatgrad import (
        camera_to_pixel,
        compose_covariance_3d,
        project_covariance,
        projection_jacobian,
        render,
        world_to_camera,
    )
    from splatgrad.core import matprod

    scene = rows(scene)
    footprints = []
    for g in scene:
        t_cam = world_to_camera(g.mean, camera)
        depth = float(t_cam[2])
        if not camera.near + 0.5 < depth < camera.far - 0.5:
            return None
        _, sigma = compose_covariance_3d(g.quat, g.scale)
        jac = projection_jacobian(t_cam, camera)
        cov2d = project_covariance(matprod(jac, camera.rotation), sigma)
        footprints.append((camera_to_pixel(t_cam, camera), cov2d, depth))
    depths = sorted(depth for _, _, depth in footprints)
    if any(b - a < depth_margin for a, b in zip(depths, depths[1:])):
        return None

    def sigma_at(mean2d, cov2d, xs, ys):
        a, b, c = cov2d[0, 0], cov2d[0, 1], cov2d[1, 1]
        det = a * c - b * b
        inv_a, inv_b, inv_c = c / det, -b / det, a / det
        dx = xs - mean2d[0]
        dy = ys - mean2d[1]
        return 0.5 * (inv_a * dx * dx + inv_c * dy * dy) + inv_b * dx * dy

    mask = np.ones((camera.height, camera.width), dtype=bool)
    ys, xs = np.mgrid[0:camera.height, 0:camera.width]
    for mean2d, cov2d, _ in footprints:
        sigma = sigma_at(mean2d, cov2d, xs + 0.5, ys + 0.5)
        mask &= np.abs(sigma - SIGMA_CUT) > sigma_margin

    res = render(scene, camera, background)
    p = res.projected
    ts = res.grid.tile_size
    for ty in range(res.grid.tiles_y):
        for tx in range(res.grid.tiles_x):
            order = res.grid.bins[ty * res.grid.tiles_x + tx]
            for row in range(ty * ts, min((ty + 1) * ts, camera.height)):
                for col in range(tx * ts, min((tx + 1) * ts, camera.width)):
                    trans = 1.0
                    for idx in order:
                        sigma = float(sigma_at(p.mean2d[idx], p.cov2d[idx],
                                               col + 0.5, row + 0.5))
                        alpha = min(
                            scene[p.source_index[idx]].opacity * float(np.exp(-sigma)),
                            ALPHA_MAX,
                        )
                        if sigma > SIGMA_CUT or alpha < ALPHA_MIN:
                            continue
                        next_trans = trans * (1.0 - alpha)
                        if T_MIN / t_margin < next_trans < T_MIN * t_margin:
                            mask[row, col] = False
                            break
                        if next_trans < T_MIN:
                            break
                        trans = next_trans
    return mask


def oracle_audit_scene(scene, camera, target, *, background, pixel_mask,
                       h=1e-5, rel_tol=1e-4, abs_tol=1e-8, grad_floor=1e-7):
    """gradcheck.audit_scene as it was before the probes were batched:
    every probe is its own render() of a scene rebuilt with
    dataclasses.replace, and each coordinate's central difference comes
    from its own pair of renders, in the report's order.

    The difference of a pair's two losses is summed over the pair's
    window as w (I+ - I-) (I+ + I- - 2 T), row-major with the channels of
    a pixel together. The window bounds the footprints of the probed
    splat, computed by raster_forward._footprints from each render's own
    projected rows and its probe scene's opacities, clipped to the image;
    a view probe's window is the whole image."""
    from dataclasses import replace

    from splatgrad import (
        AUDIT_CLASSES,
        ClassCheck,
        GradReport,
        render,
        scene_backward,
    )
    from splatgrad.raster_forward import _footprints

    scene = rows(scene)
    target = np.asarray(target, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    weight = np.asarray(pixel_mask, dtype=np.float64)

    def window(results, splat):
        """[x0, x1) x [y0, y1) of the pixels in the probed splat's
        footprint in either render; results holds (render, scene) pairs."""
        if splat is None:
            return 0, camera.width, 0, camera.height
        x0 = y0 = np.inf
        x1 = y1 = -np.inf
        for res, probe_scene in results:
            p = res.projected
            boxes = _footprints(with_scene_values(p, Splats.of(probe_scene)))
            for box in boxes[p.source_index == splat].tolist():
                x0, y0 = min(x0, box[0]), min(y0, box[1])
                x1, y1 = max(x1, box[2]), max(y1, box[3])
        x0, x1 = min(max(x0, 0), camera.width), min(max(x1, 0), camera.width)
        y0, y1 = min(max(y0, 0), camera.height), min(max(y1, 0), camera.height)
        return int(x0), int(x1), int(y0), int(y1)

    def central(probe, params, splat=None):
        base = np.asarray(params, dtype=np.float64)
        grad = np.empty(base.shape)
        for idx in np.ndindex(base.shape):
            hi = base.copy()
            hi[idx] += h
            lo = base.copy()
            lo[idx] -= h
            (scene_hi, cam_hi), (scene_lo, cam_lo) = probe(hi), probe(lo)
            res_hi = render(scene_hi, cam_hi, background)
            res_lo = render(scene_lo, cam_lo, background)
            x0, x1, y0, y1 = window(((res_hi, scene_hi), (res_lo, scene_lo)), splat)
            if x1 <= x0 or y1 <= y0:
                grad[idx] = 0.0
                continue
            i_hi = res_hi.image.channels[y0:y1, x0:x1]
            i_lo = res_lo.image.channels[y0:y1, x0:x1]
            delta = (weight[y0:y1, x0:x1, None] * (i_hi - i_lo)
                     * (i_hi + i_lo - 2.0 * target[y0:y1, x0:x1])).sum()
            assert np.isfinite(delta)
            grad[idx] = delta / (2.0 * h)
        return grad

    result = render(scene, camera, background)
    d_image = 2.0 * weight[:, :, None] * (result.image.channels - target)
    analytic = scene_backward(scene, camera, result, d_image)
    entries = {name: [] for name in AUDIT_CLASSES}

    def record(name, label, a_val, f_val):
        a = np.atleast_1d(np.asarray(a_val, dtype=np.float64)).ravel()
        f = np.atleast_1d(np.asarray(f_val, dtype=np.float64)).ravel()
        for k in range(a.size):
            tag = f"{label}[{k}]" if a.size > 1 else label
            entries[name].append((tag, float(a[k]), float(f[k])))

    for i, g in enumerate(scene):
        for field in ("mean", "scale", "quat", "color"):
            def probe(vec, i=i, field=field):
                scene2 = list(scene)
                scene2[i] = replace(scene[i], **{field: vec})
                return scene2, camera

            record(field, f"gaussian[{i}].{field}",
                   getattr(analytic, "d_" + field)[i],
                   central(probe, getattr(g, field), i))

        def probe_opacity(vec, i=i):
            scene2 = list(scene)
            scene2[i] = replace(scene[i], opacity=float(vec[0]))
            return scene2, camera

        record("opacity", f"gaussian[{i}].opacity", analytic.d_opacity[i],
               central(probe_opacity, np.array([g.opacity]), i))

    def probe_view(flat):
        view2 = camera.view.copy()
        view2[:3, :] = flat.reshape(3, 4)
        return scene, replace(camera, view=view2)

    record("view", "view", analytic.d_view[:3, :].ravel(),
           central(probe_view, camera.view[:3, :].ravel()))

    classes = {}
    for name in AUDIT_CLASSES:
        max_rel = max_abs = 0.0
        worst, worst_ratio, ok = "", -1.0, True
        for label, a, f in entries[name]:
            diff = abs(a - f)
            scale_mag = max(abs(a), abs(f))
            max_abs = max(max_abs, diff)
            if scale_mag > grad_floor:
                rel = diff / scale_mag
                max_rel = max(max_rel, rel)
                ratio = rel / rel_tol
            else:
                ratio = diff / abs_tol
            if ratio > worst_ratio:
                worst_ratio, worst = ratio, label
            ok = ok and ratio <= 1.0
        classes[name] = ClassCheck(name=name, max_rel=max_rel, max_abs=max_abs,
                                   worst_coord=worst, passed=ok)
    return GradReport(classes=classes,
                      passed=all(c.passed for c in classes.values()), h=h,
                      rel_tol=rel_tol, abs_tol=abs_tol, grad_floor=grad_floor)


# Reference oracles for the batched projection and projection backward:
# the single-splat math as it was written before the ops took stacks, one
# splat at a time, with a BLAS product wherever the math has a matrix
# product. It shares no code with the library's projection ops.


def _ref_rotmat(quat):
    w, x, y, z = quat / np.sqrt(np.dot(quat, quat))
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def _ref_jacobian(t_cam, camera):
    tx, ty, tz = t_cam[0], t_cam[1], t_cam[2]
    return np.array(
        [
            [camera.fx / tz, 0.0, -camera.fx * tx / (tz * tz)],
            [0.0, camera.fy / tz, -camera.fy * ty / (tz * tz)],
        ]
    )


def oracle_perspective(camera):
    """The supplement's perspective matrix: camera space to clip space,
    x and y scaled so the visible frustum spans [-1, 1], the near/far
    depth remap in the third row and z copied into the homogeneous slot."""
    n, f = camera.near, camera.far
    p = np.zeros((4, 4))
    p[0, 0] = 2.0 * camera.fx / camera.width
    p[1, 1] = 2.0 * camera.fy / camera.height
    p[2, 2] = (f + n) / (f - n)
    p[2, 3] = -2.0 * f * n / (f - n)
    p[3, 2] = 1.0
    return p


def _ref_project(g, camera):
    """(t_cam, mean2d, cov2d, radius) of one splat in front of the camera,
    t_cam the 3-vector the library keeps; the oracle itself works on the
    supplement's homogeneous point."""
    t_cam = camera.view @ np.array([g.mean[0], g.mean[1], g.mean[2], 1.0])
    m = _ref_rotmat(g.quat) @ np.diag(g.scale)
    t = _ref_jacobian(t_cam, camera) @ camera.rotation
    cov2d = t @ (m @ m.T) @ t.T + 0.3 * np.eye(2)
    t_prime = oracle_perspective(camera) @ t_cam
    mean2d = np.array(
        [
            (camera.width * t_prime[0] / t_prime[3] + 1.0) / 2.0 + camera.cx,
            (camera.height * t_prime[1] / t_prime[3] + 1.0) / 2.0 + camera.cy,
        ]
    )
    a, b, c = cov2d[0, 0], cov2d[0, 1], cov2d[1, 1]
    lam_max = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) * (a - c) + b * b)
    return t_cam[:3], mean2d, cov2d, int(np.ceil(3.0 * np.sqrt(lam_max)))


def oracle_project_scene(scene, camera):
    """The projection one splat at a time: a ProjectedSplats row for every
    splat that survives the depth and off-image culls."""
    projected = []
    for idx, g in enumerate(rows(scene)):
        depth = float((camera.view @ np.append(g.mean, 1.0))[2])
        if depth <= camera.near or depth >= camera.far:
            continue
        t_cam, mean2d, cov2d, radius = _ref_project(g, camera)
        if (mean2d[0] + radius < 0.0 or mean2d[0] - radius >= camera.width
                or mean2d[1] + radius < 0.0 or mean2d[1] - radius >= camera.height):
            continue
        projected.append((t_cam, mean2d, cov2d, depth, radius, idx))
    return stack_projected(projected)


def _ref_quat_jacobians(w, x, y, z):
    return 2.0 * np.array(
        [
            [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]],
            [[0.0, y, z], [y, -2.0 * x, -w], [z, w, -2.0 * x]],
            [[-2.0 * y, x, w], [x, 0.0, z], [-w, z, -2.0 * y]],
            [[-2.0 * z, -w, x], [w, -2.0 * z, y], [x, y, 0.0]],
        ]
    )


def oracle_scene_backward(scene, camera, result, d_image):
    """scene_backward with the projection chain run splat by splat.

    The compositing backward pass is the library's own; everything after
    the screen-space gradients is the single-splat chain rule.
    """
    from splatgrad import SceneGradients, accumulate_image_backward

    scene = rows(scene)
    splat = accumulate_image_backward(scene, result, d_image)
    grads = SceneGradients.zeros(len(scene))
    grads.d_color = splat.d_color
    grads.d_opacity = splat.d_opacity
    fx, fy = camera.fx, camera.fy
    rot_cw = camera.rotation
    proj = oracle_perspective(camera)
    for k, i in enumerate(result.projected.source_index.tolist()):
        t_cam = np.append(result.projected.t_cam[k], 1.0)
        g = scene[i]
        tx, ty, tz = t_cam[0], t_cam[1], t_cam[2]
        r = _ref_rotmat(g.quat)
        smat = np.diag(g.scale)
        m = r @ smat
        sigma = m @ m.T
        jac = _ref_jacobian(t_cam, camera)
        t_proj = jac @ rot_cw

        # Through the projected mean and the perspective divide.
        t_prime = proj @ t_cam
        t_w = t_prime[3]
        wdx = camera.width * splat.d_mean2d[i, 0]
        hdy = camera.height * splat.d_mean2d[i, 1]
        d_t = proj.T @ np.array([
            0.5 * wdx / t_w,
            0.5 * hdy / t_w,
            0.0,
            -0.5 * (wdx * t_prime[0] + hdy * t_prime[1]) / (t_w * t_w),
        ])

        # Through the projected covariance, to sigma and to t via J.
        g2 = splat.d_cov2d[i]
        d_sigma = t_proj.T @ g2 @ t_proj
        d_T = g2 @ t_proj @ sigma.T + g2.T @ t_proj @ sigma
        d_J = d_T @ rot_cw.T
        tz2 = tz * tz
        tz3 = tz2 * tz
        d_t = d_t + np.array([
            -fx / tz2 * d_J[0, 2],
            -fy / tz2 * d_J[1, 2],
            (-fx / tz2 * d_J[0, 0] + 2.0 * fx * tx / tz3 * d_J[0, 2]
             - fy / tz2 * d_J[1, 1] + 2.0 * fy * ty / tz3 * d_J[1, 2]),
            0.0,
        ])

        # To the world mean and the view.
        grads.d_mean[i] = rot_cw.T @ d_t[:3]
        grads.d_view += np.outer(d_t, np.append(g.mean, 1.0))
        grads.d_view[:3, :3] += jac.T @ d_T

        # To scale and quaternion through sigma = M M^T, M = R S.
        d_M = d_sigma @ m + d_sigma.T @ m
        grads.d_scale[i] = np.diagonal(r.T @ d_M)
        norm = np.sqrt(np.dot(g.quat, g.quat))
        q_hat = g.quat / norm
        d_R = d_M @ smat.T
        jacs = _ref_quat_jacobians(*q_hat)
        d_q_hat = np.array([np.sum(d_R * jacs[k]) for k in range(4)])
        grads.d_quat[i] = (d_q_hat - q_hat * np.dot(q_hat, d_q_hat)) / norm
    return grads
