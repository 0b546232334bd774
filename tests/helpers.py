"""Shared scene builders and the independent reference compositor used
across the test modules."""

import numpy as np

from splatgrad import Camera, Gaussian3D, project_gaussian
from splatgrad.raster_forward import ALPHA_MAX, ALPHA_MIN, SIGMA_CUT, T_MIN


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
    projected = []
    for i, g in enumerate(scene):
        p = project_gaussian(g, camera, source_index=i)
        if p is not None:
            projected.append(p)
    projected.sort(key=lambda p: (p.depth, p.source_index))

    image = np.empty((camera.height, camera.width, 3))
    final_t = np.empty((camera.height, camera.width))
    for row in range(camera.height):
        for col in range(camera.width):
            center = np.array([col + 0.5, row + 0.5])
            color = np.zeros(3)
            trans = 1.0
            for p in projected:
                delta = center - p.mean2d
                sigma = 0.5 * float(delta @ np.linalg.solve(p.cov2d, delta))
                if sigma > SIGMA_CUT:
                    continue
                alpha = min(
                    scene[p.source_index].opacity * float(np.exp(-sigma)),
                    ALPHA_MAX,
                )
                if alpha < ALPHA_MIN:
                    continue
                next_trans = trans * (1.0 - alpha)
                if early_termination and next_trans < T_MIN:
                    break
                color = color + alpha * trans * scene[p.source_index].color
                trans = next_trans
            image[row, col] = color + background * trans
            final_t[row, col] = trans
    return image, final_t


# Reference oracles for the vectorised tile kernels. These are the
# per-splat loops the rasterizer used before its kernels worked on whole
# (splats x pixels) blocks; they keep the same signatures, so a test can
# swap one in for raster_forward._composite_tile or
# raster_backward._backward_tile and compare whole renders and gradients.


def oracle_composite_tile(xs, ys, order, packed, background,
                          early_termination, t_log=None):
    """Front-to-back compositing, one splat of `order` at a time.

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
        dx = xs - packed.mean_x[j]
        dy = ys - packed.mean_y[j]
        sigma = (
            0.5 * (packed.inv_a[j] * dx * dx + packed.inv_c[j] * dy * dy)
            + packed.inv_b[j] * dx * dy
        )
        alpha = np.minimum(packed.opacity[j] * np.exp(-sigma), ALPHA_MAX)
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
        color += weight[:, None] * packed.color[j]
        trans = np.where(commit, next_trans, trans)
        n_contrib = np.where(commit, pos + 1, n_contrib)
        if done.all():
            break
    color += background[None, :] * trans[:, None]
    return color, trans, n_contrib


def oracle_backward_tile(xs, ys, order, packed, sources, background, final_t,
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
        dx = xs - packed.mean_x[j]
        dy = ys - packed.mean_y[j]
        sigma = (
            0.5 * (packed.inv_a[j] * dx * dx + packed.inv_c[j] * dy * dy)
            + packed.inv_b[j] * dx * dy
        )
        exp_neg = np.exp(-sigma)
        alpha_raw = packed.opacity[j] * exp_neg
        alpha = np.minimum(alpha_raw, ALPHA_MAX)
        contrib = active & (sigma <= SIGMA_CUT) & (alpha >= ALPHA_MIN)
        if not contrib.any():
            continue
        one_minus = 1.0 - alpha
        t_here = np.where(contrib, trans / one_minus, trans)
        if t_log is not None:
            t_log.append((pos, np.where(contrib, t_here, np.nan)))

        src = sources[j]
        weight = np.where(contrib, alpha * t_here, 0.0)
        grads.d_color[src] += np.sum(weight[:, None] * d_pixels, axis=0)
        d_alpha = np.sum(
            (packed.color[j][None, :] * t_here[:, None]
             - suffix / one_minus[:, None]) * d_pixels,
            axis=1,
        )
        live = contrib & (alpha_raw < ALPHA_MAX)
        grads.d_opacity[src] += np.sum(np.where(live, d_alpha * exp_neg, 0.0))
        d_sig = np.where(live, -alpha_raw * d_alpha, 0.0)

        y0 = packed.inv_a[j] * dx + packed.inv_b[j] * dy
        y1 = packed.inv_b[j] * dx + packed.inv_c[j] * dy
        grads.d_mean2d[src, 0] += np.sum(-d_sig * y0)
        grads.d_mean2d[src, 1] += np.sum(-d_sig * y1)
        c00 = np.sum(-0.5 * d_sig * y0 * y0)
        c01 = np.sum(-0.5 * d_sig * y0 * y1)
        c11 = np.sum(-0.5 * d_sig * y1 * y1)
        grads.d_cov2d[src, 0, 0] += c00
        grads.d_cov2d[src, 0, 1] += c01
        grads.d_cov2d[src, 1, 0] += c01
        grads.d_cov2d[src, 1, 1] += c11

        suffix = suffix + weight[:, None] * packed.color[j][None, :]
        trans = t_here


def reference_pixel_safety_mask(scene, camera, background, sigma_margin=0.05,
                                t_margin=4.0, depth_margin=5e-3):
    """The audit's branch-safety mask computed pixel by pixel: the same
    contract as gradcheck._pixel_safety_mask, with the transmittance band
    found by walking every pixel's bin in pure Python and a scalar alpha
    expression of its own."""
    from splatgrad import (
        ProjectedGaussian,
        bounding_radius,
        camera_to_pixel,
        compose_covariance_3d,
        project_covariance,
        projection_jacobian,
        render,
        world_to_camera,
    )

    projected = []
    for g in scene:
        t_cam = world_to_camera(g.mean, camera)
        depth = float(t_cam[2])
        if not camera.near + 0.5 < depth < camera.far - 0.5:
            return None
        bundle = compose_covariance_3d(g.quat, g.scale)
        jac = projection_jacobian(t_cam, camera)
        cov2d = project_covariance(jac, camera.rotation, bundle.sigma)
        projected.append(
            ProjectedGaussian(
                t_cam=t_cam,
                mean2d=camera_to_pixel(t_cam, camera),
                cov2d=cov2d,
                depth=depth,
                radius=bounding_radius(cov2d),
                source_index=0,
            )
        )
    depths = sorted(p.depth for p in projected)
    if any(b - a < depth_margin for a, b in zip(depths, depths[1:])):
        return None

    def sigma_at(p, xs, ys):
        a, b, c = p.cov2d[0, 0], p.cov2d[0, 1], p.cov2d[1, 1]
        det = a * c - b * b
        inv_a, inv_b, inv_c = c / det, -b / det, a / det
        dx = xs - p.mean2d[0]
        dy = ys - p.mean2d[1]
        return 0.5 * (inv_a * dx * dx + inv_c * dy * dy) + inv_b * dx * dy

    mask = np.ones((camera.height, camera.width), dtype=bool)
    ys, xs = np.mgrid[0:camera.height, 0:camera.width]
    for p in projected:
        sigma = sigma_at(p, xs + 0.5, ys + 0.5)
        mask &= np.abs(sigma - SIGMA_CUT) > sigma_margin

    res = render(scene, camera, background)
    ts = res.grid.tile_size
    for ty in range(res.grid.tiles_y):
        for tx in range(res.grid.tiles_x):
            order = res.grid.bin_at(tx, ty)
            for row in range(ty * ts, min((ty + 1) * ts, camera.height)):
                for col in range(tx * ts, min((tx + 1) * ts, camera.width)):
                    trans = 1.0
                    for idx in order:
                        p = res.projected[idx]
                        sigma = float(sigma_at(p, col + 0.5, row + 0.5))
                        alpha = min(
                            scene[p.source_index].opacity * float(np.exp(-sigma)),
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
