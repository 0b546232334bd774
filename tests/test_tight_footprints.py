"""Opacity-aware footprints and gradients that do not depend on pair
blocks.

A splat is evaluated only at the pixels of its footprint
(raster_forward._footprints), the box of the ellipse its opacity and
SIGMA_CUT leave visible, capped by its bounding square. The footprint
must be conservative: no pixel of the square outside it may pass
_pair_alpha's visibility test. The splats drawn here reach opacities at
and just above ALPHA_MIN and near 1, anisotropy past 1000:1, every
rotation, sub-pixel and huge footprints, and means on and off a 37 x 23
image, some within 1e-6 of a pixel center. Tiled renders must still
equal brute-force renders bitwise.

The raster backward adds every term to its total in pair order, so each
gradient must be bitwise equal whatever PAIR_BUDGET is.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_acceptance
from splatgrad import (
    Camera,
    FitConfig,
    Gaussian3D,
    ProjectedSplats,
    accumulate_image_backward,
    bounding_radius,
    init_random,
    raster_forward,
    render,
    render_brute_force,
    scene_backward,
)
from splatgrad.projection import DILATION, _conic
from splatgrad.raster_forward import (
    ALPHA_MIN,
    SIGMA_CUT,
    _footprints,
    _full_windows,
    _image_entries,
    _pair_alpha,
)

from test_footprint_pairs import box_scene
from test_tile_kernels import long_bin_case
from helpers import frustum_camera

WIDTH, HEIGHT = 37, 23

opacities = st.one_of(
    st.sampled_from([ALPHA_MIN * (1.0 + 1e-12), ALPHA_MIN * (1.0 + 1e-9),
                     ALPHA_MIN * (1.0 - 1e-12), np.nextafter(ALPHA_MIN, 1.0),
                     1.0 - 1e-12, 1.0]),
    st.floats(1.0, 1.01).map(lambda f: ALPHA_MIN * f),
    st.floats(0.99, 1.0),
    st.floats(0.0, 1.0),
)


def square_boxes(mean2d, radius):
    """The bounding square's pixel boxes (x_lo, y_lo, x_hi, y_hi): the
    pixels whose centers lie within radius of the mean in both axes."""
    rh = radius[:, None] + 0.5
    return np.concatenate([np.ceil(mean2d - rh), np.floor(mean2d + rh)], axis=1)


def screen_rows(mean2d, cov2d, opacity):
    """Projected rows built by hand from mean2d (K, 2), cov2d (K, 2, 2)
    and opacity (K,): the conic formed as project_splats forms it and the
    radius bounding_radius gives; t_cam, depth and color zero."""
    n = len(opacity)
    return ProjectedSplats(np.zeros((n, 3)), mean2d, cov2d, _conic(cov2d), np.zeros(n),
                           bounding_radius(cov2d), np.arange(n), opacity=opacity,
                           color=np.zeros((n, 3)))


def splat_2d(scale, ratio, angle, mean, opacity):
    """One projected splat, as a one-row ProjectedSplats, and its square."""
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    cov2d = rot @ np.diag([scale ** 2, (scale * ratio) ** 2]) @ rot.T + DILATION * np.eye(2)
    mean2d = np.asarray(mean, dtype=np.float64).reshape(1, 2)
    projected = screen_rows(mean2d, cov2d[None], np.array([opacity]))
    return projected, square_boxes(mean2d, projected.radius)


def invisible_outside(projected, square, x_range, y_range):
    """The pixels of x_range x y_range in splat 0's square and outside its
    footprint; asserts that none is visible and that the footprint lies in
    the square. Returns the count checked."""
    box = _footprints(projected)[0]
    square = square[0]
    assert np.all(box[:2] >= square[:2]) and np.all(box[2:] <= square[2:])
    xs, ys = np.meshgrid(np.arange(*x_range), np.arange(*y_range))
    xs, ys = xs.ravel(), ys.ravel()
    in_square = (xs >= square[0]) & (xs < square[2]) & (ys >= square[1]) & (ys < square[3])
    in_box = (xs >= box[0]) & (xs < box[2]) & (ys >= box[1]) & (ys < box[3])
    check = (in_square & ~in_box).nonzero()[0]
    visible = _pair_alpha(xs[check] + 0.5, ys[check] + 0.5, projected,
                          np.zeros(check.size, dtype=np.intp))[-1]
    assert not visible.any(), (xs[check][visible], ys[check][visible], box)
    return check.size


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_scale=st.floats(-3.0, 4.0), log_ratio=st.floats(0.0, 3.5),
       angle=st.floats(0.0, np.pi), px=st.integers(-60, WIDTH + 60),
       py=st.integers(-60, HEIGHT + 60),
       offset=st.one_of(st.sampled_from([0.0, 1e-6, -1e-6, 0.5, 1e-12]),
                        st.floats(-0.5, 0.5)),
       opacity=opacities)
def test_footprint_drops_no_visible_pixel_on_the_image(log_scale, log_ratio, angle, px,
                                                       py, offset, opacity):
    # Every pixel of a 37 x 23 image in the square and outside the box.
    # Means sit on a pixel center, within 1e-6 of one or anywhere, on the
    # image or up to 60 pixels off it.
    projected, square = splat_2d(10.0 ** log_scale, 10.0 ** log_ratio, angle,
                                 (px + 0.5 + offset, py + 0.5 - offset), opacity)
    invisible_outside(projected, square, (0, WIDTH), (0, HEIGHT))


def test_footprint_ring_is_invisible():
    # The one-pixel ring just outside each footprint, clipped to its
    # square, where a footprint too tight by a rounding step would first
    # show: 3,000 seeded splats across the regimes above, major axes up
    # to 30 pixels so that each box stays small enough to enumerate.
    rng = np.random.default_rng(11)
    special = [ALPHA_MIN * (1.0 + 1e-12), ALPHA_MIN * (1.0 + 1e-9), 1.0 - 1e-12, 1.0]
    checked = 0
    for k in range(3000):
        opacity = (special[k % 4] if k % 3 == 0
                   else ALPHA_MIN * (1.0 + 10.0 ** rng.uniform(-12, 0)) if k % 3 == 1
                   else rng.uniform(0.0, 1.0))
        mean = rng.integers(-5, 40, size=2) + 0.5 + rng.choice([0.0, 1e-6, rng.uniform(-0.5, 0.5)])
        scale = 10.0 ** rng.uniform(-3.0, 1.0)
        ratio = min(10.0 ** rng.uniform(0.0, 3.0), 30.0 / scale)
        projected, square = splat_2d(scale, ratio, rng.uniform(0.0, np.pi), mean, opacity)
        x0, y0, x1, y1 = _footprints(projected)[0].astype(np.int64)
        checked += invisible_outside(projected, square, (x0 - 1, x1 + 1), (y0 - 1, y1 + 1))
    assert checked > 100_000


def test_footprint_keeps_knife_edge_pixels():
    # Axis-aligned splats centred on a pixel whose ellipse sigma <= c ends
    # within a few ulps of the pixel center k pixels away in x or in y,
    # for integer k and c = SIGMA_CUT or an opacity-set cut below it. The
    # exact box puts that center on its edge; without FOOTPRINT_SLACK,
    # rounding drops it from about 3% of these splats while _pair_alpha
    # still finds it visible.
    rng = np.random.default_rng(0)
    n = 20_000
    k = rng.integers(1, 30, n).astype(np.float64)
    cut = np.where(rng.random(n) < 0.5, SIGMA_CUT, rng.uniform(0.01, SIGMA_CUT, n))
    edge = k * k / (2.0 * cut) * (1.0 + rng.integers(-4, 5, n) * np.finfo(float).eps)
    other = rng.uniform(DILATION, 50.0, n)
    opacity = np.where(cut < SIGMA_CUT, ALPHA_MIN * np.exp(cut), 1.0)
    visible = 0
    for axis in (0, 1):
        cov2d = np.zeros((n, 2, 2))
        cov2d[:, axis, axis], cov2d[:, 1 - axis, 1 - axis] = edge, other
        mean2d = np.full((n, 2), 0.5)
        projected = screen_rows(mean2d, cov2d, opacity)
        box = _footprints(projected)
        for step in (k, -k):
            centers = mean2d.copy()
            centers[:, axis] += step
            hit = _pair_alpha(centers[:, 0], centers[:, 1], projected, np.arange(n))[-1]
            pixel = centers - 0.5
            inside = np.all((pixel >= box[:, :2]) & (pixel < box[:, 2:]), axis=1)
            assert not (hit & ~inside).any()
            visible += int(hit.sum())
    assert visible > n


def test_footprint_is_tighter_than_the_square():
    # The 256 x 256 render of the memory guard: the footprints cut the
    # pairs its entries cover by over a third, and the render keeps every
    # pair it kept over the squares.
    scene = box_scene(np.random.default_rng(3), 1000)
    camera = frustum_camera(256, 256, fx=256.0)
    camera.view[2, 3] = 4.5
    res = render(scene, camera, np.zeros(3))
    p = res.projected
    windows = _full_windows(1, 256, 256)

    def pairs(boxes):
        entries = _image_entries(res.grid, boxes, windows)
        return int(np.sum(entries.width * entries.height))

    tight = pairs(_footprints(p))
    square = pairs(square_boxes(p.mean2d, p.radius))
    assert tight < 0.67 * square
    assert sum(k.pix.size for k in res.pairs) <= tight


@st.composite
def off_centre_scenes(draw):
    """A 37 x 23 camera with an off-centre principal point and 1-10
    splats with the drawn opacities and per-axis scales from 1e-3 to
    about 500 pixels."""
    camera = Camera(view=np.eye(4), fx=30.0, fy=33.0, cx=WIDTH * draw(st.floats(0.1, 0.9)),
                    cy=HEIGHT * draw(st.floats(0.1, 0.9)), width=WIDTH, height=HEIGHT,
                    near=0.1, far=100.0)
    scene = []
    for _ in range(draw(st.integers(1, 10))):
        px = WIDTH * draw(st.floats(-0.2, 1.2))
        py = HEIGHT * draw(st.floats(-0.2, 1.2))
        depth = draw(st.floats(1.0, 10.0))
        scale_px = 10.0 ** np.array([draw(st.floats(-3.0, 2.7)) for _ in range(3)])
        scene.append(Gaussian3D(
            mean=[(px - camera.cx) * depth / camera.fx, (py - camera.cy) * depth / camera.fy,
                  depth],
            scale=scale_px * depth / camera.fx,
            quat=np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)] + [0.5]),
            opacity=draw(opacities),
            color=[draw(st.floats(0.0, 1.0)) for _ in range(3)],
        ))
    return camera, scene


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=off_centre_scenes())
def test_render_equals_brute_force_with_tight_footprints(case):
    camera, scene = case
    bg = np.array([0.2, 0.5, 0.7])
    tiled = render(scene, camera, bg, early_termination=False)
    brute = render_brute_force(scene, camera, bg, early_termination=False)
    assert np.array_equal(tiled.image.channels, brute.image.channels)
    assert np.array_equal(tiled.aux.final_T, brute.aux.final_T)


def fit_init_case():
    # The first iteration of a fit-64 run from init seed 3, with the
    # fit's own loss gradient.
    truth, camera = test_acceptance.TestAcceptance.hidden_scene()
    bg = np.array([0.1, 0.1, 0.1])
    target = render(truth, camera, bg).image.channels
    scene = init_random(FitConfig(n_gaussians=100, background=(0.1, 0.1, 0.1), seed=3),
                        camera, target)

    def d_image(image):
        return 2.0 * (image - target)

    return scene, camera, bg, render, d_image


def long_bins_case():
    scene, camera, bg, renderer = long_bin_case()
    noise = np.random.default_rng(4).normal(size=(camera.height, camera.width, 3))
    return scene, camera, bg, renderer, lambda image: noise


@pytest.mark.parametrize("make", [fit_init_case, long_bins_case], ids=["fit64_init3", "long_bins"])
def test_gradients_do_not_depend_on_pair_budget(make, monkeypatch):
    scene, camera, bg, renderer, d_image = make()
    digests, blocks = [], []
    for budget in (1 << 11, 1 << 12, 1 << 13, 1 << 14):
        monkeypatch.setattr(raster_forward, "PAIR_BUDGET", budget)
        res = renderer(scene, camera, bg)
        d = d_image(res.image.channels)
        splat = accumulate_image_backward(scene, res, d)
        world = scene_backward(scene, camera, res, d)
        digests.append(
            [getattr(splat, f).tobytes() for f in ("d_color", "d_opacity", "d_mean2d", "d_cov2d")]
            + [getattr(world, f).tobytes() for f in
               ("d_mean", "d_scale", "d_quat", "d_opacity", "d_color", "d_view")])
        blocks.append(len(res.pairs))
    assert len(set(blocks)) == 4, blocks
    assert all(d == digests[0] for d in digests[1:])
