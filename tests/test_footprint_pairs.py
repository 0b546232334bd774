"""Footprint-pair compositing on inputs the fixed scenes do not reach,
and the memory bound its pair blocks keep.

The property test draws non-square images whose sides are not multiples
of the tile size, principal points away from the center, rotated views,
and splat scales from far below a pixel to far beyond the image. On each
draw the render must equal the dense per-tile oracle bitwise, tiled and
brute-force renders must agree bitwise with early termination off, and
images and gradients must be finite.

The memory guards bound the tracemalloc peak of one 256 x 256 render of
1,000 splats and of one 64 x 64 backward pass. Pairs are generated in
blocks of about PAIR_BUDGET and only the committed ones are kept, so
the render's peak stays near the image buffers, the kept pairs and one
block, and the backward pass reads the kept pairs a block at a time;
building the pairs of the whole image at once exceeds either bound.

Beside them, the count pins fix four counts of the same render and of a
64 x 64 fit's render: bin entries, the longest bin, committed pairs and
the summed n_contrib. A change that moves one on purpose updates its pin
and says why.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import test_acceptance
from splatgrad import (
    Camera,
    FitConfig,
    Gaussian3D,
    fit,
    render,
    render_brute_force,
    scene_backward,
)
from splatgrad.core import quat_to_rotmat

from helpers import frustum_camera, oracle_render

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def cameras(draw):
    side = st.integers(5, 70).filter(lambda n: n % 16 != 0)
    width, height = draw(side), draw(side)
    assume(width != height)
    q = np.array([1.0] + [0.25 * draw(unit) for _ in range(3)])
    view = np.eye(4)
    view[:3, :3] = quat_to_rotmat(q)
    view[:3, 3] = [0.2 * draw(unit) for _ in range(3)]
    focal = float(max(width, height)) * draw(st.floats(0.5, 2.0))
    return Camera(view=view, fx=focal, fy=focal * draw(st.floats(0.8, 1.25)),
                  cx=width * draw(st.floats(0.1, 0.9)),
                  cy=height * draw(st.floats(0.1, 0.9)),
                  width=width, height=height, near=0.1, far=100.0)


@st.composite
def scenes(draw, camera):
    """1-12 splats placed over (and a little past) the image, with
    footprints from 1e-3 to about 500 pixels per axis."""
    scene = []
    for _ in range(draw(st.integers(1, 12))):
        px = camera.width * draw(st.floats(-0.2, 1.2))
        py = camera.height * draw(st.floats(-0.2, 1.2))
        depth = draw(st.floats(1.0, 10.0))
        t_cam = np.array([(px - camera.cx) * depth / camera.fx,
                          (py - camera.cy) * depth / camera.fy, depth])
        quat = np.array([draw(unit) for _ in range(4)])
        assume(np.linalg.norm(quat) > 0.1)
        scale_px = 10.0 ** np.array([draw(st.floats(-3.0, 2.7)) for _ in range(3)])
        scene.append(Gaussian3D(
            mean=camera.rotation.T @ (t_cam - camera.translation),
            scale=scale_px * depth / camera.fx,
            quat=quat,
            opacity=draw(st.floats(0.05, 1.0)),
            color=np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)]),
        ))
    return scene


@st.composite
def cases(draw):
    camera = draw(cameras())
    return camera, draw(scenes(camera)), np.array([draw(st.floats(0.0, 1.0))
                                                   for _ in range(3)])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=cases(), early_termination=st.booleans())
def test_render_matches_oracle_and_brute_force(case, early_termination):
    camera, scene, bg = case
    res = render(scene, camera, bg, early_termination=early_termination)
    image, final_t, n_contrib = oracle_render(scene, res, early_termination)
    assert np.array_equal(res.image.channels, image)
    assert np.array_equal(res.aux.final_T, final_t)
    assert np.array_equal(res.aux.n_contrib, n_contrib)
    assert np.all(np.isfinite(res.image.channels))

    tiled = render(scene, camera, bg, early_termination=False)
    brute = render_brute_force(scene, camera, bg, early_termination=False)
    assert np.array_equal(tiled.image.channels, brute.image.channels)
    assert np.array_equal(tiled.aux.final_T, brute.aux.final_T)

    d_image = np.random.default_rng(0).normal(size=(camera.height, camera.width, 3))
    grads = scene_backward(scene, camera, res, d_image)
    for name in ("d_mean", "d_scale", "d_quat", "d_opacity", "d_color", "d_view"):
        assert np.all(np.isfinite(getattr(grads, name))), name


def box_scene(rng, n):
    return [
        Gaussian3D(mean=rng.uniform(-2.0, 2.0, size=3),
                   scale=rng.uniform(0.01, 0.045, size=3),
                   quat=rng.normal(size=4),
                   opacity=float(rng.uniform(0.3, 0.9)),
                   color=rng.uniform(0.0, 1.0, size=3))
        for _ in range(n)
    ]


def traced_peak(fn):
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def render_256_case():
    """1,000 splats in a 4-unit box seen from 4.5 units away, as in the
    benchmark's render workload: (scene, camera)."""
    scene = box_scene(np.random.default_rng(3), 1000)
    camera = frustum_camera(256, 256, fx=256.0)
    camera.view[2, 3] = 4.5
    return scene, camera


def render_counts(res):
    """(bin entries, longest bin, committed pairs, summed n_contrib) of a
    one-image RenderResult."""
    return (res.grid.entry_tile.size, int(np.bincount(res.grid.entry_tile).max()),
            sum(p.pix.size for p in res.pairs), int(res.aux.n_contrib.sum()))


def test_render_256_peak_memory():
    # Measured peak: about 7.3 MB, of which 5.0 MB is the result, its
    # 79,970 kept pairs (2.2 MB) included; the whole image's pairs take
    # over 17 MB.
    scene, camera = render_256_case()
    res = render(scene, camera, np.zeros(3))
    assert res.aux.n_contrib.mean() > 1.0
    assert traced_peak(lambda: render(scene, camera, np.zeros(3))) < 9e6


def test_fit_64_backward_peak_memory():
    # The criterion-5 scene. Measured peak: about 1.4 MB, reading the
    # pairs the render kept; the whole image's pairs take about 5 MB.
    scene, camera = test_acceptance.TestAcceptance.hidden_scene()
    bg = np.array([0.1, 0.1, 0.1])
    res = render(scene, camera, bg)
    d_image = np.random.default_rng(1).normal(size=(64, 64, 3))
    assert traced_peak(lambda: scene_backward(scene, camera, res, d_image)) < 3.5e6


def test_render_256_counts():
    scene, camera = render_256_case()
    assert render_counts(render(scene, camera, np.zeros(3))) == (3007, 26, 79970, 353133)


def test_fit_64_counts():
    # The render of the 100-splat fit after 60 iterations from init seed 3
    # on the criterion-5 target (about 0.2 s).
    truth, camera = test_acceptance.TestAcceptance.hidden_scene()
    bg = (0.1, 0.1, 0.1)
    target = render(truth, camera, np.asarray(bg)).image.channels
    fitted, _ = fit(target, camera, FitConfig(n_gaussians=100, iterations=60, background=bg,
                                              seed=3))
    assert render_counts(render(fitted, camera, np.asarray(bg))) == (335, 37, 15814, 66441)
