"""The footprint-pair compositing passes against the per-splat
reference loops, run densely over every pixel of every tile.

Forward renders must equal the oracle loop bitwise, backward gradients
must match it per class to 1e-12 of the class's largest entry, and the
transmittance the backward pass replays must equal the forward values
bitwise. The audit's branch-safety mask must clear exactly the pixels
the pixel-by-pixel walk clears. The kernels themselves stay free of
BLAS-backed products, which could make results depend on thread count.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import test_acceptance
from splatgrad import (
    Camera,
    Gaussian3D,
    Splats,
    accumulate_image_backward,
    gradcheck,
    raster_backward,
    raster_forward,
    render,
    render_brute_force,
)
from splatgrad.raster_forward import PAIR_BUDGET

from helpers import (
    PixelAux,
    frustum_camera,
    frustum_scene,
    iter_tiles,
    oracle_composite_tile,
    oracle_image_backward,
    oracle_render,
    reference_pixel_safety_mask,
    rotated_camera,
    transmittance_replay,
)


def criterion5_case():
    scene, camera = test_acceptance.TestAcceptance.hidden_scene()
    return scene, camera, np.array([0.1, 0.1, 0.1]), render


def long_bin_case():
    # Every splat lands in every brute-force bin, so every bin is 199
    # positions long, and the footprints hold enough pairs that the walk
    # spans several pair blocks.
    rng = np.random.default_rng(5)
    camera = rotated_camera(rng, 40, 40)
    scene = frustum_scene(rng, 199, camera, scale_px=(2.0, 5.0),
                          opacity=(0.5, 0.95))
    return scene, camera, rng.uniform(0.0, 1.0, size=3), render_brute_force


def odd_size_case():
    # Non-square, not a multiple of the tile size, principal point off
    # the image center.
    rng = np.random.default_rng(9)
    camera = Camera(view=np.eye(4), fx=30.0, fy=33.0, cx=12.25, cy=14.5,
                    width=37, height=23, near=0.1, far=100.0)
    scene = frustum_scene(rng, 60, camera, scale_px=(2.0, 5.0),
                          opacity=(0.6, 0.99))
    return scene, camera, rng.uniform(0.0, 1.0, size=3), render


CASES = {
    "criterion5": criterion5_case,
    "brute_force_long_bins": long_bin_case,
    "odd_size_37x23": odd_size_case,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


@pytest.fixture(params=[True, False], ids=["et_on", "et_off"])
def early_termination(request):
    return request.param


def test_long_bin_case_spans_blocks():
    scene, camera, bg, renderer = long_bin_case()
    res = renderer(scene, camera, bg)
    assert min(len(b) for b in res.grid.bins) == len(scene)
    footprints = raster_forward._footprints(res.projected)
    entries = raster_forward._image_entries(
        res.grid, footprints, raster_forward._full_windows(1, camera.width, camera.height))
    assert int(np.sum(entries.width * entries.height)) > 3 * PAIR_BUDGET
    assert len(raster_forward._blocks(entries)) > 3


@pytest.mark.parametrize("make", [long_bin_case, odd_size_case])
def test_cases_stop_pixels_early(make):
    scene, camera, bg, renderer = make()
    on = renderer(scene, camera, bg)
    off = renderer(scene, camera, bg, early_termination=False)
    stopped = on.aux.final_T != off.aux.final_T
    assert 0.1 < stopped.mean() < 0.9


def test_forward_bitwise_equals_oracle(case, early_termination):
    scene, camera, bg, renderer = case
    new = renderer(scene, camera, bg, early_termination=early_termination)
    image, final_t, n_contrib = oracle_render(scene, new, early_termination)
    assert np.array_equal(new.image.channels, image)
    assert np.array_equal(new.aux.final_T, final_t)
    assert np.array_equal(new.aux.n_contrib, n_contrib)
    assert new.aux.n_contrib.max() > 0


def test_backward_matches_oracle(case, early_termination):
    scene, camera, bg, renderer = case
    res = renderer(scene, camera, bg, early_termination=early_termination)
    rng = np.random.default_rng(17)
    d_image = rng.normal(size=(camera.height, camera.width, 3))
    new = accumulate_image_backward(scene, res, d_image)
    old = oracle_image_backward(scene, res, d_image)
    for name in ("d_color", "d_opacity", "d_mean2d", "d_cov2d"):
        want = getattr(old, name)
        got = getattr(new, name)
        scale = float(np.max(np.abs(want)))
        assert scale > 0.0, name
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, name


def test_replay_bitwise_equals_oracle_forward(case, early_termination):
    scene, camera, bg, renderer = case
    res = renderer(scene, camera, bg, early_termination=early_termination)
    w, h = camera.width, camera.height
    checked = 0
    bins = res.grid.bins
    for b, rows, cols, xs, ys in iter_tiles(res.grid, w, h):
        sbin = bins[b]
        t_log = []
        oracle_composite_tile(xs, ys, sbin, res.projected, bg, early_termination,
                              t_log=t_log)
        # Thin the pixels to keep the per-pixel replays cheap.
        for p in range(0, xs.size, 7):
            row = rows.start + p // (cols.stop - cols.start)
            col = cols.start + p % (cols.stop - cols.start)
            aux = PixelAux(final_T=float(res.aux.final_T[row, col]),
                           n_contrib=int(res.aux.n_contrib[row, col]))
            pairs = transmittance_replay(sbin, res.projected, Splats.of(scene),
                                         (xs[p], ys[p]), aux)
            forward = [(pos, float(t[p])) for pos, t in reversed(t_log)
                       if np.isfinite(t[p])]
            assert pairs == forward, (row, col)
            checked += len(pairs)
    assert checked > 0


def draws_for_audit_seed(seed):
    """Every scene make_audit_scene draws for a seed, in order."""
    size = 16 if seed % 2 == 0 else 32
    rng = np.random.default_rng(seed)
    camera = gradcheck._audit_camera(rng, size)
    n = int(rng.integers(5, 11))
    for _ in range(64):
        scene, _ = gradcheck._draw_scene(rng, n, camera)
        yield scene, camera
        mask = gradcheck._pixel_safety_mask(scene, camera)
        if mask is not None and mask.mean() >= 0.5:
            return


def test_safety_mask_matches_pixel_walk_on_audit_seeds():
    draws = 0
    for seed in range(200):
        for scene, camera in draws_for_audit_seed(seed):
            got = gradcheck._pixel_safety_mask(scene, camera)
            want = reference_pixel_safety_mask(scene, camera)
            assert (got is None) == (want is None), seed
            if got is not None:
                assert np.array_equal(got, want), seed
            draws += 1
    assert draws >= 200


def off_centre_camera(rng, width, height):
    """rotated_camera on a non-square image, its principal point off the
    centre and fy unlike fx."""
    camera = rotated_camera(rng, width, height)
    camera.cx, camera.cy = 0.35 * width, 0.6 * height
    camera.fy = 0.8 * camera.fx
    return camera


def test_safety_mask_transmittance_band_matches_pixel_walk():
    # Dense, nearly opaque splats drive T through the band around T_MIN,
    # which the audit seeds rarely reach: on a centred square-pixel camera,
    # on an off-centre, non-square one, and three wide centred splats
    # listed back to front, whose T at the centre enters the band (about
    # 1.6e-4 after the two front ones) only when walked in depth order.
    cases = []
    for make_camera in (lambda rng: rotated_camera(rng, 32, 24),
                        lambda rng: off_centre_camera(rng, 37, 23)):
        rng = np.random.default_rng(4)
        camera = make_camera(rng)
        cases.append((camera, frustum_scene(rng, 40, camera, depth_range=(3.0, 9.0),
                                            scale_px=(2.0, 4.0), opacity=(0.8, 0.99))))
    cases.append((frustum_camera(16, 16), [
        Gaussian3D(mean=[0.0, 0.0, depth], scale=[2.0, 2.0, 2.0], quat=[1.0, 0.0, 0.0, 0.0],
                   opacity=opacity, color=[0.5, 0.5, 0.5])
        for depth, opacity in ((5.0, 0.9), (4.0, 0.99), (3.0, 0.99))]))
    for camera, scene in cases:
        got = gradcheck._pixel_safety_mask(Splats.of(scene), camera)
        want = reference_pixel_safety_mask(scene, camera)
        no_band = reference_pixel_safety_mask(scene, camera, t_margin=1.0)
        assert got is not None and want is not None
        assert np.array_equal(got, want)
        # The band clears pixels of its own, beyond the sigma margin.
        assert np.any(no_band & ~want)


def test_safety_mask_clears_a_last_step_in_the_band():
    # Two centered splats of opacity 0.99: at the center pixels the
    # second, last step takes T from about 1e-2 to about 1e-4, so only the
    # step to the final T lands in the band.
    camera = Camera(view=np.eye(4), fx=16.0, fy=16.0, cx=8.0, cy=8.0,
                    width=16, height=16, near=0.1, far=100.0)
    scene = [Gaussian3D(mean=[0.0, 0.0, depth], scale=[0.5, 0.5, 0.5],
                        quat=[1.0, 0.0, 0.0, 0.0], opacity=0.99, color=[0.5, 0.5, 0.5])
             for depth in (3.0, 4.0)]
    got = gradcheck._pixel_safety_mask(Splats.of(scene), camera)
    want = reference_pixel_safety_mask(scene, camera)
    no_band = reference_pixel_safety_mask(scene, camera, t_margin=1.0)
    assert np.array_equal(got, want)
    assert not want[8, 8] and no_band[8, 8]


BLAS_NAMES = {"matmul", "einsum", "dot", "vdot", "tensordot"}


@pytest.mark.parametrize("module", [raster_forward, raster_backward],
                         ids=lambda m: m.__name__)
def test_kernels_use_no_blas_products(module):
    # Matrix products may dispatch to a multithreaded BLAS whose summation
    # order depends on the thread count; the compositing accumulations
    # must stay elementwise and sequential.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES:
            found.append(f"import of {node.name}")
    assert not found, found
