"""The pairs every render keeps against the per-pixel walk that finds
them again.

render and render_brute_force keep their committed pairs on
result.pairs, and the backward pass reads them. transmittance_replay
in helpers finds one pixel's pairs its own way: it walks that pixel
alone with early termination off and keeps the visible pairs before its
n_contrib.
At every sampled pixel the two must agree bitwise on each pair's bin
position and transmittance before it, with early termination on and
off. The memory guard bounds one fit iteration.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_acceptance
from splatgrad import Splats, render, render_brute_force, scene_backward
from splatgrad.gradcheck import make_audit_scene

from helpers import PixelAux, transmittance_replay
from test_footprint_pairs import cases, traced_peak
from test_tile_kernels import criterion5_case, long_bin_case, odd_size_case

# Pixels sampled per render; smaller images are checked at every pixel.
SAMPLED_PIXELS = 256


def audit_case(seed):
    scene, camera, _, bg, _ = make_audit_scene(seed)
    return scene, camera, bg


SCENES = {
    "criterion5": lambda: criterion5_case()[:3],
    "odd_size_37x23": lambda: odd_size_case()[:3],
    # Rendered tiled here; its footprints still span ten pair blocks.
    "long_bins": lambda: long_bin_case()[:3],
    **{f"audit_seed_{seed}": lambda seed=seed: audit_case(seed)
       for seed in range(20)},
}


def assert_kept_equals_replay(scene, camera, bg, early_termination):
    res = render(scene, camera, bg, early_termination=early_termination)
    brute = render_brute_force(scene, camera, bg, early_termination=early_termination)
    assert res.pairs is not None and brute.pairs is not None
    assert len(res.pairs) >= 1 and len(brute.pairs) >= 1

    pix = np.concatenate([p.pix for p in res.pairs])
    pos = np.concatenate([p.pos for p in res.pairs])
    t_before = np.concatenate([p.t_before for p in res.pairs])
    w, n_px = camera.width, camera.width * camera.height
    rng = np.random.default_rng(23)
    sampled = (np.arange(n_px) if n_px <= SAMPLED_PIXELS
               else rng.choice(n_px, SAMPLED_PIXELS, replace=False))
    ts, bins = res.grid.tile_size, res.grid.bins
    splats = Splats.of(scene)
    for p in sampled.tolist():
        row, col = divmod(p, w)
        aux = PixelAux(float(res.aux.final_T[row, col]), int(res.aux.n_contrib[row, col]))
        replay = transmittance_replay(bins[row // ts * res.grid.tiles_x + col // ts], res.projected,
                                      splats, np.array([col + 0.5, row + 0.5]), aux)
        at = np.flatnonzero(pix == p)[::-1]
        assert [k for k, _ in replay] == pos[at].tolist(), p
        assert np.array([t for _, t in replay], dtype=np.float64).tobytes() \
            == t_before[at].tobytes(), p
    return res


@pytest.mark.parametrize("early_termination", [True, False], ids=["et_on", "et_off"])
@pytest.mark.parametrize("name", sorted(SCENES))
def test_kept_pairs_match_walk(name, early_termination):
    res = assert_kept_equals_replay(*SCENES[name](), early_termination)
    if name == "long_bins":
        assert len(res.pairs) == 10


def test_kept_pairs_are_compact():
    scene, camera, bg = SCENES["criterion5"]()
    res = render(scene, camera, bg)
    for pairs in res.pairs:
        assert [a.dtype for a in pairs] == [np.int32] * 3 + [np.float64] * 2
    # Only committed pairs are kept: one per contributing (splat, pixel).
    assert sum(p.pix.size for p in res.pairs) <= res.aux.n_contrib.sum()


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=cases(), early_termination=st.booleans())
def test_kept_pairs_match_walk_on_drawn_cameras(case, early_termination):
    camera, scene, bg = case
    assert_kept_equals_replay(scene, camera, bg, early_termination)


def test_fit_64_kept_pairs_peak_memory():
    # One fit iteration's render and backward pass on the criterion-5
    # scene, keeping its pairs (23,277 pairs, 0.65 MB). Measured peak:
    # 2.24 MB; 3.13 MB with PAIR_BUDGET at 2^14, where most of a block's
    # evaluated pairs commit. Over the bounding squares at 2^14, keeping
    # the same pairs with int64 indices measured 3.00 MB, and keeping
    # every evaluated and walked field of each block 3.41 MB for the
    # render alone.
    scene, camera = test_acceptance.TestAcceptance.hidden_scene()
    bg = np.array([0.1, 0.1, 0.1])
    d_image = np.random.default_rng(1).normal(size=(64, 64, 3))

    def iteration():
        res = render(scene, camera, bg)
        return scene_backward(scene, camera, res, d_image)

    assert traced_peak(iteration) < 2.9e6
