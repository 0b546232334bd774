"""The pairs render keeps (keep_pairs=True) against the walk that finds
them again.

A render that keeps its committed pairs must give the same image,
final_T and n_contrib bytes as one that does not, and scene_backward
must give all six gradient classes bitwise equal on the two results,
with early termination on and off. That holds because a forward block's
committed pairs are exactly the visible pairs before each pixel's
n_contrib, in the same order and with the same transmittance before
each. The memory guard bounds one fit iteration that keeps its pairs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_acceptance
from splatgrad import render, scene_backward
from splatgrad.gradcheck import make_audit_scene

from test_footprint_pairs import cases, traced_peak
from test_tile_kernels import criterion5_case, long_bin_case, odd_size_case

GRADIENTS = ("d_mean", "d_scale", "d_quat", "d_opacity", "d_color", "d_view")


def audit_case(seed):
    scene, camera, _, bg, _ = make_audit_scene(seed)
    return scene, camera, bg


SCENES = {
    "criterion5": lambda: criterion5_case()[:3],
    "odd_size_37x23": lambda: odd_size_case()[:3],
    # Rendered tiled here; its footprints still span seven pair blocks.
    "long_bins": lambda: long_bin_case()[:3],
    **{f"audit_seed_{seed}": lambda seed=seed: audit_case(seed)
       for seed in range(20)},
}


def assert_kept_equals_walked(scene, camera, bg, early_termination):
    walked = render(scene, camera, bg, early_termination=early_termination)
    kept = render(scene, camera, bg, early_termination=early_termination,
                  keep_pairs=True)
    assert walked.pairs is None
    assert len(kept.pairs) >= 1
    for a, b in ((kept.image.channels, walked.image.channels),
                 (kept.aux.final_T, walked.aux.final_T),
                 (kept.aux.n_contrib, walked.aux.n_contrib)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    d_image = np.random.default_rng(17).normal(size=(camera.height, camera.width, 3))
    from_kept = scene_backward(scene, camera, kept, d_image)
    from_walk = scene_backward(scene, camera, walked, d_image)
    for name in GRADIENTS:
        assert getattr(from_kept, name).tobytes() == getattr(from_walk, name).tobytes(), name
    return kept


@pytest.mark.parametrize("early_termination", [True, False], ids=["et_on", "et_off"])
@pytest.mark.parametrize("name", sorted(SCENES))
def test_kept_pairs_match_walk(name, early_termination):
    kept = assert_kept_equals_walked(*SCENES[name](), early_termination)
    if name == "long_bins":
        assert len(kept.pairs) == 7


def test_kept_pairs_are_compact():
    scene, camera, bg = SCENES["criterion5"]()
    res = render(scene, camera, bg, keep_pairs=True)
    for pairs in res.pairs:
        assert [a.dtype for a in pairs] == [np.int32] * 3 + [np.float64] * 2
    # Only committed pairs are kept: one per contributing (splat, pixel).
    assert sum(p.pix.size for p in res.pairs) <= res.aux.n_contrib.sum()


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=cases(), early_termination=st.booleans())
def test_kept_pairs_match_walk_on_drawn_cameras(case, early_termination):
    camera, scene, bg = case
    assert_kept_equals_walked(scene, camera, bg, early_termination)


def test_fit_64_kept_pairs_peak_memory():
    # One fit iteration's render and backward pass on the criterion-5
    # scene, keeping its pairs (23,277 pairs, 0.65 MB). Measured peak:
    # 2.72 MB. Keeping the same pairs with int64 indices measured 3.00
    # MB, and keeping every evaluated and walked field of each block
    # 3.41 MB for the render alone.
    scene, camera = test_acceptance.TestAcceptance.hidden_scene()
    bg = np.array([0.1, 0.1, 0.1])
    d_image = np.random.default_rng(1).normal(size=(64, 64, 3))

    def iteration():
        res = render(scene, camera, bg, keep_pairs=True)
        return scene_backward(scene, camera, res, d_image)

    assert traced_peak(iteration) < 2.9e6
