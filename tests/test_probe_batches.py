"""Audit probe batches: where they fall changes no bit, and what they hold.

audit_scene bins and composites its probe windows in slices of whole
probe pairs, about gradcheck.PROBE_PIXELS window pixels each. A window
pixel equals the same pixel of its probe rendered alone, so the slice
size must change no report bit: one pair per slice, the old 2^11 pixels
and the current size give byte-equal reports. Nothing of a slice
outlives it, and the probe stack is dropped once projected, so the
audit's peak memory stays near one slice's compositing.
"""

import pickle

import pytest

from splatgrad import Splats, gradcheck, make_audit_scene, run_audit

from test_footprint_pairs import traced_peak


def slice_count(seed):
    """The probe slices audit seed `seed` composites."""
    scene, camera, _, _, _ = make_audit_scene(seed, 16 if seed % 2 == 0 else 32)
    splats = Splats.of(scene)
    stack, views, table, probed, _ = gradcheck._probes(splats, camera, 1e-5)
    windows = gradcheck._probe_rows(stack, views, table, probed, camera)[-1]
    size = windows[:, 2:] - windows[:, :2]
    return len(gradcheck._slices(size[:, 0] * size[:, 1]))


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_do_not_depend_on_probe_pixels(seed, monkeypatch):
    # Seed 0 is 16 x 16 and seed 1 32 x 32; both split into several
    # slices at the current PROBE_PIXELS.
    assert slice_count(seed) > 1
    reports = []
    for pixels in (1, 1 << 11, gradcheck.PROBE_PIXELS):
        monkeypatch.setattr(gradcheck, "PROBE_PIXELS", pixels)
        reports.append(pickle.dumps(run_audit(seed)))
    assert reports[0] == reports[1] == reports[2]
    assert pickle.loads(reports[0]).passed


def test_audit_peak_memory():
    # Seed 0 peaks at 4.58 MB over 3 slices, near seed 2's 4.88 MB, the
    # largest of audit seeds 0-19. Seed 0 read 8.28 MB when each slice's
    # compositing outputs and pixel terms were held while the next slice
    # rendered, and 3.08 MB at 2,048 window pixels per slice.
    assert traced_peak(lambda: run_audit(0)) < 6e6
