"""Audit probe windows and the per-pair difference formed over them.

A probe pair moves one coordinate of splat i by +h and -h. Its window
bounds splat i's pixel boxes in the two probe images, clipped to the
image, and only the window's pixels are composited. The property tests
render every probe alone with render and require, over audit seeds 0-19,
the off-centre 37x23 audit cases and drawn scenes:

- outside its pair's window, a pair's two images are bitwise equal, so
  the loss difference is zero there;
- every window pixel of the windowed batch equals the same pixel of the
  whole-image render bitwise.

The probe table, expanded to one scene per probe, must hold exactly the
scenes one dataclasses.replace per probe gives, in the same order, with
the same coordinate table. A splat culled in both probes has an empty
window and a difference of exactly 0.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from splatgrad import Camera, Gaussian3D, Splats, audit_scene, make_audit_scene, render
from splatgrad import gradcheck
from splatgrad.core import SPLAT_FIELDS
from splatgrad.proj_backward import SceneGradients
from splatgrad.gradcheck import _probe_differences, _probe_rows, _probes
from splatgrad.raster_forward import _render_batch

from helpers import rows
from test_batched_probes import off_centre_audit_case
from test_footprint_pairs import cameras, scenes

H = 1e-5


def expand(stack, views, table):
    """_probes' table expanded to one scene per probe: (a Splats whose rows
    k * n to k * n + n - 1 are probe k's scene, each probe's view)."""
    rows = table.ravel()
    return Splats(*(a[rows] for a in (stack.means, stack.scales, stack.quats,
                                      stack.opacities, stack.colors))), views[table[:, 0]]


def project_probes(splats, camera, h=H):
    """(stack, views, probed, coords, probe, windows) of audit_scene's
    probes, the stack and views expanded to one scene per probe; probe is
    _probe_rows' (projected, image, footprints)."""
    stack, views, table, probed, coords = _probes(splats, camera, h)
    *probe, windows = _probe_rows(stack, views, table, probed, camera)
    return (*expand(stack, views, table), probed, coords, probe, windows)


def probe_renders(stack, views, n, camera, background):
    """Each probe rendered alone: its rows of the stack through its view."""
    return [render(Splats(*(a[k * n:(k + 1) * n] for a in (
        stack.means, stack.scales, stack.quats, stack.opacities, stack.colors))),
        replace(camera, view=views[k]), background).image.channels
            for k in range(len(views))]


def assert_windows_cover(scene, camera, background):
    splats = Splats.of(scene)
    stack, views, probed, _, probe, windows = project_probes(splats, camera)
    full = probe_renders(stack, views, len(splats), camera, background)
    w, h = camera.width, camera.height
    for c, (x0, y0, x1, y1) in enumerate(windows):
        assert 0 <= x0 <= x1 <= w and 0 <= y0 <= y1 <= h
        if probed[c] < 0:
            assert (x0, y0, x1, y1) == (0, 0, w, h)
        outside = np.ones((h, w), dtype=bool)
        outside[y0:y1, x0:x1] = False
        assert full[2 * c][outside].tobytes() == full[2 * c + 1][outside].tobytes(), c
    # Every probe image composited inside its pair's window, in one batch.
    windows = windows.repeat(2, axis=0)
    _, (color, *_) = _render_batch(*probe, w, h, windows, background)
    at = 0
    for k, (x0, y0, x1, y1) in enumerate(windows):
        area = (x1 - x0) * (y1 - y0)
        got = color.T[at:at + area].reshape(y1 - y0, x1 - x0, 3)
        assert got.tobytes() == full[k][y0:y1, x0:x1].tobytes(), k
        at += area
    assert at == color.shape[1]


@pytest.mark.parametrize("seed", range(20))
def test_windows_cover_audit_seeds(seed):
    scene, camera, _, background, _ = make_audit_scene(seed, 16 if seed % 2 == 0 else 32)
    assert_windows_cover(scene, camera, background)


@pytest.mark.parametrize("seed", range(6))
def test_windows_cover_off_centre_cases(seed):
    scene, camera, _, background, _ = off_centre_audit_case(seed)
    assert_windows_cover(scene, camera, background)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(cameras().flatmap(lambda camera: scenes(camera).map(lambda s: (s, camera))))
def test_windows_cover_drawn_scenes(case):
    scene, camera = case
    with np.errstate(over="ignore", under="ignore"):
        assert_windows_cover(scene[:4], camera, np.array([0.2, 0.3, 0.4]))


def test_probe_stack_matches_one_scene_per_probe(monkeypatch):
    # The probes as they were built one Splats per probe: +h then -h on
    # each splat coordinate in SPLAT_FIELDS order, then on the view
    # matrix's top three rows.
    scene, camera, target, background, mask = make_audit_scene(3, 32)
    splats = Splats.of(scene)
    n = len(splats)
    stack, views, table, probed, coords = _probes(splats, camera, H)
    stack, views = expand(stack, views, table)
    scenes_, views_, labels, pairs, grads = [], [], [], [], []
    for i in range(n):
        for name, attr, _ in SPLAT_FIELDS:
            values = getattr(splats, attr)
            for j in np.ndindex(values.shape[1:]):
                labels.append((name, f"gaussian[{i}].{name}" + "".join(f"[{k}]" for k in j)))
                grads.append(("d_" + name, (i,) + j))
                pairs.append(i)
                for step in (H, -H):
                    moved = values.copy()
                    moved[(i,) + j] += step
                    scenes_.append(replace(splats, **{attr: moved}))
                    views_.append(camera.view)
    for j in np.ndindex(3, 4):
        index = np.ravel_multi_index(j, (4, 4))
        labels.append(("view", f"view[{index}]"))
        grads.append(("d_view", j))
        pairs.append(-1)
        for step in (H, -H):
            view = camera.view.copy()
            view[j] += step
            scenes_.append(splats)
            views_.append(view)
    assert coords.tolist() == labels
    assert probed.tolist() == pairs
    assert views.tobytes() == np.stack(views_).tobytes()
    for attr in ("means", "scales", "quats", "opacities", "colors"):
        want = np.concatenate([getattr(s, attr) for s in scenes_])
        assert getattr(stack, attr).tobytes() == want.tobytes(), attr

    # audit_scene reads the analytic value of probe pair c, in probe order,
    # as SceneGradients.d_<name>[i, j] of its label: with every gradient
    # entry distinct and each probe difference 2 h times the entry its
    # label names, every coordinate agrees to rounding.
    rng = np.random.default_rng(5)
    analytic = SceneGradients.zeros(n)
    values = 1.0 + rng.permutation(sum(v.size for v in vars(analytic).values())) / 1000.0
    for value in vars(analytic).values():
        value[...], values = values[:value.size].reshape(value.shape), values[value.size:]
    expected = np.array([getattr(analytic, field)[index] for field, index in grads])
    monkeypatch.setattr(gradcheck, "scene_backward", lambda *args: analytic)
    monkeypatch.setattr(gradcheck, "_probe_differences", lambda *args: expected * (2.0 * H))
    report = audit_scene(scene, camera, target, background=background, h=H, pixel_mask=mask)
    assert all(c.max_rel < 1e-12 for c in report.classes.values()), report.to_text()


def test_splat_culled_in_both_probes_has_empty_window():
    scene, camera, target, background, mask = make_audit_scene(0)
    # One splat far off the image and one behind the near plane: every
    # probe culls both.
    off = Gaussian3D(mean=camera.rotation.T @ (np.array([-40.0, -40.0, 3.0])
                                               - camera.translation),
                     scale=np.full(3, 0.02), quat=np.array([1.0, 0.2, 0.0, 0.0]),
                     opacity=0.7, color=np.array([0.5, 0.5, 0.5]))
    behind = replace(off, mean=camera.rotation.T @ (np.array([0.0, 0.0, -1.0])
                                                    - camera.translation))
    scene = rows(scene) + [off, behind]
    splats = Splats.of(scene)
    _, _, probed, _, probe, windows = project_probes(splats, camera)
    culled = probed >= len(scene) - 2
    assert culled.sum() == 28
    size = windows[:, 2:] - windows[:, :2]
    assert np.all(size[culled].min(axis=1) == 0)
    assert np.all(size[~culled].min(axis=1) > 0)
    delta = _probe_differences(*probe, windows, target, mask.astype(np.float64), background)
    assert np.all(delta[culled] == 0.0)
    assert np.all(delta[~culled] != 0.0)
    report = audit_scene(scene, camera, target, background=background, pixel_mask=mask)
    assert report.passed, report.to_text()


def test_probe_slices_hold_whole_pairs_within_probe_pixels():
    # Pair areas (each pair is two images of its area) from empty to
    # twice a slice, so the slices both fill and split.
    p = gradcheck.PROBE_PIXELS
    area = np.array([0, p // 8, p // 3, p // 2, 1, 0, p // 2, p, p // 2 - 1, 5, p // 4])
    slices = gradcheck._slices(area)
    assert [c for s in slices for c in range(*s)] == list(range(area.size))
    assert len(slices) > 2 and any(c1 - c0 > 1 for c0, c1 in slices)
    for c0, c1 in slices:
        assert c1 - c0 == 1 or 2 * area[c0:c1].sum() <= p
    # A slice ends only where its next pair would not fit.
    for c0, c1 in slices[:-1]:
        assert 2 * area[c0:c1 + 1].sum() > p


class TestAuditInputs:
    camera = Camera(view=np.eye(4), fx=16.0, fy=16.0, cx=7.5, cy=7.5,
                    width=16, height=16, near=0.1, far=100.0)

    @pytest.mark.parametrize("target, mask, message", [
        (np.zeros((16, 16)), None, r"^target must have shape \(16, 16, 3\), got \(16, 16\)$"),
        (np.zeros((16, 15, 3)), None,
         r"^target must have shape \(16, 16, 3\), got \(16, 15, 3\)$"),
        (np.zeros((16, 16, 3)), np.ones((16, 16, 1)),
         r"^pixel_mask must have shape \(16, 16\), got \(16, 16, 1\)$"),
        (np.full((16, 16, 3), np.nan), None,
         r"^target of shape \(16, 16, 3\) must be finite$"),
        (np.zeros((16, 16, 3)), np.full((16, 16), np.inf),
         r"^pixel_mask of shape \(16, 16\) must be finite$"),
    ])
    def test_bad_input_named(self, target, mask, message):
        with pytest.raises(ValueError, match=message):
            audit_scene([], self.camera, target, pixel_mask=mask)

    def test_non_finite_difference_names_its_coordinate(self, monkeypatch):
        scene, camera, target, background, mask = make_audit_scene(0)
        coords = _probes(Splats.of(scene), camera, H)[-1]
        bad = coords["label"].tolist().index("gaussian[3].scale[1]")

        def poisoned(*args):
            delta = _probe_differences(*args)
            delta[bad] = np.nan
            return delta

        monkeypatch.setattr(gradcheck, "_probe_differences", poisoned)
        with pytest.raises(FloatingPointError,
                           match=r"^probe difference of gaussian\[3\]\.scale\[1\] is not finite$"):
            audit_scene(scene, camera, target, background=background, pixel_mask=mask)
