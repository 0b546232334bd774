"""Audit harness tests: scene auditing, fault injection, and report
serialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    AUDIT_CLASSES,
    audit_scene,
    gradcheck,
    make_audit_scene,
    run_audit,
)

from helpers import frustum_camera, wrap_backward


class TestAuditScene:
    def test_empty_scene_passes_trivially(self):
        from helpers import frustum_camera

        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        report = audit_scene([], camera, target)
        assert report.passed
        for name in AUDIT_CLASSES:
            assert report.classes[name].passed
            assert report.classes[name].max_abs == 0.0

    def test_generated_scene_passes(self):
        report = run_audit(0)
        assert report.passed
        for name in AUDIT_CLASSES:
            assert report.classes[name].passed
            assert report.classes[name].max_rel < 1e-4

    def test_small_gradient_beside_large_loss(self):
        # gaussian[8].quat[1] of this 16 px scene has a derivative of about
        # 3e-7 against a masked loss of about 118. Subtracting two probe
        # losses leaves a rounding floor near eps * L / h = 3e-9, a relative
        # error of about 2e-3; the per-pixel difference stays below 1e-4.
        report = run_audit(169703186)
        assert report.passed, report.to_text()
        assert report.classes["quat"].max_rel < 1e-4

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="central-difference truncation on scale (ROADMAP item 3)")
    def test_truncation_failure_seed(self):
        # The one failure of a 1,000-seed sweep: gaussian[6].scale[1] at
        # max_rel 1.26e-4 against rel_tol 1e-4. The error follows h^2, so
        # it is the central difference's truncation, not a gradient fault;
        # a fourth-order stencil is to turn this into a pass.
        report = run_audit(1335712691)
        assert report.passed, report.to_text()

    def test_all_parameter_classes_present(self):
        report = run_audit(1)
        assert set(report.classes.keys()) == set(AUDIT_CLASSES)

    def test_passes_at_both_step_sizes(self):
        for h in (1e-4, 1e-5):
            report = run_audit(2, h=h)
            assert report.passed, f"failed at h={h}"

    def test_make_audit_scene_is_deterministic(self):
        a = make_audit_scene(5)
        b = make_audit_scene(5)
        assert len(a[0]) == len(b[0])
        assert_allclose(a[0].means, b[0].means, atol=0.0)
        assert_allclose(a[0].quats, b[0].quats, atol=0.0)
        assert_allclose(a[1].view, b[1].view, atol=0.0)
        assert_allclose(a[2], b[2], atol=0.0)
        assert_allclose(a[3], b[3], atol=0.0)
        assert np.array_equal(a[4], b[4])

    def test_different_seeds_differ(self):
        a = make_audit_scene(5)
        b = make_audit_scene(6)
        assert not np.allclose(a[1].view, b[1].view)

    def test_mask_keeps_majority_of_pixels(self):
        scene, camera, target, background, mask = make_audit_scene(3)
        assert mask.dtype == bool
        assert mask.shape == (camera.height, camera.width)
        assert mask.mean() >= 0.5


class TestAuditArguments:
    """h, rel_tol and abs_tol must each be finite and positive: a negative
    or infinite tolerance would pass any gradient, and a zero or NaN step
    would give NaN figures or blame the scene."""

    CASES = [(name, bad) for name in ("h", "rel_tol", "abs_tol")
             for bad in (0.0, -1.0, np.nan, np.inf)]

    @pytest.mark.parametrize("name,bad", CASES)
    def test_audit_scene_rejects(self, name, bad):
        # Checked after the camera and before the target, whose shape is
        # wrong here.
        with pytest.raises(ValueError,
                           match=rf"^{name} must be finite and positive, got {bad}$"):
            audit_scene([], frustum_camera(16, 16), np.zeros((8, 8, 3)), **{name: bad})

    @pytest.mark.parametrize("name,bad", CASES)
    def test_run_audit_rejects(self, name, bad):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be finite and positive, got {bad}$"):
            run_audit(4, **{name: bad})

    @pytest.mark.parametrize("name,bad", CASES)
    def test_run_audit_rejects_before_drawing(self, name, bad, monkeypatch):
        drawn = []
        real = gradcheck._draw_scene
        monkeypatch.setattr(gradcheck, "_draw_scene",
                            lambda *args: drawn.append(args) or real(*args))
        with pytest.raises(ValueError, match=rf"^{name} must be finite and positive"):
            run_audit(1, **{name: bad})
        assert drawn == []
        # The wrapper counts: a good call draws.
        run_audit(1)
        assert drawn

    # A seed must be a whole number at least 0, and an audit image at
    # least 4 pixels wide (splats are placed 2 px inside its border);
    # checked before anything is drawn.
    SEED_CASES = [
        (run_audit, (-1,), r"seed must be at least 0, got -1"),
        (run_audit, (1.5,), r"seed must be an integer, got 1.5"),
        (make_audit_scene, (-3,), r"seed must be at least 0, got -3"),
        (make_audit_scene, (np.nan,), r"seed must be an integer, got nan"),
        (make_audit_scene, (0, 3), r"image_size must be at least 4, got 3"),
        (make_audit_scene, (0, 16.5), r"image_size must be an integer, got 16.5"),
    ]

    @pytest.mark.parametrize("call,args,message", SEED_CASES, ids=[
        "run_audit-negative", "run_audit-fraction", "make_audit_scene-negative",
        "make_audit_scene-nan", "size-too-small", "size-fraction"])
    def test_seed_and_size_rejected(self, call, args, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call(*args)

    def test_whole_seed_and_size_of_another_type_pass(self):
        a, b = make_audit_scene(2.0, 16.0), make_audit_scene(np.int64(2), np.int64(16))
        assert np.array_equal(a[0].means, b[0].means)
        assert np.array_equal(a[4], b[4])


def test_an_audited_seed_renders_once(monkeypatch):
    """The safety mask reads its transmittance band from its own dense
    pair pass, so make_audit_scene renders nothing and run_audit renders
    the scene once, for the analytic gradients."""
    calls = []
    real = gradcheck.render

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gradcheck, "render", counted)
    make_audit_scene(0)
    assert len(calls) == 0
    for seed in (0, 1):
        run_audit(seed)
        assert len(calls) == 1, seed
        calls.clear()


class TestFaultInjection:
    """Corrupting one gradient block must flag that class and only that
    class, which pins down both sensitivity and attribution."""

    @pytest.mark.parametrize("name", AUDIT_CLASSES)
    def test_negated_block_is_flagged(self, name, monkeypatch):
        def corrupt(grads):
            field = "d_" + name
            setattr(grads, field, -getattr(grads, field))
            return grads

        wrap_backward(monkeypatch, corrupt)
        report = run_audit(4)
        assert not report.passed
        assert not report.classes[name].passed
        for other in AUDIT_CLASSES:
            if other != name:
                assert report.classes[other].passed, (name, other)

    def test_small_relative_error_is_caught(self, monkeypatch):
        def nudge(grads):
            grads.d_color = grads.d_color * (1.0 + 5e-3)
            return grads

        wrap_backward(monkeypatch, nudge)
        report = run_audit(4)
        assert not report.classes["color"].passed


class TestGradReport:
    def test_to_dict_round_trip(self):
        import json

        report = run_audit(0)
        d = report.to_dict()
        text = json.dumps(d)
        back = json.loads(text)
        assert back["passed"] is True
        assert back["h"] == 1e-5
        assert set(back["classes"].keys()) == set(AUDIT_CLASSES)
        for name in AUDIT_CLASSES:
            entry = back["classes"][name]
            assert entry["passed"] is True
            assert isinstance(entry["max_rel"], float)
            assert isinstance(entry["max_abs"], float)
            assert isinstance(entry["worst_coord"], str)

    def test_to_text_structure(self):
        report = run_audit(0)
        lines = report.to_text().splitlines()
        # Header, one row per class, one overall line.
        assert len(lines) == 2 + len(AUDIT_CLASSES)
        assert lines[0].startswith("class")
        assert lines[-1] == "overall: pass"
        for name, line in zip(AUDIT_CLASSES, lines[1:-1]):
            assert line.startswith(name)
            assert line.rstrip().endswith("pass")

    def test_failed_report_text_says_fail(self, monkeypatch):
        def corrupt(grads):
            grads.d_mean = grads.d_mean + 1.0
            return grads

        wrap_backward(monkeypatch, corrupt)
        report = run_audit(0)
        text = report.to_text()
        assert "FAIL" in text
        assert text.splitlines()[-1] == "overall: FAIL"
