"""Audit harness tests: the finite-difference kernel, scene auditing,
fault injection, and report serialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    AUDIT_CLASSES,
    audit_scene,
    finite_difference,
    make_audit_scene,
    run_audit,
)


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference(lambda x: float(x[0] ** 2),
                                 np.array([3.0]))
        assert_allclose(grad, [6.0], atol=1e-9)

    def test_constant(self):
        grad = finite_difference(lambda x: 7.25, np.array([1.0, -2.0]))
        assert_allclose(grad, [0.0, 0.0], atol=0.0)

    def test_exponential(self):
        grad = finite_difference(lambda x: float(np.exp(-x[0])),
                                 np.array([0.5]))
        assert_allclose(grad, [-np.exp(-0.5)], atol=1e-8)

    def test_matrix_shaped_params(self):
        # The probe sees the full array; gradient of sum of squares is 2x.
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad = finite_difference(lambda m: float(np.sum(m * m)), base)
        assert grad.shape == (2, 2)
        assert_allclose(grad, 2.0 * base, rtol=1e-7)

    def test_non_finite_probe_raises(self):
        def bad(x):
            return float("nan")

        with pytest.raises(FloatingPointError):
            finite_difference(bad, np.array([1.0]))

    def test_step_size_is_respected(self):
        # For f(x) = x^3 the central difference is 3 x^2 + h^2, so the
        # leading error term scales with h^2.
        calls = []

        def f(x):
            calls.append(float(x[0]))
            return float(x[0] ** 3)

        finite_difference(f, np.array([2.0]), h=1e-3)
        assert calls == [2.0 + 1e-3, 2.0 - 1e-3]


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


class TestFaultInjection:
    """Corrupting one gradient block must flag that class and only that
    class, which pins down both sensitivity and attribution."""

    @pytest.mark.parametrize("name", AUDIT_CLASSES)
    def test_negated_block_is_flagged(self, name):
        def corrupt(grads):
            field = "d_" + name
            setattr(grads, field, -getattr(grads, field))
            return grads

        report = run_audit(4, gradient_transform=corrupt)
        assert not report.passed
        assert not report.classes[name].passed
        for other in AUDIT_CLASSES:
            if other != name:
                assert report.classes[other].passed, (name, other)

    def test_small_relative_error_is_caught(self):
        def nudge(grads):
            grads.d_color = grads.d_color * (1.0 + 5e-3)
            return grads

        report = run_audit(4, gradient_transform=nudge)
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

    def test_failed_report_text_says_fail(self):
        def corrupt(grads):
            grads.d_mean = grads.d_mean + 1.0
            return grads

        report = run_audit(0, gradient_transform=corrupt)
        text = report.to_text()
        assert "FAIL" in text
        assert text.splitlines()[-1] == "overall: FAIL"
