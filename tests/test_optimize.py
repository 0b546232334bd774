"""Image-fitting optimizer tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import FitConfig, Gaussian3D, fit, init_random, render

from helpers import frustum_camera, rows


class TestInitRandom:
    def test_deterministic_for_seed(self):
        camera = frustum_camera(32, 32)
        target = np.full((32, 32, 3), 0.5)
        config = FitConfig(n_gaussians=20, seed=9)
        a = init_random(config, camera, target)
        b = init_random(config, camera, target)
        assert len(a) == len(b) == 20
        assert_allclose(a.means, b.means, atol=0.0)
        assert_allclose(a.scales, b.scales, atol=0.0)
        assert_allclose(a.quats, b.quats, atol=0.0)
        assert np.array_equal(a.opacities, b.opacities)

    def test_seeds_differ(self):
        camera = frustum_camera(32, 32)
        target = np.full((32, 32, 3), 0.5)
        a = init_random(FitConfig(n_gaussians=5, seed=1), camera, target)
        b = init_random(FitConfig(n_gaussians=5, seed=2), camera, target)
        assert not np.allclose(a.means[0], b.means[0])

    def test_zero_gaussians(self):
        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        assert len(init_random(FitConfig(n_gaussians=0), camera, target)) == 0

    def test_negative_count_rejected_by_name(self):
        camera = frustum_camera(16, 16)
        with pytest.raises(ValueError, match=r"^config\.n_gaussians must be at least 0, got -3$"):
            init_random(FitConfig(n_gaussians=-3), camera, np.zeros((16, 16, 3)))

    def test_splats_start_visible(self):
        from splatgrad import project_gaussian

        camera = frustum_camera(48, 32)
        rng = np.random.default_rng(0)
        target = rng.uniform(size=(32, 48, 3))
        scene = init_random(FitConfig(n_gaussians=30, seed=4), camera,
                            target)
        scene.validate()
        for g in rows(scene):
            p = project_gaussian(g, camera)
            assert p is not None
            assert 0.0 <= p.mean2d[0, 0] < camera.width
            assert 0.0 <= p.mean2d[0, 1] < camera.height

    def test_colors_sampled_from_target(self):
        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        target[:, :8] = [1.0, 0.0, 0.0]
        target[:, 8:] = [0.0, 0.0, 1.0]
        scene = init_random(FitConfig(n_gaussians=40, seed=7), camera,
                            target)
        for color, opacity in zip(scene.colors, scene.opacities):
            assert tuple(color) in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
            assert opacity == 0.5


class TestFit:
    def test_target_shape_mismatch_rejected(self):
        camera = frustum_camera(16, 16)
        with pytest.raises(ValueError):
            fit(np.zeros((8, 8, 3)), camera, FitConfig(n_gaussians=1))

    @pytest.mark.parametrize("with_init", [False, True], ids=["init_random", "init"])
    def test_non_finite_target_rejected_first(self, with_init):
        # The check comes first: init_random would color the splats from
        # the target, and a given init would reach a NaN loss.
        camera = frustum_camera(20, 15)
        config = FitConfig(n_gaussians=3, iterations=2)
        init = init_random(config, camera, np.full((15, 20, 3), 0.5)) if with_init else None
        with pytest.raises(ValueError, match=r"^target of shape \(15, 20, 3\) must be finite$"):
            fit(np.full((15, 20, 3), np.nan), camera, config, init=init)

    @pytest.mark.parametrize("field", ["n_gaussians", "iterations"])
    def test_negative_count_rejected(self, field):
        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        with pytest.raises(ValueError, match=rf"^config\.{field} must be at least 0, got -3$"):
            fit(target, camera, FitConfig(**{field: -3}))
        # Zero stays allowed.
        scene, history = fit(target, camera,
                             FitConfig(**{"n_gaussians": 2, "iterations": 2, field: 0}))
        assert (len(scene), len(history)) == ((0, 2) if field == "n_gaussians" else (2, 0))

    @pytest.mark.parametrize("bad", [2.5, np.nan], ids=["fraction", "nan"])
    @pytest.mark.parametrize("field", ["n_gaussians", "iterations"])
    def test_non_integral_count_rejected(self, field, bad):
        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        with pytest.raises(ValueError, match=rf"^config\.{field} must be an integer, got {bad}$"):
            fit(target, camera, FitConfig(**{field: bad}))
        if field == "n_gaussians":
            with pytest.raises(ValueError, match=rf"^config\.{field} must be an integer"):
                init_random(FitConfig(n_gaussians=bad), camera, target)
        # A whole number of another type passes, as Camera's sizes do.
        for whole in (3.0, np.int64(3)):
            scene, history = fit(target, camera,
                                 FitConfig(**{"n_gaussians": 2, "iterations": 2, field: whole}))
            assert (len(scene), len(history)) == ((3, 2) if field == "n_gaussians" else (2, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("field", ["lr_mean", "lr_scale", "lr_quat", "lr_opacity",
                                       "lr_color"])
    def test_bad_learning_rate_rejected(self, field, bad):
        # Checked before init_random, whose n_gaussians check would fire
        # first otherwise. A rate of zero stays legal.
        with pytest.raises(ValueError, match=rf"^config\.{field} must be finite and "
                                             rf"non-negative, got {bad}$"):
            fit(np.zeros((16, 16, 3)), frustum_camera(16, 16),
                FitConfig(n_gaussians=-1, **{field: bad}))

    def test_fitted_scene_shares_no_array_with_init(self):
        camera = frustum_camera(16, 16)
        init = init_random(FitConfig(n_gaussians=3), camera, np.full((16, 16, 3), 0.5))
        scene, _ = fit(np.zeros((16, 16, 3)), camera, FitConfig(iterations=0), init=init)
        for attr in ("means", "scales", "quats", "opacities", "colors"):
            assert not np.shares_memory(getattr(scene, attr), getattr(init, attr)), attr

    def test_perfect_start_stays_put(self):
        # When the target is the render of the starting scene the loss is
        # exactly zero, every gradient is zero, and iterations are no-ops.
        camera = frustum_camera(24, 24)
        config = FitConfig(n_gaussians=4, iterations=5, seed=3)
        init = init_random(config, camera, np.full((24, 24, 3), 0.5))
        target = render(init, camera, np.zeros(3)).image.channels
        scene, history = fit(target, camera, config, init=init)
        assert_allclose(history, 0.0, atol=0.0)
        assert_allclose(init.means, scene.means, atol=0.0)
        assert_allclose(init.colors, scene.colors, atol=0.0)
        assert np.array_equal(init.opacities, scene.opacities)

    def test_single_gaussian_recovery(self):
        # One splat, perturbed start: the loss must collapse by two
        # orders of magnitude well within the iteration budget.
        camera = frustum_camera(24, 24)
        truth = [Gaussian3D(mean=np.array([0.1, -0.05, 3.0]),
                            scale=np.array([0.25, 0.18, 0.2]),
                            quat=np.array([0.9, 0.1, -0.2, 0.05]),
                            opacity=0.7,
                            color=np.array([0.8, 0.3, 0.5]))]
        target = render(truth, camera, np.zeros(3)).image.channels
        start = [Gaussian3D(mean=np.array([0.03, 0.02, 3.2]),
                            scale=np.array([0.2, 0.24, 0.2]),
                            quat=np.array([1.0, 0.0, 0.0, 0.0]),
                            opacity=0.55,
                            color=np.array([0.6, 0.45, 0.4]))]
        config = FitConfig(n_gaussians=1, iterations=500, seed=0)
        scene, history = fit(target, camera, config, init=start)
        assert history[-1] < 0.01 * history[0]

    def test_history_length_and_determinism(self):
        camera = frustum_camera(16, 16)
        rng = np.random.default_rng(8)
        target = rng.uniform(size=(16, 16, 3))
        config = FitConfig(n_gaussians=5, iterations=40, seed=11)
        scene_a, hist_a = fit(target, camera, config)
        scene_b, hist_b = fit(target, camera, config)
        assert len(hist_a) == 40
        assert hist_a == hist_b
        assert_allclose(scene_a.means, scene_b.means, atol=0.0)
        assert_allclose(scene_a.scales, scene_b.scales, atol=0.0)
        assert_allclose(scene_a.quats, scene_b.quats, atol=0.0)
        assert_allclose(scene_a.colors, scene_b.colors, atol=0.0)
        assert np.array_equal(scene_a.opacities, scene_b.opacities)

    def test_loss_decreases_on_simple_target(self):
        camera = frustum_camera(24, 24)
        target = np.zeros((24, 24, 3))
        target[6:18, 6:18] = [0.9, 0.6, 0.2]
        config = FitConfig(n_gaussians=8, iterations=120, seed=2)
        _, history = fit(target, camera, config)
        assert history[-1] < 0.5 * history[0]

    def test_invariants_hold_after_fit(self):
        camera = frustum_camera(16, 16)
        rng = np.random.default_rng(19)
        target = rng.uniform(size=(16, 16, 3))
        config = FitConfig(n_gaussians=6, iterations=60, seed=5)
        scene, _ = fit(target, camera, config)
        assert np.all(scene.scales > 0.0)
        assert np.all((0.0 < scene.opacities) & (scene.opacities < 1.0))
        assert np.all(scene.colors >= 0.0)
        assert np.all(scene.colors <= 1.0)
        assert np.all(np.linalg.norm(scene.quats, axis=1) > 1e-6)

    def test_scale_stays_positive_under_pressure(self):
        # A target of pure background pushes opacity down and scale
        # around; the log-space parameterization must keep scale positive
        # no matter how many steps run.
        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        config = FitConfig(n_gaussians=4, iterations=150, seed=6,
                           lr_scale=5e-2)
        scene, _ = fit(target, camera, config)
        assert np.all(scene.scales > 0.0)

    def test_divergence_raises(self):
        camera = frustum_camera(16, 16)
        target = np.zeros((16, 16, 3))
        # An absurd learning rate blows the means out through the far
        # plane; once every splat is culled the loss settles instead of
        # diverging, so drive the colors out of range as the tripwire.
        config = FitConfig(n_gaussians=3, iterations=400, seed=1,
                           lr_mean=1e6)
        try:
            scene, history = fit(target, camera, config)
        except FloatingPointError:
            return
        # If it did not trip, the loss must at least have stayed finite.
        assert np.all(np.isfinite(history))


class TestGradientSpaces:
    def test_log_scale_chain_rule(self):
        # Fitting in log scale space means the applied gradient is
        # s * dL/ds. Check through one manual iteration: run fit for a
        # single step with only the scale learning rate nonzero and
        # compare against the hand-applied adaptive step.
        camera = frustum_camera(16, 16)
        truth = [Gaussian3D(mean=np.array([0.0, 0.0, 3.0]),
                            scale=np.array([0.3, 0.2, 0.25]),
                            quat=np.array([1.0, 0.0, 0.0, 0.0]),
                            opacity=0.6,
                            color=np.array([0.9, 0.1, 0.4]))]
        target = render(truth, camera, np.zeros(3)).image.channels
        start = [Gaussian3D(mean=truth[0].mean.copy(),
                            scale=np.array([0.36, 0.17, 0.25]),
                            quat=truth[0].quat.copy(),
                            opacity=0.6,
                            color=truth[0].color.copy())]
        config = FitConfig(n_gaussians=1, iterations=1, seed=0,
                           lr_mean=0.0, lr_quat=0.0, lr_opacity=0.0,
                           lr_color=0.0, lr_scale=1e-2)
        scene, _ = fit(target, camera, config, init=list(start))

        from splatgrad import scene_backward

        res = render(start, camera, np.zeros(3))
        diff = res.image.channels - target
        grads = scene_backward(start, camera, res, 2.0 * diff)
        g_log = start[0].scale * grads.d_scale[0]
        # First adaptive step: bias correction cancels the moment decay,
        # leaving lr * g / (|g| + eps).
        step = 1e-2 * g_log / (np.abs(g_log) + 1e-8)
        want = np.exp(np.log(start[0].scale) - step)
        assert_allclose(scene.scales[0], want, rtol=1e-10)

    def test_opacity_stays_in_unit_interval(self):
        camera = frustum_camera(16, 16)
        target = np.ones((16, 16, 3))
        config = FitConfig(n_gaussians=3, iterations=200, seed=12,
                           lr_opacity=0.5)
        scene, _ = fit(target, camera, config)
        assert np.all((0.0 < scene.opacities) & (scene.opacities < 1.0))


class TestNonFiniteGradient:
    @pytest.mark.parametrize("name", ["mean", "scale", "quat", "opacity", "color"])
    def test_names_class_and_iteration(self, monkeypatch, name):
        # Inject a NaN into one gradient class at the third iteration; fit
        # must stop there and say which class, before the NaN reaches the
        # optimizer state and the next render's scene check.
        from splatgrad import optimize

        inner = optimize.scene_backward
        calls = []

        def poisoned(*args, **kwargs):
            grads = inner(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                field = getattr(grads, "d_" + name)
                field.flat[field.size // 2] = np.nan
            return grads

        monkeypatch.setattr(optimize, "scene_backward", poisoned)
        camera = frustum_camera(16, 16)
        config = FitConfig(n_gaussians=4, iterations=10, seed=2)
        with pytest.raises(FloatingPointError,
                           match=rf"^d_{name} is not finite at iteration 2$"):
            fit(np.full((16, 16, 3), 0.5), camera, config)
        assert len(calls) == 3


class TestQuatNormCollapse:
    def test_names_splat_and_iteration(self, monkeypatch):
        # A constant huge gradient with the signs of quaternion 2 makes
        # every Adam step lr_quat per component against that sign, so
        # [0.75, 0.75, -0.75, 0.75] reaches zero after three steps. fit must stop after that step,
        # before the next render's scene check rejects the quaternion
        # without saying when.
        from splatgrad import optimize

        inner = optimize.scene_backward

        def shrink(scene, *args, **kwargs):
            grads = inner(scene, *args, **kwargs)
            grads.d_quat[2] = 1e30 * np.sign(scene.quats[2])
            return grads

        monkeypatch.setattr(optimize, "scene_backward", shrink)
        camera = frustum_camera(16, 16)
        target = np.full((16, 16, 3), 0.5)
        config = FitConfig(n_gaussians=4, iterations=10, seed=2, lr_quat=0.25)
        init = init_random(config, camera, target)
        init.quats[2] = [0.75, 0.75, -0.75, 0.75]
        with pytest.raises(FloatingPointError,
                           match=r"^gaussians\[2\]\.quat norm collapsed at iteration 2$"):
            fit(target, camera, config, init=init)
