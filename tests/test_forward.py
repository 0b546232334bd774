"""Forward rasterizer tests: alpha evaluation, per-pixel compositing,
and full-frame rendering against an independent per-pixel reference."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    ALPHA_MAX,
    ALPHA_MIN,
    SIGMA_CUT,
    T_MIN,
    Gaussian3D,
    Splats,
    project_splats,
    render,
    render_brute_force,
)

from helpers import (
    composite_pixel,
    eval_alpha,
    frustum_camera,
    frustum_scene,
    naive_render,
    rotated_camera,
    stack_projected,
)


def make_splat2d(mean2d, cov2d):
    return stack_projected([([0.0, 0.0, 1.0], mean2d, cov2d, 1.0, 10, 0)])


def center_gaussian(opacity, color, depth=4.0):
    """A splat whose footprint covers the pixel at (0.5, 0.5) of a 1x1
    frame with sigma exactly 0 at the pixel center."""
    return Gaussian3D(
        mean=np.array([0.0, 0.0, depth]),
        scale=np.array([0.5, 0.5, 0.5]),
        quat=np.array([1.0, 0.0, 0.0, 0.0]),
        opacity=opacity,
        color=np.asarray(color, dtype=np.float64),
    )


class TestEvalAlpha:
    def test_at_center_sigma_zero(self):
        g = make_splat2d([3.5, 7.5], np.eye(2))
        alpha, delta, sigma = eval_alpha(g, 0, 0.7, np.array([3.5, 7.5]))
        assert sigma == 0.0
        assert_allclose(delta, [0.0, 0.0])
        assert alpha == 0.7

    def test_unit_isotropic_unit_offset(self):
        # cov2d = I, delta = (1, 0): sigma = 0.5, alpha = o * exp(-0.5).
        g = make_splat2d([0.0, 0.0], np.eye(2))
        alpha, delta, sigma = eval_alpha(g, 0, 1.0, np.array([1.0, 0.0]))
        assert_allclose(sigma, 0.5, rtol=1e-15)
        assert_allclose(alpha, np.exp(-0.5), rtol=1e-15)
        assert_allclose(delta, [1.0, 0.0])

    def test_quadratic_form_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mat = rng.normal(size=(2, 2))
            cov = mat @ mat.T + 0.3 * np.eye(2)
            mean = rng.uniform(-5.0, 5.0, size=2)
            px = mean + rng.uniform(-2.0, 2.0, size=2)
            opacity = rng.uniform(0.1, 1.0)
            g = make_splat2d(mean, cov)
            alpha, delta, sigma = eval_alpha(g, 0, opacity, px)
            d = px - mean
            want_sigma = 0.5 * float(d @ np.linalg.inv(cov) @ d)
            assert_allclose(sigma, want_sigma, rtol=1e-10)
            assert_allclose(delta, d, rtol=1e-12)
            if want_sigma > SIGMA_CUT:
                assert alpha == 0.0
            else:
                want_alpha = min(opacity * np.exp(-want_sigma), ALPHA_MAX)
                if want_alpha < ALPHA_MIN:
                    assert alpha == 0.0
                else:
                    assert_allclose(alpha, want_alpha, rtol=1e-12)

    def test_footprint_cutoff_zeroes_alpha(self):
        g = make_splat2d([0.0, 0.0], np.eye(2))
        # sigma = 0.5 * 16 = 8 > cutoff even though opacity is 1.
        alpha, _, sigma = eval_alpha(g, 0, 1.0, np.array([4.0, 0.0]))
        assert sigma > SIGMA_CUT
        assert alpha == 0.0

    def test_tiny_contribution_zeroes_alpha(self):
        g = make_splat2d([0.0, 0.0], np.eye(2))
        alpha, _, _ = eval_alpha(g, 0, 1e-5, np.array([0.0, 0.0]))
        assert alpha == 0.0

    def test_alpha_clamped_at_max(self):
        g = make_splat2d([0.0, 0.0], np.eye(2))
        alpha, _, _ = eval_alpha(g, 0, 1.0, np.array([0.0, 0.0]))
        assert alpha == ALPHA_MAX


class TestCompositePixel:
    def setup_method(self):
        self.camera = frustum_camera(1, 1, fx=8.0)
        self.px = np.array([0.5, 0.5])

    def project_one(self, gaussians, camera=None):
        projected = project_splats(Splats.of(gaussians), camera or self.camera)
        assert len(projected) == len(gaussians)
        return projected

    def test_empty_bin_is_background(self):
        bg = np.array([0.2, 0.4, 0.6])
        color, aux = composite_pixel([], stack_projected([]), Splats.of([]), self.px, bg)
        assert_allclose(color, bg)
        assert aux.final_T == 1.0
        assert aux.n_contrib == 0

    def test_single_splat_half_opacity(self):
        scene = [center_gaussian(0.5, [1.0, 0.0, 0.0])]
        projected = self.project_one(scene)
        # The projected mean lands exactly on the pixel center, so alpha
        # equals the stored opacity and the composited color is
        # 0.5 * (1, 0, 0) over black.
        assert_allclose(projected.mean2d[0], self.px, atol=1e-12)
        color, aux = composite_pixel([0], projected, Splats.of(scene), self.px,
                                     np.zeros(3))
        assert_allclose(color, [0.5, 0.0, 0.0], rtol=1e-15)
        assert_allclose(aux.final_T, 0.5, rtol=1e-15)
        assert aux.n_contrib == 1

    def test_two_splats_front_to_back(self):
        scene = [
            center_gaussian(0.5, [1.0, 0.0, 0.0], depth=3.0),
            center_gaussian(0.5, [0.0, 1.0, 0.0], depth=5.0),
        ]
        projected = self.project_one(scene)
        color, aux = composite_pixel([0, 1], projected, Splats.of(scene), self.px,
                                     np.zeros(3))
        # Front contributes 0.5, rear 0.5 * remaining T of 0.5.
        assert_allclose(color, [0.5, 0.25, 0.0], rtol=1e-15)
        assert_allclose(aux.final_T, 0.25, rtol=1e-15)
        assert aux.n_contrib == 2

    def test_background_attenuated_by_final_transmittance(self):
        scene = [center_gaussian(0.5, [1.0, 0.0, 0.0])]
        projected = self.project_one(scene)
        bg = np.array([0.0, 0.0, 0.8])
        color, aux = composite_pixel([0], projected, Splats.of(scene), self.px, bg)
        assert_allclose(color, [0.5, 0.0, 0.5 * 0.8], rtol=1e-15)

    def test_skipped_splat_not_counted(self):
        near = center_gaussian(0.5, [1.0, 0.0, 0.0], depth=3.0)
        # Same depth slab but shifted far off the pixel: sigma is past the
        # cutoff at (0.5, 0.5) yet the tile bin still lists it.
        off = Gaussian3D(
            mean=np.array([8.0, 0.0, 4.0]),
            scale=np.array([0.5, 0.5, 0.5]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            opacity=0.9,
            color=np.array([0.0, 1.0, 0.0]),
        )
        scene = [near, off]
        projected = self.project_one(scene, frustum_camera(32, 32, fx=8.0))
        px = projected.mean2d[0].copy()
        color, aux = composite_pixel([0, 1], projected, Splats.of(scene), px,
                                     np.zeros(3))
        assert_allclose(color, [0.5, 0.0, 0.0], rtol=1e-14)
        # n_contrib points one past the last splat that composited; the
        # trailing skipped splat must not extend it.
        assert aux.n_contrib == 1

    def test_early_termination_stops_before_commit(self):
        # Opacities near the clamp drive T to T_MIN quickly; the splat
        # that would cross the floor is not composited.
        scene = [center_gaussian(0.999, [1.0, 0.0, 0.0], depth=float(d))
                 for d in range(3, 9)]
        for g in scene:
            g.color = np.array([1.0, 1.0, 1.0])
        projected = self.project_one(scene)
        order = list(range(len(scene)))
        color, aux = composite_pixel(order, projected, Splats.of(scene), self.px,
                                     np.zeros(3))
        assert aux.n_contrib < len(scene)
        # Replaying the committed prefix reproduces the stored final_T.
        t = 1.0
        for k in order[: aux.n_contrib]:
            t *= 1.0 - ALPHA_MAX
        assert_allclose(aux.final_T, t, rtol=1e-12)
        assert t >= T_MIN
        assert t * (1.0 - ALPHA_MAX) < T_MIN

    def test_early_termination_flag_off_composites_all(self):
        scene = [center_gaussian(0.999, [1.0, 1.0, 1.0], depth=float(d))
                 for d in range(3, 9)]
        projected = self.project_one(scene)
        order = list(range(len(scene)))
        color_off, aux_off = composite_pixel(
            order, projected, Splats.of(scene), self.px, np.zeros(3),
            early_termination=False)
        assert aux_off.n_contrib == len(scene)
        assert aux_off.final_T < T_MIN


class TestRender:
    def test_empty_scene_is_background(self):
        camera = frustum_camera(40, 24)
        bg = np.array([0.3, 0.1, 0.7])
        res = render([], camera, bg)
        assert res.image.channels.shape == (24, 40, 3)
        assert np.all(res.image.channels == bg)
        assert np.all(res.aux.final_T == 1.0)
        assert np.all(res.aux.n_contrib == 0)

    def test_single_splat_falloff_is_monotone(self):
        camera = frustum_camera(33, 33, fx=40.0)
        scene = [Gaussian3D(
            mean=np.array([0.0, 0.0, 4.0]),
            scale=np.array([0.3, 0.3, 0.3]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            opacity=0.8,
            color=np.array([1.0, 1.0, 1.0]),
        )]
        res = render(scene, camera, np.zeros(3))
        row = res.image.channels[16, :, 0]
        peak = int(np.argmax(row))
        assert peak == 16
        # Intensity decays monotonically away from the projected center
        # until the footprint cutoff zeroes it.
        right = row[16:]
        assert np.all(np.diff(right) <= 1e-15)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(123)
        for trial in range(6):
            camera = rotated_camera(rng, 36, 28)
            scene = frustum_scene(rng, 12, camera)
            bg = rng.uniform(0.0, 1.0, size=3)
            res = render(scene, camera, bg)
            want_img, want_t = naive_render(scene, camera, bg)
            assert_allclose(res.image.channels, want_img, atol=1e-11)
            assert_allclose(res.aux.final_T, want_t, atol=1e-11)

    def test_tiled_matches_brute_force_bitwise_without_et(self):
        rng = np.random.default_rng(7)
        camera = frustum_camera(48, 48)
        scene = frustum_scene(rng, 25, camera)
        bg = np.array([0.2, 0.2, 0.2])
        a = render(scene, camera, bg, early_termination=False)
        b = render_brute_force(scene, camera, bg, early_termination=False)
        assert np.array_equal(a.image.channels, b.image.channels)
        assert np.array_equal(a.aux.final_T, b.aux.final_T)
        # n_contrib indexes into each result's own bins, which differ by
        # construction, so it is deliberately not compared.

    def test_tiled_matches_brute_force_with_et(self):
        rng = np.random.default_rng(8)
        camera = frustum_camera(48, 32)
        scene = frustum_scene(rng, 30, camera, opacity=(0.7, 0.95))
        bg = np.array([0.0, 0.5, 1.0])
        a = render(scene, camera, bg)
        b = render_brute_force(scene, camera, bg)
        assert_allclose(a.image.channels, b.image.channels, atol=1e-4)

    def test_channels_stay_in_range(self):
        rng = np.random.default_rng(31)
        for trial in range(4):
            camera = frustum_camera(32, 32)
            scene = frustum_scene(rng, 40, camera, opacity=(0.5, 0.95))
            bg = rng.uniform(0.0, 1.0, size=3)
            res = render(scene, camera, bg)
            assert np.all(res.image.channels >= 0.0)
            assert np.all(res.image.channels <= 1.0)

    def test_render_is_deterministic(self):
        rng = np.random.default_rng(55)
        camera = frustum_camera(40, 40)
        scene = frustum_scene(rng, 20, camera)
        bg = np.array([0.1, 0.2, 0.3])
        a = render(scene, camera, bg)
        b = render(scene, camera, bg)
        assert np.array_equal(a.image.channels, b.image.channels)
        assert np.array_equal(a.aux.final_T, b.aux.final_T)
        assert np.array_equal(a.aux.n_contrib, b.aux.n_contrib)

    def test_n_contrib_bounded_by_bin_length(self):
        rng = np.random.default_rng(77)
        camera = frustum_camera(48, 48)
        scene = frustum_scene(rng, 30, camera)
        res = render(scene, camera, np.zeros(3))
        for ty in range(res.grid.tiles_y):
            for tx in range(res.grid.tiles_x):
                bin_len = len(res.grid.bins[ty * res.grid.tiles_x + tx])
                y0 = ty * res.grid.tile_size
                x0 = tx * res.grid.tile_size
                block = res.aux.n_contrib[y0:y0 + res.grid.tile_size,
                                          x0:x0 + res.grid.tile_size]
                assert np.all(block <= bin_len)

    def test_transmittance_never_exceeds_one(self):
        rng = np.random.default_rng(90)
        camera = frustum_camera(32, 24)
        scene = frustum_scene(rng, 15, camera)
        res = render(scene, camera, np.zeros(3))
        assert np.all(res.aux.final_T <= 1.0)
        assert np.all(res.aux.final_T > 0.0)

    @pytest.mark.parametrize("renderer", [render, render_brute_force])
    @pytest.mark.parametrize("background, message", [
        ([0.0, 0.0, 0.0, 0.0], r"^background must have shape \(3,\), got \(4,\)$"),
        (0.5, r"^background must have shape \(3,\), got \(\)$"),
        ([np.nan, 0.0, 0.0], r"^background of shape \(3,\) must be finite$"),
    ], ids=["four_channels", "scalar", "nan"])
    def test_bad_background_rejected_by_name(self, renderer, background, message):
        camera = frustum_camera(20, 15)
        scene = [center_gaussian(0.5, [1.0, 0.0, 0.0])]
        with pytest.raises(ValueError, match=message):
            renderer(scene, camera, background)

    @pytest.mark.parametrize("renderer", [render, render_brute_force])
    @pytest.mark.parametrize("field, value, message", [
        ("width", 0, r"^camera\.width must be at least 1$"),
        ("width", -5, r"^camera\.width must be at least 1$"),
        ("fx", np.nan, r"^camera\.fx must be finite$"),
        ("cx", np.inf, r"^camera\.cx must be finite$"),
        ("far", np.nan, r"^camera\.far must exceed camera\.near$"),
        ("fx", -20.0, r"^camera\.fx must be positive$"),
    ], ids=["zero_width", "negative_width", "nan_fx", "inf_cx", "nan_far", "negative_fx"])
    def test_bad_camera_rejected_by_name(self, renderer, field, value, message):
        camera = replace(frustum_camera(20, 16), **{field: value})
        scene = [center_gaussian(0.5, [1.0, 0.0, 0.0])]
        with pytest.raises(ValueError, match=message):
            renderer(scene, camera, np.zeros(3))
