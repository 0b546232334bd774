"""Backward compositing tests.

The per-pixel gradients are checked three ways: hand-expanded small cases,
central differences through composite_pixel, and consistency of the
whole-image accumulator with the per-pixel op.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    ALPHA_MAX,
    Gaussian3D,
    Splats,
    accumulate_image_backward,
    project_splats,
    render,
    scene_backward,
)
from splatgrad.projection import _conic

from helpers import (
    PixelAux,
    composite_pixel,
    composite_pixel_backward,
    eval_alpha,
    frustum_camera,
    frustum_scene,
    naive_render,
    transmittance_replay,
    zero_grads2d,
)


def center_gaussian(opacity, color, depth=4.0, offset=(0.0, 0.0)):
    return Gaussian3D(
        mean=np.array([offset[0], offset[1], depth]),
        scale=np.array([0.5, 0.5, 0.5]),
        quat=np.array([1.0, 0.0, 0.0, 0.0]),
        opacity=opacity,
        color=np.asarray(color, dtype=np.float64),
    )


def project_all(scene, camera):
    projected = project_splats(Splats.of(scene), camera)
    assert len(projected) == len(scene)
    return projected


def pixel_aux_for(sorted_bin, projected, scene, px, background):
    _, aux = composite_pixel(sorted_bin, projected, Splats.of(scene), px, background)
    return aux


class TestSingleSplatHandExpansion:
    """One splat dead on the pixel center, loss = sum of channels.

    color = alpha * c + (1 - alpha) * bg with alpha = opacity, so the
    derivatives are small closed forms.
    """

    def setup_method(self):
        self.camera = frustum_camera(1, 1, fx=8.0)
        self.px = np.array([0.5, 0.5])
        self.scene = Splats.of([center_gaussian(0.5, [1.0, 0.0, 0.0])])
        self.projected = project_all(self.scene, self.camera)
        self.bg = np.zeros(3)
        self.aux = pixel_aux_for([0], self.projected, self.scene, self.px,
                                 self.bg)

    def test_color_grad_is_alpha_times_t(self):
        grads = composite_pixel_backward([0], self.projected, self.scene,
                                         self.px, self.bg, self.aux,
                                         np.ones(3))
        # The splat is first, so T = 1 and d color = alpha * T = 0.5
        # for each channel.
        assert_allclose(grads.d_color[0], [0.5, 0.5, 0.5], rtol=1e-14)

    def test_opacity_grad_matches_closed_form(self):
        grads = composite_pixel_backward([0], self.projected, self.scene,
                                         self.px, self.bg, self.aux,
                                         np.ones(3))
        # d loss / d alpha = sum_c (c - bg) = 1, and sigma = 0 makes
        # d alpha / d opacity = 1.
        assert_allclose(grads.d_opacity[0], 1.0, rtol=1e-14)

    def test_zero_offset_kills_position_grads(self):
        grads = composite_pixel_backward([0], self.projected, self.scene,
                                         self.px, self.bg, self.aux,
                                         np.ones(3))
        # d sigma / d mean2d is proportional to delta, which is zero here.
        assert_allclose(grads.d_mean2d[0], [0.0, 0.0], atol=1e-15)

    def test_background_pulls_opacity_down(self):
        bg = np.ones(3)
        aux = pixel_aux_for([0], self.projected, self.scene, self.px, bg)
        grads = composite_pixel_backward([0], self.projected, self.scene,
                                         self.px, bg, aux, np.ones(3))
        # Raising alpha now removes background: sum_c (c - bg) = 1 - 3.
        assert_allclose(grads.d_opacity[0], -2.0, rtol=1e-13)


class TestFiniteDifferences:
    """Central differences through composite_pixel on overlapping splats."""

    def setup_method(self):
        self.camera = frustum_camera(16, 16, fx=20.0)
        self.px = np.array([7.5, 7.5])
        self.bg = np.array([0.15, 0.25, 0.35])
        self.scene = [
            center_gaussian(0.6, [0.9, 0.1, 0.2], depth=3.0,
                            offset=(0.05, -0.02)),
            center_gaussian(0.4, [0.1, 0.8, 0.3], depth=4.0,
                            offset=(-0.08, 0.06)),
            center_gaussian(0.7, [0.2, 0.3, 0.9], depth=5.5,
                            offset=(0.1, 0.12)),
        ]
        self.projected = project_all(self.scene, self.camera)
        self.order = [0, 1, 2]
        self.weights = np.array([0.7, -0.4, 1.3])

    def loss(self, projected, scene):
        color, _ = composite_pixel(self.order, projected, Splats.of(scene), self.px,
                                   self.bg)
        return float(self.weights @ color)

    def grads(self):
        aux = pixel_aux_for(self.order, self.projected, self.scene, self.px,
                            self.bg)
        return composite_pixel_backward(self.order, self.projected,
                                        Splats.of(self.scene), self.px, self.bg, aux,
                                        self.weights)

    def check(self, analytic, numeric):
        scale = max(abs(analytic), abs(numeric))
        if scale > 1e-7:
            assert abs(analytic - numeric) / scale < 1e-5
        else:
            assert abs(analytic - numeric) < 1e-8

    def test_color_fd(self):
        h = 1e-6
        grads = self.grads()
        for i in range(3):
            for c in range(3):
                up = [g for g in self.scene]
                down = [g for g in self.scene]
                gu = center_gaussian(self.scene[i].opacity,
                                     self.scene[i].color.copy(),
                                     depth=float(self.scene[i].mean[2]),
                                     offset=tuple(self.scene[i].mean[:2]))
                gd = center_gaussian(self.scene[i].opacity,
                                     self.scene[i].color.copy(),
                                     depth=float(self.scene[i].mean[2]),
                                     offset=tuple(self.scene[i].mean[:2]))
                gu.color = self.scene[i].color.copy()
                gd.color = self.scene[i].color.copy()
                gu.color[c] += h
                gd.color[c] -= h
                up[i] = gu
                down[i] = gd
                num = (self.loss(self.projected, up)
                       - self.loss(self.projected, down)) / (2.0 * h)
                self.check(grads.d_color[i, c], num)

    def test_opacity_fd(self):
        h = 1e-6
        grads = self.grads()
        for i in range(3):
            up = list(self.scene)
            down = list(self.scene)
            gu = center_gaussian(self.scene[i].opacity + h,
                                 self.scene[i].color,
                                 depth=float(self.scene[i].mean[2]),
                                 offset=tuple(self.scene[i].mean[:2]))
            gd = center_gaussian(self.scene[i].opacity - h,
                                 self.scene[i].color,
                                 depth=float(self.scene[i].mean[2]),
                                 offset=tuple(self.scene[i].mean[:2]))
            up[i] = gu
            down[i] = gd
            num = (self.loss(self.projected, up)
                   - self.loss(self.projected, down)) / (2.0 * h)
            self.check(grads.d_opacity[i], num)

    def test_mean2d_fd(self):
        h = 1e-6
        grads = self.grads()
        for i in range(3):
            for axis in range(2):
                def shifted(sign):
                    proj = replace(self.projected, mean2d=self.projected.mean2d.copy())
                    proj.mean2d[i, axis] += sign * h
                    return proj

                num = (self.loss(shifted(+1.0), self.scene)
                       - self.loss(shifted(-1.0), self.scene)) / (2.0 * h)
                self.check(grads.d_mean2d[i, axis], num)

    def test_cov2d_fd(self):
        h = 1e-6
        grads = self.grads()
        pairs = [(0, 0), (0, 1), (1, 1)]
        for i in range(3):
            for (r, c) in pairs:
                def shifted(sign):
                    cov = self.projected.cov2d.copy()
                    cov[i, r, c] += sign * h
                    cov[i, c, r] = cov[i, r, c]
                    return replace(self.projected, cov2d=cov, conic=_conic(cov))

                num = (self.loss(shifted(+1.0), self.scene)
                       - self.loss(shifted(-1.0), self.scene)) / (2.0 * h)
                # The stored gradient is symmetric, and perturbing a
                # symmetric pair moves both entries at once.
                analytic = grads.d_cov2d[i, r, c]
                if r != c:
                    analytic = analytic + grads.d_cov2d[i, c, r]
                self.check(analytic, num)

    def test_cov2d_grad_is_symmetric(self):
        grads = self.grads()
        for i in range(3):
            assert_allclose(grads.d_cov2d[i], grads.d_cov2d[i].T, atol=0.0)


class TestAlphaClamp:
    def test_clamped_alpha_keeps_color_grad_only(self):
        camera = frustum_camera(1, 1, fx=8.0)
        px = np.array([0.5, 0.5])
        scene = [center_gaussian(0.9999, [0.3, 0.6, 0.9])]
        projected = project_all(scene, camera)
        bg = np.zeros(3)
        color, aux = composite_pixel([0], projected, Splats.of(scene), px, bg)
        # opacity 0.9999 at sigma 0 exceeds the alpha ceiling.
        assert_allclose(color, ALPHA_MAX * scene[0].color, rtol=1e-13)
        grads = composite_pixel_backward([0], projected, Splats.of(scene), px, bg, aux,
                                         np.ones(3))
        # The clamp is flat in opacity, mean, and covariance, but color
        # still flows through the clamped alpha.
        assert_allclose(grads.d_color[0], ALPHA_MAX * np.ones(3), rtol=1e-13)
        assert grads.d_opacity[0] == 0.0
        assert_allclose(grads.d_mean2d[0], 0.0, atol=0.0)
        assert_allclose(grads.d_cov2d[0], 0.0, atol=0.0)

    def test_clamp_matches_forward_differences(self):
        # The clamp holds on both sides of the probe, so an FD in color
        # space still matches while opacity FD reads zero.
        camera = frustum_camera(1, 1, fx=8.0)
        px = np.array([0.5, 0.5])
        bg = np.zeros(3)
        h = 1e-6

        def loss(opacity):
            scene = [center_gaussian(opacity, [0.3, 0.6, 0.9])]
            projected = project_all(scene, camera)
            color, _ = composite_pixel([0], projected, Splats.of(scene), px, bg)
            return float(np.sum(color))

        num = (loss(0.9999 + h) - loss(0.9999 - h)) / (2.0 * h)
        assert num == 0.0


class TestTransmittanceReplay:
    def test_replay_matches_independent_recurrence(self):
        rng = np.random.default_rng(3)
        camera = frustum_camera(32, 32)
        scene = frustum_scene(rng, 12, camera, opacity=(0.3, 0.9))
        bg = np.array([0.1, 0.2, 0.3])
        res = render(scene, camera, bg)
        checked = 0
        for (row, col) in [(16, 16), (8, 24), (25, 9), (5, 5)]:
            ty, tx = row // res.grid.tile_size, col // res.grid.tile_size
            sbin = res.grid.bins[ty * res.grid.tiles_x + tx]
            px = np.array([col + 0.5, row + 0.5])
            aux = PixelAux(final_T=float(res.aux.final_T[row, col]),
                           n_contrib=int(res.aux.n_contrib[row, col]))
            pairs = transmittance_replay(sbin, res.projected, Splats.of(scene), px,
                                         aux)
            # Recompute the forward transmittance independently, walking
            # front to back and recording T before each composited splat.
            t = 1.0
            forward = {}
            for pos, idx in enumerate(sbin):
                g = scene[res.projected.source_index[idx]]
                alpha, _, _ = eval_alpha(res.projected, idx, g.opacity, px)
                if alpha == 0.0:
                    continue
                if pos >= aux.n_contrib:
                    break
                forward[pos] = t
                t *= 1.0 - alpha
            assert len(pairs) == len(forward)
            for pos, t_replay in pairs:
                assert pos in forward
                assert abs(t_replay - forward[pos]) <= 1e-12
                checked += 1
        assert checked > 0

    def test_replay_back_to_front_order(self):
        camera = frustum_camera(1, 1, fx=8.0)
        px = np.array([0.5, 0.5])
        scene = [center_gaussian(0.5, [1.0, 0.0, 0.0], depth=float(d))
                 for d in (3.0, 4.0, 5.0)]
        projected = project_all(scene, camera)
        aux = pixel_aux_for([0, 1, 2], projected, scene, px, np.zeros(3))
        pairs = transmittance_replay([0, 1, 2], projected, Splats.of(scene), px,
                                     aux)
        positions = [pos for pos, _ in pairs]
        assert positions == [2, 1, 0]
        # T before the front splat is exactly 1.
        assert_allclose(dict(pairs)[0], 1.0, rtol=1e-15)


class TestAccumulateImageBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(14)
        camera = frustum_camera(32, 32)
        scene = frustum_scene(rng, 8, camera)
        res = render(scene, camera, np.zeros(3))
        grads = accumulate_image_backward(scene, res,
                                          np.zeros((32, 32, 3)))
        assert_allclose(grads.d_color, 0.0, atol=0.0)
        assert_allclose(grads.d_opacity, 0.0, atol=0.0)
        assert_allclose(grads.d_mean2d, 0.0, atol=0.0)
        assert_allclose(grads.d_cov2d, 0.0, atol=0.0)

    def test_invisible_splat_row_stays_zero(self):
        camera = frustum_camera(32, 32)
        visible = center_gaussian(0.6, [1.0, 0.0, 0.0], depth=4.0)
        behind = Gaussian3D(
            mean=np.array([0.0, 0.0, -5.0]),
            scale=np.array([0.5, 0.5, 0.5]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            opacity=0.8,
            color=np.array([0.0, 1.0, 0.0]),
        )
        scene = [visible, behind]
        res = render(scene, camera, np.zeros(3))
        grads = accumulate_image_backward(scene, res,
                                          np.ones((32, 32, 3)))
        assert np.any(grads.d_color[0] != 0.0)
        assert_allclose(grads.d_color[1], 0.0, atol=0.0)
        assert_allclose(grads.d_opacity[1], 0.0, atol=0.0)
        assert_allclose(grads.d_mean2d[1], 0.0, atol=0.0)
        assert_allclose(grads.d_cov2d[1], 0.0, atol=0.0)

    def test_matches_per_pixel_op_summed(self):
        rng = np.random.default_rng(21)
        camera = frustum_camera(24, 24)
        scene = frustum_scene(rng, 6, camera, opacity=(0.3, 0.8))
        bg = np.array([0.3, 0.1, 0.6])
        res = render(scene, camera, bg)
        d_image = rng.normal(size=(24, 24, 3))
        total = accumulate_image_backward(scene, res, d_image)

        want = zero_grads2d(len(scene))
        bins = res.grid.bins
        for row in range(24):
            for col in range(24):
                ty, tx = row // res.grid.tile_size, col // res.grid.tile_size
                sbin = bins[ty * res.grid.tiles_x + tx]
                px = np.array([col + 0.5, row + 0.5])
                aux = PixelAux(final_T=float(res.aux.final_T[row, col]),
                               n_contrib=int(res.aux.n_contrib[row, col]))
                g = composite_pixel_backward(sbin, res.projected, Splats.of(scene), px,
                                             bg, aux, d_image[row, col])
                want.d_color += g.d_color
                want.d_opacity += g.d_opacity
                want.d_mean2d += g.d_mean2d
                want.d_cov2d += g.d_cov2d
        assert_allclose(total.d_color, want.d_color, rtol=1e-10, atol=1e-12)
        assert_allclose(total.d_opacity, want.d_opacity, rtol=1e-10,
                        atol=1e-12)
        assert_allclose(total.d_mean2d, want.d_mean2d, rtol=1e-10,
                        atol=1e-12)
        assert_allclose(total.d_cov2d, want.d_cov2d, rtol=1e-10, atol=1e-12)

    def test_color_grad_against_finite_differences(self):
        rng = np.random.default_rng(33)
        camera = frustum_camera(16, 16)
        scene = frustum_scene(rng, 4, camera, opacity=(0.4, 0.8))
        bg = np.array([0.2, 0.2, 0.2])
        res = render(scene, camera, bg)
        grads = accumulate_image_backward(scene, res,
                                          np.ones((16, 16, 3)))
        h = 1e-6
        for i in range(len(scene)):
            for c in range(3):
                def loss(delta):
                    probe = [Gaussian3D(mean=g.mean, scale=g.scale,
                                        quat=g.quat, opacity=g.opacity,
                                        color=g.color.copy())
                             for g in scene]
                    probe[i].color[c] += delta
                    out = render(probe, camera, bg)
                    return float(np.sum(out.image.channels))

                num = (loss(h) - loss(-h)) / (2.0 * h)
                scale = max(abs(num), abs(grads.d_color[i, c]))
                if scale > 1e-7:
                    assert abs(num - grads.d_color[i, c]) / scale < 1e-4
                else:
                    assert abs(num - grads.d_color[i, c]) < 1e-8

    def test_shape_mismatch_rejected(self):
        camera = frustum_camera(16, 16)
        scene = [center_gaussian(0.5, [1.0, 0.0, 0.0])]
        res = render(scene, camera, np.zeros(3))
        with pytest.raises(ValueError):
            accumulate_image_backward(scene, res, np.zeros((8, 8, 3)))


def assert_all_zero(grads, shapes):
    for name, shape in shapes.items():
        value = getattr(grads, name)
        assert value.shape == shape, name
        assert not value.any(), name


class TestEmptyRender:
    """A render with no bin entries keeps one empty CommittedPairs block;
    the backward pass returns exact zeros of the scene's shapes."""

    def check(self, scene, camera):
        res = render(scene, camera, np.array([0.2, 0.4, 0.6]))
        assert len(res.projected) == 0
        assert [len(b.pix) for b in res.pairs] == [0]
        d_image = np.ones((camera.height, camera.width, 3))
        n = len(Splats.of(scene))
        assert_all_zero(accumulate_image_backward(scene, res, d_image), {
            "d_color": (n, 3), "d_opacity": (n,), "d_mean2d": (n, 2),
            "d_cov2d": (n, 2, 2)})
        assert_all_zero(scene_backward(scene, camera, res, d_image), {
            "d_mean": (n, 3), "d_scale": (n, 3), "d_quat": (n, 4),
            "d_opacity": (n,), "d_color": (n, 3), "d_view": (4, 4)})

    def test_every_splat_culled(self):
        camera = frustum_camera(16, 16, far=10.0)
        self.check([center_gaussian(0.8, [1.0, 0.0, 0.0], depth=-5.0),
                    center_gaussian(0.8, [0.0, 1.0, 0.0], depth=20.0)], camera)

    def test_empty_splats(self):
        empty = Splats(means=np.zeros((0, 3)), scales=np.zeros((0, 3)),
                       quats=np.zeros((0, 4)), opacities=np.zeros(0),
                       colors=np.zeros((0, 3)))
        self.check(empty, frustum_camera(16, 16))


class TestSceneMustMatchRender:
    """The backward pass reads every splat value from the render's
    projected rows, and the projection's factors depend on the camera, so
    a scene or camera that differs from the render's is rejected by name
    rather than silently given the render's gradients."""

    def setup_method(self):
        self.camera = frustum_camera(16, 16)
        self.scene = Splats.of([
            center_gaussian(0.8, [1.0, 0.0, 0.0]),
            center_gaussian(0.5, [0.0, 1.0, 0.0], depth=-5.0),  # culled
            center_gaussian(0.6, [0.0, 0.0, 1.0], depth=5.0, offset=(0.5, 0.0)),
        ])
        self.res = render(self.scene, self.camera, np.zeros(3))
        self.d_image = np.ones((16, 16, 3))

    def changed(self, field, row, value):
        scene = Splats(*(x.copy() for x in (self.scene.means, self.scene.scales,
                                            self.scene.quats, self.scene.opacities,
                                            self.scene.colors)))
        getattr(scene, field)[row] = value
        return scene

    @pytest.mark.parametrize("backward", ["image", "scene"])
    @pytest.mark.parametrize("field, row, value, message", [
        ("means", 2, [0.6, 0.0, 5.0], r"^gaussians\[2\]\.mean differs from the render's$"),
        ("scales", 0, [0.9, 0.9, 0.9], r"^gaussians\[0\]\.scale differs from the render's$"),
        ("quats", 2, [2.0, 0.0, 0.0, 0.0], r"^gaussians\[2\]\.quat differs from the render's$"),
        ("opacities", 0, 0.1, r"^gaussians\[0\]\.opacity differs from the render's$"),
        ("colors", 2, [0.0, 0.0, 0.9], r"^gaussians\[2\]\.color differs from the render's$"),
    ], ids=["mean", "scale", "quat", "opacity", "color"])
    def test_changed_row_rejected_by_name(self, backward, field, row, value, message):
        scene = self.changed(field, row, value)
        with pytest.raises(ValueError, match=message):
            if backward == "image":
                accumulate_image_backward(scene, self.res, self.d_image)
            else:
                scene_backward(scene, self.camera, self.res, self.d_image)

    def test_culled_row_may_differ(self):
        scene = self.changed("opacities", 1, 0.1)
        want = accumulate_image_backward(self.scene, self.res, self.d_image)
        got = accumulate_image_backward(scene, self.res, self.d_image)
        assert np.array_equal(got.d_opacity, want.d_opacity)

    def test_culled_row_geometry_may_differ(self):
        want = scene_backward(self.scene, self.camera, self.res, self.d_image)
        for field, value in (("means", [3.0, 3.0, -9.0]), ("scales", [2.0, 2.0, 2.0]),
                             ("quats", [0.0, 0.0, 0.0, 5.0])):
            got = scene_backward(self.changed(field, 1, value), self.camera, self.res,
                                 self.d_image)
            for name in ("d_mean", "d_scale", "d_quat", "d_view"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (field, name)

    def test_scene_changed_in_place_rejected(self):
        # The render keeps copies, so editing the rendered arrays is caught.
        self.scene.scales[2] *= 3.0
        with pytest.raises(ValueError,
                           match=r"^gaussians\[2\]\.scale differs from the render's$"):
            scene_backward(self.scene, self.camera, self.res, self.d_image)

    @pytest.mark.parametrize("field, value", [
        ("fx", 40.0), ("cy", 3.0), ("width", 17), ("near", 0.2),
        ("view", np.diag([1.0, 1.0, 1.0, 1.0]) + np.eye(4, k=3) * 0.1),
    ], ids=["fx", "cy", "width", "near", "view"])
    def test_changed_camera_rejected_by_name(self, field, value):
        camera = replace(self.camera, **{field: value})
        with pytest.raises(ValueError, match=rf"^camera\.{field} differs from the render's$"):
            scene_backward(self.scene, camera, self.res, self.d_image)

    def test_camera_changed_in_place_rejected(self):
        self.camera.view[0, 3] = 0.1
        with pytest.raises(ValueError, match=r"^camera\.view differs from the render's$"):
            scene_backward(self.scene, self.camera, self.res, self.d_image)

    def test_too_few_splats_rejected(self):
        scene = Splats(*(x[:2] for x in (self.scene.means, self.scene.scales,
                                         self.scene.quats, self.scene.opacities,
                                         self.scene.colors)))
        with pytest.raises(ValueError, match=r"^scene has 2 splats, but the render "
                                             r"projected gaussians\[2\]$"):
            accumulate_image_backward(scene, self.res, self.d_image)

    @pytest.mark.parametrize("backward", ["image", "scene"])
    def test_non_finite_d_image_rejected_by_name(self, backward):
        d_image = self.d_image.copy()
        d_image[3, 4, 1] = np.inf
        with pytest.raises(ValueError, match=r"^d_image of shape \(16, 16, 3\) must be finite$"):
            if backward == "image":
                accumulate_image_backward(self.scene, self.res, d_image)
            else:
                scene_backward(self.scene, self.camera, self.res, d_image)
