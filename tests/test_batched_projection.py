"""The batched projection and projection backward against the per-splat
loops they replaced.

project_splats must cull the same splats as one project_gaussian call per
splat and agree on t_cam, mean2d, cov2d and depth to 1e-12 of each
quantity's largest entry, with equal radii. On an (N, 4, 4) view stack
it must give, row for row and bitwise, what one call per camera gives.
scene_backward must match the
per-splat chain to 1e-12 of each gradient class's largest entry, and
culled splats must get rows that are exactly zero. Bad inputs and failed
projections raise ValueError naming the splat. The batched kernels stay
free of BLAS-backed products, which could make results depend on the
thread count.
"""

import ast
import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

import test_acceptance
from splatgrad import (
    Camera,
    FitConfig,
    Gaussian3D,
    Splats,
    binning,
    core,
    fit,
    gradcheck,
    proj_backward,
    projection,
    render,
    render_brute_force,
    scene_backward,
)

from helpers import (
    frustum_camera,
    frustum_scene,
    oracle_project_scene,
    oracle_scene_backward,
    rotated_camera,
    rows,
)

GRADIENT_CLASSES = ("d_mean", "d_scale", "d_quat", "d_opacity", "d_color", "d_view")


def criterion5_case():
    scene, camera = test_acceptance.TestAcceptance.hidden_scene()
    return scene, camera, np.array([0.1, 0.1, 0.1])


def audit_case(seed):
    size = 16 if seed % 2 == 0 else 32
    scene, camera, _, background, _ = gradcheck.make_audit_scene(seed, size)
    return scene, camera, background


def rotated_off_centre_case():
    # Non-square, not a multiple of the tile size, principal point off the
    # image center, rotated and shifted view.
    rng = np.random.default_rng(12)
    view = rotated_camera(rng, 37, 23).view
    camera = Camera(view=view, fx=30.0, fy=33.0, cx=12.25, cy=14.5,
                    width=37, height=23, near=0.1, far=100.0)
    scene = frustum_scene(rng, 40, camera, scale_px=(1.5, 4.0),
                          opacity=(0.5, 0.95))
    return scene, camera, rng.uniform(0.0, 1.0, size=3)


def g3(mean, scale=0.3, opacity=0.7, color=(0.8, 0.4, 0.2), quat=(1.0, 0.2, -0.1, 0.3)):
    return Gaussian3D(mean=np.asarray(mean, dtype=np.float64),
                      scale=np.full(3, scale), quat=np.asarray(quat),
                      opacity=opacity, color=np.asarray(color))


def culled_scene(rng, camera):
    # Splats 1 and 2 sit just inside the near plane and past the far plane,
    # splat 3 projects entirely left of the image and splat 4 projects
    # onto the image but no pixel center is inside its footprint cutoff.
    visible = frustum_scene(rng, 4, camera)
    rot, trans = camera.rotation, camera.translation

    def at(t_cam):
        return rot.T @ (np.asarray(t_cam, dtype=np.float64) - trans)

    extra = [
        g3(at([0.0, 0.0, 0.09]), scale=0.01),
        g3(at([0.0, 0.0, 100.5])),
        g3(at([-60.0, 0.0, 3.0]), scale=0.05),
        g3(at([(-1.5 - 0.5 - camera.cx) * 3.0 / camera.fx, 0.0, 3.0]), scale=0.002),
    ]
    return [visible[0]] + extra + visible[1:]


def culled_case():
    rng = np.random.default_rng(3)
    camera = rotated_camera(rng, 24, 20)
    return culled_scene(rng, camera), camera, np.array([0.3, 0.2, 0.1])


def single_case():
    # Anisotropic: an isotropic splat's quaternion gradient is zero, and
    # comparing two roundings of zero to a tolerance relative to their own
    # size tests only the noise.
    camera = frustum_camera(16, 16)
    return ([g3([0.1, -0.2, 3.0], scale=np.array([0.3, 0.2, 0.4]))], camera,
            np.array([0.2, 0.2, 0.2]))


def empty_case():
    return [], frustum_camera(16, 16), np.array([0.2, 0.2, 0.2])


CASES = {
    "criterion5": criterion5_case,
    "rotated_off_centre_37x23": rotated_off_centre_case,
    "culled": culled_case,
    "single": single_case,
    "empty": empty_case,
}
CASES.update({f"audit_seed_{s}": (lambda s=s: audit_case(s)) for s in range(20)})


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]()


def assert_close(got, want, name, rel=1e-12):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, name
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale, name


def test_projection_matches_per_splat_loop(case):
    scene, camera, _ = case
    got = projection.project_splats(Splats.of(scene), camera)
    want = oracle_project_scene(scene, camera)
    assert got.source_index.tolist() == [p.source_index for p in want]
    assert len(got) == len(want)
    for field in ("t_cam", "mean2d", "cov2d", "depth"):
        stacked = np.array([getattr(p, field) for p in want], dtype=np.float64)
        assert_close(getattr(got, field), stacked.reshape(getattr(got, field).shape),
                     field)
    assert got.radius.tolist() == [p.radius for p in want]
    for k, p in enumerate(got):
        assert p.source_index == want[k].source_index
        assert p.radius == want[k].radius


def test_view_stack_equals_one_call_per_camera():
    # Three cameras share their intrinsics and differ in view, as the
    # audit's view probes do. Each sees its own scene, which holds splats
    # culled by depth and by image, so the stacked call must cull row by
    # row through each row's own view.
    rng = np.random.default_rng(17)
    cameras = [rotated_camera(rng, 24, 20) for _ in range(3)]
    scenes = [culled_scene(rng, camera) for camera in cameras]
    views = np.concatenate([np.repeat(camera.view[None], len(scene), axis=0)
                            for scene, camera in zip(scenes, cameras)])
    got = projection.project_splats(Splats.of(sum(scenes, [])),
                                    cameras[0], view=views)
    start = 0
    for scene, camera in zip(scenes, cameras):
        want = projection.project_splats(Splats.of(scene), camera)
        assert want.source_index.tolist() == [0, 4, 5, 6, 7]
        rows = (got.source_index >= start) & (got.source_index < start + len(scene))
        for field in dataclasses.fields(want):
            value = getattr(got, field.name)[rows]
            if field.name == "source_index":
                value = value - start
            expected = getattr(want, field.name)
            assert value.dtype == expected.dtype, field.name
            assert value.shape == expected.shape, field.name
            assert value.tobytes() == expected.tobytes(), field.name
        start += len(scene)
    assert start == len(views)


def test_backward_matches_per_splat_chain(case):
    scene, camera, background = case
    res = render(scene, camera, background)
    rng = np.random.default_rng(23)
    d_image = rng.normal(size=(camera.height, camera.width, 3))
    got = scene_backward(scene, camera, res, d_image)
    want = oracle_scene_backward(scene, camera, res, d_image)
    for name in GRADIENT_CLASSES:
        assert_close(getattr(got, name), getattr(want, name), name)
    if len(res.projected):
        assert float(np.max(np.abs(got.d_mean))) > 0.0


def test_culled_case_culls_every_way():
    scene, camera, background = culled_case()
    res = render(scene, camera, background)
    projected = set(res.projected.source_index.tolist())
    # Near, far and off-image splats are culled; splat 4 survives the
    # cull but touches no pixel.
    assert projected == {0, 4, 5, 6, 7}
    assert np.all(res.projected.mean2d[res.projected.source_index == 4, 0] < 0.0)
    grads = scene_backward(scene, camera, res,
                           np.random.default_rng(1).normal(size=(20, 24, 3)))
    for i in (1, 2, 3, 4):
        for name in GRADIENT_CLASSES[:-1]:
            assert np.all(getattr(grads, name)[i] == 0.0), (i, name)
    for i in (0, 5, 6, 7):
        assert np.any(grads.d_mean[i] != 0.0), i


def test_splats_round_trip():
    scene, _, _ = rotated_off_centre_case()
    splats = Splats.of(scene)
    assert len(splats) == len(scene)
    back = rows(splats)
    for a, b in zip(scene, back):
        for field in ("mean", "scale", "quat", "color"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.opacity == b.opacity
    assert Splats.of(splats) is splats
    assert len(Splats.of([])) == 0


def test_render_of_splats_equals_render_of_list():
    scene, camera, background = rotated_off_centre_case()
    a = render(scene, camera, background)
    b = render(Splats.of(scene), camera, background)
    assert np.array_equal(a.image.channels, b.image.channels)
    assert np.array_equal(a.aux.final_T, b.aux.final_T)


@pytest.mark.parametrize(
    "index, field, value",
    [
        (2, "mean", np.array([0.0, np.nan, 3.0])),
        (1, "opacity", np.inf),
        (0, "scale", np.array([0.1, 0.0, 0.1])),
        (3, "quat", np.zeros(4)),
        (1, "color", np.array([0.2, -np.inf, 0.2])),
        (3, "scale", np.array([0.1, np.nan, 0.1])),
    ],
)
@pytest.mark.parametrize("renderer", [render, render_brute_force],
                         ids=["render", "brute_force"])
def test_render_rejects_bad_splat_by_name(index, field, value, renderer):
    camera = frustum_camera(16, 16)
    scene = [g3([0.1 * k, 0.0, 3.0 + k]) for k in range(4)]
    setattr(scene[index], field, value)
    with pytest.raises(ValueError, match=rf"^gaussians\[{index}\]\.{field} "):
        renderer(scene, camera, np.zeros(3))


def test_fit_validates_starting_scene_by_name():
    camera = frustum_camera(16, 16)
    scene = [g3([0.0, 0.0, 3.0]), g3([0.2, 0.0, 4.0], opacity=1.5)]
    with pytest.raises(ValueError, match=r"^gaussians\[1\]\.opacity "):
        fit(np.zeros((16, 16, 3)), camera, FitConfig(iterations=1), init=scene)
    scene[1].opacity = 0.5
    scene[0].color = np.array([0.5, 1.2, 0.5])
    with pytest.raises(ValueError, match=r"^gaussians\[0\]\.color "):
        fit(np.zeros((16, 16, 3)), camera, FitConfig(iterations=1), init=scene)


def test_infinite_covariance_raises_by_name():
    # A finite but enormous scale overflows the covariance. Splat 1 is
    # culled past the far plane, so the failing splat's row in the
    # projection differs from its index in the scene.
    camera = frustum_camera(16, 16)
    scene = [g3([0.0, 0.0, 3.0]), g3([0.0, 0.0, 200.0]),
             g3([0.1, 0.0, 4.0], scale=1e200)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"^gaussians\[2\]: 2d covariance"):
        render(scene, camera, np.zeros(3))


def test_backward_failure_raises_by_name():
    # The backward pass runs on the projected rows. Splat 1 is culled past
    # the far plane, so the row of splat 2, whose quaternion vanished
    # after the render, is row 1 of the stack.
    camera = frustum_camera(16, 16)
    scene = [g3([0.0, 0.0, 3.0]), g3([0.0, 0.0, 200.0]), g3([0.1, 0.0, 4.0])]
    result = render(scene, camera, np.zeros(3))
    scene[2].quat = np.zeros(4)
    with pytest.raises(ValueError, match=r"^gaussians\[2\]: quaternion norm"):
        scene_backward(scene, camera, result, np.ones((16, 16, 3)))


def test_backward_reads_the_forward_factors(monkeypatch):
    # The render's projection carries R, sigma, J and T = J R_cw, so the
    # backward pass forms none of them again and gives the same bytes.
    scene, camera, background = rotated_off_centre_case()
    res = render(scene, camera, background)
    d_image = np.random.default_rng(5).normal(size=(camera.height, camera.width, 3))
    want = scene_backward(scene, camera, res, d_image)

    def fail(*args, **kwargs):
        raise AssertionError("the backward pass formed a forward factor again")

    for module in (proj_backward, projection):
        monkeypatch.setattr(module, "compose_covariance_3d", fail)
        monkeypatch.setattr(module, "projection_jacobian", fail, raising=False)
    got = scene_backward(scene, camera, res, d_image)
    for name in GRADIENT_CLASSES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize(
    "depth, message",
    [(-0.5, "point is behind the camera"), (5e-13, "degenerate projection")],
)
def test_projection_failures_raise_by_name(depth, message):
    # With near <= 0 (an unvalidated camera) a splat can reach the
    # projection at or behind the camera center. Splat 1 is culled, so
    # the failing splat's row differs from its index in the scene.
    camera = Camera(view=np.eye(4), fx=16.0, fy=16.0, cx=7.5, cy=7.5,
                    width=16, height=16, near=-1.0, far=100.0)
    scene = [g3([0.0, 0.0, 3.0]), g3([0.0, 0.0, 200.0]), g3([0.0, 0.0, 4.0]),
             g3([0.0, 0.0, depth], scale=0.1)]
    with pytest.raises(ValueError, match=rf"^gaussians\[3\]: {message}"):
        projection.project_splats(Splats.of(scene), camera)
    with pytest.raises(ValueError):
        projection.project_gaussian(scene[3], camera, 3)


BATCHED_KERNELS = [
    core.matprod,
    core.matvec,
    core.quat_to_rotmat,
    core.Splats.check,
    projection.world_to_camera,
    projection.camera_to_pixel,
    projection.projection_jacobian,
    projection.project_covariance,
    projection.bounding_radius,
    projection.project_splats,
    proj_backward.mean2d_backward,
    proj_backward.cov2d_backward,
    proj_backward.world_backward,
    proj_backward.covariance3d_backward,
    proj_backward.scene_backward,
    binning.assign_tiles,
    binning.sort_bins,
]
BLAS_NAMES = {"matmul", "einsum", "dot", "vdot", "tensordot", "inner"}


@pytest.mark.parametrize("kernel", BATCHED_KERNELS, ids=lambda f: f.__qualname__)
def test_batched_kernels_use_no_blas_products(kernel):
    # A stacked matrix product may dispatch to a multithreaded BLAS whose
    # summation order depends on the thread count.
    tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.attr} at line {node.lineno}")
    assert not found, found


def test_stacked_covariance_uses_the_broadcast_product():
    # compose_covariance_3d keeps a BLAS product for one splat, so it is
    # not in the list above. On a stack its sigma must be matprod's
    # result bitwise; a BLAS product rounds differently on most rows.
    rng = np.random.default_rng(8)
    bundle = core.compose_covariance_3d(rng.normal(size=(50, 4)),
                                        rng.uniform(0.1, 2.0, size=(50, 3)))
    assert np.array_equal(bundle.sigma,
                          core.matprod(bundle.M, np.swapaxes(bundle.M, 1, 2)))


@pytest.mark.parametrize("shape_a, shape_v", [((600, 4, 4), (600, 4)), ((4, 4), (600, 4)),
                                              ((3, 3), (600, 3)), ((600, 3, 4), (600, 4))])
def test_matvec_equals_the_sum_over_its_last_axis(shape_a, shape_v):
    # matvec adds in index order from +0.0, as np.sum over the last axis
    # does, so the two agree bitwise, signed zeros included.
    rng = np.random.default_rng(11)

    def draw(shape):
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.4] = 0.0
        return np.where(rng.random(shape) < 0.5, -x, x)

    a, v = draw(shape_a), draw(shape_v)
    assert core.matvec(a, v).tobytes() == np.sum(a * v[..., None, :], axis=-1).tobytes()
