"""The batched projection and projection backward against the per-splat
loops they replaced.

project_splats must cull the same splats as one project_gaussian call per
splat and agree on t_cam, mean2d, cov2d and depth to 1e-12 of each
quantity's largest entry, with equal radii. On an (N, 4, 4) view stack
it must give, row for row and bitwise, what one call per camera gives.
Every kept row carries its conic, bitwise (c, -b, a) / det of its
cov2d, and the opacity and color of its splat; the image cull is
ProjectedSplats.take of the keep_offscreen record's rows, and take leaves
a None field, as the audit's probe rows leave the backward pass's
factors, None.
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
    core,
    fit,
    gradcheck,
    proj_backward,
    projection,
    raster_forward,
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
    assert got.source_index.tolist() == want.source_index.tolist()
    assert len(got) == len(want)
    for field in ("t_cam", "mean2d", "cov2d", "depth"):
        assert_close(getattr(got, field), getattr(want, field), field)
    assert got.radius.tolist() == want.radius.tolist()
    for k in range(len(got)):
        assert got.source_index[k] == want.source_index[k]
        assert got.radius[k] == want.radius[k]


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


def projected_case(name):
    """(projected, splats): project_splats on a plain camera, on an
    (N, 4, 4) view stack of three cameras, or with keep_offscreen set.
    Each case culls splats; culled_scene's splat 3 lies left of the image."""
    rng = np.random.default_rng(29)
    cameras = [rotated_camera(rng, 24, 20) for _ in range(3)]
    scenes = [culled_scene(rng, camera) for camera in cameras]
    if name != "view_stack":
        splats = Splats.of(scenes[0])
        return projection.project_splats(splats, cameras[0],
                                         keep_offscreen=name == "keep_offscreen"), splats
    views = np.concatenate([np.repeat(camera.view[None], len(scene), axis=0)
                            for scene, camera in zip(scenes, cameras)])
    splats = Splats.of(sum(scenes, []))
    return projection.project_splats(splats, cameras[0], view=views), splats


@pytest.mark.parametrize("name", ["plain", "view_stack", "keep_offscreen"])
def test_rows_carry_conic_opacity_and_color(name):
    projected, splats = projected_case(name)
    assert len(projected) >= 5
    assert (3 in projected.source_index.tolist()) == (name == "keep_offscreen")
    cov = projected.cov2d
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    det = a * c - b * b
    want = np.stack([c / det, -b / det, a / det], axis=1)
    assert projected.conic.dtype == want.dtype and projected.conic.tobytes() == want.tobytes()
    inverse = projected.conic[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    assert float(np.max(np.abs(inverse @ cov - np.eye(2)))) < 1e-12
    src = projected.source_index
    assert projected.opacity.tobytes() == splats.opacities[src].tobytes()
    assert projected.color.tobytes() == splats.colors[src].tobytes()


def test_take_leaves_the_backward_factors_behind():
    # The audit's probe rows (gradcheck._probe_rows) drop the fields only
    # the backward pass reads; take gathers the others and leaves those None.
    projected, _ = projected_case("view_stack")
    backward = ("mean", "scale", "quat", "rot", "sigma", "jac", "t_proj")
    rows = np.array([3, 0, 3, len(projected) - 1])
    got = dataclasses.replace(projected, **dict.fromkeys(backward)).take(rows)
    for field in dataclasses.fields(got):
        value = getattr(got, field.name)
        if field.name in backward:
            assert value is None, field.name
        else:
            want = getattr(projected, field.name)[rows]
            assert value.dtype == want.dtype and value.tobytes() == want.tobytes(), field.name


def test_image_cull_is_a_take_of_the_offscreen_record():
    # project_splats culls off-image splats by taking the rows of its
    # keep_offscreen record that touch the image: every field bitwise.
    scene, camera, _ = culled_case()
    splats = Splats.of(scene)
    got = projection.project_splats(splats, camera)
    full = projection.project_splats(splats, camera, keep_offscreen=True)
    kept = np.flatnonzero(np.isin(full.source_index, got.source_index))
    assert 0 < len(got) < len(full)
    want = full.take(kept)
    for field in dataclasses.fields(got):
        value, ref = getattr(got, field.name), getattr(want, field.name)
        assert value is not None, field.name
        assert value.dtype == ref.dtype and value.shape == ref.shape, field.name
        assert value.tobytes() == ref.tobytes(), field.name


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
    with pytest.raises(ValueError, match=r"^gaussians\[2\]\.quat differs from the render's$"):
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
    # Camera.check keeps near positive, so project_splats never meets a
    # point at or behind the camera center; the op that would fail on one
    # names its row of the stack.
    camera = frustum_camera(16, 16)
    op = projection.projection_jacobian if depth < 0.0 else projection.camera_to_pixel
    t_cam = np.array([[0.0, 0.0, 3.0], [0.1, 0.0, 4.0], [0.0, 0.1, 5.0], [0.0, 0.0, depth]])
    with pytest.raises(ValueError, match=rf"^gaussians\[3\]: {message}"):
        op(t_cam, camera)
    # A failure inside project_splats names the scene's splat: splat 1 is
    # culled, so the failing splat's row differs from its index.
    scene = [g3([0.0, 0.0, 3.0]), g3([0.0, 0.0, 200.0]), g3([0.0, 0.0, 4.0]),
             g3([0.1, 0.0, 5.0], scale=1e200)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^gaussians\[3\]: 2d covariance"):
            projection.project_splats(Splats.of(scene), camera)
        with pytest.raises(ValueError, match=r"^gaussians\[0\]: 2d covariance"):
            projection.project_gaussian(scene[3], camera)


BATCHED_KERNELS = [
    core.matprod,
    core.quat_to_rotmat,
    core.compose_covariance_3d,
    core.Splats.check,
    core.Camera.check,
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
    raster_forward.assign_tiles,
    raster_forward.sort_bins,
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
    # On a stack compose_covariance_3d's sigma must be matprod's result
    # bitwise; a BLAS product rounds differently on most rows.
    rng = np.random.default_rng(8)
    quat, scale = rng.normal(size=(50, 4)), rng.uniform(0.1, 2.0, size=(50, 3))
    rot, sigma = core.compose_covariance_3d(quat, scale)
    m = rot * scale[..., None, :]
    assert np.array_equal(sigma, core.matprod(m, np.swapaxes(m, 1, 2)))


@pytest.mark.parametrize("shape_a, shape_v", [((600, 4, 4), (600, 4)), ((4, 4), (600, 4)),
                                              ((3, 3), (600, 3)), ((600, 3, 4), (600, 4))])
def test_matvec_equals_the_sum_over_its_last_axis(shape_a, shape_v):
    # A matrix-vector product is matprod with the vector as one column: it
    # adds in index order from +0.0, as np.sum over the last axis does, so
    # the two agree bitwise, signed zeros included.
    rng = np.random.default_rng(11)

    def draw(shape):
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.4] = 0.0
        return np.where(rng.random(shape) < 0.5, -x, x)

    a, v = draw(shape_a), draw(shape_v)
    got = core.matprod(a, v[..., None])[..., 0]
    assert got.tobytes() == np.sum(a * v[..., None, :], axis=-1).tobytes()
