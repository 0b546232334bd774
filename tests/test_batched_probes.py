"""Rendering with an image axis, and the audit that renders its probes
through it.

The audit stacks the scenes of several images, projects the stack with
one _project_stack call, each row through its own image's view and all
with one set of intrinsics, and bins and composites every image with
one _render_batch call. Every image must get the bytes render gives for
its scene and camera alone: image, final_T and n_contrib. The property
test draws batches that mix scene sizes, empty and all-culled scenes,
scenes within 1e-6 of the near or far plane, and views shared by several
images or of their own. render's own tests cover early termination off.
The audit tests run audit_scene on non-square scenes with an off-centre
principal point and require the batched report to pass and to equal the
report of the per-probe loop kept in helpers.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splatgrad import (
    Camera,
    Gaussian3D,
    Splats,
    audit_scene,
    render,
)
from splatgrad.core import quat_to_rotmat
from splatgrad.gradcheck import _draw_scene, _pattern_target, _pixel_safety_mask
from splatgrad.raster_forward import _footprints, _full_windows, _project_stack, _render_batch

from helpers import oracle_audit_scene, rows
from test_footprint_pairs import scenes as drawn_scenes

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def views(draw, width, height):
    """A rotated, shifted camera of the given size with its principal
    point anywhere in the middle 80% of the image."""
    q = np.array([1.0] + [0.25 * draw(unit) for _ in range(3)])
    view = np.eye(4)
    view[:3, :3] = quat_to_rotmat(q)
    view[:3, 3] = [0.2 * draw(unit) for _ in range(3)]
    focal = float(max(width, height)) * draw(st.floats(0.5, 2.0))
    return Camera(view=view, fx=focal, fy=focal, cx=width * draw(st.floats(0.1, 0.9)),
                  cy=height * draw(st.floats(0.1, 0.9)), width=width,
                  height=height, near=0.1, far=100.0)


def culled_scene(camera, n):
    """n splats, each behind the near plane or past the far plane."""
    scene = []
    for k in range(n):
        depth = 0.05 if k % 2 else 150.0
        t_cam = np.array([0.0, 0.0, depth])
        scene.append(Gaussian3D(mean=camera.rotation.T @ (t_cam - camera.translation),
                                scale=np.full(3, 0.1), quat=np.array([1.0, 0.0, 0.0, 0.0]),
                                opacity=0.8, color=np.array([0.2, 0.6, 0.9])))
    return scene


@st.composite
def clip_scenes(draw, camera):
    """1-4 splats over the image, each within 1e-6 of the near or the far
    plane, on either side of it."""
    scene = []
    for _ in range(draw(st.integers(1, 4))):
        plane = draw(st.sampled_from([camera.near, camera.far]))
        depth = plane + draw(st.floats(-1e-6, 1e-6))
        px = camera.width * draw(st.floats(0.0, 1.0))
        py = camera.height * draw(st.floats(0.0, 1.0))
        t_cam = np.array([(px - camera.cx) * depth / camera.fx,
                          (py - camera.cy) * depth / camera.fy, depth])
        scale_px = draw(st.floats(0.5, 3.0))
        scene.append(Gaussian3D(mean=camera.rotation.T @ (t_cam - camera.translation),
                                scale=np.full(3, scale_px * depth / camera.fx),
                                quat=np.array([1.0, 0.1, -0.2, 0.3]),
                                opacity=draw(st.floats(0.05, 1.0)),
                                color=np.array([0.9, 0.5, 0.1])))
    return scene


@st.composite
def batches(draw):
    side = st.integers(5, 40)
    width, height = draw(side), draw(side)
    cameras = [draw(views(width, height)) for _ in range(draw(st.integers(1, 3)))]
    # As in the audit: one set of intrinsics, a view of each camera's own.
    cameras = [replace(cameras[0], view=camera.view) for camera in cameras]
    picked, scenes = [], []
    for _ in range(draw(st.integers(1, 5))):
        # Images that pick the same view share its Camera object.
        camera = cameras[draw(st.integers(0, len(cameras) - 1))]
        kind = draw(st.sampled_from(["drawn", "empty", "culled", "clip"]))
        if kind == "drawn":
            scene = draw(drawn_scenes(camera))
        elif kind == "empty":
            scene = []
        elif kind == "clip":
            scene = draw(clip_scenes(camera))
        else:
            scene = culled_scene(camera, draw(st.integers(1, 3)))
        picked.append(camera)
        scenes.append(scene)
    background = np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)])
    return scenes, picked, background


def render_stack(scenes, cameras, background):
    """Render scenes[k] seen by cameras[k] as the audit does: one
    _project_stack call over all their rows with the intrinsics of
    cameras[0], each row through its own camera's view, and one
    _render_batch call. Returns (images (K, h, w, 3), final_T (K, h, w),
    n_contrib (K, h, w))."""
    splats = [Splats.of(scene) for scene in scenes]
    stack = Splats(*(np.concatenate([getattr(s, f) for s in splats])
                     for f in ("means", "scales", "quats", "opacities", "colors")))
    image = np.repeat(np.arange(len(scenes)), [len(s) for s in splats])
    local = np.concatenate([np.arange(len(s)) for s in splats])
    view_stack = np.stack([camera.view for camera in cameras])[image]
    projected, stack_row = _project_stack(stack, cameras[0], local, view_stack)
    k, h, w = len(scenes), cameras[0].height, cameras[0].width
    _, (color, final_t, n_contrib, _) = _render_batch(
        projected, image[stack_row], _footprints(projected), w, h, _full_windows(k, w, h),
        background)
    return (color.T.reshape(k, h, w, 3), final_t.reshape(k, h, w),
            n_contrib.reshape(k, h, w))


def assert_images_match_renders(scenes, cameras, background):
    images, final_t, n_contrib = render_stack(scenes, cameras, background)
    k, h, w = len(scenes), cameras[0].height, cameras[0].width
    assert images.shape == (k, h, w, 3)
    assert final_t.shape == n_contrib.shape == (k, h, w)
    for i, (scene, camera) in enumerate(zip(scenes, cameras)):
        ref = render(scene, camera, background)
        assert images[i].tobytes() == ref.image.channels.tobytes(), i
        assert final_t[i].tobytes() == ref.aux.final_T.tobytes(), i
        assert n_contrib[i].tobytes() == ref.aux.n_contrib.tobytes(), i


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(batches())
def test_each_image_equals_its_own_render(batch):
    assert_images_match_renders(*batch)


def test_empty_and_culled_scenes_in_one_batch():
    rng = np.random.default_rng(3)
    shared = Camera(view=np.eye(4), fx=30.0, fy=30.0, cx=11.0, cy=15.0,
                    width=37, height=23, near=0.1, far=100.0)
    view = np.eye(4)
    view[:3, :3] = quat_to_rotmat([1.0, 0.05, -0.1, 0.02])
    view[:3, 3] = [0.1, -0.05, 0.2]
    own = replace(shared, view=view)
    drawn, _ = _draw_scene(rng, 6, shared)
    scenes = [drawn, [], culled_scene(shared, 3), rows(drawn)[:2], drawn]
    cameras = [shared, shared, shared, shared, own]
    assert_images_match_renders(scenes, cameras, np.array([0.1, 0.2, 0.3]))


@pytest.mark.parametrize("field, value, message", [
    ("opacity", np.nan, r"^gaussians\[2\]\.opacity must be finite$"),
    ("scale", np.full(3, 1e200), r"^gaussians\[2\]: 2d covariance"),
])
def test_bad_probe_splat_named_by_scene_index(field, value, message):
    # The bad splat is row 2 of the third scene and row 8 of the stack,
    # so the scene-local index must be named. The third camera is the
    # shared one or one with a moved view (as a view probe has).
    rng = np.random.default_rng(0)
    camera = Camera(view=np.eye(4), fx=16.0, fy=16.0, cx=7.5, cy=7.5,
                    width=16, height=16, near=0.1, far=100.0)
    scene, background = _draw_scene(rng, 3, camera)
    bad = rows(scene)
    bad[2] = Gaussian3D(**{**vars(bad[2]), field: value})
    view = camera.view.copy()
    view[0, 3] += 1e-5
    for third in (camera, replace(camera, view=view)):
        with pytest.raises(ValueError, match=message), np.errstate(over="ignore",
                                                                   invalid="ignore"):
            render_stack([scene, scene, bad], [camera, camera, third], background)


def off_centre_audit_case(seed, width=37, height=23):
    """An audit scene drawn and masked as make_audit_scene does, on a
    non-square image whose principal point sits off the centre."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.1, 0.3)
    view = np.eye(4)
    view[:3, :3] = quat_to_rotmat(
        np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis]))
    view[:3, 3] = rng.uniform(-0.3, 0.3, size=3)
    focal = 1.5 * width
    camera = Camera(view=view, fx=focal, fy=focal,
                    cx=width * rng.uniform(0.3, 0.7), cy=height * rng.uniform(0.3, 0.7),
                    width=width, height=height, near=0.1, far=100.0)
    n = int(rng.integers(5, 11))
    for _ in range(64):
        scene, background = _draw_scene(rng, n, camera)
        mask = _pixel_safety_mask(scene, camera)
        if mask is not None and mask.mean() >= 0.5:
            return scene, camera, _pattern_target(width, height), background, mask
    raise RuntimeError(f"no branch-safe scene for seed {seed}")


@pytest.mark.parametrize("seed", range(6))
def test_off_centre_audit_passes_and_matches_per_probe_oracle(seed):
    scene, camera, target, background, mask = off_centre_audit_case(seed)
    assert camera.cx != (camera.width - 1) / 2.0
    report = audit_scene(scene, camera, target, background=background,
                         pixel_mask=mask)
    oracle = oracle_audit_scene(scene, camera, target, background=background,
                                pixel_mask=mask)
    assert report.to_dict() == oracle.to_dict()
    assert report.passed, report.to_text()
