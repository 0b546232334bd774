"""The camera contract at every public entry that takes a camera.

Each entry checks the camera with Camera.check before it reads it, so a
bad field raises ValueError naming that field (camera.fx ...) instead of
a failure later on that blames the scene or the target. Width and height
must be integers: Camera rejects a size that int() would change when it
is built.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from splatgrad import (
    Camera,
    FitConfig,
    Splats,
    audit_scene,
    fit,
    init_random,
    project_splats,
    render,
    render_brute_force,
)
from splatgrad.projection import project_gaussian

from helpers import frustum_camera, frustum_scene

SIZE = 16
SCENE = frustum_scene(np.random.default_rng(0), 3, frustum_camera(SIZE, SIZE))
TARGET = np.full((SIZE, SIZE, 3), 0.5)

ENTRIES = {
    "render": lambda camera: render(SCENE, camera, np.zeros(3)),
    "render_brute_force": lambda camera: render_brute_force(SCENE, camera, np.zeros(3)),
    "project_splats": lambda camera: project_splats(Splats.of(SCENE), camera),
    "project_gaussian": lambda camera: project_gaussian(SCENE[0], camera),
    "audit_scene": lambda camera: audit_scene(SCENE, camera, TARGET),
    "fit": lambda camera: fit(TARGET, camera, FitConfig(n_gaussians=4, iterations=1)),
    "init_random": lambda camera: init_random(FitConfig(n_gaussians=4), camera, TARGET),
}
# (field, value): one bad field each. frustum_camera's near is 0.1.
BAD_FIELDS = {
    "nan_fx": ("fx", np.nan),
    "inf_cx": ("cx", np.inf),
    "negative_fx": ("fx", -20.0),
    "zero_width": ("width", 0),
    "zero_near": ("near", 0.0),
    "far_at_near": ("far", 0.1),
}


@pytest.mark.parametrize("case", list(BAD_FIELDS))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bad_camera_field_is_named(entry, case):
    field, value = BAD_FIELDS[case]
    camera = replace(frustum_camera(SIZE, SIZE), **{field: value})
    with pytest.raises(ValueError, match=rf"^camera\.{field} "):
        ENTRIES[entry](camera)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_good_camera_passes(entry):
    ENTRIES[entry](frustum_camera(SIZE, SIZE))


@pytest.mark.parametrize("field, value, shown", [
    ("width", 20.9, "20.9"),
    ("height", 16.5, "16.5"),
    ("width", np.nan, "nan"),
    ("height", np.inf, "inf"),
])
def test_non_integral_size_rejected_at_construction(field, value, shown):
    with pytest.raises(ValueError, match=rf"^camera\.{field} must be an integer, got {shown}$"):
        replace(frustum_camera(20, 16), **{field: value})


@pytest.mark.parametrize("field, value, problem", [
    ("fx", 10**400, "must be finite, got an integer too large for a float"),
    ("fx", "8", "must be a number, got '8'"),
    ("near", "0.1", "must be a number, got '0.1'"),
    ("cy", None, "must be a number, got None"),
    ("far", True, "must be a number, got True"),
    ("width", "16", "must be a number, got '16'"),
    ("height", 10**400, "must be finite, got an integer too large for a float"),
])
def test_non_number_rejected_at_construction(field, value, problem):
    with pytest.raises(ValueError, match=rf"^camera\.{field} {re.escape(problem)}$"):
        replace(frustum_camera(16, 16), **{field: value})


def test_view_shape_named_at_construction():
    with pytest.raises(ValueError, match=r"^camera\.view must have shape \(4, 4\), got \(3, 3\)$"):
        replace(frustum_camera(16, 16), view=np.eye(3))


@pytest.mark.parametrize("value", [16.0, np.int64(16), np.float64(16.0)])
def test_integral_size_becomes_int(value):
    camera = Camera(view=np.eye(4), fx=16.0, fy=16.0, cx=7.5, cy=7.5,
                    width=value, height=value, near=0.1, far=100.0)
    assert type(camera.width) is int and camera.width == 16
    assert type(camera.height) is int and camera.height == 16
