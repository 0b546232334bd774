"""The splat format is spelled once, in core.SPLAT_FIELDS, and the camera
format once, in Camera's fields: every record of a splat and the scene
file's keys follow them in order, and the scene file's text is pinned."""

import json
from dataclasses import fields

import numpy as np

from splatgrad import (Camera, Gaussian3D, ProjectedSplats, SceneGradients, Splats,
                       parse_scene, serialize_scene)
from splatgrad.core import SPLAT_FIELDS

ROW_NAMES = [name for name, _, _ in SPLAT_FIELDS]


def two_splat_scene():
    view = np.eye(4)
    view[:3, 3] = [0.25, -1.0 / 3.0, 1e-17]
    camera = Camera(view=view, fx=40.5, fy=30.0, cx=15.5, cy=7.25, width=32, height=16,
                    near=0.1, far=100.0)
    scene = Splats(means=[[0.1, -0.2, 3.0], [1.0 / 3.0, 2e-8, 5.5]],
                   scales=[[0.3, 0.25, 1e-3], [0.5, 0.5, 0.5]],
                   quats=[[1.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.5, 0.7071067811865476]],
                   opacities=[0.5, 0.9],
                   colors=[[1.0, 0.0, 0.2], [0.1, 2.0 / 3.0, 1.0]])
    return scene, camera, np.array([0.0, 0.1, 0.25])


def test_records_follow_the_table():
    # A field added to one record and not to SPLAT_FIELDS, or the other
    # way round, fails here.
    assert [f.name for f in fields(Splats)] == [attr for _, attr, _ in SPLAT_FIELDS]
    assert [f.name for f in fields(Gaussian3D)] == ROW_NAMES
    assert [f.name for f in fields(SceneGradients)] == ["d_" + n for n in ROW_NAMES] + ["d_view"]
    names = [f.name for f in fields(ProjectedSplats)]
    assert names[names.index("source_index") + 1:names.index("rot")] == ROW_NAMES


def test_scene_file_keys_follow_the_table_and_camera():
    scene, camera, background = two_splat_scene()
    doc = json.loads(serialize_scene(scene, camera, background))
    assert list(doc["camera"]) == [f.name for f in fields(Camera)]
    for row in doc["gaussians"]:
        assert list(row) == ROW_NAMES
        assert [np.shape(row[name]) for name in ROW_NAMES] == [s for _, _, s in SPLAT_FIELDS]


SCENE_TEXT = """\
{
  "version": 1,
  "camera": {
    "view": [
      1.0,
      0.0,
      0.0,
      0.25,
      0.0,
      1.0,
      0.0,
      -0.3333333333333333,
      0.0,
      0.0,
      1.0,
      1e-17,
      0.0,
      0.0,
      0.0,
      1.0
    ],
    "fx": 40.5,
    "fy": 30.0,
    "cx": 15.5,
    "cy": 7.25,
    "width": 32,
    "height": 16,
    "near": 0.1,
    "far": 100.0
  },
  "background": [
    0.0,
    0.1,
    0.25
  ],
  "gaussians": [
    {
      "mean": [
        0.1,
        -0.2,
        3.0
      ],
      "scale": [
        0.3,
        0.25,
        0.001
      ],
      "quat": [
        1.0,
        0.0,
        0.0,
        0.0
      ],
      "opacity": 0.5,
      "color": [
        1.0,
        0.0,
        0.2
      ]
    },
    {
      "mean": [
        0.3333333333333333,
        2e-08,
        5.5
      ],
      "scale": [
        0.5,
        0.5,
        0.5
      ],
      "quat": [
        0.5,
        -0.5,
        0.5,
        0.7071067811865476
      ],
      "opacity": 0.9,
      "color": [
        0.1,
        0.6666666666666666,
        1.0
      ]
    }
  ]
}"""


def test_scene_text_is_pinned():
    # Key order and float formatting, as written before the table drove
    # them; parsing the text reads the arrays back exactly.
    scene, camera, background = two_splat_scene()
    assert serialize_scene(scene, camera, background) == SCENE_TEXT
    parsed, parsed_camera, parsed_background = parse_scene(SCENE_TEXT)
    for _, attr, _ in SPLAT_FIELDS:
        assert getattr(parsed, attr).tobytes() == getattr(scene, attr).tobytes()
    for f in fields(Camera):
        assert np.array_equal(getattr(parsed_camera, f.name), getattr(camera, f.name))
    assert parsed_background.tobytes() == background.tobytes()
