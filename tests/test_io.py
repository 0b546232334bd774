"""Scene document and image file round-trip tests."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    ImageBuffer,
    Splats,
    parse_scene,
    read_image,
    serialize_scene,
    write_image,
)

from helpers import frustum_camera, frustum_scene, rotated_camera, rows

# A field of a scene row set out of its range, and the message naming it.
OUT_OF_RANGE = [
    ("scale", [0.3, -0.2, 0.4], "scale components must be positive"),
    ("quat", [0.0, 0.0, 0.0, 0.0], "quat norm is too small"),
    ("opacity", 1.5, r"opacity must lie in \[0, 1\]"),
    ("color", [0.9, 1.5, 0.1], r"color channels must lie in \[0, 1\]"),
]


def sample_doc():
    camera = frustum_camera(8, 6, fx=10.0)
    return {
        "version": 1,
        "camera": {
            "view": [float(v) for v in camera.view.ravel()],
            "fx": 10.0, "fy": 10.0, "cx": 3.5, "cy": 2.5,
            "width": 8, "height": 6, "near": 0.1, "far": 100.0,
        },
        "background": [0.0, 0.0, 0.0],
        "gaussians": [
            {
                "mean": [0.1, -0.2, 3.0],
                "scale": [0.3, 0.2, 0.4],
                "quat": [1.0, 0.0, 0.0, 0.0],
                "opacity": 0.7,
                "color": [0.9, 0.5, 0.1],
            }
        ],
    }


class TestParseScene:
    def test_parses_valid_document(self):
        scene, camera, background = parse_scene(json.dumps(sample_doc()))
        assert len(scene) == 1
        assert camera.width == 8
        assert camera.height == 6
        assert_allclose(background, [0.0, 0.0, 0.0])
        assert_allclose(scene.means[0], [0.1, -0.2, 3.0])
        assert scene.opacities[0] == 0.7

    def test_accepts_bytes(self):
        scene, _, _ = parse_scene(json.dumps(sample_doc()).encode())
        assert len(scene) == 1

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_scene("{not json")

    def test_wrong_version_rejected(self):
        doc = sample_doc()
        doc["version"] = 2
        with pytest.raises(ValueError, match="version"):
            parse_scene(json.dumps(doc))

    def test_unknown_top_level_field_rejected(self):
        doc = sample_doc()
        doc["lights"] = []
        with pytest.raises(ValueError, match="unknown field scene.lights"):
            parse_scene(json.dumps(doc))

    def test_missing_camera_field_rejected(self):
        doc = sample_doc()
        del doc["camera"]["fx"]
        with pytest.raises(ValueError,
                           match="missing field scene.camera.fx"):
            parse_scene(json.dumps(doc))

    def test_unknown_gaussian_field_rejected(self):
        doc = sample_doc()
        doc["gaussians"][0]["radius"] = 3
        with pytest.raises(ValueError,
                           match=r"unknown field scene.gaussians\[0\]"):
            parse_scene(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", OUT_OF_RANGE,
                             ids=[case[0] for case in OUT_OF_RANGE])
    def test_error_names_offending_gaussian_and_field(self, field, value, message):
        doc = sample_doc()
        doc["gaussians"].append(dict(doc["gaussians"][0]))
        doc["gaussians"][1][field] = value
        with pytest.raises(ValueError) as err:
            parse_scene(json.dumps(doc))
        assert "scene.gaussians[1]" in str(err.value)
        assert field in str(err.value)
        with pytest.raises(ValueError, match=rf"^scene\.gaussians\[1\]\.{message}$"):
            parse_scene(json.dumps(doc))

    def test_wrong_vector_length_rejected(self):
        doc = sample_doc()
        doc["gaussians"][0]["quat"] = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError,
                           match=r"scene.gaussians\[0\].quat"):
            parse_scene(json.dumps(doc))

    def test_non_numeric_entry_rejected(self):
        doc = sample_doc()
        doc["gaussians"][0]["mean"] = [0.0, "zero", 3.0]
        with pytest.raises(ValueError):
            parse_scene(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", OUT_OF_RANGE,
                             ids=[case[0] for case in OUT_OF_RANGE])
    def test_opacity_out_of_range_rejected(self, field, value, message):
        doc = sample_doc()
        doc["gaussians"][0][field] = value
        with pytest.raises(ValueError, match=r"scene.gaussians\[0\]"):
            parse_scene(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^scene\.gaussians\[0\]\.{message}$"):
            parse_scene(json.dumps(doc))

    def test_background_out_of_range_rejected(self):
        doc = sample_doc()
        doc["background"] = [0.0, 1.2, 0.0]
        with pytest.raises(ValueError, match="background"):
            parse_scene(json.dumps(doc))

    def test_non_integer_size_rejected(self):
        doc = sample_doc()
        doc["camera"]["width"] = 8.5
        with pytest.raises(ValueError, match="scene.camera.width"):
            parse_scene(json.dumps(doc))

    def test_bad_view_matrix_rejected(self):
        doc = sample_doc()
        view = np.eye(4)
        view[0, 0] = 2.0  # scaling is not rigid
        doc["camera"]["view"] = [float(v) for v in view.ravel()]
        with pytest.raises(ValueError, match="scene.camera"):
            parse_scene(json.dumps(doc))

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["camera"].update(cx=float("nan")), "scene.camera.cx"),
        (lambda d: d["camera"].update(fx=float("nan")), "scene.camera.fx"),
        (lambda d: d["camera"]["view"].__setitem__(3, float("inf")),
         r"scene.camera.view\[3\]"),
        (lambda d: d.update(background=[0.0, float("nan"), 0.0]),
         r"scene.background\[1\]"),
        (lambda d: d["gaussians"][0].update(mean=[0.1, float("-inf"), 3.0]),
         r"scene.gaussians\[0\].mean\[1\]"),
        (lambda d: d["gaussians"][0].update(quat=[float("nan"), 0.0, 0.0, 0.0]),
         r"scene.gaussians\[0\].quat\[0\]"),
        (lambda d: d["gaussians"][0].update(opacity=float("nan")),
         r"scene.gaussians\[0\].opacity"),
        (lambda d: d["gaussians"][0].update(color=[0.9, 0.5, float("nan")]),
         r"scene.gaussians\[0\].color\[2\]"),
        (lambda d: d["camera"].update(fx=10 ** 400), "scene.camera.fx"),
        (lambda d: d["camera"]["view"].__setitem__(5, -10 ** 400),
         r"scene.camera.view\[5\]"),
    ], ids=["cx", "fx", "view", "background", "mean", "quat", "opacity", "color",
            "fx-overflow", "view-overflow"])
    def test_non_finite_number_rejected(self, edit, field):
        # json.loads reads NaN, Infinity and -Infinity as floats, and an
        # integer literal too large for a float as an int.
        doc = sample_doc()
        edit(doc)
        with pytest.raises(ValueError, match=field + " must be finite"):
            parse_scene(json.dumps(doc))


class TestSerializeScene:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(2)
        camera = rotated_camera(rng, 20, 14)
        scene = frustum_scene(rng, 7, camera)
        background = rng.uniform(0.0, 1.0, size=3)
        text = serialize_scene(scene, camera, background)
        # The same scene as a Splats serializes to the same bytes.
        assert serialize_scene(Splats.of(scene), camera, background) == text
        scene2, camera2, background2 = parse_scene(text)
        assert np.array_equal(camera.view, camera2.view)
        assert camera.fx == camera2.fx
        assert camera.near == camera2.near
        assert np.array_equal(background, background2)
        assert len(scene) == len(scene2)
        for a, b in zip(scene, rows(scene2)):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.scale, b.scale)
            assert np.array_equal(a.quat, b.quat)
            assert a.opacity == b.opacity
            assert np.array_equal(a.color, b.color)

    def test_output_is_valid_json(self):
        camera = frustum_camera(8, 8)
        text = serialize_scene([], camera, np.zeros(3))
        doc = json.loads(text)
        assert doc["version"] == 1
        assert doc["gaussians"] == []


class TestImageFiles:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 1.0, size=(9, 13, 3))
        buf = ImageBuffer(width=13, height=9, channels=values)
        path = tmp_path / "img.ppm"
        write_image(buf, str(path))
        back = read_image(str(path))
        assert back.shape == (9, 13, 3)
        # Quantization to 8 bits costs at most half a step.
        assert np.max(np.abs(back - values)) <= 0.5 / 255.0 + 1e-12

    def test_quantization_endpoints(self, tmp_path):
        values = np.zeros((1, 3, 3))
        values[0, 0] = 1.0
        values[0, 1] = 0.5
        path = tmp_path / "q.ppm"
        write_image(ImageBuffer(width=3, height=1, channels=values),
                    str(path))
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n3 1\n255\n")
        pixels = np.frombuffer(raw[len(b"P6\n3 1\n255\n"):], dtype=np.uint8)
        assert list(pixels[:3]) == [255, 255, 255]
        assert list(pixels[3:6]) == [128, 128, 128]
        assert list(pixels[6:9]) == [0, 0, 0]

    def test_out_of_range_values_clipped(self, tmp_path):
        values = np.zeros((1, 2, 3))
        values[0, 0] = 1.7
        values[0, 1] = -0.3
        path = tmp_path / "c.ppm"
        write_image(ImageBuffer(width=2, height=1, channels=values),
                    str(path))
        back = read_image(str(path))
        assert_allclose(back[0, 0], 1.0)
        assert_allclose(back[0, 1], 0.0)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "comment.ppm"
        payload = bytes([10, 20, 30])
        path.write_bytes(b"P6\n# made by hand\n1 # width\n1\n255\n" + payload)
        img = read_image(str(path))
        assert img.shape == (1, 1, 3)
        assert_allclose(img[0, 0], np.array([10, 20, 30]) / 255.0)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_image(str(path))

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad16.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValueError):
            read_image(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(ValueError):
            read_image(str(path))
