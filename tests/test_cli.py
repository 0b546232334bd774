"""Command-line interface tests, run in process through main()."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatgrad import (
    ImageBuffer,
    parse_scene,
    read_image,
    render,
    serialize_scene,
    write_image,
)
from splatgrad.cli import main

from helpers import frustum_camera, frustum_scene


@pytest.fixture
def scene_file(tmp_path):
    rng = np.random.default_rng(1)
    camera = frustum_camera(32, 24)
    scene = frustum_scene(rng, 6, camera)
    background = np.array([0.2, 0.1, 0.4])
    path = tmp_path / "scene.json"
    path.write_text(serialize_scene(scene, camera, background))
    return path, scene, camera, background


class TestRenderCommand:
    def test_writes_expected_image(self, tmp_path, scene_file):
        path, scene, camera, background = scene_file
        out = tmp_path / "out.ppm"
        code = main(["render", str(path), "-o", str(out)])
        assert code == 0
        res = render(scene, camera, background)
        want = tmp_path / "want.ppm"
        write_image(res.image, str(want))
        assert out.read_bytes() == want.read_bytes()

    def test_aux_writes_transmittance(self, tmp_path, scene_file):
        path, scene, camera, background = scene_file
        out = tmp_path / "out.ppm"
        aux = tmp_path / "aux.ppm"
        code = main(["render", str(path), "-o", str(out), "--aux", str(aux)])
        assert code == 0
        gray = read_image(str(aux))
        res = render(scene, camera, background)
        # Grayscale: all three channels carry the quantized final_T.
        assert np.array_equal(gray[:, :, 0], gray[:, :, 1])
        assert np.array_equal(gray[:, :, 0], gray[:, :, 2])
        assert np.max(np.abs(gray[:, :, 0] - res.aux.final_T)) <= 0.5 / 255 + 1e-12

    def test_brute_force_flag(self, tmp_path, scene_file):
        path, *_ = scene_file
        a = tmp_path / "tiled.ppm"
        b = tmp_path / "brute.ppm"
        assert main(["render", str(path), "-o", str(a)]) == 0
        assert main(["render", str(path), "-o", str(b), "--brute-force"]) == 0
        img_a = read_image(str(a))
        img_b = read_image(str(b))
        # Early termination reorders nothing here; quantized output of the
        # two pipelines can differ by at most one step.
        assert np.max(np.abs(img_a - img_b)) <= 1.5 / 255

    def test_missing_scene_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        code = main(["render", str(tmp_path / "nope.json"), "-o", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scene_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        out = tmp_path / "out.ppm"
        code = main(["render", str(bad), "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "missing field" in err

    def test_usage_error_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["render"])  # no scene, no -o
        assert exc.value.code == 2


class TestGradcheckCommand:
    def test_single_seed_passes(self, capsys):
        code = main(["gradcheck", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 7:" in out
        assert "overall: pass" in out

    def test_report_file_structure(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["gradcheck", "--seed", "3", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert set(payload.keys()) == {"3"}
        entry = payload["3"]
        assert entry["passed"] is True
        assert set(entry["classes"].keys()) == {
            "mean", "scale", "quat", "opacity", "color", "view",
        }

    def test_step_size_flag(self, capsys):
        code = main(["gradcheck", "--seed", "2", "--h", "1e-4"])
        assert code == 0

    def test_impossible_tolerance_fails_with_1(self, capsys):
        code = main(["gradcheck", "--seed", "2", "--tol-rel", "1e-16",
                     "--tol-abs", "1e-18"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestFitCommand:
    def test_fit_smoke(self, tmp_path, capsys):
        # A tiny flat target: a handful of splats and iterations are
        # enough to exercise the full loop.
        target = np.full((16, 16, 3), 0.35)
        target_path = tmp_path / "target.ppm"
        write_image(ImageBuffer(width=16, height=16, channels=target),
                    str(target_path))
        out = tmp_path / "fitted.json"
        losses = tmp_path / "loss.txt"
        code = main(["fit", str(target_path), "-n", "4", "--iters", "25",
                     "-o", str(out), "--loss-out", str(losses)])
        assert code == 0
        scene, camera, background = parse_scene(out.read_text())
        assert len(scene) == 4
        assert camera.width == 16
        values = [float(line) for line in losses.read_text().split()]
        assert len(values) == 25
        assert values[-1] < values[0]

    def test_fit_missing_target_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fitted.json"
        code = main(["fit", str(tmp_path / "missing.ppm"), "-o", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fitted_scene_renders(self, tmp_path):
        rng = np.random.default_rng(3)
        target = np.zeros((16, 16, 3))
        target[4:12, 4:12] = [0.8, 0.4, 0.1]
        target_path = tmp_path / "t.ppm"
        write_image(ImageBuffer(width=16, height=16, channels=target),
                    str(target_path))
        fitted = tmp_path / "s.json"
        assert main(["fit", str(target_path), "-n", "3", "--iters", "10",
                     "-o", str(fitted)]) == 0
        rendered = tmp_path / "r.ppm"
        assert main(["render", str(fitted), "-o", str(rendered)]) == 0
        img = read_image(str(rendered))
        assert img.shape == (16, 16, 3)

    @pytest.mark.parametrize("flag, field", [("-n", "n_gaussians"), ("--iters", "iterations")])
    def test_fit_negative_count_exits_2(self, tmp_path, capsys, flag, field):
        target_path = tmp_path / "t.ppm"
        write_image(ImageBuffer(width=8, height=8, channels=np.full((8, 8, 3), 0.5)),
                    str(target_path))
        out = tmp_path / "s.json"
        assert main(["fit", str(target_path), flag, "-3", "-o", str(out)]) == 2
        assert f"config.{field} must be at least 0" in capsys.readouterr().err
        assert not out.exists()
