"""Acceptance suite.

Seven criteria, one test each, in order, plus one companion test beside
criterion 7. Every criterion prints a single verdict line straight to
the terminal (bypassing capture) so a plain pytest run shows the
per-criterion outcome, then asserts it.

The criteria are deliberately end-to-end: they exercise the public
entry points the way a user would, at the documented tolerances, and
several re-run the same pipelines in subprocesses to pin down bitwise
determinism.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from splatgrad import (
    AUDIT_CLASSES,
    Camera,
    FitConfig,
    Gaussian3D,
    fit,
    make_audit_scene,
    render,
    render_brute_force,
    run_audit,
)
from splatgrad.core import compose_covariance_3d, quat_to_rotmat

from helpers import (PixelAux, eval_alpha, frustum_camera, frustum_scene,
                     transmittance_replay, wrap_backward)


def verdict(capsys, num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{tail}")


class TestAcceptance:
    def test_criterion_1_gradient_audit(self, capsys):
        start = time.monotonic()
        worst = 0.0
        failures = []
        for seed in range(20):
            report = run_audit(seed)
            for name in AUDIT_CLASSES:
                worst = max(worst, report.classes[name].max_rel)
                if not report.classes[name].passed:
                    failures.append((seed, name))
        elapsed = time.monotonic() - start
        ok = not failures and elapsed < 120.0
        verdict(capsys, 1, "gradient audit, 20 seeds, 6 classes", ok,
                f"worst rel {worst:.2e}, {elapsed:.1f}s")
        assert not failures, failures
        assert elapsed < 120.0

    def test_criterion_2_tiling_equivalence(self, capsys):
        worst_et = 0.0
        bitwise = True
        for seed in range(100, 110):
            rng = np.random.default_rng(seed)
            camera = frustum_camera(64, 64)
            n = int(rng.integers(20, 51))
            scene = frustum_scene(rng, n, camera)
            bg = rng.uniform(0.0, 1.0, size=3)
            a = render(scene, camera, bg)
            b = render_brute_force(scene, camera, bg)
            worst_et = max(worst_et, float(np.max(np.abs(
                a.image.channels - b.image.channels))))
            a2 = render(scene, camera, bg, early_termination=False)
            b2 = render_brute_force(scene, camera, bg,
                                    early_termination=False)
            bitwise = bitwise and np.array_equal(a2.image.channels,
                                                 b2.image.channels)
            bitwise = bitwise and np.array_equal(a2.aux.final_T,
                                                 b2.aux.final_T)
        ok = worst_et <= 1e-4 and bitwise
        verdict(capsys, 2, "tiled vs brute-force render, 10 scenes", ok,
                f"max diff {worst_et:.2e} with early stop, "
                f"bitwise without: {bitwise}")
        assert worst_et <= 1e-4
        assert bitwise

    def test_criterion_3_transmittance_replay(self, capsys):
        worst = 0.0
        pixels = 0
        for seed, size in ((0, 16), (1, 32)):
            scene, camera, target, background, mask = make_audit_scene(
                seed, size)
            res = render(scene, camera, background)
            bins = res.grid.bins
            for row in range(size):
                for col in range(size):
                    ty = row // res.grid.tile_size
                    tx = col // res.grid.tile_size
                    sbin = bins[ty * res.grid.tiles_x + tx]
                    px = np.array([col + 0.5, row + 0.5])
                    aux = PixelAux(
                        final_T=float(res.aux.final_T[row, col]),
                        n_contrib=int(res.aux.n_contrib[row, col]))
                    pairs = transmittance_replay(sbin, res.projected,
                                                 scene, px, aux)
                    t = 1.0
                    forward = {}
                    for pos, idx in enumerate(sbin):
                        if pos >= aux.n_contrib:
                            break
                        alpha, _, _ = eval_alpha(
                            res.projected, idx,
                            scene.opacities[res.projected.source_index[idx]], px)
                        if alpha == 0.0:
                            continue
                        forward[pos] = t
                        t *= 1.0 - alpha
                    assert len(pairs) == len(forward)
                    for pos, t_replay in pairs:
                        worst = max(worst, abs(t_replay - forward[pos]))
                    pixels += 1
        ok = worst <= 1e-12
        verdict(capsys, 3, "backward transmittance reconstruction", ok,
                f"max diff {worst:.2e} over {pixels} pixels")
        assert worst <= 1e-12

    def test_criterion_4_invariant_battery(self, capsys):
        start = time.monotonic()
        rng = np.random.default_rng(2024)

        # Rotation orthonormality, 1000 cases at 1e-10.
        worst_orth = 0.0
        for _ in range(1000):
            q = rng.normal(size=4)
            if np.linalg.norm(q) < 1e-3:
                q = q + np.array([1.0, 0, 0, 0])
            r = quat_to_rotmat(q)
            worst_orth = max(worst_orth,
                             float(np.max(np.abs(r.T @ r - np.eye(3)))),
                             abs(float(np.linalg.det(r)) - 1.0))

        # Covariance positive semidefiniteness, 1000 cases.
        worst_eig = 0.0
        for _ in range(1000):
            q = rng.normal(size=4)
            s = rng.uniform(0.05, 3.0, size=3)
            _, sigma = compose_covariance_3d(q, s)
            lam = float(np.min(np.linalg.eigvalsh(sigma)))
            worst_eig = min(worst_eig, lam)

        # Matrix inner-product identities, 1000 cases at 1e-9 relative.
        worst_frob = 0.0
        for _ in range(1000):
            x = rng.normal(size=(3, 3))
            y = rng.normal(size=(3, 3))
            z = rng.normal(size=(3, 3))
            pairs = [
                (np.sum(x * y), np.sum(y * x)),
                (np.sum(x * y), np.sum(x.T * y.T)),
                (np.sum(x * (y @ z)), np.sum((y.T @ x) * z)),
                (np.sum(x * (y @ z)), np.sum((x @ z.T) * y)),
            ]
            for a, b in pairs:
                scale = max(abs(a), abs(b), 1e-30)
                worst_frob = max(worst_frob, abs(a - b) / scale)

        # Transmittance monotonicity and channel range over full frames:
        # every pixel of every rendered scene is one case.
        pixel_cases = 0
        monotone = True
        in_range = True
        for seed in (61, 62):
            srng = np.random.default_rng(seed)
            camera = frustum_camera(32, 32)
            scene = frustum_scene(srng, 14, camera, opacity=(0.3, 0.95))
            bg = srng.uniform(0.0, 1.0, size=3)
            res = render(scene, camera, bg)
            in_range = in_range and bool(
                np.all((res.image.channels >= 0.0)
                       & (res.image.channels <= 1.0)))
            bins = res.grid.bins
            for row in range(32):
                for col in range(32):
                    ty = row // res.grid.tile_size
                    tx = col // res.grid.tile_size
                    sbin = bins[ty * res.grid.tiles_x + tx]
                    px = np.array([col + 0.5, row + 0.5])
                    t = 1.0
                    for idx in sbin:
                        g = scene[res.projected.source_index[idx]]
                        alpha, _, _ = eval_alpha(res.projected, idx, g.opacity, px)
                        t_next = t * (1.0 - alpha)
                        monotone = monotone and t_next <= t
                        t = t_next
                    pixel_cases += 1
        elapsed = time.monotonic() - start
        ok = (worst_orth <= 1e-10 and worst_eig >= -1e-12
              and worst_frob <= 1e-9 and monotone and in_range
              and pixel_cases >= 1000 and elapsed < 30.0)
        verdict(capsys, 4, "algebraic invariant battery", ok,
                f"orth {worst_orth:.1e}, min eig {worst_eig:.1e}, "
                f"inner-product {worst_frob:.1e}, {pixel_cases} pixel "
                f"cases, {elapsed:.1f}s")
        assert worst_orth <= 1e-10
        assert worst_eig >= -1e-12
        assert worst_frob <= 1e-9
        assert monotone
        assert in_range
        assert pixel_cases >= 1000
        assert elapsed < 30.0

    @staticmethod
    def hidden_scene():
        """Seeded 100-splat scene the fit criterion tries to match."""
        rng = np.random.default_rng(42)
        camera = Camera(view=np.eye(4), fx=64.0, fy=64.0, cx=31.5,
                        cy=31.5, width=64, height=64, near=0.1,
                        far=100.0)
        scene = []
        for _ in range(100):
            px = rng.uniform(4.0, 60.0)
            py = rng.uniform(4.0, 60.0)
            depth = rng.uniform(2.0, 6.0)
            mean = np.array([(px - camera.cx) * depth / camera.fx,
                             (py - camera.cy) * depth / camera.fy, depth])
            scale = rng.uniform(1.5, 4.0, size=3) * depth / camera.fx
            quat = rng.normal(size=4)
            scene.append(Gaussian3D(
                mean=mean, scale=scale, quat=quat,
                opacity=float(rng.uniform(0.4, 0.9)),
                color=rng.uniform(0.0, 1.0, size=3)))
        return scene, camera

    def test_criterion_5_end_to_end_fit(self, capsys):
        start = time.monotonic()
        truth, camera = self.hidden_scene()
        bg = (0.1, 0.1, 0.1)
        target = render(truth, camera, np.asarray(bg)).image.channels
        config = FitConfig(n_gaussians=100, iterations=1000,
                           background=bg, seed=0)
        _, history = fit(target, camera, config)
        history = np.asarray(history)
        reduction = 1.0 - history[-1] / history[0]
        kernel = np.ones(50) / 50.0
        smoothed = np.convolve(history, kernel, mode="valid")
        drift = float(np.max(np.diff(smoothed)))
        non_increasing = drift <= 1e-9
        elapsed = time.monotonic() - start
        ok = reduction >= 0.95 and non_increasing and elapsed < 300.0
        verdict(capsys, 5, "100-splat image fit", ok,
                f"loss {history[0]:.2f} to {history[-1]:.2f}, "
                f"{100 * reduction:.1f}% cut, smoothed drift "
                f"{drift:.1e}, {elapsed:.0f}s")
        assert reduction >= 0.95
        assert non_increasing
        assert elapsed < 300.0

    def test_criterion_6_determinism(self, capsys, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(DETERMINISM_DRIVER)
        # The script imports the one-pixel replay from tests/helpers.py.
        path = [os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
        digests = {}
        for threads in ("1", "4"):
            for rep in range(2):
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
                for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS"):
                    env[var] = threads
                out = subprocess.run(
                    [sys.executable, str(driver)], env=env,
                    capture_output=True, text=True, timeout=600)
                assert out.returncode == 0, out.stderr
                digests[(threads, rep)] = out.stdout.strip()
        unique = set(digests.values())
        ok = len(unique) == 1
        verdict(capsys, 6, "bitwise determinism across runs and threads",
                ok, f"{len(digests)} runs, {len(unique)} distinct digest(s)")
        assert ok, digests

    def test_criterion_7_fault_injection(self, capsys, monkeypatch):
        misattributed = []
        missed = []
        for name in AUDIT_CLASSES:
            def corrupt(grads, field="d_" + name):
                setattr(grads, field, -getattr(grads, field))
                return grads

            wrap_backward(monkeypatch, corrupt)
            report = run_audit(4)
            if report.classes[name].passed or report.passed:
                missed.append(name)
            for other in AUDIT_CLASSES:
                if other != name and not report.classes[other].passed:
                    misattributed.append((name, other))
        ok = not missed and not misattributed
        verdict(capsys, 7, "fault injection flags the corrupted class",
                ok, f"{len(AUDIT_CLASSES)} blocks negated")
        assert not missed, missed
        assert not misattributed, misattributed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gradient_fails_its_class(self, bad, monkeypatch):
        # Beside criterion 7: a non-finite analytic coordinate fails its
        # class, named as the worst coordinate, with non-finite max_rel and
        # max_abs, and no other class fails. No RuntimeWarning is raised.
        first = {"mean": "gaussian[0].mean[0]", "scale": "gaussian[0].scale[0]",
                 "quat": "gaussian[0].quat[0]", "opacity": "gaussian[0].opacity",
                 "color": "gaussian[0].color[0]", "view": "view[0]"}
        for name in AUDIT_CLASSES:
            def inject(grads, field="d_" + name):
                values = getattr(grads, field)
                values[(0,) * values.ndim] = bad
                return grads

            wrap_backward(monkeypatch, inject)
            report = run_audit(4)
            assert not report.passed, name
            assert not report.classes[name].passed, name
            assert report.classes[name].worst_coord == first[name]
            # The failing row's figures say so too.
            assert not np.isfinite(report.classes[name].max_rel), name
            assert not np.isfinite(report.classes[name].max_abs), name
            assert [other for other in AUDIT_CLASSES if other != name
                    and not report.classes[other].passed] == [], name


DETERMINISM_DRIVER = '''\
import hashlib
import json

import numpy as np

from splatgrad import (
    FitConfig,
    fit,
    make_audit_scene,
    render,
    render_brute_force,
    run_audit,
    serialize_scene,
)
from splatgrad.core import compose_covariance_3d, quat_to_rotmat

from helpers import PixelAux, transmittance_replay

h = hashlib.sha256()

# Audit pipeline: scene generation, forward, backward, finite differences.
report = run_audit(0)
h.update(json.dumps(report.to_dict(), sort_keys=True).encode())

# Render pipeline, tiled and brute force.
scene, camera, target, background, mask = make_audit_scene(1, 32)
res = render(scene, camera, background)
h.update(res.image.channels.tobytes())
h.update(res.aux.final_T.tobytes())
h.update(res.aux.n_contrib.tobytes())
res_b = render_brute_force(scene, camera, background,
                           early_termination=False)
h.update(res_b.image.channels.tobytes())

# Backward transmittance reconstruction at one pixel.
sbin = res.grid.bins[0]
aux = PixelAux(final_T=float(res.aux.final_T[7, 7]),
               n_contrib=int(res.aux.n_contrib[7, 7]))
pairs = transmittance_replay(sbin, res.projected, scene,
                             np.array([7.5, 7.5]), aux)
h.update(repr(pairs).encode())

# Algebra battery.
rng = np.random.default_rng(99)
mats = []
for _ in range(100):
    q = rng.normal(size=4)
    s = rng.uniform(0.1, 2.0, size=3)
    mats.append(quat_to_rotmat(q))
    mats.append(compose_covariance_3d(q, s)[1])
h.update(np.stack(mats).tobytes())

# Fit pipeline.
fitted, history = fit(target, camera,
                      FitConfig(n_gaussians=8, iterations=25, seed=3))
h.update(repr(history).encode())
h.update(serialize_scene(fitted, camera, background).encode())

print(h.hexdigest())
'''
