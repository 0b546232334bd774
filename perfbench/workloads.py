"""The benchmark's workloads: inputs made from a seed, one unit of work
at a time, and a check of every unit's output.

A unit is what a caller asks for and waits on: one fit (its ops are its
iterations), one rendered frame, or one audited seed. All three run
closed loop with one caller.
"""

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from splatgrad import cli, gradcheck, optimize, raster_forward
from splatgrad.core import Camera, Gaussian3D

from reference import reference_seconds
from spans import REFERENCE, patched


@dataclass
class Unit:
    """Timings and verdict of one unit of work.

    Op i ran between reference loops ref_s[i] and ref_s[i + 1]. result_s
    and wall_s leave out the time spent in reference loops.
    """

    op_s: list
    ref_s: list
    ok: bool
    # Seconds until the unit's stated result was reached: a fit's loss at a
    # quarter of its initial value, or a frame or an audit report produced.
    result_s: float
    wall_s: float
    extra: dict = field(default_factory=dict)


def single_op(op):
    """Run op() between two reference loops; return (Unit fields, result)."""
    ref_before = reference_seconds()
    start = perf_counter()
    result = op()
    end = perf_counter()
    return [end - start], [ref_before, reference_seconds()], end - start, result


class _Stop(Exception):
    """Raised into optimize.fit to end a fit once its goal is reached."""


class Fit64:
    """Fit 100 splats from init_random to the criterion-5 target at 64x64.

    The target is fixed (the seed-42 recipe on background 0.1); --seed
    draws the init_random seed of each fit. A fit runs until its loss first
    reaches a quarter of its initial value, plus the rest of that
    iteration, and fails if that takes more than ITER_CAP iterations.
    """

    captured = ((optimize, "render"), (optimize, "scene_backward"))
    ITER_CAP = 200
    BACKGROUND = (0.1, 0.1, 0.1)

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        self.camera, self.target = _criterion5_target(self.BACKGROUND)
        # Warm-up: one full iteration on a fixed init.
        optimize.fit(self.target, self.camera, self._config(0, iterations=1))

    def _config(self, init_seed, iterations):
        return optimize.FitConfig(n_gaussians=100, iterations=iterations,
                                  background=self.BACKGROUND, seed=init_seed)

    def items(self):
        while True:
            yield int(self.rng.integers(0, 2**31))

    def run(self, init_seed, tracer=None):
        target = self.target
        marks = []
        refs = []
        losses = []
        reached = []
        inner = optimize.render

        def reference():
            before = perf_counter()
            refs.append(reference_seconds())
            marks.append((before, perf_counter()))
            if tracer is not None:
                tracer.note(before, REFERENCE)

        # Each call from optimize into render starts an iteration; a
        # reference loop runs there, outside the iteration's time. The loss
        # is recomputed here to see when the goal is reached.
        def clocked(scene, camera, background, **kwargs):
            reference()
            if reached:
                raise _Stop
            result = inner(scene, camera, background, **kwargs)
            start = perf_counter()
            resid = result.image.channels - target
            losses.append(float(np.sum(resid * resid)))
            if not reached and losses[-1] <= 0.25 * losses[0]:
                reached.append((perf_counter(), len(marks)))
            if tracer is not None:
                tracer.note(start)
            return result

        ok = True
        with patched([(optimize, "render", lambda fn: clocked)]):
            start = perf_counter()
            try:
                optimize.fit(target, self.camera,
                             self._config(init_seed, self.ITER_CAP))
                reference()
            except _Stop:
                pass
            except FloatingPointError:
                ok = False
            end = perf_counter()
        ok = ok and bool(reached) and all(math.isfinite(v) for v in losses)

        def net(until, n_marks):
            return until - start - sum(b - a for a, b in marks[:n_marks])

        return Unit(op_s=[marks[k + 1][0] - marks[k][1]
                          for k in range(len(marks) - 1)],
                    ref_s=refs, ok=ok,
                    result_s=net(*reached[0]) if reached else net(end, len(marks)),
                    wall_s=net(end, len(marks)),
                    extra={"iterations_to_quarter": len(losses)})


def _criterion5_target(background):
    """The 100-splat, seed-42 scene rendered at 64x64: the fit target of
    acceptance criterion 5, rebuilt here rather than imported from tests."""
    rng = np.random.default_rng(42)
    camera = Camera(view=np.eye(4), fx=64.0, fy=64.0, cx=31.5, cy=31.5,
                    width=64, height=64, near=0.1, far=100.0)
    scene = []
    for _ in range(100):
        px = rng.uniform(4.0, 60.0)
        py = rng.uniform(4.0, 60.0)
        depth = rng.uniform(2.0, 6.0)
        mean = np.array([(px - camera.cx) * depth / camera.fx,
                         (py - camera.cy) * depth / camera.fy, depth])
        scene.append(Gaussian3D(
            mean=mean, scale=rng.uniform(1.5, 4.0, size=3) * depth / camera.fx,
            quat=rng.normal(size=4), opacity=float(rng.uniform(0.4, 0.9)),
            color=rng.uniform(0.0, 1.0, size=3)))
    target = raster_forward.render(scene, camera, np.asarray(background))
    return camera, target.image.channels


class Render256:
    """Render 1000 splats at 256x256 from a seeded ring of views.

    The scene is generated from --seed, serialized, and parsed back with
    cli.parse_scene; each op renders one view and writes it as a PPM.
    """

    captured = ((raster_forward, "render"),)
    SIZE = 256
    N_SPLATS = 1000
    N_VIEWS = 12
    CHECK_SIZE = 48

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.path = str(out_dir / "render-256.ppm")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        scene, background = _box_scene(rng, self.N_SPLATS)
        views = _ring_views(rng, self.N_VIEWS)
        doc = cli.serialize_scene(scene, self._camera(views[0], self.SIZE),
                                  background)
        self.scene, first, self.background = cli.parse_scene(doc)
        self.cameras = [first] + [self._camera(v, self.SIZE) for v in views[1:]]
        self._frame(0)

    @staticmethod
    def _camera(view, size):
        focal = float(size)
        return Camera(view=view, fx=focal, fy=focal, cx=(size - 1) / 2.0,
                      cy=(size - 1) / 2.0, width=size, height=size,
                      near=0.1, far=100.0)

    def items(self):
        k = 0
        while True:
            yield k % self.N_VIEWS
            k += 1

    def _frame(self, view):
        result = raster_forward.render(self.scene, self.cameras[view],
                                       self.background)
        cli.write_image(result.image, self.path)
        return result

    def run(self, view, tracer=None):
        op_s, ref_s, wall_s, result = single_op(lambda: self._frame(view))
        img = result.image.channels
        ok = bool(np.all(np.isfinite(img)) and img.min() >= 0.0
                  and img.max() <= 1.0)
        return Unit(op_s=op_s, ref_s=ref_s, ok=ok, result_s=wall_s, wall_s=wall_s)

    def final_check(self):
        """Tiled render equals render_brute_force bitwise on a small view,
        with early termination off."""
        camera = self._camera(self.cameras[0].view, self.CHECK_SIZE)
        tiled = raster_forward.render(self.scene, camera, self.background,
                                      early_termination=False)
        brute = raster_forward.render_brute_force(
            self.scene, camera, self.background, early_termination=False)
        return (tiled.image.channels.tobytes() == brute.image.channels.tobytes()
                and tiled.aux.final_T.tobytes() == brute.aux.final_T.tobytes())


def _box_scene(rng, n):
    scene = [
        Gaussian3D(mean=rng.uniform(-2.0, 2.0, size=3),
                   scale=rng.uniform(0.01, 0.045, size=3),
                   quat=rng.normal(size=4),
                   opacity=float(rng.uniform(0.3, 0.9)),
                   color=rng.uniform(0.0, 1.0, size=3))
        for _ in range(n)
    ]
    return scene, rng.uniform(0.0, 0.3, size=3)


def _ring_views(rng, n):
    """Rigid world-to-camera matrices on a jittered ring around the origin,
    each looking at the origin."""
    views = []
    for k in range(n):
        angle = 2.0 * np.pi * (k + rng.uniform(-0.3, 0.3)) / n
        eye = np.array([4.5 * np.sin(angle), rng.uniform(-1.0, 1.0),
                        -4.5 * np.cos(angle)])
        forward = -eye / np.sqrt(eye @ eye)
        down = np.array([0.0, 1.0, 0.0]) - forward[1] * forward
        down /= np.sqrt(down @ down)
        right = np.cross(down, forward)
        view = np.eye(4)
        view[:3, :3] = np.stack([right, down, forward])
        view[:3, 3] = -view[:3, :3] @ eye
        views.append(view)
    return views


class Audit:
    """Audit the seeds `splatgrad gradcheck` audits by default (0-19: even
    seeds at 16 px, odd at 32 px, 5-10 splats each), in passes, each pass
    in a fresh order drawn from --seed.

    Every run audits the same suite, so its median does not depend on
    which seeds a short run happens to draw.
    """

    captured = ((gradcheck, "render"), (gradcheck, "scene_backward"))
    SUITE = 20

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        # Warm-up on a seed outside the suite.
        gradcheck.run_audit(self.SUITE)

    def items(self):
        while True:
            yield from (int(s) for s in self.rng.permutation(self.SUITE))

    def run(self, seed, tracer=None):
        op_s, ref_s, wall_s, report = single_op(lambda: gradcheck.run_audit(seed))
        return Unit(op_s=op_s, ref_s=ref_s, ok=bool(report.passed),
                    result_s=wall_s, wall_s=wall_s)
