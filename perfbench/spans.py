"""Spans and counts recorded around the calls one splatgrad layer makes
into the next.

The benchmark swaps a wrapper into the module attribute through which a
layer reaches the next one (for example ``optimize.render`` or
``raster_forward.project_gaussian``) and restores the original afterwards.
Nothing under ``src/`` changes. Each wrapper records a span (layer, start,
end, parent) in memory. Counts are read from the returned objects after
the span has closed; the time that takes is recorded as a ``trace`` span,
so that it is not charged to any layer.
"""

import hashlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from splatgrad import (
    cli,
    gradcheck,
    optimize,
    proj_backward,
    projection,
    raster_forward,
)

BOOKKEEPING = "trace"
# The machine-speed reference loop (see reference.py); not part of any op.
REFERENCE = "reference"


@contextmanager
def patched(replacements):
    """Replace module attributes for the duration of the block.

    replacements is a list of (module, attribute, make) where make takes
    the current attribute and returns its replacement. Later entries wrap
    earlier ones; all are restored on exit, last first.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            current = getattr(module, attr)
            saved.append((module, attr, current))
            setattr(module, attr, make(current))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _render_counts(counts, args, result):
    scene = args[0]
    grid = result.grid
    lens = np.array([len(b) for b in grid.bins], dtype=np.int64)
    h, w = result.image.height, result.image.width
    ts = grid.tile_size
    tile_h = np.minimum(ts, h - ts * np.arange(grid.tiles_y))
    tile_w = np.minimum(ts, w - ts * np.arange(grid.tiles_x))
    contrib = int(result.aux.n_contrib.sum())
    counts["renders"] += 1
    counts["projection.splats"] += len(scene)
    counts["projection.culled"] += len(scene) - len(result.projected)
    counts["binning.entries"] += int(lens.sum())
    counts["binning.max_bin_sum"] += int(lens.max()) if lens.size else 0
    counts["raster_forward.pixels"] += h * w
    counts["raster_forward.contrib"] += contrib
    # Bin entries the per-pixel walk could have visited: every pixel of a
    # tile may walk that tile's whole bin.
    counts["raster_forward.walkable"] += int(np.outer(tile_h, tile_w).ravel() @ lens)


def _probe_render_counts(counts, args, result):
    counts["gradcheck.probe_renders"] += 1
    _render_counts(counts, args, result)


def _raster_backward_counts(counts, args, result):
    counts["raster_backward.pairs"] += int(args[1].aux.n_contrib.sum())


def _proj_backward_counts(counts, args, result):
    counts["proj_backward.splats"] += len(args[2].projected)


def _audit_counts(counts, args, result):
    counts["gradcheck.audits"] += 1
    counts["gradcheck.passed"] += int(result.passed)


def _write_counts(counts, args, result):
    counts["cli.bytes_written"] += os.path.getsize(args[1])


# (module, attribute, layer, count): every call from one layer into the
# next that a workload reaches, plus the benchmark's own calls into the
# top layer of each workload (optimize.fit, raster_forward.render,
# gradcheck.run_audit, cli.write_image). Helpers called once per splat
# inside a layer's own loop (projection_jacobian in proj_backward,
# eval_alpha in the audit mask) stay in that layer's self time.
BOUNDARIES = (
    (optimize, "fit", "optimize", None),
    (optimize, "render", "raster_forward", _render_counts),
    (optimize, "scene_backward", "proj_backward", _proj_backward_counts),
    (gradcheck, "run_audit", "gradcheck", _audit_counts),
    (gradcheck, "render", "raster_forward", _probe_render_counts),
    (gradcheck, "scene_backward", "proj_backward", _proj_backward_counts),
    (gradcheck, "compose_covariance_3d", "core", None),
    (raster_forward, "render", "raster_forward", _render_counts),
    (raster_forward, "project_gaussian", "projection", None),
    (raster_forward, "assign_tiles", "binning", None),
    (raster_forward, "sort_bins", "binning", None),
    (projection, "compose_covariance_3d", "core", None),
    (proj_backward, "accumulate_image_backward", "raster_backward",
     _raster_backward_counts),
    (proj_backward, "compose_covariance_3d", "core", None),
    (cli, "write_image", "cli", _write_counts),
)

LAYERS = ("optimize", "gradcheck", "cli", "raster_forward", "projection",
          "binning", "raster_backward", "proj_backward", "core")


class Tracer:
    """In-memory span log for one run. Install with patched(replacements())."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def replacements(self):
        return [(module, attr, lambda fn, layer=layer, count=count:
                 self._wrap(fn, layer, count))
                for module, attr, layer, count in BOUNDARIES]

    def _wrap(self, fn, layer, count):
        spans, stack, calls, counts = self.spans, self._stack, self.calls, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            calls[layer] += 1
            if count is not None:
                count(counts, args, result)
                spans.append((BOOKKEEPING, end, perf_counter(), parent))
            return result

        return traced

    def note(self, start, layer=BOOKKEEPING):
        """Record the benchmark's own work since start as a span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, start, perf_counter(), parent))

    def self_seconds(self):
        """Total self time per layer: each span minus its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            total[layer] += (end - start) - child[i]
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,start_s,end_s,parent\n")
            for layer, start, end, parent in self.spans:
                fh.write(f"{layer},{start!r},{end!r},{parent}\n")


def _output_arrays(result):
    if hasattr(result, "aux"):
        return (result.image.channels, result.aux.final_T, result.aux.n_contrib)
    return (result.d_mean, result.d_scale, result.d_quat, result.d_opacity,
            result.d_color, result.d_view)


class Capture:
    """Running digest of the image, final_T and gradient bytes returned by
    the wrapped calls. Its time counts as a trace span when traced."""

    def __init__(self, tracer=None):
        self.digest = hashlib.sha256()
        self.tracer = tracer

    def replacements(self, targets):
        return [(module, attr, self._wrap) for module, attr in targets]

    def _wrap(self, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            start = perf_counter()
            for arr in _output_arrays(result):
                self.digest.update(np.ascontiguousarray(arr).tobytes())
            if self.tracer is not None:
                self.tracer.note(start)
            return result

        return captured
