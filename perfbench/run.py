"""splatgrad benchmark.

    python3 perfbench/run.py --workload fit-64 --seed 1 --seconds 30 --trace 0

Runs one workload (fit-64, render-256 or audit) in this single process,
with BLAS threads pinned to 1, for about --seconds of timed work, checks
every output, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. Lines before it give each
metric by name and unit, unscaled in brackets, with the sample counts and
the machine facts.

Times are scaled to a nominal machine speed measured by a reference loop
run just before and after every op (see reference.py); the unscaled
values are printed beside them and kept in the result record.

--trace 0 reports the end-to-end metrics:
  op_ms_p50, op_ms_p90   median and 90th percentile of one op (a fit
                         iteration, a rendered frame, an audited seed)
  ops_per_s              ops per second of unit wall time
  time_to_quarter_loss_s fit-64: seconds from the start of a fit until
                         its loss first reaches a quarter of its initial
                         value, median over the run's fits. The other
                         workloads have no loss; there it is the seconds
                         until one unit's output is produced.
  setup_s                imports plus the median of three set-ups (input
                         generation or parsing, and a warm-up)
  peak_rss_mb            peak resident memory of this process
fail_frac (failed ops over attempted ops) is printed with them and carried
by "attempted" and "failed"; an op fails if it raises or fails its check.

--trace 1 runs every unit twice, once with spans and once without, in
alternating order. It checks that both produce the same image, final_T
and gradient bytes, and reports per-layer self time and counts per op of
the traced half, and the tracing overhead (traced minus untraced op_ms_p50).

Everything the run writes goes under perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

IMPORT_START = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("fit-64", "render-256", "audit")
SETUP_REPEATS = 3


def _import_program():
    """Import splatgrad from this checkout's src/, never from elsewhere."""
    if not (SRC / "splatgrad" / "__init__.py").is_file():
        raise SystemExit(f"error: no splatgrad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import splatgrad

    if Path(splatgrad.__file__).resolve().parent != SRC / "splatgrad":
        raise SystemExit(f"error: splatgrad imported from {splatgrad.__file__}")


def machine_facts():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


@dataclass
class Measured:
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    mismatches: int = 0
    failed_inputs: list = field(default_factory=list)


def _safe_run(workload, item, tracer):
    from workloads import Unit

    try:
        return workload.run(item, tracer)
    except Exception as exc:  # an op that raises is a failed op
        print(f"op failed on {item!r}: {exc!r}", file=sys.stderr)
        return Unit(op_s=[], ref_s=[], ok=False, result_s=0.0, wall_s=0.0)


def measure(workload, seconds, tracer):
    """Run units until seconds have passed. With a tracer, run each unit
    untraced and traced (alternating which goes first) and compare the
    bytes both produced."""
    from spans import Capture, patched

    m = Measured()
    deadline = time.perf_counter() + seconds
    for k, item in enumerate(workload.items()):
        if time.perf_counter() >= deadline:
            break
        if tracer is None:
            m.plain.append(_safe_run(workload, item, None))
            if not m.plain[-1].ok:
                m.failed_inputs.append(item)
            continue
        digests = {}
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            capture = Capture(tracer if on else None)
            swaps = tracer.replacements() if on else []
            swaps += capture.replacements(workload.captured)
            with patched(swaps):
                unit = _safe_run(workload, item, tracer if on else None)
            digests[on] = capture.digest.digest()
            (m.traced if on else m.plain).append(unit)
        if digests[True] != digests[False]:
            m.mismatches += 1
            m.traced[-1].ok = False
        if not (m.plain[-1].ok and m.traced[-1].ok):
            m.failed_inputs.append(item)
    return m


def _ops(units, scaled):
    """Op times of the units in seconds, each scaled by the mean of the
    reference loops on either side of it when scaled is set."""
    from reference import NOMINAL_S

    if not scaled:
        return [t for u in units for t in u.op_s]
    return [t * 2.0 * NOMINAL_S / (u.ref_s[i] + u.ref_s[i + 1])
            for u in units for i, t in enumerate(u.op_s)]


def _factor(units, scaled):
    """Time-weighted scale of the units' ops, for times spanning many ops."""
    raw = sum(_ops(units, False))
    return sum(_ops(units, True)) / raw if scaled and raw > 0 else 1.0


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _failed_ops(units):
    return sum(max(1, len(u.op_s)) for u in units if not u.ok)


def timed_setup(make):
    """Build and set up the workload SETUP_REPEATS times. Returns the last
    workload and {scaled: median set-up seconds, imports included}."""
    from reference import NOMINAL_S, reference_seconds

    import_s = time.perf_counter() - IMPORT_START
    import_scale = NOMINAL_S / reference_seconds()
    runs = {True: [], False: []}
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        start = time.perf_counter()
        workload = make()
        workload.setup()
        took = time.perf_counter() - start
        runs[False].append(took)
        runs[True].append(took * 2.0 * NOMINAL_S / (before + reference_seconds()))
    return workload, {
        True: import_s * import_scale + statistics.median(runs[True]),
        False: import_s + statistics.median(runs[False]),
    }


def end_to_end(units, setup_s, scaled):
    ops = _ops(units, scaled)
    wall = sum(u.wall_s * _factor([u], scaled) for u in units)
    results = [u.result_s * _factor([u], scaled) for u in units]
    return {
        "op_ms_p50": (1e3 * _percentile(ops, 50), "ms"),
        "op_ms_p90": (1e3 * _percentile(ops, 90), "ms"),
        "ops_per_s": (len(ops) / wall if wall > 0 else 0.0, "1/s"),
        "time_to_quarter_loss_s": (
            statistics.median(results) if results else 0.0, "s"),
        "setup_s": (setup_s[scaled], "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, plain, traced, scaled):
    from spans import BOOKKEEPING, LAYERS, REFERENCE

    n = max(1, len(_ops(traced, False)))
    ms = 1e3 * _factor(traced, scaled) / n
    self_s = tracer.self_seconds()
    c = tracer.counts
    calls = tracer.calls

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {f"{layer}.self_ms": (ms * self_s[layer], "ms") for layer in LAYERS}
    metrics.update({
        "raster_forward.pixels": (c["raster_forward.pixels"] / n, "count"),
        "raster_forward.contrib_mean": (
            ratio(c["raster_forward.contrib"], c["raster_forward.pixels"]), "ratio"),
        "raster_forward.walk_frac": (
            ratio(c["raster_forward.contrib"], c["raster_forward.walkable"]), "ratio"),
        "projection.splats": (calls["projection"] / n, "count"),
        "projection.cull_frac": (
            ratio(c["projection.culled"], c["projection.splats"]), "ratio"),
        "binning.entries": (c["binning.entries"] / n, "count"),
        "binning.max_bin": (ratio(c["binning.max_bin_sum"], c["renders"]), "count"),
        "raster_backward.pairs": (c["raster_backward.pairs"] / n, "count"),
        "proj_backward.splats": (c["proj_backward.splats"] / n, "count"),
        "core.calls": (calls["core"] / n, "count"),
        "gradcheck.probe_renders": (c["gradcheck.probe_renders"] / n, "count"),
        "gradcheck.pass_frac": (
            ratio(c["gradcheck.passed"], c["gradcheck.audits"]), "ratio"),
        "cli.bytes_written": (c["cli.bytes_written"] / n, "count"),
    })
    # The self times of all layers and of the trace bookkeeping should add
    # up to the mean traced op; the overhead compares the halves' medians.
    metrics["trace.self_ms"] = (ms * self_s[BOOKKEEPING], "ms")
    metrics["trace.self_sum_ms"] = (
        ms * sum(v for k, v in self_s.items() if k != REFERENCE), "ms")
    metrics["trace.op_ms_mean"] = (1e3 * sum(_ops(traced, scaled)) / n, "ms")
    metrics["trace.overhead_ms"] = (1e3 * (
        _percentile(_ops(traced, scaled), 50) - _percentile(_ops(plain, scaled), 50)),
        "ms")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    make = {
        "fit-64": lambda: workloads.Fit64(args.seed),
        "render-256": lambda: workloads.Render256(args.seed, OUT),
        "audit": lambda: workloads.Audit(args.seed),
    }[args.workload]
    workload, setup_s = timed_setup(make)

    tracer = Tracer() if args.trace else None
    m = measure(workload, args.seconds, tracer)
    final_ok = workload.final_check() if hasattr(workload, "final_check") else True

    units = m.plain + m.traced
    attempted = max(1, len(_ops(units, False)))
    failed = _failed_ops(units)
    if tracer is None:
        metrics, raw = (end_to_end(m.plain, setup_s, s) for s in (True, False))
    else:
        metrics, raw = (per_layer(tracer, m.plain, m.traced, s) for s in (True, False))
        tracer.write(OUT / f"spans-{args.workload}.csv")
    correct = failed == 0 and m.mismatches == 0 and final_ok

    facts = machine_facts()
    samples = {"untraced_ops": len(_ops(m.plain, False)),
               "traced_ops": len(_ops(m.traced, False)), "units": len(units)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "correct": correct,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "samples": samples, "trace_mismatches": m.mismatches,
        "failed_inputs": m.failed_inputs, "final_check": final_ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "reference_ms_median": 1e3 * statistics.median(
            r for u in units for r in u.ref_s),
    }
    if args.workload == "fit-64":
        record["iterations_to_quarter"] = [u.extra.get("iterations_to_quarter")
                                           for u in units]
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed}: {samples['untraced_ops']} "
          f"untraced ops, {samples['traced_ops']} traced ops, {len(units)} units; "
          f"reference loop median {record['reference_ms_median']:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6f} {unit:<6} [{raw[name][0]:.6f}]")
    print(f"  {'fail_frac':<28} {failed / attempted:>14.6f} ratio  "
          f"({failed} of {attempted} ops)")
    if tracer is not None:
        print(f"  self times sum to {metrics['trace.self_sum_ms'][0]:.3f} ms per op, "
              f"traced op mean {metrics['trace.op_ms_mean'][0]:.3f} ms, "
              f"tracing overhead {metrics['trace.overhead_ms'][0]:.3f} ms; "
              f"traced and untraced outputs differ on {m.mismatches} units")
    if not final_ok:
        print("  final check failed: tiled and brute-force renders differ")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
