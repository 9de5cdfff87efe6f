"""Control-plane benchmark: one workload, one run, one result row.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mobility --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced blocks of the same loop and
reports per-layer self times per unit of work from the traced blocks,
plus the tracing overhead between the two.  Both check the program's
outputs and exit 1 if a check fails.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full row, with
host provenance, is appended to ``perfbench/out/results.jsonl`` (see
``diff.py`` to compare two such files).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, self_times

# One BLAS thread.  OpenBLAS's worker threads spin-wait after every
# call, so with the default pool a run keeps two cores busy and its
# timings follow whatever else the host schedules on the second one.
# Set before numpy is first imported (by the program, in main()).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = "perfbench/1"

#: Set-ups of an untraced run come in two batches, one before the
#: warm-up and one after the measured phase, so that they sample the
#: host's speed at both ends of the run as the other metrics sample it
#: throughout.  Each batch holds at least ``SETUP_REPS`` set-ups and
#: more until it has taken ``SETUP_MIN_S``; ``setup_s`` is the median of
#: both.  The first set-up of a process pays first-call costs and reads
#: high; one rep in sixteen or more moves the median by half a rank.
SETUP_REPS = 8
SETUP_MIN_S = 1.5
#: Units run and discarded before measuring (caches fill, lazy imports).
WARMUP_UNITS = 20
#: Units a measured phase must hold so p95 has >= 10 samples beyond it.
MIN_UNITS = 200
#: Measured units at which peak RSS is read.  The mobility leg cache
#: grows through the run, and how fast it grows early on depends on
#: where the seed starts the movers; by 500 units it has seen every
#: part of their loops, and runs on different seeds read within ~5%.
RSS_UNITS = 500
#: Hard cap on one measured phase, whatever ``--seconds`` and the unit
#: count say, so a run always ends well inside three minutes.
MAX_MEASURE_S = 120.0
#: Length of each traced / untraced block in a ``--trace 1`` run.
TRACE_BLOCK_S = 0.5
#: Mobility steps replayed traced and untraced for the digest check.
DIGEST_STEPS = 24

#: Layers timed in a traced run (span names, see workloads.trace_targets).
LAYERS = (
    "runtime.step",
    "runtime.observe",
    "runtime.dynamics",
    "channel.build",
    "channel.prefetch",
    "orchestrator.reoptimize",
    "orchestrator.admit",
    "orchestrator.solve",
    "pipeline.tick",
    "pipeline.submit",
    "broker.serve",
    "broker.stop",
    "hwmgr.push",
    "hwmgr.commit",
)
CALL_COUNTS = ("channel.build", "runtime.observe", "orchestrator.solve", "hwmgr.push")
ROOT_SPAN = "bench.loop"
#: Check failures printed in full; the rest are counted.
MAX_PRINTED_ERRORS = 20


def _import_program():
    """Import the program from this checkout's ``src`` (exit nonzero if absent)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location(
        "_bench_meta", ROOT / "benchmarks" / "_meta.py"
    )
    if spec is None or not (ROOT / "benchmarks" / "_meta.py").is_file():
        sys.exit("perfbench: benchmarks/_meta.py is missing")
    meta = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(meta)
    # bench_meta() asks git for the commit; keep git inside this checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return meta.bench_meta


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty sequence."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values):
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return sum(finite) / len(finite) if finite else float("nan")


def _ratio(num, den):
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload run: set-up, warm-up, measured phase, checks."""

    def __init__(self, workload_cls, seed: int, seconds: float):
        self.workload_cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.setup_times = []
        self.errors = []
        self.warmup_units = 0

    def setup(self, reps: int, min_s: float = 0.0):
        """Build the system ``reps`` times and for ``min_s``; keep the last."""
        workload = None
        done = 0
        begun = time.perf_counter()
        while done < reps or time.perf_counter() - begun < min_s:
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload = self.workload_cls(self.seed)
            started = time.perf_counter()
            workload.setup()
            self.setup_times.append(time.perf_counter() - started)
            done += 1
        self.workload = workload
        return workload

    def warm_up(self):
        units = 0
        while units < WARMUP_UNITS:
            units += len(self.workload.iteration())
        self.warmup_units = units

    def done(self, started, units, min_units=None):
        elapsed = time.perf_counter() - started
        return elapsed >= MAX_MEASURE_S or (
            elapsed >= self.seconds and units >= (min_units or MIN_UNITS)
        )


def measure_untraced(run: Run):
    """Units and wall seconds of the measured phase, and peak RSS.

    Peak RSS is read when the phase reaches ``RSS_UNITS`` units, a
    fixed point of the workload's progress, so that the leg and model
    caches have grown by the same work in every run however fast the
    host is.  The phase runs on until it has read it.
    """
    workload = run.workload
    units = []
    rss_mb = None
    min_units = max(MIN_UNITS, RSS_UNITS)
    started = time.perf_counter()
    while not run.done(started, len(units), min_units):
        units.extend(workload.iteration())
        if rss_mb is None and len(units) >= RSS_UNITS:
            rss_mb = _peak_rss_mb()
    units.extend(workload.drain())
    wall = time.perf_counter() - started
    return units, wall, rss_mb if rss_mb is not None else _peak_rss_mb()


@dataclass
class TracedPhase:
    """What a ``--trace 1`` measured phase collected."""

    tracer: Tracer = field(default_factory=Tracer)
    counters: dict = field(default_factory=dict)  # layer counter deltas
    wall: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    units: dict = field(default_factory=lambda: {False: 0, True: 0})
    latencies_ms: list = field(default_factory=list)  # traced units' latency
    settle_s: list = field(default_factory=list)  # per traced reoptimize
    batches: list = field(default_factory=list)  # per traced admitting tick


def measure_traced(run: Run, workloads_mod) -> TracedPhase:
    """Alternate untraced and traced blocks of the same loop."""
    workload = run.workload
    phase = TracedPhase()
    targets = workloads_mod.trace_targets(
        on_reoptimize=lambda result: phase.settle_s.append(result.settle_s),
        on_tick=lambda tick: phase.batches.append(tick.drained) if tick.drained else None,
    )
    traced = False
    started = time.perf_counter()
    while not run.done(started, phase.units[True] + phase.units[False]):
        if traced:
            for cls, method, name, hook in targets:
                phase.tracer.wrap(cls, method, name, hook)
            before = workload.counters()
        block_start = time.perf_counter()
        while time.perf_counter() - block_start < TRACE_BLOCK_S:
            if traced:
                index = phase.tracer.begin(ROOT_SPAN)
                units = workload.iteration()
                phase.tracer.end(index)
                phase.units[True] += len(units)
                phase.latencies_ms.extend(u.latency_s * 1e3 for u in units)
            else:
                phase.units[False] += len(workload.iteration())
        phase.wall[traced] += time.perf_counter() - block_start
        if traced:
            phase.tracer.uninstall()
            for key, value in workload.counters().items():
                phase.counters[key] = phase.counters.get(key, 0.0) + value - before[key]
        traced = not traced
    workload.drain()
    return phase


def layer_metrics(run: Run, phase: TracedPhase):
    """Per-layer metrics per traced unit of work."""
    workload = run.workload
    units = phase.units[True]
    per_unit = 1e3 / units if units else 0.0
    spans = phase.tracer.spans
    totals, calls = self_times(spans)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (totals.get(layer, 0.0) * per_unit, "ms")
    for layer in CALL_COUNTS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) * per_unit / 1e3, "count/unit")
    metrics["bench.unattributed_ms"] = (totals.get(ROOT_SPAN, 0.0) * per_unit, "ms")
    # Loop time per unit: the layer self times and bench.unattributed_ms
    # add up to it.  It is cost per unit, not the unit's latency, which
    # the traced p50 beside it reports.
    metrics["bench.traced_unit_ms"] = (
        sum(s.end - s.start for s in spans if s.parent < 0) * per_unit, "ms")
    metrics["bench.traced_latency_p50_ms"] = (
        percentile(phase.latencies_ms, 50) if phase.latencies_ms else 0.0, "ms")
    if any(s.parent < 0 and s.name != ROOT_SPAN for s in spans):
        run.errors.append("a layer span ran outside the measured loop")
    c = phase.counters
    metrics["channel.legs_traced"] = (c["legs_traced"] * per_unit / 1e3, "count/unit")
    metrics["channel.leg_hit_ratio"] = (
        _ratio(c["leg_hits"], c["leg_hits"] + c["legs_traced"]), "ratio")
    metrics["channel.model_hit_ratio"] = (
        _ratio(c["model_hits"], c["model_hits"] + c["model_misses"]), "ratio")
    metrics["channel.prefetch_hit_ratio"] = (
        _ratio(c["prefetch_hits"], c["prefetch_hits"] + c["prefetch_wasted"]), "ratio")
    metrics["orchestrator.evaluations"] = (c["evaluations"] * per_unit / 1e3, "count/unit")
    metrics["pipeline.coalesce_ratio"] = (
        _ratio(c["triggers"], c["reoptimizations"]), "ratio")
    metrics["pipeline.batch_size"] = (
        _mean(phase.batches) if phase.batches else 0.0, "count")
    waits = [
        h.admitted_at - h.submitted_at
        for h in getattr(workload, "handles", ())
        if h.admitted_at is not None
    ]
    metrics["pipeline.queue_wait_ms"] = (_mean(waits) * 1e3 if waits else 0.0, "ms")
    metrics["broker.rejections"] = (c["rejections"] * per_unit / 1e3, "count/unit")
    metrics["hwmgr.push_failures"] = (c["push_failures"] * per_unit / 1e3, "count/unit")
    metrics["hwmgr.settle_s"] = (sum(phase.settle_s) * per_unit / 1e3, "s")
    lags = workload.lags_s()
    metrics["bench.generator_lag_p95_ms"] = (
        percentile(lags, 95) * 1e3 if lags else 0.0, "ms")
    untraced = _ratio(phase.wall[False], phase.units[False])
    traced = _ratio(phase.wall[True], phase.units[True])
    metrics["bench.trace_overhead_frac"] = (
        traced / untraced - 1.0 if untraced else 0.0, "ratio")
    return metrics


def mobility_digest_check(run, workloads_mod):
    """Tracing must not change results: equal SNR digests for one seed."""
    digests = []
    for traced in (False, True):
        workload = workloads_mod.Mobility(run.seed)
        workload.setup()
        tracer = Tracer()
        if traced:
            for cls, method, name, hook in workloads_mod.trace_targets(None, None):
                tracer.wrap(cls, method, name, hook)
        try:
            for _ in range(DIGEST_STEPS):
                workload.iteration()
        finally:
            tracer.uninstall()
            workload.close()
        digests.append(workload.snr_digest())
    if digests[0] != digests[1]:
        run.errors.append(f"traced SNR digest {digests[1]} != untraced {digests[0]}")
    return digests[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(HERE / "out" / "results.jsonl"),
        help="JSONL file the result row is appended to",
    )
    args = parser.parse_args(argv)

    bench_meta = _import_program()
    import workloads as workloads_mod

    if args.workload not in workloads_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    run = Run(workloads_mod.WORKLOADS[args.workload], args.seed, args.seconds)
    workload = run.setup(1) if args.trace else run.setup(SETUP_REPS, SETUP_MIN_S)
    extra = {}
    try:
        run.warm_up()
        if args.trace:
            phase = measure_traced(run, workloads_mod)
            measured_units = phase.units[True] + phase.units[False]
            raw = layer_metrics(run, phase)
            extra["traced_units"] = phase.units[True]
        else:
            units, wall, rss_mb = measure_untraced(run)
            measured_units = len(units)
            latencies = [u.latency_s * 1e3 for u in units]
            raw = {
                "latency_p50_ms": (percentile(latencies, 50), "ms"),
                "latency_p95_ms": (percentile(latencies, 95), "ms"),
                "ops_per_s": (len(units) / wall, "1/s"),
                "snr_db": (_mean([u.snr_db for u in units]), "dB"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            verdicts = [u.satisfied for u in units if u.satisfied is not None]
            extra["satisfied_frac"] = (
                sum(verdicts) / len(verdicts) if verdicts else None
            )
        run.errors.extend(workload.check())
        if args.workload == "mobility":
            if args.trace:
                extra["snr_digest"] = mobility_digest_check(run, workloads_mod)
            else:
                extra["snr_digest"] = workload.snr_digest()
    finally:
        workload.close()
    if not args.trace:
        run.setup(SETUP_REPS, SETUP_MIN_S).close()
        raw = {"setup_s": (statistics.median(run.setup_times), "s"), **raw}
        extra["setup_times_s"] = run.setup_times

    failed = int(workload.failures)
    attempted = run.warmup_units + measured_units + failed
    extra["failed_frac"] = failed / attempted
    metrics = {
        name: {"value": float(value), "unit": unit} for name, (value, unit) in raw.items()
    }
    correct = not run.errors
    row = {
        "schema": SCHEMA,
        "meta": bench_meta(seed=args.seed, seconds=args.seconds, trace=args.trace),
        "workload": args.workload,
        "params": workload.params(),
        "warmup_units": run.warmup_units,
        "measured_units": measured_units,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": run.errors,
        "metrics": metrics,
        "extra": extra,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"warm-up={run.warmup_units} measured={measured_units} units")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}")
    for name in ("failed_frac", "satisfied_frac"):
        if name in extra:
            value = extra[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:32s} {shown:>14s} share")
    for error in run.errors[:MAX_PRINTED_ERRORS]:
        print(f"  CHECK FAILED: {error}")
    if len(run.errors) > MAX_PRINTED_ERRORS:
        print(f"  ... and {len(run.errors) - MAX_PRINTED_ERRORS} more check failures")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
