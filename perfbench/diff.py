"""Compare two result sets of the benchmark, workload by metric.

Usage::

    python3 perfbench/diff.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds rows appended by ``run.py`` (several seeds per
workload).  For every workload and end-to-end metric the script prints
both medians and quartiles and a verdict against the metric's bound and
direction from ``BENCHMARK.json``:

* ``REGRESSION`` — the new median is worse than the base median by more
  than the bound, and either both sides' run-to-run spread (quartile
  distance over the median) is within the bound or every new run reads
  worse than every base run;
* ``unresolved`` — otherwise, when the spread of either side exceeds
  the bound and not every new run reads better than every base run;
* ``better`` — otherwise, when the new median is better by more than
  the bound or every new run reads better than every base run;
* ``ok`` — otherwise.

Per-layer metrics of traced rows are listed with their medians only;
they carry no bound.  The exit status is 1 when any row regressed or
the new set has failed or incorrect runs the base set does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    """``{(workload, trace): [row, ...]}`` from one JSONL result file."""
    groups = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            key = (row["workload"], int(row["meta"]["trace"]))
            groups.setdefault(key, []).append(row)
    return groups


def summary(values):
    """(median, first quartile, third quartile) as ``statistics`` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better):
    """One row's verdict; ``base``/``new`` are per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    noisy = max(spread(base), spread(new)) > bound
    if worse > bound and (all_worse or not noisy):
        return "REGRESSION", worse
    if noisy and not all_better:
        return "unresolved", worse
    return ("better" if worse < -bound or all_better else "ok"), worse


def values_of(rows, metric):
    return [r["metrics"][metric]["value"] for r in rows if metric in r["metrics"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parents[1] / "BENCHMARK.json"),
    )
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    base, new = load(args.base), load(args.new)
    status = 0
    header = f"{'workload':15s} {'metric':34s} {'base median [q1, q3]':>30s} " \
             f"{'new median [q1, q3]':>30s} {'worse':>8s}  verdict"
    print(header)
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        b_rows = base.get((workload, 0), [])
        n_rows = new.get((workload, 0), [])
        for side, rows in (("base", b_rows), ("new", n_rows)):
            bad = sum(1 for r in rows if not r["correct"] or r["failed"])
            if bad:
                print(f"{workload:15s} {side} set has {bad} failed or incorrect runs")
        if sum(1 for r in n_rows if not r["correct"] or r["failed"]) > sum(
            1 for r in b_rows if not r["correct"] or r["failed"]
        ):
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals, n_vals = values_of(b_rows, name), values_of(n_rows, name)
            if not b_vals or not n_vals:
                continue
            result, worse = verdict(b_vals, n_vals, metric["bound"], metric["better"])
            if result == "REGRESSION":
                status = 1
            bm, bq1, bq3 = summary(b_vals)
            nm, nq1, nq3 = summary(n_vals)
            print(f"{workload:15s} {name:34s} "
                  f"{f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}]':>30s} "
                  f"{f'{nm:.4g} [{nq1:.4g}, {nq3:.4g}]':>30s} "
                  f"{worse:+8.1%}  {result} (bound {metric['bound']:.0%})")
        b_traced = base.get((workload, 1), [])
        n_traced = new.get((workload, 1), [])
        for metric in spec["per_layer"]:
            name = metric["name"]
            b_vals, n_vals = values_of(b_traced, name), values_of(n_traced, name)
            if b_vals and n_vals:
                print(f"{workload:15s} {name:34s} "
                      f"{statistics.median(b_vals):>30.4g} "
                      f"{statistics.median(n_vals):>30.4g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
