"""Check that two sets of untraced runs of one commit agree.

    python3 benchmarks/e2e/agree.py RESULTS_A RESULTS_B

Each argument is a directory of result files written by ``run.py
--out-dir``, with at least 5 untraced runs of every workload.  For every
workload and end-to-end metric it prints each set's quartiles and
median, the spread (quartile distance over the median), and the
relative difference of the two medians.  The medians agree when they
differ by less than the metric's bound in ``BENCHMARK.json``; counts
must be equal.  Exits 1 if any pair disagrees, 2 if a set is too small
or the runs were measured for different ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

SPEC_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_RUNS = 5


def load(directory: pathlib.Path) -> "tuple[dict[str, dict[str, list[float]]], set[float]]":
    """``workload -> metric -> values`` over the untraced result files,
    and the set of their ``--seconds`` values."""
    runs: "dict[str, dict[str, list[float]]]" = {}
    seconds = set()
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        if document["trace"]:
            continue
        if not document["correct"]:
            print(f"{path}: skipped, it has wrong answers", file=sys.stderr)
            continue
        seconds.add(document["seconds"])
        metrics = runs.setdefault(document["workload"], {})
        for name, metric in document["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs, seconds


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=pathlib.Path)
    parser.add_argument("second", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    (first, first_seconds), (second, second_seconds) = load(args.first), load(args.second)
    sets = [first, second]
    lengths = first_seconds | second_seconds
    if len(lengths) > 1:
        print(f"the runs measured for different --seconds: {sorted(lengths)}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    for runs, directory in zip(sets, (args.first, args.second)):
        for workload in workloads:
            count = len(runs.get(workload, {}).get("setup_s", []))
            if count < MIN_RUNS:
                print(f"{directory}: {count} runs of {workload}, need {MIN_RUNS}", file=sys.stderr)
                return 2

    print(
        f"{'workload':14} {'metric':14} {'bound':>6} | {'q1':>10} {'median':>10} {'q3':>10}"
        f" {'spread':>7} | {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} | {'diff':>7}"
    )
    disagreements = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            for runs in sets:
                q1, median, q3 = quartiles(runs[workload][name])
                row.append((q1, median, q3, (q3 - q1) / median))
            first, second = row[0][1], row[1][1]
            diff = abs(second - first) / first
            agree = first == second if metric["unit"] == "count" else diff < bound
            disagreements += not agree
            cells = " | ".join(
                f"{q1:10.4g} {median:10.4g} {q3:10.4g} {spread:7.2%}"
                for q1, median, q3, spread in row
            )
            verdict = "agree" if agree else "DIFFER"
            print(f"{workload:14} {name:14} {bound:6.0%} | {cells} | {diff:7.2%} {verdict}")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
