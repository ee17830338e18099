#!/usr/bin/env python3
"""Regression-gate a directory of fresh ``BENCH_*.json`` artifacts.

Every committed artifact (in the baseline directory, normally the repo
root) is diffed against the same-named file in the freshly generated
directory with :func:`repro.bench.report.compare_bench_files` — the same
counter gates as ``python -m repro.bench --compare``, looped over the
whole artifact set and rendered as readable per-benchmark tables.  Any
``*rounds`` / ``*machines`` / ``*phases`` / ``*iterations`` /
``*exchanges`` / ``*bytes_exchanged`` / ``*shard_count`` /
``*shard_load`` / ``*segments`` / ``*barriers`` / ``*frames`` /
``*wire_bytes`` / ``*words`` counter increase exits 1 (the suffixes are
``repro.bench.report.COUNTER_SUFFIXES``), and so do a record the fresh
artifact dropped and a shape check failed in either artifact (a failed
case still writes its artifact, so its counters are diffed too, and a
baseline written by a failed run fails until it is rewritten);
wall-clock drift is only flagged.  Fresh artifacts with no committed
baseline are listed as new (not a failure — commit them to arm the
gate); committed artifacts the fresh run did not produce fail, because
a silently vanishing benchmark is itself a regression.

Usage (CI's bench-smoke job)::

    python tools/compare_bench_dirs.py . bench-artifacts
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import compare_bench_files, format_comparison  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    """Diff every baseline ``BENCH_*.json`` against its fresh twin."""
    parser = argparse.ArgumentParser(
        prog="python tools/compare_bench_dirs.py",
        description="Loop python -m repro.bench --compare over two "
        "directories of BENCH_*.json artifacts.",
    )
    parser.add_argument("baseline", help="directory of committed artifacts")
    parser.add_argument("fresh", help="directory of freshly generated artifacts")
    args = parser.parse_args(argv)

    baseline = pathlib.Path(args.baseline)
    fresh = pathlib.Path(args.fresh)
    committed = sorted(baseline.glob("BENCH_*.json"))
    if not committed:
        print(f"no BENCH_*.json artifacts in {baseline}", file=sys.stderr)
        return 2

    failed, missing = [], []
    for old_path in committed:
        new_path = fresh / old_path.name
        if not new_path.exists():
            missing.append(old_path.name)
            continue
        try:
            diff = compare_bench_files(old_path, new_path)
        except (OSError, ValueError) as exc:
            print(f"cannot compare {old_path.name}: {exc}", file=sys.stderr)
            failed.append(old_path.name)
            continue
        print(format_comparison(diff))
        print()
        if not diff["ok"]:
            failed.append(old_path.name)

    new_names = sorted(
        p.name for p in fresh.glob("BENCH_*.json")
        if not (baseline / p.name).exists()
    )
    if new_names:
        print("new artifacts (no committed baseline yet): "
              + ", ".join(new_names))
    if missing:
        print(
            "MISSING from the fresh run (a vanished benchmark is a "
            "regression): " + ", ".join(missing),
            file=sys.stderr,
        )

    ok = not failed and not missing
    print(
        f"compared {len(committed) - len(missing)}/{len(committed)} "
        f"artifacts: {'OK' if ok else 'REGRESSED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
