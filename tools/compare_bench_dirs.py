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
``repro.bench.report.COUNTER_SUFFIXES``; a counter nested in a record's
dicts and lists is gated too, named by its path, such as
``mpc.backend.shard_count``), and so do a record the fresh
artifact dropped and a shape check failed in either artifact (a failed
case still writes its artifact, so its counters are diffed too, and a
baseline written by a failed run fails until it is rewritten);
wall-clock drift is only flagged.  Fresh artifacts with no committed
baseline are listed as new (not a failure — commit them to arm the
gate); committed artifacts the fresh run did not produce fail, because
a silently vanishing benchmark is itself a regression.

``--exact`` checks bit-for-bit regeneration instead: it exits 1 when the
two directories differ in any non-time record field, nested dicts and
lists included, or when an artifact is in one directory only.  A field
is *time* when its name contains ``seconds``, ``per_sec`` or
``speedup`` (``repro.bench.report.TIME_FIELD_MARKERS``); those are
skipped, and nothing else is.  Every differing field is printed by name,
so a field that still differs between two runs at one SHA shows up
instead of being skipped silently.

Usage (CI's bench-smoke job)::

    python tools/compare_bench_dirs.py . bench-artifacts

Two fresh smoke runs, compared field for field::

    python tools/compare_bench_dirs.py --exact run-a run-b
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import (  # noqa: E402
    compare_bench_files,
    exact_differences,
    format_comparison,
    load_case_json,
)


def exact(baseline: pathlib.Path, fresh: pathlib.Path) -> int:
    """``--exact``: print every non-time record field on which the two
    directories' artifacts differ; 0 only if there is none."""
    names = sorted(
        {path.name for folder in (baseline, fresh) for path in folder.glob("BENCH_*.json")}
    )
    if not names:
        print(f"no BENCH_*.json artifacts in {baseline} or {fresh}", file=sys.stderr)
        return 2
    differing, failed = 0, []
    for name in names:
        try:
            diffs = exact_differences(
                load_case_json(baseline / name), load_case_json(fresh / name)
            )
        except (OSError, ValueError) as exc:
            print(f"cannot compare {name}: {exc}", file=sys.stderr)
            failed.append(name)
            continue
        print(f"[{name}] {len(diffs)} differing non-time fields")
        for diff in diffs:
            print(f"  DIFFERS {diff['field']}: {diff['old']!r} -> {diff['new']!r}")
        differing += len(diffs)
    ok = not differing and not failed
    print(
        f"exact: {differing} differing non-time fields, "
        f"{len(names) - len(failed)}/{len(names)} artifacts compared: "
        + ("OK" if ok else "DIFFERENT")
    )
    return 0 if ok else 1


def main(argv: "list[str] | None" = None) -> int:
    """Diff every baseline ``BENCH_*.json`` against its fresh twin."""
    parser = argparse.ArgumentParser(
        prog="python tools/compare_bench_dirs.py",
        description="Loop python -m repro.bench --compare over two "
        "directories of BENCH_*.json artifacts.",
    )
    parser.add_argument("baseline", help="directory of committed artifacts")
    parser.add_argument("fresh", help="directory of freshly generated artifacts")
    parser.add_argument(
        "--exact", action="store_true",
        help="fail on any differing non-time record field instead of "
        "gating counter increases",
    )
    args = parser.parse_args(argv)

    baseline = pathlib.Path(args.baseline)
    fresh = pathlib.Path(args.fresh)
    if args.exact:
        return exact(baseline, fresh)
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
