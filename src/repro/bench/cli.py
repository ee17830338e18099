"""``python -m repro.bench`` — run benchmark suites, emit JSON artifacts.

Examples::

    python -m repro.bench --suite smoke --json-dir bench-artifacts
    python -m repro.bench --suite full --filter e07
    python -m repro.bench --list
    python -m repro.bench --compare old/BENCH_e01_rounds_vs_n.json \
                                    new/BENCH_e01_rounds_vs_n.json
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from repro.bench.registry import iter_benchmarks
from repro.bench.report import (
    compare_bench_files,
    format_comparison,
    render_case,
    write_case_json,
)
from repro.bench.runner import BenchCheckError, run_case
from repro.engines import engine_names
from repro.mpc.backends import backend_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the registered paper-reproduction benchmarks.",
    )
    parser.add_argument(
        "--suite",
        choices=("smoke", "full"),
        default="smoke",
        help="parameter tier: 'smoke' finishes in under a minute for CI; "
        "'full' runs the paper-shape sweeps (default: smoke)",
    )
    parser.add_argument(
        "--filter",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only run benchmarks whose name contains SUBSTR (repeatable)",
    )
    parser.add_argument(
        "--json-dir",
        default=".",
        metavar="DIR",
        help="directory for BENCH_<name>.json artifacts (default: .)",
    )
    parser.add_argument(
        "--backend",
        choices=("local", "sharded", "process", "rpc"),
        default="local",
        help="execution backend for pipeline experiments: 'local' charges "
        "rounds on plain vectorised numpy (default); 'sharded' runs the "
        "data plane on numpy shards with enforced per-shard memory and "
        "per-round communication caps and reports shard-level counters "
        "(shard_count, peak_shard_load, bytes_exchanged) in the artifacts; "
        "'process' runs the same sharded kernels on a pool of worker "
        "processes over shared memory (true wall-clock parallelism, "
        "bit-identical labels and counters); 'rpc' runs them on worker "
        "processes reached over length-prefixed socket frames "
        "(bit-identical, plus gated transport counters)",
    )
    parser.add_argument(
        "--engine",
        choices=tuple(engine_names()),
        default="paper",
        help="connectivity engine threaded into pipeline experiments "
        "through the mpc_connected_components(..., engine=) dispatch "
        "seam: the paper's Theorem 4 pipeline (default), the Liu-Tarjan "
        "or graph-exponentiation plan-IR engines, or the feature-driven "
        "portfolio dispatcher",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-process pool size for the 'process' backend "
        "(default: min(4, usable CPUs); e17 sweeps {1, N} when given)",
    )
    parser.add_argument(
        "--sketch-shards",
        type=int,
        default=None,
        metavar="K",
        help="shard-count override for streaming experiments that maintain "
        "a sharded AGM sketch (e25_parallel_sketch): edge updates are "
        "range-partitioned by owner vertex into K per-shard partials, "
        "updated through the selected backend's ingest seam and gathered "
        "only at decode time (default: each experiment picks "
        "its own sweep)",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="skip writing JSON artifacts"
    )
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument(
        "--warmup", type=int, default=None, help="kernel warmup iterations"
    )
    parser.add_argument(
        "--repeat", type=int, default=None, help="kernel timed iterations"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered benchmarks (with their suites and tags, for "
        "picking --filter targets) and exit",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="diff two BENCH_*.json artifacts and exit "
        "(exit 1 on counter regressions)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)

    if args.compare:
        try:
            diff = compare_bench_files(args.compare[0], args.compare[1])
        except (OSError, ValueError) as exc:
            print(f"cannot compare: {exc}", file=sys.stderr)
            return 2
        print(format_comparison(diff))
        return 0 if diff["ok"] else 1

    specs = iter_benchmarks(args.filter)
    if not specs:
        print(f"no benchmarks match filters {args.filter!r}", file=sys.stderr)
        return 2

    if args.list:
        for spec in specs:
            suites = ",".join(sorted(spec.suites))
            tags = ",".join(spec.tags) if spec.tags else "-"
            print(f"{spec.name:28s} [{suites}] tags={tags:24s} {spec.title}")
        print()
        print(f"engines:  {', '.join(engine_names())}  (--engine)")
        print(f"backends: {', '.join(backend_names())}  (--backend)")
        return 0

    failures = []
    started = time.perf_counter()
    for spec in specs:
        print(f"=== {spec.name} [{args.suite}] ===", flush=True)
        try:
            result = run_case(
                spec.name,
                suite=args.suite,
                seed=args.seed,
                warmup=args.warmup,
                repeat=args.repeat,
                backend=args.backend,
                engine=args.engine,
                workers=args.workers,
                sketch_shards=args.sketch_shards,
            )
        except Exception as exc:  # noqa: BLE001 - report every failing case
            failures.append((spec.name, exc))
            traceback.print_exc()
            if not isinstance(exc, BenchCheckError):
                continue
            # A failed check still writes what the case measured, marked
            # ``ok: false``, so the counter compare diffs it.
            result = exc.result
        print(render_case(result))
        if not args.no_json:
            path = write_case_json(result, args.json_dir)
            print(f"wrote {path}")
        print(flush=True)

    elapsed = time.perf_counter() - started
    print(
        f"ran {len(specs) - len(failures)}/{len(specs)} benchmarks "
        f"[{args.suite}] in {elapsed:.1f}s"
    )
    if failures:
        for name, exc in failures:
            print(f"FAILED {name}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
