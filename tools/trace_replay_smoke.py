#!/usr/bin/env python3
"""Trace capture + replay smoke gate (CI's differential job).

Runs one connectivity engine once with ``MPCEngine(trace=...)`` on a
capture backend, then replays the recorded plan stream on each replay
backend and checks bit-identical outputs and matching exchange
counters.  The pools replay with their size thresholds at zero
(``ProcessBackend(workers=2, min_parallel_items=0)``,
``RpcBackend(workers=2, min_wire_items=0)``), so every op the pools
run (``sort`` and ``reduce_by_key``) runs on the workers.  The run
exits 1 when a replay diverges, when a capture on a non-local backend
makes no exchange (its exchange check would compare 0 with 0), or when
the capture holds a pooled op and a pool replay dispatches nothing (it
would only have run the serial kernels).

Usage::

    python tools/trace_replay_smoke.py --n 512 \
        --capture sharded --replay local process rpc

``--engine NAME`` captures any registered connectivity engine's plan
stream instead of the paper pipeline's; ``--out PATH`` keeps the trace
file (CI uploads it as an artifact).
"""

import argparse
import contextlib
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.bench.workloads import Workload  # noqa: E402
from repro.engines import get_engine  # noqa: E402
from repro.mpc import MPCEngine, ProcessBackend, RpcBackend, make_backend  # noqa: E402
from repro.mpc.plan import replay  # noqa: E402

#: The capture's pipeline constants: the smoke sizes at the memory
#: exponent of the e2e benchmark and e17, where every engine's capture
#: at n = 512 spans several shards and so makes exchanges.
CONFIG = repro.PipelineConfig(
    delta=0.3, expander_degree=4, max_walk_length=32, oversample=4, max_phases=2
)

#: Replay pools with every op forced onto the workers: the default size
#: thresholds would keep smoke-scale ops on the serial kernels.
POOLS = {
    "process": lambda: ProcessBackend(workers=2, min_parallel_items=0),
    "rpc": lambda: RpcBackend(workers=2, min_wire_items=0),
}


#: Plan-step ops the pools run on their workers; the other ops run in
#: the parent on every backend.
POOLED_OPS = {"sort", "reduce_by_key"}


def dispatches(stats) -> int:
    """Work a replay sent to pool workers: process barriers plus rpc
    op frames (0 on the in-process backends)."""
    doc = stats.to_json()
    return doc["dispatch"]["barriers"] + doc["transport"]["op_frames"]


def main(argv: "list[str] | None" = None) -> int:
    """Capture one engine's plan stream and replay it; 0 iff every check
    passed."""
    parser = argparse.ArgumentParser(
        prog="python tools/trace_replay_smoke.py",
        description="Trace capture + replay smoke check.",
    )
    parser.add_argument("--n", type=int, default=512, help="graph size")
    parser.add_argument(
        "--capture", default="sharded", help="backend to capture the trace on"
    )
    parser.add_argument(
        "--replay",
        nargs="+",
        default=["local", "process"],
        help="backends to replay the trace on",
    )
    parser.add_argument(
        "--out", default=None, help="trace path (default: a temp file)"
    )
    parser.add_argument(
        "--engine",
        default="paper",
        help="connectivity engine whose plan stream is captured "
        "(any repro.engines name; default: paper)",
    )
    args = parser.parse_args(argv)

    graph = Workload("permutation_regular", args.n, {"degree": 6}).build(7)
    failures = []
    with contextlib.ExitStack() as stack:
        out = args.out
        if out is None:
            tmpdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-trace-")
            )
            out = str(pathlib.Path(tmpdir) / "trace.json")
        backend = make_backend(args.capture)
        with MPCEngine.for_delta(
            graph.n + graph.m, CONFIG.delta, backend=backend, trace=out
        ) as engine:
            result = get_engine(args.engine).run(
                graph, 0.1, config=CONFIG, rng=7, mpc=engine
            )
            captured = engine.backend.stats()
        pooled = sorted({
            step["op"]
            for entry in engine.trace.entries
            for step in entry["steps"]
            if step["op"] in POOLED_OPS
        })
        print(
            f"captured {len(engine.trace)} plans [{args.engine}] on "
            f"{args.capture!r} -> {out} "
            f"({result.rounds} rounds, {captured.exchanges} exchanges); "
            f"pooled ops: {', '.join(pooled) or 'none'}"
        )
        if args.capture != "local" and captured.exchanges == 0:
            failures.append(
                f"capture on {args.capture!r} made no exchange: the replays' "
                "exchange checks would certify nothing"
            )
        for name in args.replay:
            pool = POOLS[name]() if name in POOLS else None
            try:
                replayed = replay(
                    out, backend=name if pool is None else pool, verify=False
                )
            finally:
                if pool is not None:
                    pool.close()
            # The accounting-only local backend legitimately reports zero
            # exchanges; every enforced backend must reproduce the
            # captured counters exactly.
            expected = 0 if name == "local" else captured.exchanges
            sent = dispatches(replayed.stats)
            print(
                f"replayed {len(replayed.outputs)} plans on {name!r}: "
                f"{len(replayed.mismatches)} mismatches, "
                f"{replayed.stats.exchanges} exchanges, {sent} dispatches"
            )
            if not replayed.ok:
                failures.append(f"replay on {name!r} diverged at {replayed.mismatches}")
            if replayed.stats.exchanges != expected:
                failures.append(
                    f"replay on {name!r}: {replayed.stats.exchanges} exchanges "
                    f"vs {expected} expected"
                )
            if pool is not None and pooled and sent == 0:
                failures.append(f"replay on {name!r} dispatched nothing to its workers")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
