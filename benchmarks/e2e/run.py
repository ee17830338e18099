"""End-to-end benchmark of the connectivity stack: one closed-loop client.

Run every workload, each in its own fresh Python process, untraced::

    python3 benchmarks/e2e/run.py --seed 0

Run one workload, traced (per-layer metrics instead of end-to-end ones)::

    python3 benchmarks/e2e/run.py --workload paper_local --seed 0 --trace 1

Every metric is printed as ``workload metric value unit``; the last line
of standard output is the JSON result.  Each workload's result, with a
host and provenance block, is also written to ``--out-dir``.  The exit
code is non-zero if any answer was wrong or raised.  Metric names and
units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"


def parse_args(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="time to answer for, in whole passes over the inputs",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--out-dir", type=pathlib.Path, default=HERE / "results")
    return parser.parse_args(argv)


def git_sha() -> "str | None":
    """The checkout's commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the shared-memory resource tracker this process started, if
    any, and wait until it has ended.

    The process backend's shared memory starts multiprocessing's tracker
    process; left alone it outlives this process and is never waited
    for.  Closing its pipe ends it; it is killed if it does not end
    within ``timeout`` seconds.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args, spec: dict) -> int:
    """Measure one workload in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import harness
    import repro

    source = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro was imported from {source}, not from {ROOT / 'src'}")

    case = harness.CASES[args.workload]
    trace = bool(args.trace)
    result = harness.run_workload(
        case,
        seed=args.seed,
        seconds=args.seconds,
        trace=trace,
        setups=1 if trace else harness.SETUPS,
    )
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result.metrics) != set(declared):
        raise SystemExit(
            f"measured metrics {sorted(result.metrics)} differ from "
            f"BENCHMARK.json's {sorted(declared)}"
        )
    metrics = {
        name: {"value": result.metrics[name], "unit": unit} for name, unit in declared.items()
    }
    for name, metric in metrics.items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{args.workload} {name} {value} {metric['unit']}")
    for name, value in result.wall_clock.items():
        unit = "edges/s" if name == "edges_per_s" else "s"
        print(f"{args.workload} {name} {value:.6g} {unit} (wall clock, not gated)")

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "seconds": args.seconds,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "passes": result.passes,
        "metrics": metrics,
        "wall_clock": result.wall_clock,
        "samples": result.samples,
        "setup_s": result.setup_s,
        "errors": result.errors,
        "host": {
            "nproc": os.cpu_count(),
            "usable_cpu_count": repro.mpc.usable_cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "git_sha": git_sha(),
        },
        "params": case.params(),
        "spans": result.spans,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if trace else ""
    path = args.out_dir / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(result_line(result.failed == 0, result.attempted, result.failed, metrics))
    return 0 if result.failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Measure every workload, each in a fresh child process.  A workload
    that ends without a result counts as incorrect; the rest still run."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(args.out_dir),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit code {done.returncode})", file=sys.stderr)
            correct = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    if not args.workload:
        return run_all(args, spec)
    try:
        return run_one(args, spec)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
