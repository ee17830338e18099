"""Pytest plumbing for the experiment benches.

Every ``bench_e*.py`` file is now a thin shim: the sweeps, tables, shape
checks, and JSON artifacts all live in :mod:`repro.bench` (see
``benchmarks/README.md``).  The ``bench_case`` fixture runs one
registered experiment through the shared runner, prints the table, and
persists both the text table and the ``BENCH_<name>.json`` artifact
under ``benchmarks/results/``.

Select the parameter tier with ``BENCH_SUITE=smoke|full`` (default:
``full`` — the paper-shape sweeps these files always ran), the execution
backend with ``BENCH_BACKEND=local|sharded|process`` (default:
``local``), and the process-backend pool size with ``BENCH_WORKERS=N``
(default: experiment-specific; see ``docs/benchmarks.md``).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import bench

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
SUITE = os.environ.get("BENCH_SUITE", "full")
BACKEND = os.environ.get("BENCH_BACKEND", "local")
WORKERS = int(os.environ["BENCH_WORKERS"]) if "BENCH_WORKERS" in os.environ else None


def pytest_collection_modifyitems(items):
    for item in items:
        if "benchmarks" in str(item.fspath):
            item.add_marker(pytest.mark.bench)
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def bench_case():
    """``bench_case(name)`` — run one registered benchmark and persist it."""

    def _run(name: str) -> bench.CaseResult:
        result = bench.run_case(
            name, suite=SUITE, backend=BACKEND, workers=WORKERS
        )
        text = bench.render_case(result)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{result.name}.txt").write_text(text + "\n")
        bench.write_case_json(result, RESULTS_DIR)
        print("\n" + text)
        return result

    return _run
