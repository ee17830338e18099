"""The end-to-end benchmark harness at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import repro
import spans
from repro.streaming import StreamingConnectivity

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "paper_local": {"n": 256},
    "paper_process": {"n": 256},
    "expo_process": {"n": 512},
    "stream_churn": {"n": 64},
}


def tiny(name: str):
    return dataclasses.replace(harness.CASES[name], **TINY[name])


def wrapped_attributes() -> dict:
    """Every attribute a traced answer replaces, by owner and name."""
    return {
        (owner, attribute): vars(owner)[attribute]
        for owner, attribute, _ in harness.trace_targets(spans.Tracer())
    }


def test_workloads_match_the_benchmark_spec():
    assert list(harness.CASES) == [w["name"] for w in SPEC["workloads"]]
    traced_only = {"trace_overhead", "ref.scipy_cc_s"}
    assert set(harness.layer_names()) == {m["name"] for m in SPEC["per_layer"]} - traced_only


def test_trace_targets_cover_the_named_layers():
    import repro.core.randomize
    from repro.mpc import LocalBackend, MPCEngine, ShardedBackend

    names = {(owner, attribute) for owner, attribute in wrapped_attributes()}
    assert (MPCEngine, "run_plan") in names
    assert (MPCEngine, "phase") in names
    assert (repro.core.randomize, "direct_walk_targets") in names
    for op in ("scatter", "sort", "search", "reduce_by_key", "min_label_exchange"):
        assert (LocalBackend, op) in names
        assert (ShardedBackend, op) in names


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_installs_no_wrappers(name, monkeypatch):
    def forbidden(targets):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(spans, "installed", forbidden)
    case = tiny(name)
    result = harness.run_workload(case, seed=0, seconds=0, trace=False, setups=1)
    assert result.passes == 1
    assert result.attempted == (
        harness.STREAM_BATCHES if name == "stream_churn" else case.graphs
    )
    assert result.failed == 0, result.errors
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in result.metrics.values()), result.metrics


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_restores_wrapped_attributes(name):
    before = wrapped_attributes()
    result = harness.run_workload(tiny(name), seed=0, seconds=0, trace=True, setups=1)
    after = wrapped_attributes()
    assert all(after[key] is original for key, original in before.items())
    assert result.failed == 0, result.errors
    assert result.passes == 2  # each input once traced, once untraced
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert None not in result.metrics.values()
    assert result.metrics["residue_s"] >= 0

    assert result.spans
    for span in result.spans:
        assert span["self_seconds"] >= 0
        if span["parent"] is not None:
            parent = result.spans[span["parent"]]
            assert parent["start_s"] <= span["start_s"]
            assert (
                span["start_s"] + span["seconds"] <= parent["start_s"] + parent["seconds"]
            )


def test_wrong_and_raising_solves_count_as_failed(monkeypatch):
    solve = repro.mpc_connected_components
    calls = itertools.count()

    def flaky(graph, *args, **kwargs):
        call = next(calls)  # call 0 is the set-up's warm-up
        if call == 1:
            raise RuntimeError("injected")
        result = solve(graph, *args, **kwargs)
        if call == 2:
            return dataclasses.replace(result, labels=np.arange(graph.n))
        return result

    monkeypatch.setattr(repro, "mpc_connected_components", flaky)
    case = tiny("paper_local")
    result = harness.run_workload(case, seed=0, seconds=0, trace=False, setups=1)
    assert (result.attempted, result.failed) == (case.graphs, 2)
    assert result.errors == ["RuntimeError: injected"]
    assert result.metrics["correct_ratio"] == (case.graphs - 2) / case.graphs


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_without_any_answer_still_reports(trace, monkeypatch):
    solve = repro.mpc_connected_components
    calls = itertools.count()

    def broken(graph, *args, **kwargs):
        if next(calls) > 0:  # call 0 is the set-up's warm-up
            raise RuntimeError("injected")
        return solve(graph, *args, **kwargs)

    monkeypatch.setattr(repro, "mpc_connected_components", broken)
    case = tiny("paper_local")
    result = harness.run_workload(case, seed=0, seconds=0, trace=trace, setups=1)
    passes = 2 if trace else 1
    assert result.failed == result.attempted == passes * case.graphs
    if trace:
        assert result.metrics["core.walk_engine_s"] is None
        assert result.metrics["ref.scipy_cc_s"] > 0
    else:
        assert result.metrics["correct_ratio"] == 0
        assert result.metrics["answer.p50"] is None
        assert result.metrics["setup_s"] > 0


def test_wrong_stream_answers_count_as_failed(monkeypatch):
    monkeypatch.setattr(
        StreamingConnectivity, "query", lambda self: np.arange(self.n, dtype=np.int64)
    )
    result = harness.run_workload(tiny("stream_churn"), seed=0, seconds=0, trace=False, setups=1)
    assert result.failed == result.attempted


def test_spans_nest_and_reentry_stays_in_one_span():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):
                pass
        with tracer.span("other"):
            pass
    outer, inner, other = tracer.spans
    assert [s.name for s in tracer.spans] == ["outer", "inner", "other"]
    assert inner.parent == other.parent == 0
    assert outer.child_seconds == pytest.approx(inner.seconds + other.seconds)
    assert tracer.root_seconds() == outer.seconds
    assert tracer.totals()["outer"][1] == pytest.approx(outer.self_seconds)


def test_installed_restores_after_an_error():
    class Owner:
        def method(self):
            return "original"

    original = vars(Owner)["method"]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed([(Owner, "method", lambda f: tracer.wrap("owner", f))]):
            assert Owner().method() == "original"
            raise RuntimeError
    assert vars(Owner)["method"] is original
    assert [s.name for s in tracer.spans] == ["owner"]


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(
        "results", "__pycache__"
    ))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper_local",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
