"""Reporter: JSON schema round-trip, tables, regression compare."""

import ast
import importlib.util
import json
import pathlib
import shutil
import subprocess

import pytest

from repro import bench
from repro.bench.report import COUNTER_SUFFIXES, HOST_KEYS, exact_differences, git_sha

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

NAME = "zz_test_report_case"


@pytest.fixture
def case_result():
    @bench.register_benchmark(
        NAME,
        title="report case",
        headers=["x", "rounds"],
        smoke={"seed": 2},
        full={"seed": 2},
    )
    def _case(ctx):
        ctx.timeit("kernel", lambda: 42)
        ctx.record("point-a", row=[1, 7], x=1, sweep_rounds=7,
                   peak_machines=3)
        ctx.record("point-b", row=[2, 9], x=2, sweep_rounds=9,
                   peak_machines=4)
        ctx.check("shape", True)

    yield bench.run_case(NAME, suite="smoke")
    bench.unregister_benchmark(NAME)


def test_format_table_alignment():
    text = bench.format_table("T", ["a", "long"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[2].split(" | ") == ["  a", "long"]
    assert lines[-1].split(" | ") == ["333", "   4"]


def test_render_case_contains_table_and_summary(case_result):
    text = bench.render_case(case_result)
    assert "[zz_test_report_case] report case" in text
    assert "point" not in text  # keys are for JSON, rows for humans
    assert "kernel" in text
    assert "1/1 checks ok" in text


def test_case_to_json_has_required_keys(case_result):
    doc = bench.case_to_json(case_result)
    for key in bench.REQUIRED_KEYS:
        assert key in doc, key
    assert doc["schema_version"] == bench.SCHEMA_VERSION
    assert doc["git_sha"]
    assert len(doc["git_sha"]) >= 7  # a real SHA, not empty
    assert doc["records"][0]["key"] == "point-a"
    assert doc["timings"][0]["label"] == "kernel"


def test_write_load_round_trip(case_result, tmp_path):
    path = bench.write_case_json(case_result, tmp_path)
    assert path.name == f"BENCH_{NAME}.json"
    doc = bench.load_case_json(path)
    assert doc["name"] == NAME
    assert doc["total_seconds"] == pytest.approx(case_result.total_seconds)


def test_v2_artifact_round_trips_its_host_block(case_result, tmp_path):
    path = bench.write_case_json(case_result, tmp_path)
    doc = bench.load_case_json(path)
    assert doc["schema_version"] == bench.SCHEMA_VERSION == 2
    assert tuple(doc["host"]) == HOST_KEYS
    assert doc["host"]["usable_cpus"] >= 1
    assert doc["host"] == json.loads(json.dumps(bench.case_to_json(case_result)["host"]))
    del doc["host"]["numpy"]
    with pytest.raises(ValueError, match="host block"):
        bench.validate_case_json(doc)


def test_committed_v1_artifact_loads_and_compares_with_fresh_v2():
    old = bench.load_case_json(ROOT / "BENCH_e11b_regularity_mixing.json")
    assert old["schema_version"] == 1 and "host" not in old
    fresh = bench.case_to_json(bench.run_case("e11b_regularity_mixing", suite="smoke"))
    assert fresh["schema_version"] == 2
    assert bench.compare_cases(old, fresh)["ok"]
    assert exact_differences(old, fresh) == []


def test_validate_rejects_unknown_schema_version(case_result):
    doc = bench.case_to_json(case_result)
    doc["schema_version"] = 3
    with pytest.raises(ValueError, match="schema_version"):
        bench.validate_case_json(doc)


def test_validate_rejects_missing_keys(case_result):
    doc = bench.case_to_json(case_result)
    del doc["git_sha"]
    with pytest.raises(ValueError, match="git_sha"):
        bench.validate_case_json(doc)


def test_validate_rejects_keyless_records(case_result):
    doc = bench.case_to_json(case_result)
    doc["records"].append({"x": 3})
    with pytest.raises(ValueError, match="stable key"):
        bench.validate_case_json(doc)


def test_compare_flags_counter_regressions(case_result, tmp_path):
    old = bench.case_to_json(case_result, sha="a" * 40)
    new = bench.case_to_json(case_result, sha="b" * 40)
    new["records"][0]["sweep_rounds"] += 5       # regression
    new["records"][1]["peak_machines"] -= 1      # improvement
    diff = bench.compare_cases(old, new)
    assert not diff["ok"]
    assert [e["field"] for e in diff["regressions"]] == ["sweep_rounds"]
    assert [e["field"] for e in diff["improvements"]] == ["peak_machines"]
    text = bench.format_comparison(diff)
    assert "REGRESSION point-a.sweep_rounds: 7 -> 12" in text


def test_compare_gates_bytes_exchanged(case_result):
    old = bench.case_to_json(case_result)
    old["records"][0]["bytes_exchanged"] = 1000
    new = json.loads(json.dumps(old))
    new["records"][0]["bytes_exchanged"] = 1001
    diff = bench.compare_cases(old, new)
    assert not diff["ok"]
    assert [e["field"] for e in diff["regressions"]] == ["bytes_exchanged"]


def test_compare_gates_nested_counters_by_path(case_result):
    old = bench.case_to_json(case_result)
    old["records"][0]["mpc"] = {
        "backend": {"shard_count": 65, "plans": 4},
        "phase_breakdown": [{"name": "a", "exchanges": 3}],
        "peak_machines": 13,
    }
    new = json.loads(json.dumps(old))
    new["records"][0]["mpc"]["backend"]["shard_count"] = 66     # regression
    new["records"][0]["mpc"]["phase_breakdown"][0]["exchanges"] = 2  # improvement
    new["records"][0]["mpc"]["backend"]["plans"] = 9            # not a counter
    diff = bench.compare_cases(old, new)
    assert not diff["ok"]
    assert [e["field"] for e in diff["regressions"]] == ["mpc.backend.shard_count"]
    assert [e["field"] for e in diff["improvements"]] == [
        "mpc.phase_breakdown[0].exchanges"
    ]
    assert "REGRESSION point-a.mpc.backend.shard_count: 65 -> 66" in (
        bench.format_comparison(diff)
    )


def test_compare_ignores_dicts_without_counter_leaves(case_result):
    old = bench.case_to_json(case_result)
    old["records"][0]["params"] = {"n": 64, "family": "path", "sizes": [1, 2]}
    new = json.loads(json.dumps(old))
    new["records"][0]["params"] = {"n": 128, "family": "cycle", "sizes": [3, 4]}
    diff = bench.compare_cases(old, new)
    assert diff["ok"]
    assert diff["regressions"] == diff["improvements"] == []


def test_compare_docstrings_list_every_gated_suffix():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools"
    tool_doc = ast.get_docstring(
        ast.parse((tool / "compare_bench_dirs.py").read_text())
    )
    for suffix in COUNTER_SUFFIXES:
        assert f"``{suffix}``" in bench.compare_cases.__doc__, suffix
        assert f"``*{suffix}``" in tool_doc, suffix


def test_compare_flags_wall_clock_blowups_without_gating(case_result):
    old = bench.case_to_json(case_result)
    new = bench.case_to_json(case_result)
    new["total_seconds"] = old["total_seconds"] * 10
    diff = bench.compare_cases(old, new, time_tolerance=0.5)
    assert diff["total_seconds"]["flagged_slower"]
    # Wall clock is host-dependent: flagged for humans, never a gate.
    assert diff["ok"]
    assert "flagged slower" in bench.format_comparison(diff)


def test_compare_tracks_added_and_removed_keys(case_result):
    old = bench.case_to_json(case_result)
    new = json.loads(json.dumps(old))
    new["records"][1]["key"] = "point-c"
    diff = bench.compare_cases(old, new)
    assert diff["added_keys"] == ["point-c"]
    assert diff["removed_keys"] == ["point-b"]
    # point-b's counters left the gate: a dropped key is a regression.
    assert not diff["ok"]
    assert diff["regressions"] == []
    assert "REGRESSION dropped records: point-b" in bench.format_comparison(diff)


def test_compare_allows_added_keys(case_result):
    old = bench.case_to_json(case_result)
    new = json.loads(json.dumps(old))
    new["records"].append({**new["records"][1], "key": "point-c"})
    diff = bench.compare_cases(old, new)
    assert diff["added_keys"] == ["point-c"]
    assert diff["removed_keys"] == []
    assert diff["ok"]


def test_compare_fails_on_a_failed_check(case_result):
    old = bench.case_to_json(case_result)
    new = json.loads(json.dumps(old))
    new["checks"] = [{"name": "shape", "ok": False, "detail": "too slow"}]
    diff = bench.compare_cases(old, new)
    assert not diff["ok"]
    assert diff["regressions"] == [] and diff["removed_keys"] == []
    assert [(c["name"], c["side"]) for c in diff["failed_checks"]] == [("shape", "new")]
    assert "FAILED CHECK shape: too slow" in bench.format_comparison(diff)


def test_compare_fails_on_a_failed_check_in_the_old_artifact(case_result):
    # A baseline written by a failed run stops at its failed check, so
    # records the fresh run adds past it would otherwise pass as new.
    new = bench.case_to_json(case_result)
    old = json.loads(json.dumps(new))
    old["records"] = old["records"][:1]
    old["checks"] = [{"name": "shape", "ok": False, "detail": "too slow"}]
    diff = bench.compare_cases(old, new)
    assert diff["added_keys"] and diff["removed_keys"] == []
    assert not diff["ok"]
    assert [(c["name"], c["side"]) for c in diff["failed_checks"]] == [("shape", "old")]
    assert "FAILED CHECK shape in the old artifact: too slow" in (
        bench.format_comparison(diff)
    )


def test_compare_bench_files(case_result, tmp_path):
    path_a = tmp_path / "a" / f"BENCH_{NAME}.json"
    path_b = tmp_path / "b" / f"BENCH_{NAME}.json"
    bench.write_case_json(case_result, tmp_path / "a")
    bench.write_case_json(case_result, tmp_path / "b")
    diff = bench.compare_bench_files(path_a, path_b)
    assert diff["ok"]
    assert diff["regressions"] == []


def test_compare_rejects_different_benchmarks(case_result):
    old = bench.case_to_json(case_result)
    new = bench.case_to_json(case_result)
    new["name"] = "something_else"
    with pytest.raises(ValueError, match="different benchmarks"):
        bench.compare_cases(old, new)


def _compare_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_bench_dirs", TOOLS / "compare_bench_dirs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_mode_fails_on_a_changed_counter_not_on_a_changed_time(
    case_result, tmp_path, capsys
):
    tool = _compare_tool()
    for marker in ("seconds", "per_sec", "speedup"):
        assert f"``{marker}``" in tool.__doc__, marker
    old = bench.case_to_json(case_result)
    old["records"][0].update(
        exchanges=4, seconds=0.5, engine={"exchanges": 4, "p50_seconds": 0.1}
    )

    def exact(**changes) -> int:
        new = json.loads(json.dumps(old))
        for path, value in changes.items():
            *parents, name = path.split("__")
            target = new["records"][0]
            for parent in parents:
                target = target[parent]
            target[name] = value
        for side, doc in (("a", old), ("b", new)):
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / f"BENCH_{NAME}.json").write_text(json.dumps(doc))
        return tool.main([str(tmp_path / "a"), str(tmp_path / "b"), "--exact"])

    assert exact() == 0
    assert exact(seconds=9.0, engine__p50_seconds=9.0) == 0
    assert exact(exchanges=5) == 1
    assert "DIFFERS point-a.exchanges: 4 -> 5" in capsys.readouterr().out
    assert exact(engine__exchanges=5) == 1
    assert "DIFFERS point-a.engine.exchanges: 4 -> 5" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_sha_marks_edited_sources_dirty_but_not_artifacts(case_result, tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
             "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text("x = 1\n")
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    head = git("rev-parse", "HEAD")
    assert git_sha(tmp_path) == head
    (tmp_path / "BENCH_x.json").write_text('{"rewritten": true}\n')
    assert git_sha(tmp_path) == head
    (tmp_path / "src" / "module.py").write_text("x = 2\n")
    assert git_sha(tmp_path) == f"{head}-dirty"
    doc = bench.case_to_json(case_result, sha=git_sha(tmp_path))
    assert bench.validate_case_json(doc)["git_sha"] == f"{head}-dirty"
