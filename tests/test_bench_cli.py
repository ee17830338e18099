"""CLI: list/filter/run/json/compare paths of ``python -m repro.bench``."""

import json

import pytest

from repro import bench
from repro.bench import cli

NAME = "zz_test_cli_case"


@pytest.fixture
def cli_case():
    @bench.register_benchmark(
        NAME,
        title="cli case",
        headers=["x"],
        smoke={"seed": 1},
        full={"seed": 1},
        tags=("cli", "zz-probe"),
    )
    def _case(ctx):
        ctx.record("pt", row=[1], x=1, cli_rounds=4)

    yield
    bench.unregister_benchmark(NAME)


def test_list_mode(cli_case, capsys):
    assert cli.main(["--list", "--filter", NAME]) == 0
    out = capsys.readouterr().out
    assert NAME in out
    assert "cli case" in out
    # The listing names each case's suites and tags so --filter targets
    # can be picked without opening the experiment module.
    assert "[full,smoke]" in out
    assert "tags=cli,zz-probe" in out


def test_list_mode_shows_registered_experiments(capsys):
    assert cli.main(["--list", "--filter", "e17"]) == 0
    out = capsys.readouterr().out
    assert "e17_backend_parity" in out
    assert "tags=pipeline,backends,scaling,arena,plans " in out


def test_list_without_tags_prints_placeholder(capsys):
    name = "zz_test_cli_untagged"

    @bench.register_benchmark(
        name, title="untagged", headers=["x"], smoke={}, full={}
    )
    def _untagged(ctx):  # pragma: no cover - never run
        pass

    try:
        assert cli.main(["--list", "--filter", name]) == 0
        assert "tags=-" in capsys.readouterr().out
    finally:
        bench.unregister_benchmark(name)


def test_no_match_is_an_error(capsys):
    assert cli.main(["--filter", "zz_nothing_matches_this"]) == 2


def test_run_writes_artifact(cli_case, tmp_path, capsys):
    rc = cli.main([
        "--suite", "smoke", "--filter", NAME, "--json-dir", str(tmp_path),
    ])
    assert rc == 0
    artifact = tmp_path / f"BENCH_{NAME}.json"
    assert artifact.exists()
    doc = json.loads(artifact.read_text())
    assert doc["name"] == NAME
    assert doc["suite"] == "smoke"
    out = capsys.readouterr().out
    assert "ran 1/1 benchmarks" in out


def test_no_json_flag(cli_case, tmp_path, capsys):
    rc = cli.main([
        "--suite", "smoke", "--filter", NAME, "--json-dir", str(tmp_path),
        "--no-json",
    ])
    assert rc == 0
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_failing_case_sets_exit_code(tmp_path, capsys):
    @bench.register_benchmark(
        "zz_test_cli_failing",
        title="failing",
        headers=["x"],
        smoke={"seed": 1},
        full={"seed": 1},
    )
    def _failing(ctx):
        ctx.check("never-true", False)

    try:
        rc = cli.main([
            "--filter", "zz_test_cli_failing", "--json-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "FAILED zz_test_cli_failing" in capsys.readouterr().err
    finally:
        bench.unregister_benchmark("zz_test_cli_failing")


def test_failed_check_still_writes_its_artifact(tmp_path, capsys):
    name = "zz_test_cli_gate_miss"
    probe = {"fail": False}

    @bench.register_benchmark(
        name, title="gate miss", headers=["x"], smoke={"seed": 1},
        full={"seed": 1},
    )
    def _gated(ctx):
        ctx.record("pt", row=[1], x=1, cli_rounds=4)
        ctx.check("timing-gate", not probe["fail"], "1.16x < 1.3x")
        ctx.record("after", row=[2], x=2, cli_rounds=5)

    try:
        baseline = tmp_path / "baseline"
        assert cli.main(["--filter", name, "--json-dir", str(baseline)]) == 0
        probe["fail"] = True
        fresh = tmp_path / "fresh"
        assert cli.main(["--filter", name, "--json-dir", str(fresh)]) == 1
        assert f"FAILED {name}" in capsys.readouterr().err
        # The case wrote what it measured before the check failed.
        doc = json.loads((fresh / f"BENCH_{name}.json").read_text())
        assert doc["checks"] == [
            {"name": "timing-gate", "ok": False, "detail": "1.16x < 1.3x"}
        ]
        assert [r["key"] for r in doc["records"]] == ["pt"]
        # The compare diffs its counters, names the check and fails.
        path = f"BENCH_{name}.json"
        assert cli.main(["--compare", str(baseline / path), str(fresh / path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED CHECK timing-gate: 1.16x < 1.3x" in out
        assert "REGRESSION dropped records: after" in out
    finally:
        bench.unregister_benchmark(name)


def test_compare_mode(cli_case, tmp_path, capsys):
    result = bench.run_case(NAME, suite="smoke")
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_path = bench.write_case_json(result, old_dir)
    new_path = bench.write_case_json(result, new_dir)
    assert cli.main(["--compare", str(old_path), str(new_path)]) == 0

    doc = json.loads(new_path.read_text())
    doc["records"][0]["cli_rounds"] += 1
    new_path.write_text(json.dumps(doc))
    assert cli.main(["--compare", str(old_path), str(new_path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
