"""Reporting: human tables and the stable ``BENCH_<name>.json`` schema.

The JSON artifact is the machine-readable performance trajectory of the
repo: one file per benchmark, one record per sweep point, annotated with
the git SHA that produced it.  ``compare_bench_files`` diffs two
artifacts of the same benchmark so CI (or a human) can spot round-count
regressions and wall-clock drift across commits.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time

from repro.bench.runner import CaseResult

SCHEMA_VERSION = 1

#: Keys every BENCH_*.json must carry (the round-trip contract).
REQUIRED_KEYS = (
    "schema_version",
    "name",
    "title",
    "suite",
    "seed",
    "git_sha",
    "created_unix",
    "python",
    "total_seconds",
    "params",
    "headers",
    "rows",
    "records",
    "timings",
    "checks",
    "notes",
)


# -- human tables ------------------------------------------------------------


def format_table(title: str, headers: "list[str]", rows: "list[list]") -> str:
    """Right-aligned ASCII table (the format the former benches printed)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_case(result: CaseResult) -> str:
    """The full human-readable report for one benchmark run."""
    text = format_table(
        f"[{result.name}] {result.title}", list(result.headers), result.rows
    )
    for note in result.notes:
        text += f"\n\n{note}"
    if result.timings:
        timed = "; ".join(
            f"{t.label}: {t.best:.4f}s (best of {t.repeat})" for t in result.timings
        )
        text += f"\n\nkernels — {timed}"
    text += (
        f"\n[{result.suite}] total {result.total_seconds:.2f}s, "
        f"{len(result.records)} records, "
        f"{sum(1 for c in result.checks if c['ok'])}/{len(result.checks)} "
        "checks ok"
    )
    return text


# -- JSON artifacts ----------------------------------------------------------


def git_sha(cwd: "str | None" = None) -> str:
    """The commit being measured: git HEAD, then $GITHUB_SHA, else unknown.

    HEAD gains a ``-dirty`` suffix when a tracked file under the
    repository's ``src/`` differs from it, so an artifact written from
    an edited tree does not name a commit that did not produce it.
    Nothing outside ``src/`` counts: the ``BENCH_*.json`` artifacts a
    regeneration has already rewritten must not mark the later ones.
    """
    where = cwd or pathlib.Path(__file__).resolve().parent

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=where, capture_output=True, text=True,
            timeout=10, check=False,
        )

    try:
        out = git("rev-parse", "HEAD")
        if out.returncode == 0 and out.stdout.strip():
            sha = out.stdout.strip()
            edited = git("diff", "--quiet", "HEAD", "--", ":(top)src")
            return f"{sha}-dirty" if edited.returncode == 1 else sha
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def case_to_json(result: CaseResult, *, sha: "str | None" = None) -> dict:
    """Serialize one run into the stable artifact schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": result.name,
        "title": result.title,
        "suite": result.suite,
        "seed": result.seed,
        # Optional on load (older artifacts predate execution backends).
        "backend": result.backend,
        # Optional on load (older artifacts predate the engine axis).
        "engine": result.engine,
        # Optional on load (older artifacts predate the process backend);
        # null unless --workers was passed.
        "workers": result.workers,
        # Optional on load (older artifacts predate sharded sketches);
        # null unless --sketch-shards was passed.
        "sketch_shards": result.sketch_shards,
        "git_sha": git_sha() if sha is None else sha,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "total_seconds": result.total_seconds,
        "params": _jsonable(result.params),
        "headers": list(result.headers),
        "rows": [[str(c) for c in row] for row in result.rows],
        "records": [_jsonable(r) for r in result.records],
        "timings": [t.to_json() for t in result.timings],
        "checks": list(result.checks),
        "notes": list(result.notes),
    }


def _jsonable(value):
    """Coerce numpy scalars / tuples into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item) and getattr(
        value, "shape", None
    ) == ():
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def artifact_path(json_dir: "str | pathlib.Path", name: str) -> pathlib.Path:
    return pathlib.Path(json_dir) / f"BENCH_{name}.json"


def write_case_json(
    result: CaseResult,
    json_dir: "str | pathlib.Path",
    *,
    sha: "str | None" = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``json_dir`` and return its path."""
    path = artifact_path(json_dir, result.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = case_to_json(result, sha=sha)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return path


def load_case_json(path: "str | pathlib.Path") -> dict:
    """Load and validate one artifact (raises on schema violations)."""
    doc = json.loads(pathlib.Path(path).read_text())
    validate_case_json(doc)
    return doc


def validate_case_json(doc: dict) -> dict:
    """Check the round-trip contract; returns ``doc`` for chaining."""
    missing = [key for key in REQUIRED_KEYS if key not in doc]
    if missing:
        raise ValueError(f"BENCH artifact missing required keys: {missing}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {doc['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    for record in doc["records"]:
        if "key" not in record:
            raise ValueError(f"record without a stable key: {record!r}")
    return doc


# -- regression compare ------------------------------------------------------

#: Record-field name suffixes :func:`compare_cases` gates.  Exchange
#: barriers, payload bytes and shard occupancy are gated so a backend
#: change that inflates communication fails --compare; "segments" gates
#: shared-memory segment allocations so the arena's O(1)-allocations-
#: per-run property cannot silently regress; "barriers" gates dispatch-
#: barrier counts so an op cannot silently start paying a pool barrier
#: it did not pay before; "frames"/"wire_bytes" gate the RPC
#: transport (op frames shipped and their serialized sizes —
#: deterministic per plan, unlike heartbeats/retries) so a codec or
#: dedup change that inflates wire traffic fails --compare; "words"
#: gates sketch memory footprints (partial_words / sketch_words —
#: "words_per_vertex" stays ungated by its suffix) so a sharding change
#: that inflates resident sketch state fails --compare.
COUNTER_SUFFIXES = (
    "rounds",
    "machines",
    "phases",
    "iterations",
    "exchanges",
    "bytes_exchanged",
    "shard_count",
    "shard_load",
    "segments",
    "barriers",
    "frames",
    "wire_bytes",
    "words",
)


def compare_cases(
    old: dict,
    new: dict,
    *,
    time_tolerance: float = 0.25,
) -> dict:
    """Diff two artifacts of the same benchmark.

    Numeric record fields whose names end in one of
    :data:`COUNTER_SUFFIXES` — ``rounds``, ``machines``, ``phases``,
    ``iterations``, ``exchanges``, ``bytes_exchanged``, ``shard_count``,
    ``shard_load``, ``segments``, ``barriers``, ``frames``,
    ``wire_bytes``, ``words`` — are compared exactly; any increase is a
    regression and clears ``ok``.  So does a record key of ``old`` that
    ``new`` dropped (``removed_keys``: its counters left the gate), and a
    failed shape check in either artifact (``failed_checks``, each
    tagged with its ``side``: the case stopped there, so records past it
    are missing, but the counters it recorded are still diffed; a
    baseline written by a failed run must not shrink the gate).
    Wall-clock
    drifts with the host, so the per-case ``total_seconds`` is only
    *flagged* (beyond ``time_tolerance`` fractional slowdown) —
    informational, never a gate: two artifacts from different machines
    must not fail on speed alone.
    """
    validate_case_json(old)
    validate_case_json(new)
    if old["name"] != new["name"]:
        raise ValueError(
            f"comparing different benchmarks: {old['name']!r} vs {new['name']!r}"
        )

    old_records = {r["key"]: r for r in old["records"]}
    new_records = {r["key"]: r for r in new["records"]}
    regressions, improvements, unchanged = [], [], []
    for key in sorted(old_records.keys() & new_records.keys()):
        before, after = old_records[key], new_records[key]
        for fname in sorted(before.keys() & after.keys()):
            b, a = before[fname], after[fname]
            if not fname.endswith(COUNTER_SUFFIXES):
                continue
            if not isinstance(b, (int, float)) or not isinstance(a, (int, float)):
                continue
            entry = {"key": key, "field": fname, "old": b, "new": a}
            if a > b:
                regressions.append(entry)
            elif a < b:
                improvements.append(entry)
            else:
                unchanged.append(entry)

    old_t, new_t = old["total_seconds"], new["total_seconds"]
    slower = old_t > 0 and (new_t - old_t) / old_t > time_tolerance
    removed = sorted(old_records.keys() - new_records.keys())
    failed_checks = [
        {**check, "side": side}
        for side, case in (("old", old), ("new", new))
        for check in case["checks"]
        if not check["ok"]
    ]

    return {
        "name": old["name"],
        "old_sha": old["git_sha"],
        "new_sha": new["git_sha"],
        "regressions": regressions,
        "improvements": improvements,
        "unchanged": len(unchanged),
        "added_keys": sorted(new_records.keys() - old_records.keys()),
        "removed_keys": removed,
        "failed_checks": failed_checks,
        "total_seconds": {"old": old_t, "new": new_t, "flagged_slower": slower},
        "ok": not (regressions or removed or failed_checks),
    }


def compare_bench_files(
    old_path: "str | pathlib.Path",
    new_path: "str | pathlib.Path",
    *,
    time_tolerance: float = 0.25,
) -> dict:
    """:func:`compare_cases` on two ``BENCH_*.json`` files."""
    return compare_cases(
        load_case_json(old_path),
        load_case_json(new_path),
        time_tolerance=time_tolerance,
    )


#: A record field is *time* when its name contains one of these: its
#: value follows the host's speed, so :func:`exact_differences` skips it.
TIME_FIELD_MARKERS = ("seconds", "per_sec", "speedup")

#: Stands in for the side of an :func:`exact_differences` entry that
#: lacks the field or record.
_ABSENT = "<absent>"


def exact_differences(old: dict, new: dict) -> "list[dict]":
    """Every non-time record field on which two artifacts of the same
    benchmark differ: ``{"field", "old", "new"}`` per difference, with
    ``field`` the record key and the path into it (``key.a.b[2]``).

    Records pair by key.  Nested dicts and lists are compared entry by
    entry, and a field or record present on one side only differs
    (``"<absent>"`` on the other).  Only fields whose names contain one
    of :data:`TIME_FIELD_MARKERS` are skipped, at any depth.
    """
    validate_case_json(old)
    validate_case_json(new)
    old_records = {r["key"]: r for r in old["records"]}
    new_records = {r["key"]: r for r in new["records"]}
    diffs: "list[dict]" = []

    def visit(path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for name in sorted(a.keys() | b.keys()):
                if not any(marker in name for marker in TIME_FIELD_MARKERS):
                    visit(f"{path}.{name}", a.get(name, _ABSENT), b.get(name, _ABSENT))
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                visit(f"{path}[{i}]", x, y)
        elif a != b and not (a != a and b != b):  # two NaNs agree
            diffs.append({"field": path, "old": a, "new": b})

    for key in sorted(old_records.keys() | new_records.keys()):
        visit(key, old_records.get(key, _ABSENT), new_records.get(key, _ABSENT))
    return diffs


def format_comparison(diff: dict) -> str:
    lines = [
        f"[{diff['name']}] {diff['old_sha'][:12]} -> {diff['new_sha'][:12]}: "
        + ("OK" if diff["ok"] else "REGRESSED")
    ]
    for check in diff["failed_checks"]:
        lines.append(
            f"  FAILED CHECK {check['name']}"
            + (" in the old artifact" if check["side"] == "old" else "")
            + (f": {check['detail']}" if check.get("detail") else "")
        )
    for entry in diff["regressions"]:
        lines.append(
            f"  REGRESSION {entry['key']}.{entry['field']}: "
            f"{entry['old']} -> {entry['new']}"
        )
    for entry in diff["improvements"]:
        lines.append(
            f"  improved   {entry['key']}.{entry['field']}: "
            f"{entry['old']} -> {entry['new']}"
        )
    t = diff["total_seconds"]
    lines.append(
        f"  wall time  {t['old']:.2f}s -> {t['new']:.2f}s"
        + ("  (flagged slower)" if t["flagged_slower"] else "")
    )
    if diff["added_keys"]:
        lines.append(f"  new records: {', '.join(diff['added_keys'])}")
    if diff["removed_keys"]:
        lines.append(
            f"  REGRESSION dropped records: {', '.join(diff['removed_keys'])}"
        )
    return "\n".join(lines)
