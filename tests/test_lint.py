"""A lint gate that needs no linter: unused imports and public docstrings.

CI runs ``ruff check`` with the rules ``pyproject.toml`` selects.  This
test re-implements the two that have slipped through before, with the
standard library alone, so they fail on any host that runs the tests:

* F401 — an imported name nobody reads, in every tree ruff checks.  A
  name counts as read when it is loaded, deleted, named in ``__all__``
  (an ``__init__.py`` re-export), named in a string annotation, or
  re-exported by a redundant alias (``import x as x``).  ``# noqa`` and
  ``# noqa: F401`` on the import's line silence it, as in ruff.
* D1 — a public module, package, class, function or method without a
  docstring, with pyproject's global ``ignore`` (D105, D107) and its
  ``[tool.ruff.lint.per-file-ignores]`` scope.  Visibility follows
  pydocstyle: a leading underscore, a definition inside a function, a
  property setter or deleter, or a module member left out of a defined
  ``__all__`` is private.

It is stricter than nothing and looser than ruff: it never reports what
ruff would not.
"""

import ast
import fnmatch
import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "tools")
LINT = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["ruff"]["lint"]

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _ignored(rel: str, code: str) -> bool:
    """Whether pyproject switches ``code`` off for the file at ``rel``."""
    codes = list(LINT.get("ignore", []))
    for pattern, extra in LINT.get("per-file-ignores", {}).items():
        if fnmatch.fnmatch(rel, pattern):
            codes.extend(extra)
    return any(code.startswith(prefix) for prefix in codes)


def _noqa(line: str, code: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in re.split(r"[,\s]+", codes.strip())


def _names(node: ast.AST) -> "set[str]":
    """Names a subtree reads, string annotations included."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        annotations = []
        if isinstance(sub, ast.arg) and sub.annotation is not None:
            annotations.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
            annotations.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
        for annotation in annotations:
            found |= _annotation_names(annotation)
    return found


def _annotation_names(annotation: ast.AST) -> "set[str]":
    found = set()
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            found |= _names(parsed) | _annotation_names(parsed)
    return found


def _dunder_all(tree: ast.Module) -> "set[str] | None":
    """The string entries of a module-level ``__all__``, if one is set."""
    names = None
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value:
            targets, value = [node.target], node.value
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names = names or set()
            for sub in ast.walk(value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.add(sub.value)
    return names


def _imports(body) -> "list[ast.stmt]":
    """Import statements of one scope, through ``if``/``try``/``with``
    blocks but not into nested functions or classes."""
    found = []
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for field in ("body", "orelse", "finalbody", "handlers"):
                found.extend(_imports(getattr(node, field, [])))
    return found


def unused_imports(source: str) -> "list[str]":
    """F401: ``"line: name"`` for every import binding nobody reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _dunder_all(tree) or set()
    scopes = [(tree.body, _names(tree) | exported)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.body, set().union(*map(_names, node.body))))
    problems = []
    for body, used in scopes:
        for stmt in _imports(body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                line = getattr(alias, "lineno", stmt.lineno)
                if bound in used or any(
                    _noqa(lines[n - 1], "F401") for n in {stmt.lineno, line}
                ):
                    continue
                problems.append(f"{line}: F401 `{alias.name}` imported but unused")
    return problems


def _has_docstring(node) -> bool:
    return ast.get_docstring(node, clean=False) is not None


def _decorator_names(node) -> "set[str]":
    return {ast.unparse(decorator) for decorator in node.decorator_list}


def missing_docstrings(source: str, rel: str) -> "list[str]":
    """D1: ``"line: code name"`` for every undocumented public definition
    of the module at ``rel`` (a path relative to the repository root)."""
    tree = ast.parse(source)
    path = pathlib.PurePosixPath(rel)
    problems = []

    def report(line, code, what):
        if not _ignored(rel, code):
            problems.append(f"{line}: {code} undocumented {what}")

    parts = [*path.parent.parts, path.stem]
    if any(p.startswith("_") and not p.startswith("__") for p in parts):
        return problems
    if source.strip() and not _has_docstring(tree):
        if path.name == "__init__.py":
            report(1, "D104", "public package")
        else:
            report(1, "D100", "public module")

    exported = _dunder_all(tree)

    def visit(body, parent):
        for node in body:
            if isinstance(node, (ast.If, ast.Try)):
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, []), parent)
                continue
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            decorators = _decorator_names(node)
            if parent == "module":
                public = not name.startswith("_") and (
                    exported is None or name in exported
                )
            elif isinstance(node, ast.ClassDef):
                public = not name.startswith("_")
            else:
                setter = {f"{name}.setter", f"{name}.deleter"} & decorators
                magic = name.startswith("__") and name.endswith("__")
                public = not setter and (magic or not name.startswith("_"))
            if not public:
                continue
            if isinstance(node, ast.ClassDef):
                if not _has_docstring(node):
                    code = "D101" if parent == "module" else "D106"
                    report(node.lineno, code, f"public class `{name}`")
                visit(node.body, "class")
                continue
            if decorators & {"overload", "typing.overload", "override",
                             "typing.override", "typing_extensions.override"}:
                continue
            if _has_docstring(node):
                continue
            if parent == "module":
                code = "D103"
            elif name == "__init__":
                code = "D107"
            elif name in ("__new__", "__call__") or not name.startswith("__"):
                code = "D102"
            else:
                code = "D105"
            kind = "function" if parent == "module" else "method"
            report(node.lineno, code, f"public {kind} `{name}`")

    visit(tree.body, "module")
    return problems


def _modules():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if "__pycache__" in rel or "/." in rel:
                continue
            yield rel, path.read_text(encoding="utf-8")


def test_no_unused_imports():
    problems = [
        f"{rel}:{problem}"
        for rel, source in _modules()
        if not _ignored(rel, "F401")
        for problem in unused_imports(source)
    ]
    assert not problems, "\n".join(problems)


def test_public_api_is_documented():
    problems = [
        f"{rel}:{problem}"
        for rel, source in _modules()
        for problem in missing_docstrings(source, rel)
    ]
    assert not problems, "\n".join(problems)


def test_checker_flags_planted_violations():
    """Both checks report a planted unused import and an undocumented
    public function, and respect ``noqa``, ``__all__`` and privacy."""
    planted = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json  # noqa: E402\n"
        "from typing import Any\n"
        "\n"
        "def exposed(x: 'Any'):\n"
        "    import re\n"
        "    return x\n"
        "\n"
        "def _hidden():\n"
        "    def inner():\n"
        "        pass\n"
    )
    assert unused_imports(planted) == [
        "1: F401 `os` imported but unused",
        "3: F401 `json` imported but unused",
        "7: F401 `re` imported but unused",
    ]
    assert missing_docstrings(planted, "src/repro/mpc/planted.py") == [
        "1: D100 undocumented public module",
        "6: D103 undocumented public function `exposed`",
    ]
    assert missing_docstrings(planted, "src/repro/graph/planted.py") == []
    assert unused_imports("import os\n__all__ = ['os']\n") == []
    assert unused_imports("from a import b as b\n") == []
