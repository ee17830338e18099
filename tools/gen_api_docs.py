#!/usr/bin/env python3
"""Generate ``docs/api.md`` from the public docstrings of ``repro.mpc``,
``repro.core``, ``repro.engines``, ``repro.streaming``, and
``repro.service``.

The page is *derived*, never hand-edited: this script walks both
packages, collects every public class and function (module ``__all__``
when declared, else the non-underscore names defined in the module),
and renders their signatures and docstrings to markdown.  The CI docs
job re-runs the generator with ``--check`` and fails on any diff, so
the committed page cannot drift from the code — the same contract the
pydocstyle ``D1`` rules enforce on the docstrings themselves.

Usage::

    python tools/gen_api_docs.py            # (re)write docs/api.md
    python tools/gen_api_docs.py --check    # exit 1 if docs/api.md is stale

Stdlib + the package only; no documentation toolchain to install.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "docs" / "api.md"

#: The packages whose public surface is documented (the same ones the
#: pydocstyle D1 rules gate in CI's docs job).
PACKAGES = (
    "repro.mpc",
    "repro.core",
    "repro.engines",
    "repro.streaming",
    "repro.service",
)

HEADER = """\
# API reference — `repro.mpc` + `repro.core` + `repro.engines` + `repro.streaming` + `repro.service`

> **Generated file — do not edit.**  Regenerate with
> `python tools/gen_api_docs.py`; CI fails if this page drifts from the
> docstrings it is built from.  For guides, see
> [architecture.md](architecture.md), [backends.md](backends.md),
> [engines.md](engines.md), [performance.md](performance.md), and
> [benchmarks.md](benchmarks.md).

This page lists every public class and function of the MPC simulator
(`repro.mpc`: engine, execution backends, compute kernels, shared-memory arena),
the Theorem 4 pipeline stages (`repro.core`), the pluggable
connectivity engines (`repro.engines`), the streaming-update
subsystem (`repro.streaming`), and the long-lived connectivity
service (`repro.service`), with their signatures and docstrings
verbatim.
"""


def iter_modules(package_name: str):
    """Yield ``(name, module)`` for a package and its public submodules."""
    package = importlib.import_module(package_name)
    yield package_name, package
    for info in sorted(
        pkgutil.iter_modules(package.__path__), key=lambda i: i.name
    ):
        if info.name.startswith("_"):
            continue
        name = f"{package_name}.{info.name}"
        yield name, importlib.import_module(name)


def public_names(module) -> "list[str]":
    """The module's documented surface: ``__all__``, else defined names."""
    if hasattr(module, "__all__"):
        return sorted(module.__all__)
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented where it is defined
        names.append(name)
    return sorted(names)


def signature_of(obj) -> str:
    """``inspect.signature`` rendered reproducibly (``(...)`` on failure)."""
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Callable defaults repr their memory address; strip it so the page
    # is byte-identical across runs (the --check gate depends on that).
    return re.sub(r" at 0x[0-9a-f]+", "", text)


def docstring_block(obj) -> str:
    """The object's full docstring as a fenced text block."""
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(no docstring)*\n"
    return "```text\n" + doc.rstrip() + "\n```\n"


def render_entry(qualname: str, obj) -> "list[str]":
    """Markdown lines for one public class/function entry."""
    lines = []
    if inspect.isclass(obj):
        lines.append(f"### class `{qualname}{signature_of(obj)}`\n")
        lines.append(docstring_block(obj))
        for method_name, method in sorted(vars(obj).items()):
            if method_name.startswith("_"):
                continue
            if isinstance(method, property):
                lines.append(f"- **`{method_name}`** (property) — "
                             + summary_line(method.fget))
            elif inspect.isfunction(method) or isinstance(
                method, (classmethod, staticmethod)
            ):
                func = getattr(obj, method_name)
                lines.append(
                    f"- **`{method_name}{signature_of(func)}`** — "
                    + summary_line(func)
                )
        lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{qualname}{signature_of(obj)}`\n")
        lines.append(docstring_block(obj))
    else:  # constants, dataclass instances, registries
        lines.append(f"### `{qualname}`\n")
        lines.append(docstring_block(obj))
    return lines


def summary_line(obj) -> str:
    """First docstring line (used for method bullets and the TOC)."""
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(no docstring)*"
    return doc.strip().splitlines()[0]


def surface_check_block(qualnames: "list[str]") -> str:
    """The page's executable example: every documented name must resolve.

    ``tests/test_docs_examples.py`` executes this fence, so a rename that
    regenerates the page still fails the docs build if anything
    documented here stopped being importable.
    """
    lines = [
        "```python",
        "# Executable surface check: every name documented on this page",
        "# resolves (run by tests/test_docs_examples.py).",
        "import importlib",
        "",
        "NAMES = [",
    ]
    lines += [f'    "{name}",' for name in qualnames]
    lines += [
        "]",
        "for qualname in NAMES:",
        '    module, _, attr = qualname.rpartition(".")',
        "    assert hasattr(importlib.import_module(module), attr), qualname",
        "```",
        "",
    ]
    return "\n".join(lines)


def generate() -> str:
    """Render the full docs/api.md content as one string."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sections: "list[str]" = [HEADER]
    toc: "list[str]" = ["## Modules\n"]
    bodies: "list[str]" = []
    all_qualnames: "list[str]" = []

    for package_name in PACKAGES:
        for module_name, module in iter_modules(package_name):
            names = public_names(module)
            if not names:
                continue
            anchor = module_name.replace(".", "")
            toc.append(
                f"- [`{module_name}`](#{anchor}) — "
                + summary_line(module)
            )
            bodies.append(f'\n## `{module_name}` <a id="{anchor}"></a>\n')
            doc = inspect.getdoc(module)
            if doc:
                # First paragraph only: the full prose lives in the module.
                bodies.append(doc.split("\n\n")[0] + "\n")
            for name in names:
                obj = getattr(module, name)
                qualname = f"{module_name}.{name}"
                # Skip re-exports in package __init__ pages: they are
                # documented under their defining module.
                defined_in = getattr(obj, "__module__", module_name)
                if module_name in PACKAGES and defined_in != module_name:
                    all_qualnames.append(qualname)
                    continue
                all_qualnames.append(qualname)
                bodies.extend(render_entry(qualname, obj))

    sections.append("\n".join(toc) + "\n")
    sections.append(
        "\n## Import surface\n\n"
        + surface_check_block(sorted(set(all_qualnames)))
    )
    sections.extend(bodies)
    return "\n".join(sections).rstrip() + "\n"


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: write docs/api.md, or --check it for drift."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/api.md differs from the generated content",
    )
    args = parser.parse_args(argv)
    content = generate()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != content:
            print(
                "docs/api.md is stale; regenerate with "
                "`python tools/gen_api_docs.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
