"""Regenerate docs/api.md from the package `__all__` lists.

Usage::

    python scripts/generate_api_docs.py > docs/api.md
"""

from __future__ import annotations

import importlib
import inspect

MODULES = [
    "repro.tensor",
    "repro.nn",
    "repro.graph",
    "repro.detector",
    "repro.models",
    "repro.sampling",
    "repro.distributed",
    "repro.memory",
    "repro.pipeline",
    "repro.data",
    "repro.guard",
    "repro.serve",
    "repro.metrics",
    "repro.obs",
    "repro.faults",
    "repro.perf",
    "repro.io",
    "repro.store",
    "repro.baselines",
    "repro.cli",
    "repro.cli.flags",
]


def main() -> None:
    print("# API reference\n")
    print(
        "Public surface per subpackage (first docstring line of every "
        "exported name).  Generated from the package `__all__` lists.\n"
    )
    for modname in MODULES:
        mod = importlib.import_module(modname)
        print(f"## `{modname}`\n")
        doc = (mod.__doc__ or "").strip().split("\n")[0]
        if doc:
            print(doc + "\n")
        print("| name | kind | summary |")
        print("|---|---|---|")
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name, None)
            if obj is None:
                continue
            if inspect.ismodule(obj):
                kind, summary = "module", "submodule"
            else:
                summary = (inspect.getdoc(obj) or "").strip().split("\n")[0]
                kind = (
                    "class"
                    if inspect.isclass(obj)
                    else "function"
                    if inspect.isfunction(obj) or inspect.isbuiltin(obj)
                    else "constant"
                )
            print(f"| `{name}` | {kind} | {summary.replace('|', chr(92) + '|')} |")
        print()


if __name__ == "__main__":
    main()
