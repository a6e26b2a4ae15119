"""The modules no CLI path reaches are exactly the listed ones.

The walk reads ``import`` statements in the AST and imports nothing.  It
starts at every module of ``repro/cli/`` and follows each import to the
module that defines the imported name: ``from ..tensor import Tensor``
reaches ``repro/tensor/tensor.py`` through the package's re-export, but
reaching a package does not reach everything its ``__init__``
re-exports.  Whatever stays unreached must be in
``tests/data/orphans.json`` with a reason, and everything listed there
must still be unreached: deleting an orphan updates the list, and a new
module that no CLI path imports fails here.

No CLI path imports the examples, scripts or benches either, so a second
test reads their ``from repro... import name`` statements and checks that
each name still resolves.  It imports the ``repro`` module named, never
the file that names it, so deleting an export an example uses fails here
rather than in the next run of that example.  A third reads their config
calls (``PipelineConfig(...)`` and the other CLI-backing dataclasses):
every keyword must name a field, and the constant-valued keywords must
construct a config that validates, so retiring a field or a choice fails
here and not in a run of the bench that still passes it.
"""

import ast
import dataclasses
import importlib
import json
from pathlib import Path

from repro.pipeline import GNNTrainConfig, PipelineConfig
from repro.serve import LoadGenConfig, ServeConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ORPHANS = Path(__file__).with_name("data") / "orphans.json"


def _modules():
    """``{dotted name: (AST, is package)}`` for every module of ``repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = parts[-1] == "__init__"
        out[".".join(parts[:-1] if package else parts)] = (ast.parse(path.read_text()), package)
    return out


MODULES = _modules()


def _source(node: ast.ImportFrom, module: str) -> str:
    """The absolute name of the module a ``from ... import`` reads."""
    if not node.level:
        return node.module
    package = module if MODULES[module][1] else module.rpartition(".")[0]
    base = package.split(".")[: len(package.split(".")) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _target(source: str, name: str) -> str:
    """The module ``from source import name`` reaches."""
    if f"{source}.{name}" in MODULES:
        return f"{source}.{name}"
    tree, package = MODULES[source]
    if package:  # read the name through the package's re-export
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _target(_source(node, source), alias.name)
    return source


def _imports(module: str):
    for node in ast.walk(MODULES[module][0]):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module)
            if source in MODULES:
                yield from (_target(source, a.name) for a in node.names)


def unreachable():
    """Non-package modules no import path from ``repro.cli`` reaches."""
    todo = [m for m in MODULES if m == "repro.cli" or m.startswith("repro.cli.")]
    seen = set()
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            if module == "repro.cli" or not MODULES[module][1]:
                todo.extend(_imports(module))
    return sorted(m for m in MODULES if m not in seen and not MODULES[m][1])


def test_unreached_modules_are_the_listed_orphans():
    listed = json.loads(ORPHANS.read_text())
    assert unreachable() == sorted(listed)
    assert all(reason.strip() for reason in listed.values())


def _scripts():
    """``(path, AST)`` of the examples, scripts and benches."""
    files = [*ROOT.glob("examples/*.py"), *ROOT.glob("scripts/*.py"),
             *ROOT.glob("benchmarks/**/*.py")]
    return [(path, ast.parse(path.read_text())) for path in sorted(files)]


def _repro_imports():
    """``(file, module, name)`` for every ``from repro... import name`` in
    the examples, scripts and benches, read from the AST."""
    for path, tree in _scripts():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                for alias in node.names:
                    yield path.relative_to(ROOT), node.module, alias.name


def test_names_the_examples_scripts_and_benches_import_exist():
    imports = list(_repro_imports())
    assert imports
    missing = [f"{path}: from {module} import {name}" for path, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_config_calls_in_the_examples_scripts_and_benches_validate():
    configs = {cls.__name__: cls
               for cls in (GNNTrainConfig, PipelineConfig, ServeConfig, LoadGenConfig)}
    calls, bad = 0, []
    for path, tree in _scripts():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            cls = configs.get(getattr(node.func, "id", getattr(node.func, "attr", None)))
            if cls is None:
                continue
            calls += 1
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            fields = {f.name for f in dataclasses.fields(cls)}
            constants = {}
            for kw in node.keywords:
                if kw.arg is None:  # a **mapping: its keys are not in the AST
                    continue
                if kw.arg not in fields:
                    bad.append(f"{where}: {cls.__name__} has no field {kw.arg!r}")
                    continue
                try:
                    constants[kw.arg] = ast.literal_eval(kw.value)
                except ValueError:  # not a constant: only its name is checked
                    pass
            try:
                cls(**constants)
            except (TypeError, ValueError) as exc:
                bad.append(f"{where}: {exc}")
    assert calls
    assert not bad
