"""Structural pin: inference has one traversal and no determinism scope.

There is one 2-D product (``@``) and no mode that swaps it: the tensor
layer holds no row-stable kernel and no thread-local state, and the
stage ``*_many`` methods loop over the single-event call instead of
concatenating a batch into one forward — so per-event results cannot
depend on batch composition, and there is nothing for a caller to
forget.  The serving engine walks no stage itself: it imports neither
the track builders nor the tensor layer.
"""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _source_files():
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(root, name), SRC)


def _calls(tree, names):
    return sorted(
        {
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
        }
        & set(names)
    )


def _read(relpath):
    with open(os.path.join(SRC, relpath)) as fh:
        return fh.read()


def _parse(relpath):
    return ast.parse(_read(relpath))


def test_row_stable_scope_is_entered_only_by_the_pipeline():
    """Stronger since the scope was deleted: nothing enters it because it
    does not exist — not even in a docstring — and nothing spells a
    matrix product as an einsum."""
    gone = re.compile(r"""row_stable|\b_mm\b|einsum\(\s*["']ij,jk->ik["']""")
    for path in _source_files():
        assert not gone.search(_read(path)), path
    assert "threading" not in _read(os.path.join("tensor", "ops.py"))


def test_stage_many_methods_loop_over_the_single_event_call():
    """No fused forward: the ``*_many`` bodies never join or split a batch."""
    seen = []
    for path in ("embedding_stage.py", "filter_stage.py", "graph_construction.py"):
        for node in ast.walk(_parse(os.path.join("pipeline", path))):
            if isinstance(node, ast.FunctionDef) and node.name in (
                "embed_many", "prune_many", "build_many"
            ):
                seen.append(node.name)
                assert _calls(node, ["concatenate", "split", "cumsum"]) == [], node.name
    assert sorted(seen) == ["build_many", "embed_many", "prune_many"]


def test_serving_engine_imports_no_stage_internals():
    imported = []
    for node in ast.walk(_parse(os.path.join("serve", "engine.py"))):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert not [m for m in imported if re.search(r"track_building|tensor", m)], imported


def test_engine_store_and_diagnostics_walk_no_stage_themselves():
    stage_calls = ["predict_proba", "build_tracks", "build_tracks_walkthrough"]
    for path in (("serve", "engine.py"), ("store", "writer.py")):
        assert _calls(_parse(os.path.join(*path)), stage_calls) == [], path
    diagnostics = _parse(os.path.join("pipeline", "diagnostics.py"))
    assert _calls(diagnostics, stage_calls + ["build", "prune"]) == []


def test_dispatch_policy_reads_the_queue_through_its_methods():
    """``next_due_time`` / ``_pop_due`` are the one statement of "full
    batch, or oldest deadline expired"; nothing outside ``RequestQueue``
    re-derives it from the raw deque."""
    engine = _parse(os.path.join("serve", "engine.py"))
    outside = [node for node in engine.body if getattr(node, "name", "") != "RequestQueue"]
    touched = [
        sub.lineno
        for node in outside
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "_items"
    ]
    assert touched == []
