"""Structural pin: one GNN, one step.

``repro.models`` holds one inference helper and one sigmoid, and calls
``backward`` nowhere (a checkpointed step is the caller's
``loss_fn(model(..., recompute=True), labels).backward()``; the
recompute-and-differentiate sweep lives in
``repro.tensor.ops.checkpoint``); one class defines the IGNN traversal;
and the rank-local step takes plain data, so the driver in
``pipeline/trainers.py`` is the only caller of the fault schedule and
the watchdog.
"""

import ast
import inspect
import os
import textwrap

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _sources(package):
    root = os.path.join(SRC, package)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                yield name, fh.read()


def _count(package, needle):
    return {
        name: source.count(needle)
        for name, source in _sources(package)
        if needle in source
    }


def test_models_have_one_predict_proba_and_one_sigmoid():
    assert _count("models", "def predict_proba") == {"edge_classifier.py": 1}
    assert _count("models", "np.exp(-np.clip(") == {"edge_classifier.py": 1}


def test_models_call_backward_once_and_sweep_nowhere():
    assert _count("models", ".backward(") == {}
    # the recomputation is the autograd op's business, not a model's
    assert _count("models", "no_grad") == {}
    assert _count("tensor", "def checkpoint(") == {"ops.py": 1}


def test_one_class_defines_the_ignn_forward():
    import importlib
    import pkgutil

    import repro.models
    from repro.models import InteractionGNN

    # no module of the package subclasses it: one IGNN, one traversal
    ignns = {
        cls
        for info in pkgutil.iter_modules(repro.models.__path__)
        for cls in vars(importlib.import_module(f"repro.models.{info.name}")).values()
        if isinstance(cls, type) and issubclass(cls, InteractionGNN)
    }
    assert ignns == {InteractionGNN}


def test_rank_step_takes_plain_data():
    from repro.pipeline.trainers import _Rank

    assert list(inspect.signature(_Rank.step).parameters) == [
        "self", "graph", "loss_fn", "recompute", "fault", "parts",
    ]
    tree = ast.parse(textwrap.dedent(inspect.getsource(_Rank.step)))
    # no fork on recompute: the flag is only ever passed on to the model
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.If, ast.IfExp))
        and "recompute" in {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
    ]
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert names.isdisjoint({"watchdog", "fault_plan"})


def test_edge_classifiers_have_one_input_boundary(monkeypatch):
    """Training (``_Rank.step``) and inference (``predict_proba``) both go
    through ``EdgeClassifier.logits``: dtype cast, wrap, ``rows`` / ``cols``
    — and ``forward`` is looked up at call time with ``recompute`` passed on."""
    import numpy as np

    from repro.graph import random_graph
    from repro.models import IGNNConfig, InteractionGNN

    assert _count("models", "graph.x.astype(") == {"edge_classifier.py": 1}
    assert _count("pipeline", ".astype(dt,") == {}
    assert _count("pipeline", ".logits(graph") == {"trainers.py": 1}

    g = random_graph(12, 30, rng=np.random.default_rng(0))
    model = InteractionGNN(
        IGNNConfig(node_features=g.x.shape[1], edge_features=g.y.shape[1],
                   hidden=8, num_layers=2)
    ).astype(np.float64)
    seen = []
    original = InteractionGNN.forward

    def forward(self, x, y, rows, cols, recompute=False):
        seen.append((x.dtype, y.dtype, recompute))
        return original(self, x, y, rows, cols, recompute=recompute)

    monkeypatch.setattr(InteractionGNN, "forward", forward)
    direct = model.logits(g, recompute=True)
    probs = model.predict_proba(g)
    assert seen == [(np.float64, np.float64, True), (np.float64, np.float64, False)]
    assert g.x.dtype == np.float32 and probs.dtype == np.float64
    assert np.array_equal(probs, 1.0 / (1.0 + np.exp(-np.clip(direct.numpy(), -60, 60))))


def test_only_the_driver_talks_to_the_fault_plan_and_the_watchdog():
    for call in ("numeric_fault_target(", "observe_loss(", "observe_grad_norm("):
        assert _count("pipeline", call) == {"trainers.py": 1}, call
