"""Structural pin: code paths that must agree to the last bit share one
definition instead of two copies and a parity test.

The ring schedule, its chunk bounds, the float64 staging and the
scale-then-cast epilogue live in ``distributed/ring.py`` and are executed
by the simulator and by the proc workers alike; the LayerNorm arithmetic
is spelled once in ``tensor/ops.py``; bulk ShaDow extraction has one path
and no work estimate choosing between several; the
``sampler.sample_bulk`` span is opened in one place; one batched
solver computes every helix-surface crossing; every per-event loop of
the inference traversal is one order-preserving map, which ``fit``
builds and prunes through too, on the process's one thread pool, which
sampling prefetch shares and serving does not duplicate; one
function draws a noise hit (simulator and scenario mutators alike); one
helper pair writes and reads ``prefix/name`` archive entries; and one
helper cuts edges at a score threshold.
"""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _read(*relpath):
    with open(os.path.join(SRC, *relpath)) as fh:
        return fh.read()


def _count(package, needle):
    """``{file: occurrences}`` over one package's modules, zero counts dropped."""
    counts = {
        name: _read(package, name).count(needle)
        for name in sorted(os.listdir(os.path.join(SRC, package)))
        if name.endswith(".py")
    }
    return {name: n for name, n in counts.items() if n}


def _count_tree(needle):
    """``{path under src/repro: occurrences}`` over every module."""
    paths = [
        os.path.relpath(os.path.join(root, name), SRC)
        for root, _, names in os.walk(SRC)
        for name in names
        if name.endswith(".py")
    ]
    counts = {path: _read(path).count(needle) for path in paths}
    return {path: n for path, n in counts.items() if n}


def test_chunk_bounds_are_computed_in_one_function():
    assert _count("distributed", "linspace") == {"ring.py": 1}
    (owner,) = [
        node.name
        for node in ast.walk(ast.parse(_read("distributed", "ring.py")))
        if isinstance(node, ast.FunctionDef) and "linspace" in ast.unparse(node)
    ]
    assert owner == "chunk_bounds"


def test_proc_backend_holds_no_schedule_of_its_own():
    source = _read("distributed", "proc_backend.py")
    # no chunk arithmetic, no hand-counted barriers: both are read off
    # ring.py's schedule
    assert not re.search(r"% p\b|linspace|2 \* p - 3", source)
    assert "ring_schedule(" in source and "ring_barriers(" in source


def test_backends_share_one_staging_and_epilogue():
    assert _count("distributed", "def staged_allreduce(") == {"ring.py": 1}
    assert _count("distributed", "1.0 / p") == {"ring.py": 1}
    for name in ("comm.py", "proc_backend.py", "algorithms.py"):
        assert "astype(np.float64)" not in _read("distributed", name), name


def test_layer_norm_arithmetic_is_spelled_once():
    source = _read("tensor", "ops.py")
    assert source.count("np.sqrt(var") == 1
    # forward variance + backward projection, and nothing else, reduce rows
    assert source.count('np.einsum("ij,ij->i"') == 2


def test_bulk_extraction_has_one_path_and_no_estimate():
    source = _read("sampling", "bulk.py")
    assert not re.search(r"est_|block-mask|mask2d", source)
    assert source.count("self.DENSE_LOOKUP_MAX") == 1  # the one switch: does the table fit


def test_one_sample_bulk_span():
    assert _count("sampling", '"sampler.sample_bulk"') == {"base.py": 1}
    assert _count("sampling", "def sample_bulk(") == {"base.py": 1}


def test_one_crossing_solver():
    # every surface crossing, batched or one particle, comes from one solve
    assert _count("detector", "def _barrel_crossing") == {}
    assert _count("detector", "def _disk_crossing") == {}
    assert _count("detector", "np.arccos") == {"propagation.py": 1}


def _calls_in(package, module, qualname):
    """Names called inside ``Class.method`` of one module (``f(…)`` and
    ``obj.f(…)`` alike)."""
    cls, method = qualname.split(".")
    tree = ast.parse(_read(package, module))
    (klass,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    (fn,) = [n for n in klass.body if isinstance(n, ast.FunctionDef) and n.name == method]
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_per_event_loops_go_through_one_map():
    for package, module, qualname in [
        ("pipeline", "embedding_stage.py", "EmbeddingStage.embed_many"),
        ("pipeline", "graph_construction.py", "GraphConstructionStage.build_many"),
        ("pipeline", "filter_stage.py", "FilterStage.prune_many"),
        ("pipeline", "pipeline.py", "ExaTrkXPipeline.reconstruct_many"),
        ("serve", "engine.py", "InferenceEngine._process_batch_inner"),
    ]:
        assert "per_event" in _calls_in(package, module, qualname), qualname
    assert _count_tree("def per_event(") == {"_per_event.py": 1}
    # the process's one pool: prefetch samples go through its submit()
    assert _count_tree("ThreadPoolExecutor(") == {"_per_event.py": 1}


def test_fit_builds_and_prunes_through_the_inference_traversal():
    calls = _calls_in("pipeline", "pipeline.py", "ExaTrkXPipeline.fit")
    assert {"construct_many", "prune_many"} <= calls
    assert not {"build", "prune"} & calls


def test_serving_owns_no_pool():
    # the engine's lanes are plain threads running pump(); the one pool
    # is the per-event map's
    assert _count("serve", "ThreadPoolExecutor(") == {}


def test_one_noise_hit_and_one_surface_list():
    assert _count("detector", "def _noise_hit(") == {"events.py": 1}
    assert _count("scenarios", "def _noise_hit(") == {}
    assert _count("scenarios", "rng.uniform(") == {}
    for package in ("detector", "guard", "scenarios"):
        assert _count(package, "barrel) + list(") == {}, package


def test_archive_prefixes_have_one_helper_pair():
    assert _count("io", "def pack_prefixed(") == {"serialization.py": 1}
    assert _count("io", "def unpack_prefixed(") == {"serialization.py": 1}
    for needle in ("/{name}", 'startswith(prefix + "/")', "def _pack", "def _unpack"):
        assert _count("pipeline", needle) == {}, needle


def test_one_edge_cut():
    assert _count("pipeline", "def score_cut(") == {"filter_stage.py": 1}
    assert _count("pipeline", "edge_mask_subgraph(") == {"filter_stage.py": 1}
    for needle in (">= self.config.filter_threshold", ">= self.config.gnn", ">= min_score"):
        assert _count("pipeline", needle) == {}, needle
