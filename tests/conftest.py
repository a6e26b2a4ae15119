"""Shared fixtures for the test-suite."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.detector import (
    DetectorGeometry,
    EventSimulator,
    ParticleGun,
    dataset_config,
    make_dataset,
)
from repro.graph import disjoint_chains, random_graph
from repro.tensor import Tensor


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def geometry():
    return DetectorGeometry.barrel_only()


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small labelled dataset (generated once per session)."""
    return make_dataset(dataset_config("tiny"))


@pytest.fixture(scope="session")
def small_events(geometry):
    """A handful of simulated events for pipeline tests."""
    sim = EventSimulator(
        geometry,
        gun=ParticleGun(),
        particles_per_event=15,
        noise_fraction=0.05,
    )
    return [sim.generate(np.random.default_rng(500 + i), event_id=i) for i in range(6)]


@pytest.fixture
def medium_graph():
    """Random graph big enough for sampler tests."""
    return random_graph(400, 1600, rng=np.random.default_rng(7), true_fraction=0.3)


@pytest.fixture
def chains_graph():
    """Idealised event: 10 disjoint 8-hit tracks."""
    return disjoint_chains(10, 8, rng=np.random.default_rng(3))


@pytest.fixture(scope="session")
def tape_ops():
    """``tape_ops(root) -> (sorted op names of the tape nodes reachable
    from root, number of tensors reachable, leaves included, bytes of the
    floating-point buffers they keep alive)``.

    The bytes walk each tensor's data and every array its backward
    closure captures (through nested closures, tuples and lists), and
    count each underlying buffer once, however many views reach it:
    activations, saved statistics and parameters.  Index arrays are the
    graph's, not the tape's, and are not counted."""

    def walk(root):
        seen, stack, names = {}, [root], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen[id(node)] = node
            stack.extend(node._parents)
            if not node.is_leaf:
                names.append(node._op)
        return sorted(names), len(seen), buffer_bytes(seen.values())

    def buffer_bytes(tensors):
        seen, buffers = set(), {}
        stack = [t.data for t in tensors] + [t._backward for t in tensors]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                if np.issubdtype(obj.dtype, np.floating):
                    buffers[id(obj)] = obj.nbytes
            elif isinstance(obj, Tensor):
                stack.append(obj.data)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif callable(obj):
                for cell in getattr(obj, "__closure__", None) or ():
                    try:
                        stack.append(cell.cell_contents)
                    except ValueError:  # a name bound later, or never
                        pass
        return sum(buffers.values())

    return walk


@pytest.fixture(scope="session")
def forced_helpers():
    """``forced_helpers(n)``: a context in which the per-event map has
    ``n`` helper threads (a fresh pool, shut down on exit) whatever the
    core count — a test hook on a private constant, not a knob."""
    from repro import _per_event

    @contextlib.contextmanager
    def force(n=3):
        with mock.patch.object(_per_event, "_HELPERS", n), mock.patch.object(
            _per_event, "_pool"
        ):
            _per_event._new_pool()
            try:
                yield
            finally:
                _per_event._pool.shutdown()

    return force


@pytest.fixture
def prefetch_samples(monkeypatch):
    """The futures of every prefetch sample submitted to the shared pool
    during the test, in order; a sample is queued or running exactly while
    its future is not done."""
    from repro.data import prefetch

    futures = []
    submit = prefetch.submit

    def recorded(fn, *args):
        futures.append(submit(fn, *args))
        return futures[-1]

    monkeypatch.setattr(prefetch, "submit", recorded)
    return futures
