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
    from root, number of tensors reachable, leaves included)``."""

    def walk(root):
        seen, stack, names = set(), [root], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
            if not node.is_leaf:
                names.append(node._op)
        return sorted(names), len(seen)

    return walk


@pytest.fixture(scope="session")
def forced_helpers():
    """``forced_helpers(n)``: a context in which the per-event map has
    ``n`` helper threads (a fresh pool, shut down on exit) whatever the
    core count — a test hook on a private constant, not a knob."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.pipeline import _per_event

    @contextlib.contextmanager
    def force(n=3):
        pool = ThreadPoolExecutor(max(n, 1), "repro-event")
        with mock.patch.object(_per_event, "_HELPERS", n), mock.patch.object(
            _per_event, "_pool", pool
        ):
            try:
                yield
            finally:
                pool.shutdown()

    return force
