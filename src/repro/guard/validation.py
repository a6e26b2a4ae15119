"""Input validation and quarantine: malformed data never crashes a run.

Production tracking ingests events from detectors, DAQ replays, and
simulation — and some of them are garbage: NaN coordinates from a failed
calibration, duplicate hits from a double-read, layer ids outside the
geometry, truth arrays that disagree with each other.  The policy here
is *quarantine, don't crash*: a composable validator classifies each
event (or training graph) against a set of named rules, and the
:class:`Quarantine` filter drops offenders with a structured reason —
``guard.quarantine.*`` counters, a tracer event, and optionally one JSON
line per offender in a quarantine log — while the healthy remainder of
the batch/epoch/stream proceeds untouched.

Rules are plain callables returning ``None`` (pass) or a human-readable
detail string (fail), so deployments can extend the default sets with
site-specific checks without touching this module.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer

__all__ = [
    "ValidationIssue",
    "ValidationRule",
    "EventValidator",
    "GraphValidator",
    "QuarantineLog",
    "Quarantine",
]


@dataclass(frozen=True)
class ValidationIssue:
    """One failed rule: which rule, and what exactly was wrong."""

    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationRule:
    """A named predicate over an event/graph.

    ``check`` returns ``None`` when the input passes, or a detail string
    describing the violation.
    """

    name: str
    check: Callable[[object], Optional[str]]

    def __call__(self, obj: object) -> Optional[ValidationIssue]:
        detail = self.check(obj)
        if detail is None:
            return None
        return ValidationIssue(rule=self.name, detail=detail)


# ----------------------------------------------------------------------
# event rules
# ----------------------------------------------------------------------
def _rule_finite_positions(event) -> Optional[str]:
    pos = np.asarray(event.positions, dtype=np.float64)
    if pos.size and not np.isfinite(pos).all():
        bad = int(np.count_nonzero(~np.isfinite(pos).all(axis=1)))
        return f"{bad} hit(s) with NaN/Inf coordinates"
    return None


def _rule_nonempty(event) -> Optional[str]:
    if event.num_hits == 0:
        return "event has no hits"
    return None


def _rule_consistent_lengths(event) -> Optional[str]:
    n = event.positions.shape[0]
    lengths = {
        "layer_ids": len(event.layer_ids),
        "particle_ids": len(event.particle_ids),
        "hit_order": len(event.hit_order),
    }
    bad = {k: v for k, v in lengths.items() if v != n}
    if bad:
        return f"hit arrays disagree on length (positions={n}, {bad})"
    return None


def _rule_duplicate_hits(event) -> Optional[str]:
    if event.num_hits == 0:
        return None
    if len(event.layer_ids) != event.positions.shape[0]:
        return None  # consistent_lengths reports this; rules stay independent
    # a hit's identity is its (layer, position) record: two identical
    # rows are a double-read, which downstream graph construction would
    # happily wire into zero-length edges
    keys = np.concatenate(
        [
            np.asarray(event.layer_ids, dtype=np.float64).reshape(-1, 1),
            np.asarray(event.positions, dtype=np.float64),
        ],
        axis=1,
    )
    unique = np.unique(keys, axis=0)
    dupes = keys.shape[0] - unique.shape[0]
    if dupes > 0:
        return f"{dupes} duplicate hit record(s) (identical layer + position)"
    return None


def _rule_layer_range(valid_layers: Optional[frozenset]):
    def check(event) -> Optional[str]:
        layers = np.asarray(event.layer_ids)
        if layers.size == 0:
            return None
        if np.any(layers < 0):
            return f"{int(np.count_nonzero(layers < 0))} hit(s) with negative layer id"
        if valid_layers is not None:
            known = np.isin(layers, list(valid_layers))
            if not known.all():
                unknown = sorted(set(np.asarray(layers)[~known].tolist()))[:5]
                return f"layer id(s) outside the geometry: {unknown}"
        return None

    return check


def _rule_truth_consistency(event) -> Optional[str]:
    pid = np.asarray(event.particle_ids)
    order = np.asarray(event.hit_order)
    if pid.size == 0:
        return None
    if pid.size != order.size:
        return f"particle_ids ({pid.size}) vs hit_order ({order.size}) length mismatch"
    true_mask = pid > 0
    if np.any(order[true_mask] < 0):
        n = int(np.count_nonzero(order[true_mask] < 0))
        return f"{n} truth hit(s) with negative hit_order"
    if np.any(order[~true_mask] >= 0):
        n = int(np.count_nonzero(order[~true_mask] >= 0))
        return f"{n} noise hit(s) carrying a truth hit_order"
    if np.any(true_mask):
        pairs = np.stack([pid[true_mask], order[true_mask]], axis=1)
        if np.unique(pairs, axis=0).shape[0] != pairs.shape[0]:
            return "duplicate (particle, hit_order) pairs — ambiguous truth segments"
    return None


# ----------------------------------------------------------------------
# graph rules (train_gnn ingestion)
# ----------------------------------------------------------------------
def _rule_graph_nonempty(graph) -> Optional[str]:
    if graph.num_nodes == 0:
        return "graph has no nodes"
    return None


def _rule_graph_finite_features(graph) -> Optional[str]:
    for label, arr in (("node", graph.x), ("edge", graph.y)):
        if arr is not None and arr.size and not np.isfinite(arr).all():
            return f"NaN/Inf in {label} features"
    return None


def _rule_graph_edge_range(graph) -> Optional[str]:
    if graph.num_edges == 0:
        return None
    lo = int(graph.edge_index.min())
    hi = int(graph.edge_index.max())
    if lo < 0 or hi >= graph.num_nodes:
        return (
            f"edge endpoints outside [0, {graph.num_nodes}) "
            f"(observed [{lo}, {hi}])"
        )
    return None


def _rule_graph_labels(graph) -> Optional[str]:
    if graph.edge_labels is None:
        return "graph carries no edge labels"
    if len(graph.edge_labels) != graph.num_edges:
        return (
            f"edge_labels length {len(graph.edge_labels)} != "
            f"num_edges {graph.num_edges}"
        )
    return None


class _Validator:
    """Shared engine: run every rule, collect the issues."""

    def __init__(self, rules: Sequence[ValidationRule]) -> None:
        if not rules:
            raise ValueError("validator needs at least one rule")
        self.rules: Tuple[ValidationRule, ...] = tuple(rules)

    @property
    def rule_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in self.rules)

    def validate(self, obj) -> List[ValidationIssue]:
        """All violated rules for ``obj`` (empty list = valid)."""
        issues = []
        for rule in self.rules:
            issue = rule(obj)
            if issue is not None:
                issues.append(issue)
        return issues

    def is_valid(self, obj) -> bool:
        return not self.validate(obj)

    def with_rule(self, rule: ValidationRule) -> "_Validator":
        """A new validator with ``rule`` appended (composability)."""
        out = type(self).__new__(type(self))
        _Validator.__init__(out, self.rules + (rule,))
        return out


class EventValidator(_Validator):
    """Default rule set over :class:`repro.detector.Event` inputs.

    Parameters
    ----------
    valid_layers:
        Known layer ids from the detector geometry; ``None`` only checks
        for negative ids.
    min_hits:
        Events with fewer hits are degenerate (a graph built from them
        can never yield a reconstructable track).
    extra_rules:
        Site-specific rules appended after the defaults.
    """

    def __init__(
        self,
        valid_layers: Optional[Sequence[int]] = None,
        min_hits: int = 1,
        extra_rules: Sequence[ValidationRule] = (),
    ) -> None:
        if min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        layers = frozenset(int(l) for l in valid_layers) if valid_layers is not None else None

        def rule_min_hits(event) -> Optional[str]:
            if event.num_hits < min_hits:
                return f"only {event.num_hits} hit(s); need >= {min_hits}"
            return None

        rules = [
            ValidationRule("consistent_lengths", _rule_consistent_lengths),
            ValidationRule("nonempty", _rule_nonempty),
            ValidationRule("min_hits", rule_min_hits),
            ValidationRule("finite_positions", _rule_finite_positions),
            ValidationRule("duplicate_hits", _rule_duplicate_hits),
            ValidationRule("layer_range", _rule_layer_range(layers)),
            ValidationRule("truth_consistency", _rule_truth_consistency),
        ]
        rules.extend(extra_rules)
        super().__init__(rules)

    @classmethod
    def for_geometry(cls, geometry, min_hits: int = 1) -> "EventValidator":
        """Validator whose layer-range rule knows the geometry's layers."""
        layer_ids = [s.layer_id for s in geometry.surfaces]
        return cls(valid_layers=layer_ids, min_hits=min_hits)

    @classmethod
    def critical(cls) -> "EventValidator":
        """The minimal always-on rule set: inputs that would *poison a
        stage* rather than merely reconstruct badly.

        NaN/Inf coordinates propagate through the embedding MLP into
        every downstream score, and mismatched hit-array lengths crash
        graph construction outright — so these two rules run on the
        serve path even when full ``validate_inputs`` is off.  Everything
        else (duplicate hits, layer range, truth consistency) degrades
        physics but cannot corrupt the process, and stays opt-in.
        """
        out = cls.__new__(cls)
        _Validator.__init__(
            out,
            [
                ValidationRule("consistent_lengths", _rule_consistent_lengths),
                ValidationRule("finite_positions", _rule_finite_positions),
            ],
        )
        return out


class GraphValidator(_Validator):
    """Default rule set over :class:`repro.graph.EventGraph` training inputs."""

    def __init__(
        self,
        require_labels: bool = True,
        extra_rules: Sequence[ValidationRule] = (),
    ) -> None:
        rules = [
            ValidationRule("nonempty", _rule_graph_nonempty),
            ValidationRule("finite_features", _rule_graph_finite_features),
            ValidationRule("edge_range", _rule_graph_edge_range),
        ]
        if require_labels:
            rules.append(ValidationRule("labels", _rule_graph_labels))
        rules.extend(extra_rules)
        super().__init__(rules)


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------
class QuarantineLog:
    """Append-only JSONL log of quarantined inputs (thread-safe).

    One line per offender::

        {"context": "serve.submit", "kind": "event", "id": 42,
         "rules": ["finite_positions"],
         "issues": [{"rule": "finite_positions", "detail": "..."}]}

    Parameters
    ----------
    path:
        JSONL destination (created on first record).
    max_bytes:
        Size-capped rotation: when appending a record would push the
        active file past this many bytes, it is rotated to
        ``path.1`` (existing ``path.N`` shift to ``path.N+1``) and a
        fresh file is started.  ``None`` (default) grows unbounded —
        fine for tests, not for a sustained hostile feed.
    keep_files:
        Rotated generations retained (``path.1`` … ``path.keep_files``);
        older ones are deleted.  Ignored when ``max_bytes`` is ``None``.
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        keep_files: int = 3,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if keep_files < 1:
            raise ValueError("keep_files must be >= 1")
        self.path = path
        self.max_bytes = max_bytes
        self.keep_files = keep_files
        self.rotations = 0
        self._lock = threading.Lock()

    def record(self, context: str, kind: str, obj_id, issues: Sequence[ValidationIssue]) -> None:
        line = json.dumps(
            {
                "context": context,
                "kind": kind,
                "id": obj_id,
                "rules": [i.rule for i in issues],
                "issues": [{"rule": i.rule, "detail": i.detail} for i in issues],
            }
        )
        data = line + "\n"
        with self._lock:
            if self.max_bytes is not None:
                self._maybe_rotate(len(data.encode("utf-8")))
            with open(self.path, "a") as fh:
                fh.write(data)

    def _maybe_rotate(self, incoming_bytes: int) -> None:
        """Rotate ``path`` → ``path.1`` → … when the cap would be crossed.

        Called under ``_lock``.  A single record larger than the cap
        still lands in a fresh file — records are never dropped or
        split, so the cap is a rotation trigger, not a hard truncation.
        """
        try:
            current = os.path.getsize(self.path)
        except OSError:
            return  # nothing written yet
        if current == 0 or current + incoming_bytes <= self.max_bytes:
            return
        oldest = f"{self.path}.{self.keep_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for gen in range(self.keep_files - 1, 0, -1):
            src = f"{self.path}.{gen}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{gen + 1}")
        os.replace(self.path, f"{self.path}.1")
        self.rotations += 1


@dataclass
class Quarantine:
    """Validator + accounting: filter a stream, never crash on bad input.

    Parameters
    ----------
    validator:
        An :class:`EventValidator` / :class:`GraphValidator` (anything
        with ``validate``).
    context:
        Where in the stack this quarantine sits (``"pipeline.fit"``,
        ``"train_gnn"``, ``"serve.submit"``) — becomes the counter suffix
        and the log's ``context`` field.
    log:
        Optional :class:`QuarantineLog` receiving one JSONL line per
        quarantined input.
    kind:
        ``"event"`` or ``"graph"`` (log/telemetry labelling only).
    """

    validator: _Validator
    context: str = "guard"
    log: Optional[QuarantineLog] = None
    kind: str = "event"
    quarantined: int = 0
    passed: int = 0
    reasons: List[Tuple[object, List[ValidationIssue]]] = field(default_factory=list)

    def admit(self, obj, obj_id=None) -> bool:
        """True if ``obj`` passes; False (and record it) if quarantined."""
        issues = self.validator.validate(obj)
        if not issues:
            self.passed += 1
            return True
        self.quarantined += 1
        if obj_id is None:
            obj_id = getattr(obj, "event_id", None)
        self.reasons.append((obj_id, issues))
        metrics = get_metrics()
        metrics.counter("guard.quarantine.total").add(1)
        metrics.counter(f"guard.quarantine.{self.context}").add(1)
        for issue in issues:
            metrics.counter(f"guard.quarantine.rule.{issue.rule}").add(1)
        get_tracer().event(
            "guard.quarantine",
            category="guard",
            context=self.context,
            kind=self.kind,
            id=obj_id,
            rules=",".join(i.rule for i in issues),
        )
        if self.log is not None:
            self.log.record(self.context, self.kind, obj_id, issues)
        return False

    def filter(self, objects: Sequence) -> List:
        """The admitted subset of ``objects``, in order."""
        return [obj for obj in objects if self.admit(obj)]
