"""Optimisers: SGD (with momentum) and Adam/AdamW.

The acorn GNN stage trains with Adam; SGD is kept for the convergence
baselines and for tests that need a one-step closed-form update.  Both
optimisers operate on the ``(name, Parameter)`` pairs of a Module so that
DDP can synchronise gradients *before* ``step()`` is invoked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # serialisation — required by the resumable-training checkpoints: the
    # slot arrays are keyed by *parameter index* (the deterministic
    # ``named_parameters`` order every DDP rank shares), never by ``id()``.
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat arrays capturing the full optimiser state."""
        return {"lr": np.asarray(self.lr, dtype=np.float64)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        if "lr" in state:
            self.lr = float(np.asarray(state["lr"]))

    def _slots_to_state(
        self, label: str, slots: Dict[int, np.ndarray], out: Dict[str, np.ndarray]
    ) -> None:
        for i, p in enumerate(self.params):
            arr = slots.get(id(p))
            if arr is not None:
                out[f"{label}{i}"] = arr.copy()

    def _slots_from_state(
        self, label: str, state: Dict[str, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        slots: Dict[int, np.ndarray] = {}
        for i, p in enumerate(self.params):
            key = f"{label}{i}"
            if key in state:
                arr = np.asarray(state[key])
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"optimizer slot {key!r} shape {arr.shape} does not "
                        f"match parameter shape {p.data.shape}"
                    )
                slots[id(p)] = arr.copy()
        return slots


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one SGD update; parameters with no gradient are skipped."""
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                v = self.momentum * v + g
                self._velocity[id(p)] = v
                g = v
            p.data -= self.lr * g

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        self._slots_to_state("velocity", self._velocity, state)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._velocity = self._slots_from_state("velocity", state)


class Adam(Optimizer):
    """Adam / AdamW optimiser.

    Parameters
    ----------
    decoupled_weight_decay:
        If True applies AdamW-style decay (decay added to the update, not
        the gradient).
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = False,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled_weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update; parameters with no gradient are skipped."""
        self._t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = self._m[id(p)] = np.zeros_like(p.data)
                v = self._v[id(p)] = np.zeros_like(p.data)
            # in place: state_dict / load_state_dict copy the moments
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Adam moments + step count, keyed by parameter index."""
        state = super().state_dict()
        state["t"] = np.asarray(self._t, dtype=np.int64)
        self._slots_to_state("m", self._m, state)
        self._slots_to_state("v", self._v, state)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore moments and step count; resumed updates are bit-equal."""
        super().load_state_dict(state)
        self._t = int(np.asarray(state.get("t", 0)))
        self._m = self._slots_from_state("m", state)
        self._v = self._slots_from_state("v", state)
