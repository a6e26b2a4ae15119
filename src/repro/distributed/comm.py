"""Simulated communicator: the NCCL stand-in.

:class:`SimCommunicator` owns ``P`` logical ranks in one process and
provides the collectives DDP needs.  Every call runs the genuine ring
all-reduce (:mod:`repro.distributed.ring`) and charges the α–β cost model,
accumulating both *call counts* and *modeled communication time* — the
quantities the coalesced-all-reduce experiment reports.  The collectives
themselves (span, fault hook, accounting) are
:class:`~repro.distributed.backend.CommBackend`'s; this module supplies
the in-process data movement.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .backend import CommBackend, CommStats
from .costmodel import CommCostModel, NVLINK_A100
from .ring import ring_allreduce

__all__ = ["CommStats", "SimCommunicator"]


class SimCommunicator(CommBackend):
    """In-process ``P``-rank communicator with cost accounting.

    Parameters
    ----------
    world_size:
        Number of simulated ranks (GPUs).
    cost_model:
        α–β model used to charge modeled time per collective.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; when set, every
        collective first consults the plan, which may raise
        :class:`repro.faults.CommError` at its scheduled attempt.

    The communicator is *elastic*: :meth:`remove_rank` evicts a
    permanently failed rank, shrinking the world the collectives (and
    the α–β model) operate over while keeping the original global rank
    ids visible through :attr:`ranks`.
    """

    def __init__(
        self,
        world_size: int,
        cost_model: CommCostModel = NVLINK_A100,
        fault_plan=None,
    ) -> None:
        if fault_plan is not None and getattr(fault_plan, "process_faults", []):
            raise ValueError(
                "ProcessFault chaos requires the 'proc' backend; on the sim "
                "backend express the same failure as a CommFault (a SIGKILL "
                "at attempt N replays as a permanent CommFault(at_call=N))"
            )
        super().__init__(world_size, cost_model, fault_plan)

    def _run_allreduce(
        self, buffers: Sequence[np.ndarray], average: bool
    ) -> List[np.ndarray]:
        return ring_allreduce(buffers, average=average)

    def _run_broadcast(self, buffer: np.ndarray) -> List[np.ndarray]:
        return [buffer.copy() for _ in range(self.world_size)]

    def _run_barrier(self) -> None:
        """Nothing moves in the in-process simulation; the barrier is
        still faultable and charged by the envelope."""
