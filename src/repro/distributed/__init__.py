"""Multi-GPU data parallelism: simulated and real multi-process backends.

Ring all-reduce over in-process ranks (``sim``) or one worker process
per rank over shared memory (``proc``), per-parameter vs coalesced
gradient synchronisation (Section III-D), and the α–β cost model that
converts byte/step counts into modeled NVLink communication time.  Both
backends sit behind :class:`CommBackend`; pick one with
:func:`create_communicator`.
"""

from .backend import COMM_BACKENDS, CommBackend, create_communicator
from .costmodel import NVLINK_A100, CommCostModel
from .ring import RingAllReduceStats, ring_allreduce
from .comm import CommStats, SimCommunicator
from .proc_backend import ProcCommunicator
from .supervisor import (
    ControlBlock,
    HeartbeatMonitor,
    Supervisor,
    WorkerHandle,
)
from .coalesce import FlatSpec, flatten_arrays, gradient_arrays, unflatten_array
from .ddp import ALLREDUCE_STRATEGIES, DistributedDataParallel, replicate_model

__all__ = [
    "CommBackend",
    "COMM_BACKENDS",
    "ALLREDUCE_STRATEGIES",
    "create_communicator",
    "CommCostModel",
    "NVLINK_A100",
    "ring_allreduce",
    "RingAllReduceStats",
    "SimCommunicator",
    "ProcCommunicator",
    "ControlBlock",
    "HeartbeatMonitor",
    "Supervisor",
    "WorkerHandle",
    "CommStats",
    "FlatSpec",
    "flatten_arrays",
    "unflatten_array",
    "gradient_arrays",
    "DistributedDataParallel",
    "replicate_model",
]
