"""Structural pin: a collective has one envelope and two transports.

``distributed/backend.py`` is the only file that opens a
``comm.<collective>`` span or writes the α–β / byte / call counters of
``CommStats``; the DDP layer and the trainer talk to the communicator
through ``CommBackend`` attributes, never by duck-typing; and the proc
worker's op table is exactly what its driver sends.
"""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
ENVELOPE = os.path.join("distributed", "backend.py")


def _read(relpath):
    with open(os.path.join(SRC, relpath)) as fh:
        return fh.read()


def _source_files():
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(root, name), SRC)


def _opens_collective_span(source):
    """Any ``.span("comm.allreduce|broadcast|barrier", ...)`` call, the
    name spelled out or built as ``f"comm.{...}"``."""
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and node.args
        ):
            continue
        name = node.args[0]
        if isinstance(name, ast.JoinedStr):
            if isinstance(name.values[0], ast.Constant) and name.values[0].value == "comm.":
                return True
        elif isinstance(name, ast.Constant) and re.fullmatch(
            r"comm\.(allreduce|broadcast|barrier)", str(name.value)
        ):
            return True
    return False


def test_only_the_envelope_opens_collective_spans_and_charges_stats():
    charge = re.compile(
        r"stats\.(num_\w+_calls|bytes_reduced|bytes_broadcast|modeled_seconds"
        r"|measured_seconds)\s*[-+*/]?=[^=]"
    )
    hits = {
        path
        for path in _source_files()
        for source in [_read(path)]
        if _opens_collective_span(source) or charge.search(source)
    }
    assert hits == {ENVELOPE}
    # both patterns do bite where the envelope lives
    envelope = _read(ENVELOPE)
    assert _opens_collective_span(envelope) and charge.search(envelope)


def test_backends_define_no_collective_of_their_own():
    from repro.distributed import CommBackend, ProcCommunicator, SimCommunicator

    envelope = ("allreduce", "broadcast", "barrier", "remove_rank", "world_size")
    for backend in (SimCommunicator, ProcCommunicator):
        assert [name for name in envelope if name in vars(backend)] == []
    assert [name for name in envelope if name not in vars(CommBackend)] == []


def test_ddp_and_trainer_do_not_duck_type_the_communicator():
    for path in (("distributed", "ddp.py"), ("pipeline", "trainers.py")):
        assert not re.search(r"getattr\(\s*(self\.)?comm\b", _read(os.path.join(*path))), path


def test_worker_op_table_is_what_the_driver_sends():
    from repro.distributed.proc_backend import _WORKER_OPS

    sent = {
        node.args[0].value
        for node in ast.walk(ast.parse(_read(os.path.join("distributed", "proc_backend.py"))))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_roundtrip"
    }
    assert sent == set(_WORKER_OPS) == {"allreduce", "broadcast", "barrier"}
