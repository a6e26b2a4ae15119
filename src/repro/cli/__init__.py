"""Command-line interface.

Four subcommands mirror the workflows of the paper's evaluation::

    repro simulate  --dataset ex3_like --train 8 --val 2 --test 2 --out data/
    repro train     --dataset ex3_like --mode bulk --epochs 6 --world-size 2
    repro reconstruct --events 8 --gnn-epochs 6
    repro benchmark --dataset ex3_like

``repro train`` exercises the GNN stage alone (Figures 3/4);
``repro reconstruct`` runs the full five-stage pipeline end to end;
``repro serve`` wraps a fitted pipeline in the micro-batching inference
engine and ``repro loadgen`` drives it with an open-loop arrival
schedule.  ``repro store`` manages on-disk event stores, ``repro
scenarios`` runs hostile-workload chaos matrices, and ``repro telemetry``
inspects the traces that ``--trace-out`` / ``--metrics-out`` /
``--metrics-port`` export.  Each group lives in its own module
(:mod:`~repro.cli.data`, :mod:`~repro.cli.train`,
:mod:`~repro.cli.pipeline`, :mod:`~repro.cli.store`,
:mod:`~repro.cli.telemetry`, :mod:`~repro.cli.scenarios`).

Every flag that sets a config-dataclass field is *derived* from that
field (:mod:`repro.cli.flags`): adding a knob means adding one dataclass
field with ``metadata["help"]`` and listing it in its subcommand's
recipe.
"""

from __future__ import annotations

import signal
import sys
from typing import List, Optional

from . import data, pipeline, scenarios, store, telemetry, train
from .flags import Parser

__all__ = ["main", "build_parser"]

_GROUPS = (data, train, pipeline, store, telemetry, scenarios)
_COMMANDS = {name: fn for group in _GROUPS for name, fn in group.COMMANDS.items()}


def _version() -> str:
    """Package version: installed metadata, else the source tree's own."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from .. import __version__

        return __version__


def build_parser() -> Parser:
    parser = Parser(
        prog="repro",
        description="GNN particle-track reconstruction (IPPS 2025 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in _GROUPS:
        group.add_parsers(sub)
    return parser


def _raise_keyboard_interrupt(signum, frame):  # pragma: no cover - trivial
    raise KeyboardInterrupt


def _install_sigterm_handler() -> None:
    """Route SIGTERM through the KeyboardInterrupt cleanup paths.

    ``kill <pid>`` then drains the serving engine / reports the last
    checkpoint exactly like ctrl-C, instead of dying mid-batch.  Only
    possible from the main thread; embedded callers keep their handler.
    """
    try:
        signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:  # not the main thread
        pass


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (console script ``repro``)."""
    args = build_parser().parse_args(argv)
    _install_sigterm_handler()
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # Backstop for commands without their own cleanup: exit with the
        # conventional 128+SIGINT code and no stack trace.
        print("\ninterrupted", file=sys.stderr)
        return 130
