"""Config-backed flags: one definition per knob.

A subcommand owns a :class:`Recipe` — an instance of a config dataclass
holding that subcommand's defaults, plus the names of the fields it
exposes.  :func:`add_config_flags` derives each flag's name, type,
choices, default and help from ``dataclasses.fields()`` of that
instance; :func:`build_config` turns parsed arguments back into the
dataclass as ``replace(recipe, **config_file, **typed_flags)``.

Derived flags are registered with ``default=argparse.SUPPRESS``, so the
parser can tell a flag the user typed from one left alone — even when
the typed value equals the default.  :class:`Parser` records the typed
ones in ``args.typed`` and fills the rest from the recipe, so ``args``
reads exactly as if the defaults had been ordinary ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import typing
from typing import Callable, NamedTuple, Optional, Tuple

__all__ = ["Parser", "Recipe", "add_config_flags", "build_config"]


class Alias(NamedTuple):
    """How a flag departs from ``--<field-name>`` in the field's own units."""

    option: Optional[str] = None
    scale: Optional[float] = None  # field value = flag value * scale


#: The only hand-kept flag table: fields whose flag is not simply their name.
ALIASES = {
    "num_layers": Alias("--layers"),
    "resume_from": Alias("--resume"),
    "max_batch_events": Alias("--max-batch"),
    "max_queue_events": Alias("--max-queue"),
    "num_requests": Alias("--requests"),
    "sim_service_time_s": Alias("--service-time-ms", scale=1e-3),
}


#: Resolved annotations per config class (each lookup evaluates every
#: annotation of the class; a parser asks once per flag).
_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


class Recipe(NamedTuple):
    """A subcommand's defaults and the fields it exposes as flags."""

    config: object  # config dataclass instance
    flags: Tuple[str, ...]
    prefix: str = ""  # e.g. "gnn-" for a nested config's flags


class _Flag(NamedTuple):
    option: str
    kwargs: dict  # add_argument keywords
    default: object  # what the untyped flag resolves to, in flag units
    to_field: Callable  # typed flag value -> field value

    @property
    def dest(self) -> str:
        return self.option[2:].replace("-", "_")


def _flag(recipe: Recipe, name: str) -> _Flag:
    field = type(recipe.config).__dataclass_fields__[name]
    value = getattr(recipe.config, name)
    alias = ALIASES.get(name, Alias())
    help = field.metadata["help"]
    hint = _type_hints(type(recipe.config))[name]
    # Optional[int] -> int
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    option = alias.option or "--" + recipe.prefix + name.replace("_", "-")
    if kind is bool:
        # a switch flips the recipe's value: --watchdog, --no-fused-kernels
        if value:
            option, help = "--no-" + option[2:], "turn off: " + help
        return _Flag(
            option, dict(action="store_true", help=help), False, lambda _: not value
        )
    default, to_field = value, lambda typed: typed
    if alias.scale is not None:
        default = None if value is None else value / alias.scale
        to_field = lambda typed: alias.scale * typed  # noqa: E731
    if default is not None:
        help += f" (default: {default})"
    kwargs = dict(help=help, choices=field.metadata.get("choices"))
    if kind is not str:
        kwargs.update(type=kind, metavar="N" if kind is int else "X")
    return _Flag(option, kwargs, default, to_field)


class Parser(argparse.ArgumentParser):
    """``ArgumentParser`` that resolves config-backed flags after parsing.

    ``args.typed`` holds the dests of the derived flags present on the
    command line; every other derived dest is set to its recipe default.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recipe_defaults = {}  # dest -> resolved default

    def get_default(self, dest):
        if dest in self.recipe_defaults:
            return self.recipe_defaults[dest]
        return super().get_default(dest)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if self.recipe_defaults:  # a leaf with derived flags
            namespace.typed = frozenset(
                dest for dest in self.recipe_defaults if hasattr(namespace, dest)
            )
            for dest, default in self.recipe_defaults.items():
                if dest not in namespace.typed:
                    setattr(namespace, dest, default)
        return namespace, extras


def add_config_flags(parser: Parser, recipe: Recipe) -> None:
    """Register one flag per exposed field of ``recipe`` on ``parser``."""
    for name in recipe.flags:
        flag = _flag(recipe, name)
        parser.add_argument(flag.option, default=argparse.SUPPRESS, **flag.kwargs)
        parser.recipe_defaults[flag.dest] = flag.default


def build_config(args, recipe: Recipe, from_file: Optional[dict] = None, **forced):
    """``replace(recipe, **from_file, **typed flags, **forced)``.

    A flag the user typed always beats ``from_file``; a flag left alone
    never does.
    """
    typed = {}
    for name in recipe.flags:
        flag = _flag(recipe, name)
        if flag.dest in args.typed:
            typed[name] = flag.to_field(getattr(args, flag.dest))
    return dataclasses.replace(
        recipe.config, **{**(from_file or {}), **typed, **forced}
    )
