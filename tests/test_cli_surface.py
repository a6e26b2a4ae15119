"""Flag-surface snapshot: the operator surface is pinned, both directions.

``tests/data/cli_surface.json`` was dumped from the hand-written parser
of the commit *before* the CLI was derived from the config dataclasses
(``python tests/test_cli_surface.py > tests/data/cli_surface.json``).
The derived parser must reproduce it exactly — no flag lost, none added,
same types, choices and resolved defaults — and the dataclasses behind
it must keep their fields, defaults and order.
"""

import argparse
import dataclasses
import json
import os

import pytest

from repro.cli import build_parser
from repro.pipeline import GNNTrainConfig, PipelineConfig
from repro.serve import LoadGenConfig, ServeConfig

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "cli_surface.json")
CONFIGS = (GNNTrainConfig, PipelineConfig, ServeConfig, LoadGenConfig)


def leaf_parsers(parser, path=()):
    """Yield ``(subcommand path, parser)`` for every parser without subcommands."""
    subs = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from leaf_parsers(child, path + (name,))


def flag_actions(parser):
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def parser_surface(parser):
    """``{"train": {"--epochs": {...}, ...}, "store ingest": {...}, ...}``."""
    surface = {}
    for path, leaf in leaf_parsers(parser):
        flags = {}
        for action in flag_actions(leaf):
            key = action.option_strings[-1] if action.option_strings else action.dest
            flags[key] = {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "type": getattr(action.type, "__name__", None),
                # the value an untyped flag resolves to in the namespace
                "default": leaf.get_default(action.dest),
                "choices": list(action.choices) if action.choices else None,
                "action": type(action).__name__,
                "nargs": action.nargs,
                "required": action.required,
            }
        surface[" ".join(path)] = flags
    return surface


def config_surface():
    """Field names, defaults and order of every CLI-backing dataclass."""
    out = {}
    for cls in CONFIGS:
        instance = cls()
        out[cls.__name__] = [
            [f.name, _jsonable(getattr(instance, f.name))]
            for f in dataclasses.fields(cls)
        ]
    return out


def _jsonable(value):
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def parser():
    return build_parser()


def test_flag_surface_matches_snapshot(snapshot, parser):
    surface = json.loads(json.dumps(parser_surface(parser)))
    assert sorted(surface) == sorted(snapshot["parsers"])
    for leaf, flags in snapshot["parsers"].items():
        assert sorted(surface[leaf]) == sorted(flags), leaf
        for name, record in flags.items():
            assert surface[leaf][name] == record, f"{leaf} {name}"


def test_flag_and_leaf_counts(snapshot, parser):
    surface = parser_surface(parser)
    assert len(surface) == len(snapshot["parsers"]) == 14
    options = [r for flags in surface.values() for r in flags.values() if r["option_strings"]]
    root = [a.option_strings for a in flag_actions(parser) if a.option_strings]
    assert root == [["--version"]]
    assert len(options) + len(root) == 146  # plus 4 positionals


def test_every_config_backed_flag_has_help(parser):
    for path, leaf in leaf_parsers(parser):
        for action in flag_actions(leaf):
            if action.default is argparse.SUPPRESS:  # derived from a dataclass
                assert action.help and action.help.strip(), (path, action.dest)


def test_help_renders_for_every_leaf(parser):
    for path, leaf in leaf_parsers(parser):
        text = leaf.format_help()
        assert "usage:" in text and " ".join(path) in text


def test_config_dataclass_fields_unchanged(snapshot):
    fields = json.loads(json.dumps(config_surface()))
    assert fields == snapshot["configs"]
    assert [len(fields[c.__name__]) for c in CONFIGS] == [38, 23, 15, 4]


if __name__ == "__main__":
    print(
        json.dumps(
            {"parsers": parser_surface(build_parser()), "configs": config_surface()},
            indent=1,
            sort_keys=True,
        )
    )
