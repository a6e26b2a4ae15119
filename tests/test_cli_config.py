"""``repro train --config``: a flag the user typed always beats the file."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.cli.flags import Recipe, _flag


@pytest.fixture
def train_config(monkeypatch, tmp_path):
    """Run ``repro train`` up to the ``train_gnn`` call; return its config."""
    seen = {}

    def capture(train_graphs, val_graphs, config, **kwargs):
        seen["config"] = config
        raise KeyboardInterrupt  # skip the training itself

    monkeypatch.setattr("repro.pipeline.train_gnn", capture)

    def run(from_file, *argv):
        path = tmp_path / "train.json"
        path.write_text(json.dumps(from_file))
        rc = main(
            ["train", "--dataset", "tiny", "--train-graphs", "1",
             "--val-graphs", "1", "--config", str(path), *argv]
        )
        assert rc == 130
        return seen["config"]

    return run


def test_typed_flag_equal_to_its_default_beats_the_file(train_config):
    # 6 is --epochs' default: indistinguishable from "not typed" before
    # the flags were registered with SUPPRESS defaults (trained 1 epoch)
    assert train_config({"epochs": 1}, "--epochs", "6").epochs == 6
    assert train_config({"epochs": 1}).epochs == 1


def test_untouched_flags_keep_recipe_defaults_and_file_sets_unexposed_fields(
    train_config,
):
    config = train_config({"lr": 0.01, "hidden": 8}, "--layers", "1")
    assert (config.lr, config.hidden, config.num_layers) == (0.01, 8, 1)
    assert (config.batch_size, config.depth) == (128, 2)  # demo-scale recipe


def test_switches_beat_the_file(train_config):
    assert train_config({"validate_inputs": False}, "--validate-inputs").validate_inputs is True
    assert train_config({"watchdog": True}).watchdog is True
    assert train_config({"watchdog": False}, "--watchdog").watchdog is True


def test_a_true_switch_derives_a_no_flag():
    """A True-valued bool field is switched off by ``--no-<name>``."""

    @dataclasses.dataclass(frozen=True)
    class Toy:
        cache: bool = dataclasses.field(default=True, metadata={"help": "memoise"})

    flag = _flag(Recipe(Toy(), ("cache",)), "cache")
    assert flag.option == "--no-cache" and flag.kwargs["help"] == "turn off: memoise"
    assert flag.default is False and flag.to_field(True) is False


def test_the_unfused_path_is_retired_in_a_config_file(train_config):
    with pytest.raises(ValueError, match="fused_kernels=False is retired"):
        train_config({"fused_kernels": False})


def test_unknown_keys_exit_with_sorted_names(train_config):
    with pytest.raises(SystemExit, match=r"\['bogus', 'zzz'\]"):
        train_config({"zzz": 1, "epochs": 2, "bogus": 1})
