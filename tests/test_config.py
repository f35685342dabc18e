"""Tests for the run-configuration file format."""

from dataclasses import fields

import pytest

from nohgnn.cli import _load_config, build_parser
from nohgnn.config import RunConfig, load_run_config, with_overrides
from nohgnn.errors import ParameterError, ParseError
from nohgnn.training import TrainConfig


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestLoadRunConfig:
    def test_full_file(self, tmp_path):
        path = write(
            tmp_path,
            """
            # planted partition run
            edges = data/edges.txt
            slots = 8
            out = runs/pp

            learning_rate = 0.02
            beta_reg = 0.0005
            max_epochs = 50
            patience = 5
            k_hops = 3
            layers = 1
            dim = 16
            transform = dct
            seed = 7
            neg_ratio = 2
            threshold = 0.4
            undirected = true
            """,
        )
        config = load_run_config(path)
        assert config.edges == "data/edges.txt"
        assert config.slots == 8
        assert config.out == "runs/pp"
        assert config.learning_rate == 0.02
        assert config.beta_reg == 0.0005
        assert config.max_epochs == 50
        assert config.patience == 5
        assert config.k_hops == 3
        assert config.layers == 1
        assert config.dim == 16
        assert config.transform == "dct"
        assert config.seed == 7
        assert config.neg_ratio == 2
        assert config.threshold == 0.4
        assert config.undirected is True

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_run_config(write(tmp_path, "")) == RunConfig()

    def test_defaults_mirror_train_config(self):
        assert RunConfig().to_train_config() == TrainConfig()

    def test_unknown_key_named(self, tmp_path):
        path = write(tmp_path, "momentum = 0.9\n")
        with pytest.raises(ParseError, match="momentum"):
            load_run_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "dim = 8\ndim = 16\n")
        with pytest.raises(ParseError, match="duplicate key 'dim'"):
            load_run_config(path)

    def test_missing_equals_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "dim = 8\njust words\n")
        with pytest.raises(ParseError, match=":2:"):
            load_run_config(path)

    def test_bad_value_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "\n\nslots = eight\n")
        with pytest.raises(ParseError, match=":3:"):
            load_run_config(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = write(tmp_path, "undirected = maybe\n")
        with pytest.raises(ParseError, match="boolean"):
            load_run_config(path)

    @pytest.mark.parametrize("text,expected", [("true", True), ("1", True), ("no", False), ("off", False)])
    def test_boolean_spellings(self, tmp_path, text, expected):
        assert load_run_config(write(tmp_path, f"undirected = {text}\n")).undirected is expected

    def test_value_may_contain_equals(self, tmp_path):
        config = load_run_config(write(tmp_path, "out = runs/a=b\n"))
        assert config.out == "runs/a=b"

    def test_invalid_hyperparameter_names_offending_key(self, tmp_path):
        path = write(tmp_path, "learning_rate = -1.0\n")
        with pytest.raises(ParameterError, match="learning_rate") as info:
            load_run_config(path)
        assert str(info.value).startswith(path)

    def test_negative_seed_named(self, tmp_path):
        path = write(tmp_path, "seed = -1\n")
        with pytest.raises(ParameterError, match=r"seed must be >= 0, got -1$") as info:
            load_run_config(path)
        assert str(info.value).startswith(path)


# a value other than the default for every field a run file can set
NON_DEFAULT = {
    "learning_rate": 0.02,
    "beta_reg": 0.0005,
    "max_epochs": 50,
    "patience": 5,
    "k_hops": 3,
    "layers": 1,
    "dim": 16,
    "transform": "dct",
    "seed": 7,
    "neg_ratio": 2,
    "threshold": 0.4,
    "edges": "data/edges.txt",
    "data": "data/dataset.nohg",
    "slots": 8,
    "undirected": False,
    "out": "runs/pp",
}


class TestDerivedSchema:
    def test_run_file_keys_are_the_fields(self):
        assert {f.name for f in fields(RunConfig)} == set(NON_DEFAULT)
        assert {f.name for f in fields(TrainConfig)} < set(NON_DEFAULT)

    def test_every_field_round_trips_through_a_run_file(self, tmp_path):
        assert all(getattr(RunConfig(), name) != value for name, value in NON_DEFAULT.items())
        text = "".join(f"{name} = {value}\n" for name, value in NON_DEFAULT.items())
        assert load_run_config(write(tmp_path, text)) == RunConfig(**NON_DEFAULT)

    @pytest.mark.parametrize("argv", [["train"], ["ingest", "--edges", "e.txt", "--slots", "2"]])
    def test_every_flag_sets_a_field(self, argv):
        # _load_config drops a destination that is not a field without a word
        dests = set(vars(build_parser().parse_args(argv))) - {"command", "func", "config"}
        assert dests <= {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--lr", "0.02", "learning_rate"), ("--beta", "0.0005", "beta_reg"), ("--epochs", "50", "max_epochs")],
    )
    def test_renamed_flags_set_their_field(self, flag, value, field):
        config = _load_config(build_parser().parse_args(["train", flag, value]))
        assert getattr(config, field) == NON_DEFAULT[field]


class TestOverrides:
    def test_none_values_ignored(self):
        config = RunConfig(dim=16)
        assert with_overrides(config, dim=None, seed=None) == config

    def test_set_values_applied(self):
        config = with_overrides(RunConfig(), dim=8, transform="dct", edges="x.txt")
        assert config.dim == 8
        assert config.transform == "dct"
        assert config.edges == "x.txt"
