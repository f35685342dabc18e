"""Malformed input files: every reader raises a named ``NohgnnError`` that
points at the file, never another exception, and the CLI turns it into one
``error:`` line with exit code 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nohgnn.checkpoint import read_records, write_records
from nohgnn.cli import main
from nohgnn.config import load_run_config
from nohgnn.data import load_edge_list
from nohgnn.errors import NohgnnError, ParseError

NOT_UTF8 = b"\xff"


class TestNotUtf8:
    def test_edge_list_names_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"a b 1\n" + NOT_UTF8 + b" c 2\n")
        with pytest.raises(ParseError, match="edges.txt: not UTF-8"):
            load_edge_list(str(path))

    def test_run_config_names_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\n" + NOT_UTF8 + b"\n")
        with pytest.raises(ParseError, match="run.cfg: not UTF-8"):
            load_run_config(str(path))

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_cli_reports_error(self, tmp_path, capsys, command):
        path = tmp_path / "input.bin"
        path.write_bytes(NOT_UTF8 + b"\n")
        out = str(tmp_path / "out")
        if command == "ingest":
            argv = ["ingest", "--edges", str(path), "--slots", "2", "--out", out]
        else:
            argv = ["train", str(path), "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "input.bin" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


def _valid_container() -> dict[str, np.ndarray]:
    return {
        "a": np.arange(6, dtype=np.int64).reshape(2, 3),
        "b": np.linspace(0.0, 1.0, 4),
        "c": np.frombuffer(b"xyz", dtype=np.uint8),
    }


@pytest.fixture(scope="module")
def container_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("container") / "valid.nohg"
    write_records(str(path), _valid_container())
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _only_named_errors(read, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        read(str(path))
    except NohgnnError:
        pass


edit = st.tuples(st.integers(0, 10_000), st.integers(0, 255))


@settings(max_examples=300)
@given(data=st.binary(max_size=200), edits=st.lists(edit, max_size=6), cut=st.integers(0, 10_000))
def test_read_records_fuzz(container_bytes, scratch_file, data, edits, cut):
    mutated = bytearray(container_bytes)
    for pos, byte in edits:
        mutated[pos % len(mutated)] = byte
    _only_named_errors(read_records, scratch_file, bytes(mutated[: cut % (len(mutated) + 1)]) + data)


text_line = st.lists(
    st.sampled_from(["1", "-2", "3.5", "1e400", "nan", "inf", "x", ",", "#", " ", "=", "\t", "seed", "dim",
                     "transform", "true", "99999999999999999999", "0x1", "\x00", "é"]),
    max_size=6,
).map(" ".join)


@settings(max_examples=300)
@given(lines=st.lists(text_line, max_size=8), raw=st.binary(max_size=40))
def test_load_edge_list_fuzz(scratch_file, lines, raw):
    _only_named_errors(load_edge_list, scratch_file, "\n".join(lines).encode("utf-8") + raw)


config_line = st.tuples(
    st.sampled_from(["seed", "dim", "learning_rate", "beta_reg", "undirected", "transform", "slots",
                     "max_epochs", "threshold", "edges", "bogus", ""]),
    st.sampled_from(["=", " = ", "==", ""]),
    st.sampled_from(["1", "0", "-1", "nan", "inf", "1e400", "true", "maybe", "dct", "", "0.5", "é", "\x00"]),
).map("".join)


@settings(max_examples=300)
@given(lines=st.lists(config_line, max_size=6), raw=st.binary(max_size=40))
def test_load_run_config_fuzz(scratch_file, lines, raw):
    _only_named_errors(load_run_config, scratch_file, "\n".join(lines).encode("utf-8") + raw)
