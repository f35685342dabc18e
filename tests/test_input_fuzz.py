"""Malformed input files: every reader raises a named ``NohgnnError`` that
points at the file, never another exception, and the CLI turns it into one
``error:`` line with exit code 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nohgnn.checkpoint import load_dataset, load_model, read_records, save_dataset, save_model, write_records
from nohgnn.cli import main
from nohgnn.config import load_run_config
from nohgnn.data import EdgeEvent, bin_snapshots, load_edge_list, split_edges
from nohgnn.errors import NohgnnError, ParseError
from nohgnn.synth import planted_partition
from nohgnn.training import TrainConfig, init_params

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


@pytest.fixture(scope="module")
def saved_artifacts(tmp_path_factory) -> dict[str, tuple]:
    """Real containers, their records and their bytes: an undirected dataset
    ("d"), a directed one ("dd") and a model ("m")."""
    folder = tmp_path_factory.mktemp("artifacts")
    events = planted_partition(8, 3, p_in=0.6, p_out=0.2, seed=1)
    # the directed graph also links some pairs both ways
    both_ways = events + [EdgeEvent(e.dst, e.src, e.timestamp) for e in events[::3]]
    for kind, undirected, edges in (("d", True, events), ("dd", False, both_ways)):
        graph = bin_snapshots(edges, 3, undirected=undirected)
        train, val, test, masked = split_edges(graph, seed=0)
        save_dataset(str(folder / f"{kind}.nohg"), graph, masked, {"train": train, "val": val, "test": test}, 0)
    config = TrainConfig(dim=2, layers=1)
    save_model(str(folder / "m.nohg"), init_params(config, 8, 3), config, 8, 3)
    return {kind: (read_records(str(folder / f"{kind}.nohg")), (folder / f"{kind}.nohg").read_bytes())
            for kind in LOADERS}


LOADERS = {"d": load_dataset, "dd": load_dataset, "m": load_model}
EXTREMES = [-(2**63), -1, 0, 1, 2, 3, 8, 9, 2**31, 2**40, 2**63 - 1]
record_edit = st.tuples(
    st.integers(0, 10_000),
    st.sampled_from(["drop", "set", "cast", "grow", "shrink", "flatten", "rank0"]),
    st.integers(0, 10_000),
    st.one_of(st.sampled_from(EXTREMES), st.integers(-3, 12), st.sampled_from([0.5, -0.0, float("nan"), float("inf")])),
)


def _edit_records(records: dict[str, np.ndarray], edits) -> dict[str, np.ndarray]:
    """A copy of ``records`` with each edit applied to the record it picks."""
    out = {name: arr.copy() for name, arr in records.items()}
    for pick, op, pos, value in edits:
        if not out:
            break
        name = sorted(out)[pick % len(out)]
        arr = out[name]
        if op == "drop":
            del out[name]
        elif op == "set" and arr.size and (np.isfinite(value) or arr.dtype == np.float64):
            # astype wraps a value outside the record's dtype instead of raising
            arr.reshape(-1)[pos % arr.size] = np.asarray(value).astype(arr.dtype)
        elif op == "cast":
            out[name] = arr.astype([np.int64, np.float64, np.uint8][pos % 3])
        elif op == "grow":
            out[name] = np.concatenate([arr.reshape(-1), arr.reshape(-1)[:1]]) if arr.size else arr.reshape(-1)
        elif op == "shrink":
            out[name] = arr.reshape(-1)[: max(0, arr.size - 1 - pos % 3)]
        elif op == "flatten":
            out[name] = arr.reshape(-1) if arr.ndim != 1 else arr.reshape(1, -1)
        elif op == "rank0" and arr.size:
            out[name] = np.asarray(arr.reshape(-1)[pos % arr.size])
    return out


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150)
@given(edits=st.lists(record_edit, min_size=1, max_size=4))
def test_saved_container_record_fuzz(saved_artifacts, scratch_file, kind, edits):
    write_records(str(scratch_file), _edit_records(saved_artifacts[kind][0], edits))
    try:
        LOADERS[kind](str(scratch_file))
    except NohgnnError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150)
@given(edits=st.lists(edit, max_size=6), cut=st.integers(0, 100_000))
def test_saved_container_byte_fuzz(saved_artifacts, scratch_file, kind, edits, cut):
    mutated = bytearray(saved_artifacts[kind][1])
    for pos, byte in edits:
        mutated[pos % len(mutated)] = byte
    _only_named_errors(LOADERS[kind], scratch_file, bytes(mutated[: len(mutated) - cut % 64]))
