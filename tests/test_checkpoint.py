"""Tests for the binary container and the dataset/model artifacts."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nohgnn

from nohgnn.checkpoint import (
    MAGIC,
    VERSION,
    load_dataset,
    load_model,
    read_records,
    save_dataset,
    save_model,
    write_records,
)
from nohgnn.data import EdgeEvent, load_edge_list, bin_snapshots, split_edges
from nohgnn.errors import CheckpointError
from nohgnn.synth import planted_partition_graph
from nohgnn.training import TrainConfig, init_params


def sample_records(rng):
    return {
        "cube": rng.normal(size=(2, 3, 4)),
        "ints": rng.integers(-5, 5, size=(7,)),
        "bytes": np.frombuffer(b"hello", dtype=np.uint8),
        "scalar.f": np.asarray(2.5),
        "scalar.i": np.asarray(42, dtype=np.int64),
        "empty": np.zeros((0, 3)),
    }


class TestContainer:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "t.nohg")
        records = sample_records(np.random.default_rng(0))
        write_records(path, records)
        loaded = read_records(path)
        assert sorted(loaded) == sorted(records)
        for name, arr in records.items():
            assert loaded[name].dtype == np.asarray(arr).dtype
            assert loaded[name].shape == np.asarray(arr).shape
            assert np.array_equal(loaded[name], arr)

    def test_write_order_does_not_change_bytes(self, tmp_path):
        records = sample_records(np.random.default_rng(1))
        a, b = str(tmp_path / "a.nohg"), str(tmp_path / "b.nohg")
        write_records(a, records)
        write_records(b, dict(reversed(list(records.items()))))
        assert (tmp_path / "a.nohg").read_bytes() == (tmp_path / "b.nohg").read_bytes()

    def test_golden_bytes(self, tmp_path):
        # pin the exact layout: header, then records sorted by name
        path = str(tmp_path / "g.nohg")
        write_records(path, {"x": np.asarray([1.0, 2.0]), "n": np.asarray(3, dtype=np.int64)})
        expected = (
            MAGIC
            + struct.pack("<I", VERSION)
            + struct.pack("<I", 2)
            + struct.pack("<H", 1) + b"n" + struct.pack("<BB", 1, 0) + struct.pack("<q", 3)
            + struct.pack("<H", 1) + b"x" + struct.pack("<BB", 0, 1) + struct.pack("<Q", 2)
            + struct.pack("<2d", 1.0, 2.0)
        )
        assert (tmp_path / "g.nohg").read_bytes() == expected

    def test_empty_record_with_oversized_dims_rejected(self, tmp_path):
        # size 0, so no payload is missing, but numpy cannot shape (0, 2**61)
        path = tmp_path / "big.nohg"
        path.write_bytes(
            MAGIC + struct.pack("<II", VERSION, 1)
            + struct.pack("<H", 1) + b"a" + struct.pack("<BB", 0, 2) + struct.pack("<2Q", 0, 2**61)
        )
        with pytest.raises(CheckpointError, match=r"record 'a' has dims \(0, 2305843009213693952\)"):
            read_records(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nohg"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_records(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v.nohg"
        path.write_bytes(MAGIC + struct.pack("<I", 99) + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="version 99"):
            read_records(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        full = tmp_path / "full.nohg"
        write_records(str(full), {"x": np.arange(10.0)})
        blob = full.read_bytes()
        for cut in (2, 10, len(blob) - 1):
            clipped = tmp_path / f"cut{cut}.nohg"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                read_records(str(clipped))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.nohg"
        write_records(str(path), {"x": np.arange(4.0)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            read_records(str(path))

    def test_unknown_dtype_tag_rejected(self, tmp_path):
        path = tmp_path / "t.nohg"
        write_records(str(path), {"x": np.asarray(1.0)})
        blob = bytearray(path.read_bytes())
        # tag byte sits right after the header and the 2-byte name
        blob[4 + 4 + 4 + 2 + 1] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="dtype tag"):
            read_records(str(path))

    def test_non_utf8_record_name_rejected(self, tmp_path):
        path = tmp_path / "n.nohg"
        write_records(str(path), {"x": np.asarray(1.0)})
        blob = bytearray(path.read_bytes())
        blob[4 + 4 + 4 + 2] = 0xFF  # the 1-byte name
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8") as info:
            read_records(str(path))
        assert str(path) in str(info.value)

    def test_dims_product_past_int64_rejected(self, tmp_path):
        path = tmp_path / "d.nohg"
        write_records(str(path), {"x": np.zeros((1, 1))})
        blob = bytearray(path.read_bytes())
        # 2**32 * 2**32 wraps to 0 in int64, which must not read as an empty payload
        dims_at = 4 + 4 + 4 + 2 + 1 + 2
        blob[dims_at : dims_at + 16] = struct.pack("<2Q", 2**32, 2**32)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated") as info:
            read_records(str(path))
        assert str(path) in str(info.value)

    def test_duplicate_record_name_rejected(self, tmp_path):
        path = tmp_path / "dup.nohg"
        write_records(str(path), {"a": np.asarray(1.0), "b": np.asarray(2.0)})
        blob = bytearray(path.read_bytes())
        # second record: header, then the first record's name length, name,
        # tag, rank and 8-byte payload; its own 1-byte name follows its length
        second_name = 4 + 4 + 4 + (2 + 1 + 2 + 8) + 2
        assert blob[second_name : second_name + 1] == b"b"
        blob[second_name] = ord("a")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="duplicate record 'a'") as info:
            read_records(str(path))
        assert str(path) in str(info.value)

    def test_unsupported_dtype_write_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="dtype"):
            write_records(str(tmp_path / "x.nohg"), {"x": np.zeros(2, dtype=np.float32)})


def make_dataset(tmp_path, seed=3, undirected=True):
    text = "\n".join(f"n{i} n{(i * 7 + 1) % 9} {t}" for t in range(3) for i in range(9))
    edge_file = tmp_path / "edges.txt"
    edge_file.write_text(text + "\n")
    events, id_map = load_edge_list(str(edge_file))
    graph = bin_snapshots(events, 3, undirected=undirected, id_map=id_map)
    train, val, test, masked = split_edges(graph, seed=seed)
    return graph, masked, {"train": train, "val": val, "test": test}


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets")


def assert_loads_to(path, graph, masked, splits, seed):
    """``load_dataset`` gives back bit-equal graphs and pair sets."""
    g2, m2, s2, seed2 = load_dataset(path)
    assert seed2 == seed
    for before, after in ((graph, g2), (masked, m2)):
        assert (after.n_nodes, after.t_slots, after.undirected) == (before.n_nodes, before.t_slots, before.undirected)
        assert after.id_map == before.id_map
        for s_old, s_new in zip(before.adjacency.slices, after.adjacency.slices, strict=True):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(s_old, name), getattr(s_new, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        for e_old, e_new in zip(before.slot_edges, after.slot_edges, strict=True):
            assert e_old.dtype == e_new.dtype and np.array_equal(e_old, e_new)
    assert list(s2) == ["train", "val", "test"]
    for role in s2:
        assert s2[role].role == role
        assert np.array_equal(s2[role].pairs, splits[role].pairs)
        assert np.array_equal(s2[role].labels, splits[role].labels)


class TestDatasetArtifact:
    def test_round_trip(self, tmp_path):
        graph, masked, splits = make_dataset(tmp_path)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, splits, split_seed=3)
        assert_loads_to(path, graph, masked, splits, 3)

    def test_empty_id_map(self, tmp_path):
        graph = planted_partition_graph(8, 2, p_in=0.9, p_out=0.2, seed=0)
        train, val, test, masked = split_edges(graph, seed=0)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, {"train": train, "val": val, "test": test}, 0)
        g2, _, _, _ = load_dataset(path)
        assert g2.id_map == {}

    def test_saved_file_holds_no_derived_record(self, tmp_path):
        graph, masked, splits = make_dataset(tmp_path)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, splits, 0)
        names = set(read_records(path))
        assert names == {"kind", "n_nodes", "t_slots", "undirected", "split_seed", "idmap.tokens",
                         "split.val", "split.test", *(f"full.{t}.{a}" for t in range(3) for a in ("indptr", "indices"))}

    @pytest.mark.parametrize("undirected", [True, False])
    def test_file_with_derived_records_loads_to_same_result(self, tmp_path, undirected):
        # files written before the derived records were dropped also hold the
        # masked graph, the adjacency values and the train pairs
        graph, masked, splits = make_dataset(tmp_path, undirected=undirected)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, splits, 3)
        records = read_records(path)
        for prefix, g in (("full", graph), ("masked", masked)):
            for t, s in enumerate(g.adjacency.slices):
                records[f"{prefix}.{t}.indptr"] = s.indptr.astype(np.int64)
                records[f"{prefix}.{t}.indices"] = s.indices.astype(np.int64)
                records[f"{prefix}.{t}.data"] = s.data
        records["split.train"] = splits["train"].pairs
        write_records(path, records)
        assert_loads_to(path, graph, masked, splits, 3)

    @pytest.mark.parametrize("undirected", [True, False])
    @settings(max_examples=40)
    @given(
        events=st.lists(st.builds(EdgeEvent, st.integers(0, 7), st.integers(0, 7), st.integers(0, 9)), min_size=1, max_size=40),
        t_slots=st.integers(1, 6),
        seed=st.integers(0, 3),
    )
    def test_round_trip_of_random_graphs(self, scratch_dir, undirected, events, t_slots, seed):
        # few events over up to 6 slots leave slots empty or under 3 edges
        graph = bin_snapshots(events, t_slots, undirected=undirected)
        train, val, test, masked = split_edges(graph, seed=seed)
        path = str(scratch_dir / "d.nohg")
        save_dataset(path, graph, masked, {"train": train, "val": val, "test": test}, seed)
        assert_loads_to(path, graph, masked, {"train": train, "val": val, "test": test}, seed)

    def test_model_file_rejected(self, tmp_path):
        config = TrainConfig(dim=3)
        store = init_params(config, n_nodes=4, t_slots=2)
        path = str(tmp_path / "m.nohg")
        save_model(path, store, config, 4, 2)
        with pytest.raises(CheckpointError, match="not a dataset"):
            load_dataset(path)


def corrupt_dataset(tmp_path, name, value, undirected=True):
    """A saved dataset whose record ``name`` is replaced by ``value``."""
    graph, masked, splits = make_dataset(tmp_path, undirected=undirected)
    path = str(tmp_path / "d.nohg")
    save_dataset(path, graph, masked, splits, 0)
    records = read_records(path)
    records[name] = value(records[name])
    write_records(path, records)
    return path


def descending(indptr):
    out = indptr.copy()
    out[1], out[2] = out[2] + 5, out[1]
    return out


class TestCorruptDataset:
    """Records that scipy or the decoder would misread are rejected by name."""

    @pytest.mark.parametrize(
        "name,value",
        [
            ("full.0.indices", lambda a: a + 100),
            ("full.0.indices", lambda a: a - 100),
            ("full.1.indptr", lambda a: a[:-1]),
            ("full.1.indptr", lambda a: a + 1),
            ("full.2.indptr", lambda a: np.concatenate([a[:-1], [a[-1] - 1]])),
            ("full.0.indices", lambda a: a.astype(np.float64)),
        ],
        ids=["index-high", "index-negative", "indptr-short", "indptr-offset", "indptr-end", "float-indices"],
    )
    def test_bad_csr_record_named(self, tmp_path, name, value):
        path = corrupt_dataset(tmp_path, name, value)
        with pytest.raises(CheckpointError, match=re.escape(name)):
            load_dataset(path)

    @pytest.mark.parametrize("undirected", [True, False])
    @pytest.mark.parametrize("edit", ["repeat", "swap"])
    def test_repeated_or_unsorted_column_named(self, tmp_path, edit, undirected):
        # scipy would sum a repeated column to 2, and sort an unsorted row silently
        events = [EdgeEvent(0, 1, 0), EdgeEvent(0, 2, 0), EdgeEvent(1, 2, 0), EdgeEvent(2, 1, 0)]
        graph = bin_snapshots(events, 1, undirected=undirected)
        train, val, test, masked = split_edges(graph, seed=0)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, {"train": train, "val": val, "test": test}, 0)
        records = read_records(path)
        row = records["full.0.indices"][:2]  # node 0's two columns, 1 and 2
        assert row.tolist() == [1, 2]
        row[:] = [1, 1] if edit == "repeat" else [2, 1]
        write_records(path, records)
        with pytest.raises(CheckpointError, match=re.escape("'full.0.indices' repeats or unsorts a column")):
            load_dataset(path)

    @pytest.mark.parametrize(
        "tokens",
        ["n0\nn0" + "".join(f"\nn{i}" for i in range(2, 9)), "\n".join(f"n{i}" for i in range(8)),
         "\n".join(f"n{i}" for i in range(10)), "\n" * 8],
        ids=["repeated", "too-few", "too-many", "all-empty"],
    )
    def test_id_map_of_other_size_named(self, tmp_path, tokens):
        blob = np.frombuffer(tokens.encode("utf-8"), dtype=np.uint8)
        path = corrupt_dataset(tmp_path, "idmap.tokens", lambda _: blob)
        with pytest.raises(CheckpointError, match=re.escape("'idmap.tokens' does not hold 9 distinct tokens")):
            load_dataset(path)

    def test_descending_indptr_reported_by_eval(self, tmp_path):
        # scipy trusts indptr and can read out of bounds, so run the CLI in a
        # child process: a crash fails this test instead of ending the session
        path = corrupt_dataset(tmp_path, "full.0.indptr", descending)
        graph, _, _ = make_dataset(tmp_path)
        model = str(tmp_path / "m.nohg")
        config = TrainConfig(dim=2)
        save_model(model, init_params(config, graph.n_nodes, graph.t_slots), config, graph.n_nodes, graph.t_slots)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nohgnn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "nohgnn.cli", "eval", model, path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "'full.0.indptr'" in proc.stderr

    def test_masked_edge_missing_from_full_rejected(self, tmp_path):
        # swapping the stacks stores a graph without the held-out edges
        graph, masked, splits = make_dataset(tmp_path)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, masked, graph, splits, 0)
        i, j, t = splits["val"].pairs[0]
        with pytest.raises(CheckpointError, match=rf"^{re.escape(path)}: held-out pair \({i}, {j}\) at slot {t} is not an edge"):
            load_dataset(path)

    def test_asymmetric_undirected_adjacency_rejected(self, tmp_path):
        # an entry moved to another column breaks the symmetry of slot 0
        path = corrupt_dataset(tmp_path, "full.0.indices", lambda a: np.where(np.arange(len(a)) == 0, (a + 1) % 9, a))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(path)}: slot 0 adjacency is not symmetric"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            ("not-edge", r"held-out pair \(1, 3\) at slot 0 is not an edge of the graph with i < j"),
            ("reversed", r"held-out pair \(\d+, \d+\) at slot \d+ is not an edge of the graph with i < j"),
            ("empty-slot", r"held-out pair \(0, 1\) at slot 1 is not an edge of the graph with i < j"),
            ("val-and-test", r"held-out pair \(\d+, \d+\) at slot \d+ is held out twice"),
            ("twice-in-val", r"held-out pair \(\d+, \d+\) at slot \d+ is held out twice"),
        ],
        ids=["not-edge", "reversed", "empty-slot", "val-and-test", "twice-in-val"],
    )
    def test_bad_held_out_pair_named(self, tmp_path, edit, message):
        if edit == "empty-slot":
            # stamps 0 and 2 over 3 slots leave slot 1 without an edge
            graph = bin_snapshots([EdgeEvent(0, 1, 0), EdgeEvent(1, 2, 0), EdgeEvent(0, 2, 2)], 3)
            assert graph.adjacency.slices[1].nnz == 0
            train, val, test, masked = split_edges(graph, seed=0)
            splits = {"train": train, "val": val, "test": test}
        else:
            graph, masked, splits = make_dataset(tmp_path)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, splits, 0)
        records = read_records(path)
        val, test = records["split.val"], records["split.test"]
        if edit == "empty-slot":
            records["split.val"] = np.array([[0, 1, 1]], dtype=np.int64)
        elif edit == "not-edge":
            # nodes 1 and 3 are tokens n1 and n2, which no slot links
            assert not graph.adjacency.slices[0][1, 3]
            val[0] = [1, 3, 0]
        elif edit == "reversed":
            val[0] = val[0][[1, 0, 2]]
        elif edit == "val-and-test":
            test[0] = val[0]
        else:
            val[1] = val[0]
        write_records(path, records)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(path)}: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("split.test", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0, 10**6, a), "node"),
            ("split.test", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 2, 99, a), "slot"),
            ("split.val", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 1, -1, a), "node"),
            ("split.val", lambda a: a.reshape(-1), "int64 of rank 2"),
            ("split.val", lambda a: a.reshape(-1, 1), r"\(k, 3\)"),
            ("split.val", lambda a: a.astype(np.float64), "float64"),
        ],
        ids=["node-high", "slot-high", "node-negative", "flattened", "one-column", "float"],
    )
    def test_bad_split_record_named(self, tmp_path, name, value, message):
        path = corrupt_dataset(tmp_path, name, value)
        with pytest.raises(CheckpointError, match=f"{re.escape(repr(name))}.*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("n_nodes", lambda a: a.reshape(1), "is int64 of rank 1, expected int64 of rank 0"),
            ("t_slots", lambda a: a.reshape(1), "is int64 of rank 1, expected int64 of rank 0"),
            ("kind", lambda a: a.reshape(1), "is int64 of rank 1, expected int64 of rank 0"),
            ("undirected", lambda a: a.astype(np.float64), "is float64 of rank 0, expected int64 of rank 0"),
            ("split_seed", lambda a: a.reshape(1, 1), "is int64 of rank 2, expected int64 of rank 0"),
            ("idmap.tokens", lambda a: np.frombuffer(b"\xff\xfe", dtype=np.uint8), "is not valid UTF-8"),
            ("idmap.tokens", lambda a: a.astype(np.int64), "is int64 of rank 1, expected uint8 of rank 1"),
        ],
        ids=["nodes-rank-1", "slots-rank-1", "kind-rank-1", "float-undirected", "seed-rank-2",
             "tokens-not-utf8", "int-tokens"],
    )
    def test_bad_scalar_record_named(self, tmp_path, name, value, message):
        path = corrupt_dataset(tmp_path, name, value)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(path)}: record {re.escape(repr(name))} {message}"):
            load_dataset(path)

    def test_bad_graph_size_rejected(self, tmp_path):
        path = corrupt_dataset(tmp_path, "n_nodes", lambda a: np.asarray(-1))
        with pytest.raises(CheckpointError, match="n_nodes"):
            load_dataset(path)


class TestModelArtifact:
    def test_round_trip(self, tmp_path):
        config = TrainConfig(dim=5, layers=3, k_hops=1, transform="dct", seed=9,
                             learning_rate=0.05, beta_reg=0.0005, threshold=0.4,
                             max_epochs=77, patience=4, neg_ratio=2)
        store = init_params(config, n_nodes=6, t_slots=4)
        path = str(tmp_path / "m.nohg")
        save_model(path, store, config, 6, 4)
        store2, config2, n_nodes, t_slots = load_model(path)
        assert (n_nodes, t_slots) == (6, 4)
        assert config2 == config
        assert store2.names() == store.names()
        for name in store.names():
            assert np.array_equal(store2.value(name), store.value(name))

    def test_integral_float_fields_round_trip(self, tmp_path):
        # float fields given as Python ints are stored as float64 records
        config = TrainConfig(beta_reg=0, learning_rate=1)
        path = str(tmp_path / "m.nohg")
        save_model(path, init_params(config, 4, 2), config, 4, 2)
        records = read_records(path)
        assert records["meta.beta_reg"].dtype == np.float64
        assert records["meta.learning_rate"].dtype == np.float64
        _, config2, _, _ = load_model(path)
        assert config2 == config
        assert isinstance(config2.beta_reg, float) and isinstance(config2.learning_rate, float)

    def test_int64_float_field_from_older_files_loads(self, tmp_path):
        # older files wrote a float field holding an integral value as int64
        config = TrainConfig()
        path = str(tmp_path / "m.nohg")
        save_model(path, init_params(config, 4, 2), config, 4, 2)
        records = read_records(path)
        records["meta.beta_reg"] = np.asarray(0)
        write_records(path, records)
        _, config2, _, _ = load_model(path)
        assert config2.beta_reg == 0.0 and isinstance(config2.beta_reg, float)

    def test_dataset_file_rejected(self, tmp_path):
        graph, masked, splits = make_dataset(tmp_path)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, splits, 0)
        with pytest.raises(CheckpointError, match="not a model"):
            load_model(path)

    def test_missing_parameters_rejected(self, tmp_path):
        path = str(tmp_path / "m.nohg")
        config = TrainConfig()
        store = init_params(config, 4, 2)
        save_model(path, store, config, 4, 2)
        records = read_records(path)
        stripped = {k: v for k, v in records.items() if not k.startswith("param.")}
        write_records(path, stripped)
        with pytest.raises(CheckpointError, match="no parameters"):
            load_model(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = str(tmp_path / "m.nohg")
        config = TrainConfig()
        store = init_params(config, 4, 2)
        save_model(path, store, config, 4, 2)
        records = read_records(path)
        del records["meta.dim"]
        write_records(path, records)
        with pytest.raises(CheckpointError, match="meta.dim"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("param.layer2.w"), r"missing record 'param\.layer2\.w'"),
            (lambda r: r.__setitem__("param.layer2.w", np.zeros((3, 4, 5))),
             r"record 'param\.layer2\.w' has shape \(3, 4, 5\), expected \(2, 8, 8\)"),
            (lambda r: r.__setitem__("param.embed.e", np.zeros(32)),
             r"record 'param\.embed\.e' has shape \(32,\), expected \(4, 8\)"),
            (lambda r: r.__setitem__("param.layer3.w", np.zeros((2, 8, 8))),
             r"unexpected record 'param\.layer3\.w'"),
            (lambda r: r.__setitem__("meta.layers", np.asarray(1)),
             r"unexpected record 'param\.layer2\.w'"),
            (lambda r: r.__setitem__("meta.n_nodes", np.asarray(0)), r"n_nodes"),
            (lambda r: r.__setitem__("meta.dim", np.asarray([8])),
             r"record 'meta\.dim' is int64 of rank 1, expected int64 of rank 0"),
            (lambda r: r.__setitem__("meta.dim", np.asarray(8.0)),
             r"record 'meta\.dim' is float64 of rank 0, expected int64 of rank 0"),
            (lambda r: r.__setitem__("meta.learning_rate", np.asarray([0.05])),
             r"record 'meta\.learning_rate' is float64 of rank 1, expected float64 or int64 of rank 0"),
            (lambda r: r.__setitem__("meta.n_nodes", np.asarray(2**40)),
             r"record 'param\.embed\.e' has shape \(4, 8\), expected \(1099511627776, 8\)"),
            (lambda r: r.__setitem__("meta.layers", np.asarray(2**62)),
             r"missing record 'param\.layer3\.w'"),
            (lambda r: r.__setitem__("meta.t_slots", np.asarray(2.0)),
             r"record 'meta\.t_slots' is float64 of rank 0, expected int64 of rank 0"),
            (lambda r: r.__setitem__("kind", np.asarray([1])),
             r"record 'kind' is int64 of rank 1, expected int64 of rank 0"),
        ],
        ids=["missing", "wrong-shape", "wrong-rank", "extra", "fewer-layers", "no-nodes",
             "meta-rank-1", "float-dim", "learning-rate-rank-1", "huge-n-nodes", "huge-layers", "float-slots", "kind-rank-1"],
    )
    def test_parameter_records_checked_against_config(self, tmp_path, edit, message):
        path = str(tmp_path / "m.nohg")
        config = TrainConfig(dim=8, layers=2)
        save_model(path, init_params(config, 4, 2), config, 4, 2)
        records = read_records(path)
        edit(records)
        write_records(path, records)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(path)}: {message}"):
            load_model(path)
