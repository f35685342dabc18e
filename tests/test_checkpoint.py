"""Tests for the binary container and the dataset/model artifacts."""

import re
import struct

import numpy as np
import pytest

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
from nohgnn.data import load_edge_list, bin_snapshots, split_edges
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


def make_dataset(tmp_path, seed=3):
    text = "\n".join(f"n{i} n{(i * 7 + 1) % 9} {t}" for t in range(3) for i in range(9))
    edge_file = tmp_path / "edges.txt"
    edge_file.write_text(text + "\n")
    events, id_map = load_edge_list(str(edge_file))
    graph = bin_snapshots(events, 3, id_map=id_map)
    train, val, test, masked = split_edges(graph, seed=seed)
    return graph, masked, {"train": train, "val": val, "test": test}


class TestDatasetArtifact:
    def test_round_trip(self, tmp_path):
        graph, masked, splits = make_dataset(tmp_path)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, splits, split_seed=3)
        g2, m2, s2, seed = load_dataset(path)
        assert seed == 3
        assert g2.n_nodes == graph.n_nodes
        assert g2.undirected == graph.undirected
        assert g2.id_map == graph.id_map
        for before, after in ((graph, g2), (masked, m2)):
            for s_old, s_new in zip(before.adjacency.slices, after.adjacency.slices):
                assert np.array_equal(s_old.indptr, s_new.indptr)
                assert np.array_equal(s_old.indices, s_new.indices)
                assert np.array_equal(s_old.data, s_new.data)
            for e_old, e_new in zip(before.slot_edges, after.slot_edges):
                assert np.array_equal(e_old, e_new)
        for role in ("train", "val", "test"):
            assert np.array_equal(s2[role].pairs, splits[role].pairs)
            assert np.all(s2[role].labels == 1.0)
            assert s2[role].role == role

    def test_empty_id_map(self, tmp_path):
        graph = planted_partition_graph(8, 2, p_in=0.9, p_out=0.2, seed=0)
        train, val, test, masked = split_edges(graph, seed=0)
        path = str(tmp_path / "d.nohg")
        save_dataset(path, graph, masked, {"train": train, "val": val, "test": test}, 0)
        g2, _, _, _ = load_dataset(path)
        assert g2.id_map == {}

    def test_model_file_rejected(self, tmp_path):
        config = TrainConfig(dim=3)
        store = init_params(config, n_nodes=4, t_slots=2)
        path = str(tmp_path / "m.nohg")
        save_model(path, store, config, 4, 2)
        with pytest.raises(CheckpointError, match="not a dataset"):
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
        ],
        ids=["missing", "wrong-shape", "wrong-rank", "extra", "fewer-layers", "no-nodes"],
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
