"""Binary container of named arrays, and the artifacts stored in it.

The container layout is fixed: magic ``NOHG``, a 32-bit little-endian format
version, a 32-bit record count, then per record a 16-bit name length, the
UTF-8 name, a dtype tag byte (0 float64, 1 int64, 2 uint8), a rank byte,
64-bit dims, and the row-major little-endian payload. Records are written in
sorted name order so identical contents produce identical bytes.

Two artifact kinds share the format: a processed dataset (adjacency slices,
split assignments, id map) and a trained model (parameters plus the training
configuration).
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import scipy.sparse as sp

from nohgnn.data import DynamicGraph, LabeledPairSet, edges_of_slice
from nohgnn.errors import CheckpointError, ParameterError
from nohgnn.tape import ParamStore
from nohgnn.tensor3 import SliceSparse3
from nohgnn.training import TRANSFORM_KINDS, TrainConfig, init_params

MAGIC = b"NOHG"
VERSION = 1
KIND_DATASET = 0
KIND_MODEL = 1

_TAG_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8"), 2: np.dtype("u1")}
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.int64): 1, np.dtype(np.uint8): 2}


def write_records(path: str, records: dict[str, np.ndarray]) -> None:
    """Write named arrays; float64, int64, and uint8 payloads are supported."""
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(records))]
    for name in sorted(records):
        # asarray keeps rank-0 inputs rank-0 where ascontiguousarray would not
        arr = np.asarray(records[name], order="C")
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointError(f"record {name!r} has unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"record name too long: {name[:40]!r}...")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"record {name!r} rank {arr.ndim} exceeds the format limit")
        tag = _DTYPE_TAGS[arr.dtype]
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", tag, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(_TAG_DTYPES[tag], copy=False).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_records(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()

    offset = 0

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(buf):
            raise CheckpointError(f"{path}: truncated container")
        piece = buf[offset : offset + count]
        offset += count
        return piece

    if take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a container file")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version} (expected {VERSION})")
    (count,) = struct.unpack("<I", take(4))
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: record name is not valid UTF-8") from None
        if name in records:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        tag, rank = struct.unpack("<BB", take(2))
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"{path}: record {name!r} has unknown dtype tag {tag}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        dtype = _TAG_DTYPES[tag]
        # Python ints: a product of untrusted 64-bit dims must not wrap around
        size = math.prod(dims)
        payload = take(size * dtype.itemsize)
        arr = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        records[name] = arr.astype(arr.dtype.newbyteorder("="), copy=False)
    if offset != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - offset} trailing bytes after the last record")
    return records


def _scalar(value) -> np.ndarray:
    if isinstance(value, (bool, int, np.integer)):
        return np.asarray(int(value), dtype=np.int64)
    return np.asarray(float(value), dtype=np.float64)


def _require(records: dict[str, np.ndarray], name: str, path: str) -> np.ndarray:
    if name not in records:
        raise CheckpointError(f"{path}: missing record {name!r}")
    return records[name]


def _check_kind(records: dict[str, np.ndarray], path: str, kind: int, label: str) -> None:
    if int(_require(records, "kind", path)) != kind:
        raise CheckpointError(f"{path}: not a {label} artifact")


def save_dataset(
    path: str,
    graph: DynamicGraph,
    masked: DynamicGraph,
    splits: dict[str, LabeledPairSet],
    split_seed: int,
) -> None:
    """Store the full and masked adjacency stacks plus the role pair sets."""
    records: dict[str, np.ndarray] = {
        "kind": _scalar(KIND_DATASET),
        "n_nodes": _scalar(graph.n_nodes),
        "t_slots": _scalar(graph.t_slots),
        "undirected": _scalar(graph.undirected),
        "split_seed": _scalar(split_seed),
    }
    for prefix, g in (("full", graph), ("masked", masked)):
        for t, s in enumerate(g.adjacency.slices):
            records[f"{prefix}.{t}.indptr"] = s.indptr.astype(np.int64)
            records[f"{prefix}.{t}.indices"] = s.indices.astype(np.int64)
            records[f"{prefix}.{t}.data"] = s.data.astype(np.float64)
    for role in ("train", "val", "test"):
        records[f"split.{role}"] = splits[role].pairs
    tokens = [""] * len(graph.id_map)
    for token, idx in graph.id_map.items():
        tokens[idx] = token
    records["idmap.tokens"] = np.frombuffer("\n".join(tokens).encode("utf-8"), dtype=np.uint8)
    write_records(path, records)


def _load_graph(records: dict[str, np.ndarray], prefix: str, n: int, t_slots: int, undirected: bool, id_map: dict[str, int], path: str) -> DynamicGraph:
    slices = []
    for t in range(t_slots):
        slices.append(
            sp.csr_matrix(
                (
                    _require(records, f"{prefix}.{t}.data", path),
                    _require(records, f"{prefix}.{t}.indices", path),
                    _require(records, f"{prefix}.{t}.indptr", path),
                ),
                shape=(n, n),
            )
        )
    slot_edges = [edges_of_slice(s, undirected) for s in slices]
    return DynamicGraph(n, SliceSparse3(slices, shape=(n, n)), slot_edges, id_map, undirected)


def load_dataset(path: str) -> tuple[DynamicGraph, DynamicGraph, dict[str, LabeledPairSet], int]:
    records = read_records(path)
    _check_kind(records, path, KIND_DATASET, "dataset")
    n = int(_require(records, "n_nodes", path))
    t_slots = int(_require(records, "t_slots", path))
    undirected = bool(int(_require(records, "undirected", path)))
    blob = bytes(_require(records, "idmap.tokens", path))
    id_map = {token: idx for idx, token in enumerate(blob.decode("utf-8").split("\n"))} if blob else {}
    graph = _load_graph(records, "full", n, t_slots, undirected, id_map, path)
    masked = _load_graph(records, "masked", n, t_slots, undirected, id_map, path)
    splits = {
        role: LabeledPairSet(
            _require(records, f"split.{role}", path), np.ones(len(records[f"split.{role}"])), role
        )
        for role in ("train", "val", "test")
    }
    return graph, masked, splits, int(_require(records, "split_seed", path))


# every TrainConfig field but the transform, which is stored as a code
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "transform")


def save_model(path: str, store: ParamStore, config: TrainConfig, n_nodes: int, t_slots: int) -> None:
    """Store the trained parameters plus everything needed to rebuild the run."""
    records: dict[str, np.ndarray] = {
        "kind": _scalar(KIND_MODEL),
        "meta.n_nodes": _scalar(n_nodes),
        "meta.t_slots": _scalar(t_slots),
        "meta.transform": _scalar(TRANSFORM_KINDS.index(config.transform)),
    }
    for name in _CONFIG_FIELDS:
        records[f"meta.{name}"] = _scalar(getattr(config, name))
    for name in store.names():
        records[f"param.{name}"] = store.value(name)
    write_records(path, records)


def load_model(path: str) -> tuple[ParamStore, TrainConfig, int, int]:
    records = read_records(path)
    _check_kind(records, path, KIND_MODEL, "model")
    kwargs = {}
    for name in _CONFIG_FIELDS:
        value = _require(records, f"meta.{name}", path)
        kwargs[name] = int(value) if value.dtype == np.int64 else float(value)
    code = int(_require(records, "meta.transform", path))
    if not 0 <= code < len(TRANSFORM_KINDS):
        raise CheckpointError(f"{path}: unknown transform code {code}")
    config = TrainConfig(transform=TRANSFORM_KINDS[code], **kwargs)
    n_nodes = int(_require(records, "meta.n_nodes", path))
    t_slots = int(_require(records, "meta.t_slots", path))
    stored = {name[len("param."):]: arr for name, arr in records.items() if name.startswith("param.")}
    if not stored:
        raise CheckpointError(f"{path}: model checkpoint holds no parameters")
    # the names and shapes a run with this configuration trains
    try:
        expected = init_params(config, n_nodes, t_slots)
    except ParameterError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    for name in expected.names():
        if name not in stored:
            raise CheckpointError(f"{path}: missing record 'param.{name}'")
        if stored[name].shape != expected.value(name).shape:
            raise CheckpointError(
                f"{path}: record 'param.{name}' has shape {stored[name].shape}, "
                f"expected {expected.value(name).shape}"
            )
    for name in sorted(stored):
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected record 'param.{name}'")
    store = ParamStore()
    for name in sorted(stored):
        store.add(name, stored[name])
    return store, config, n_nodes, t_slots
