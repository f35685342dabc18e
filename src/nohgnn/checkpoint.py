"""Binary container of named arrays, and the artifacts stored in it.

The container layout is fixed: magic ``NOHG``, a 32-bit little-endian format
version, a 32-bit record count, then per record a 16-bit name length, the
UTF-8 name, a dtype tag byte (0 float64, 1 int64, 2 uint8), a rank byte,
64-bit dims, and the row-major little-endian payload. Records are written in
sorted name order so identical contents produce identical bytes.

Two artifact kinds share the format: a processed dataset (graph structure,
validation and test pairs, id map; nothing derivable) and a trained model
(parameters plus the training configuration).
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from nohgnn.data import DynamicGraph, LabeledPairSet, hold_out, unit_stack
from nohgnn.errors import CheckpointError, ParameterError, ShapeError
from nohgnn.tape import ParamStore
from nohgnn.tensor3 import SliceSparse3
from nohgnn.training import TRANSFORM_KINDS, TrainConfig, param_shapes

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
        # numpy also refuses an empty shape whose nonzero dims overflow its size type
        if size == 0 and math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
            raise CheckpointError(f"{path}: record {name!r} has dims {dims} past the array size limit")
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
    if _require_scalar(records, "kind", path) != kind:
        raise CheckpointError(f"{path}: not a {label} artifact")


def save_dataset(
    path: str,
    graph: DynamicGraph,
    masked: DynamicGraph,
    splits: dict[str, LabeledPairSet],
    split_seed: int,
) -> None:
    """Store the graph's CSR structure (its values are all 1), the validation
    and test pairs and the id map. ``hold_out`` derives the train pairs and
    ``masked`` from them on load, so neither is read; ``masked`` stays a
    parameter so that callers can pass ``split_edges``' result as it is."""
    records: dict[str, np.ndarray] = {
        "kind": _scalar(KIND_DATASET),
        "n_nodes": _scalar(graph.n_nodes),
        "t_slots": _scalar(graph.t_slots),
        "undirected": _scalar(graph.undirected),
        "split_seed": _scalar(split_seed),
    }
    # slot t's records are its run of the stacked matrix's rows, rebased
    m, n, offsets = graph.adjacency.matrix, graph.n_nodes, graph.adjacency.offsets.tolist()
    indptr, indices = m.indptr.astype(np.int64), m.indices.astype(np.int64)
    for t in range(graph.t_slots):
        records[f"full.{t}.indptr"] = indptr[t * n : (t + 1) * n + 1] - offsets[t]
        records[f"full.{t}.indices"] = indices[offsets[t] : offsets[t + 1]]
    for role in ("val", "test"):
        records[f"split.{role}"] = splits[role].pairs
    tokens = [""] * len(graph.id_map)
    for token, idx in graph.id_map.items():
        tokens[idx] = token
    records["idmap.tokens"] = np.frombuffer("\n".join(tokens).encode("utf-8"), dtype=np.uint8)
    write_records(path, records)


def _require_typed(records: dict[str, np.ndarray], name: str, path: str, dtypes, rank: int) -> np.ndarray:
    """A record of the given rank and of ``dtypes``, one dtype or a tuple."""
    arr = _require(records, name, path)
    dtypes = dtypes if isinstance(dtypes, tuple) else (dtypes,)
    if arr.dtype not in dtypes or arr.ndim != rank:
        expected = " or ".join(np.dtype(d).name for d in dtypes)
        raise CheckpointError(f"{path}: record {name!r} is {arr.dtype} of rank {arr.ndim}, expected {expected} of rank {rank}")
    return arr


def _require_scalar(records: dict[str, np.ndarray], name: str, path: str, dtypes=np.int64) -> int | float:
    """A rank-0 record as a Python number."""
    return _require_typed(records, name, path, dtypes, 0).item()


def _load_adjacency(records: dict[str, np.ndarray], n: int, t_slots: int, path: str) -> SliceSparse3:
    """The unit-valued adjacency stack of the ``full.{t}`` records, checked
    before scipy reads them: scipy trusts ``indptr`` and can read out of
    bounds on a corrupt one."""
    lengths, columns = [], []
    for t in range(t_slots):
        indptr = _require_typed(records, f"full.{t}.indptr", path, np.int64, 1)
        columns.append(_require_typed(records, f"full.{t}.indices", path, np.int64, 1))
        lengths.append(np.diff(indptr))
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(columns[-1]) or (lengths[-1] < 0).any():
            raise CheckpointError(
                f"{path}: record 'full.{t}.indptr' is not a row-pointer array for {n} rows and {len(columns[-1])} entries"
            )
    indices = np.concatenate(columns)
    # entry e lies in row rows[e] = t*n + i of the stacked matrix; its key
    # t*n*n + i*n + j rises strictly exactly when no row repeats or unsorts
    # a valid column
    rows = np.repeat(np.arange(t_slots * n, dtype=np.int64), np.concatenate(lengths))
    keys = rows * n + indices
    unsorted = np.append(False, np.diff(keys) <= 0)
    for bad, what in (((indices < 0) | (indices >= n), f"holds a column outside [0, {n})"), (unsorted, "repeats or unsorts a column within a row")):
        if bad.any():
            raise CheckpointError(f"{path}: record 'full.{rows[bad.argmax()] // n}.indices' {what}")
    return unit_stack(keys, n, t_slots)


def _load_split(records: dict[str, np.ndarray], role: str, n: int, t_slots: int, path: str) -> LabeledPairSet:
    name = f"split.{role}"
    pairs = _require_typed(records, name, path, np.int64, 2)
    if pairs.shape[1] != 3:
        raise CheckpointError(f"{path}: record {name!r} has shape {pairs.shape}, expected (k, 3)")
    if len(pairs) and (pairs.min() < 0 or pairs[:, :2].max() >= n or pairs[:, 2].max() >= t_slots):
        raise CheckpointError(
            f"{path}: record {name!r} holds a node outside [0, {n}) or a slot outside [0, {t_slots})"
        )
    return LabeledPairSet(pairs, np.ones(len(pairs)), role)


def load_dataset(path: str) -> tuple[DynamicGraph, DynamicGraph, dict[str, LabeledPairSet], int]:
    """The graph, masked graph, pair sets and split seed that ``save_dataset``
    stored, with the masked graph and train pairs rebuilt by ``hold_out``."""
    records = read_records(path)
    _check_kind(records, path, KIND_DATASET, "dataset")
    n = _require_scalar(records, "n_nodes", path)
    t_slots = _require_scalar(records, "t_slots", path)
    undirected = bool(_require_scalar(records, "undirected", path))
    if n < 0 or t_slots < 1:
        raise CheckpointError(f"{path}: records 'n_nodes'={n} and 't_slots'={t_slots} describe no graph")
    blob = bytes(_require_typed(records, "idmap.tokens", path, np.uint8, 1))
    try:
        id_map = {token: idx for idx, token in enumerate(blob.decode("utf-8").split("\n"))} if blob else {}
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: record 'idmap.tokens' is not valid UTF-8") from None
    if blob and (len(id_map) != n or blob.count(b"\n") != n - 1):
        raise CheckpointError(f"{path}: record 'idmap.tokens' does not hold {n} distinct tokens")
    adjacency = _load_adjacency(records, n, t_slots, path)
    try:
        graph = DynamicGraph(n, adjacency, id_map, undirected)
        val, test = (_load_split(records, role, n, t_slots, path) for role in ("val", "test"))
        train, masked = hold_out(graph, val, test)
    except (ShapeError, ParameterError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return graph, masked, {"train": train, "val": val, "test": test}, _require_scalar(records, "split_seed", path)


# every TrainConfig field but the transform, which is stored as a code, with
# the dtype of its record (annotations are strings under postponed evaluation)
_CONFIG_FIELDS = {
    f.name: {"int": np.int64, "float": np.float64}[f.type]
    for f in dataclasses.fields(TrainConfig)
    if f.name != "transform"
}


def save_model(path: str, store: ParamStore, config: TrainConfig, n_nodes: int, t_slots: int) -> None:
    """Store the trained parameters plus everything needed to rebuild the run."""
    records: dict[str, np.ndarray] = {
        "kind": _scalar(KIND_MODEL),
        "meta.n_nodes": _scalar(n_nodes),
        "meta.t_slots": _scalar(t_slots),
        "meta.transform": _scalar(TRANSFORM_KINDS.index(config.transform)),
    }
    for name, dtype in _CONFIG_FIELDS.items():
        records[f"meta.{name}"] = np.asarray(getattr(config, name), dtype=dtype)
    for name in store.names():
        records[f"param.{name}"] = store.value(name)
    write_records(path, records)


def load_model(path: str) -> tuple[ParamStore, TrainConfig, int, int]:
    records = read_records(path)
    _check_kind(records, path, KIND_MODEL, "model")
    kwargs = {}
    for name, dtype in _CONFIG_FIELDS.items():
        # older files stored a float field that held an integral value as int64
        accepted = (np.float64, np.int64) if dtype is np.float64 else dtype
        value = _require_scalar(records, f"meta.{name}", path, accepted)
        kwargs[name] = float(value) if dtype is np.float64 else value
    code = _require_scalar(records, "meta.transform", path)
    if not 0 <= code < len(TRANSFORM_KINDS):
        raise CheckpointError(f"{path}: unknown transform code {code}")
    config = TrainConfig(transform=TRANSFORM_KINDS[code], **kwargs)
    n_nodes = _require_scalar(records, "meta.n_nodes", path)
    t_slots = _require_scalar(records, "meta.t_slots", path)
    stored = {name[len("param."):]: arr for name, arr in records.items() if name.startswith("param.")}
    if not stored:
        raise CheckpointError(f"{path}: model checkpoint holds no parameters")
    # the shapes come lazily, so a corrupt layer count stops at the first
    # missing record instead of enumerating every layer it names
    expected = set()
    try:
        for name, shape in param_shapes(config, n_nodes, t_slots):
            if name not in stored:
                raise CheckpointError(f"{path}: missing record 'param.{name}'")
            if stored[name].shape != shape:
                raise CheckpointError(f"{path}: record 'param.{name}' has shape {stored[name].shape}, expected {shape}")
            expected.add(name)
    except ParameterError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    store = ParamStore()
    for name in sorted(stored):
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected record 'param.{name}'")
        store.add(name, stored[name])
    return store, config, n_nodes, t_slots
