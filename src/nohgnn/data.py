"""Temporal edge-list ingestion, snapshot binning, and label-set construction.

An edge list is plain text, one event per line: ``src dst timestamp [weight]``
with whitespace or comma separators and ``#`` comments. Node ids are remapped
to dense 0..N-1 in order of first appearance. Events are binned into T
snapshots by uniform timestamp ranges, and per-slot edges are split into
train/validation/test positives. ``hold_out`` derives the train positives and
the masked graph, the adjacency used for message passing, from the graph and
its validation and test edges.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from nohgnn.errors import ParameterError, ParseError, SamplingError, ShapeError
from nohgnn.tensor3 import SliceSparse3

log = logging.getLogger(__name__)

SPLIT_FRACTIONS = (0.7, 0.2, 0.1)
MIN_SPLITTABLE_EDGES = 3
SAMPLE_ROUNDS = 32
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped interaction, with endpoints already densely remapped."""

    src: int
    dst: int
    timestamp: int


@dataclass(frozen=True)
class EdgeTable:
    """Timestamped interactions as int64 columns: the dense endpoint ids
    ``src`` and ``dst`` and the exact timestamp ``ts`` of every event."""

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_events(cls, events) -> "EdgeTable":
        """The columns of records with ``src``, ``dst`` and ``timestamp``."""
        try:
            return cls(*(
                np.array([getattr(e, name) for e in events], dtype=np.int64).reshape(-1)
                for name in ("src", "dst", "timestamp")
            ))
        except OverflowError:
            raise ParameterError("an event field lies outside the int64 range") from None


def load_edge_list(path: str) -> tuple[EdgeTable, dict[str, int]]:
    """Parse an edge-list file into an event table plus the id remapping.

    Returns (events, id_map) where id_map sends the external id token to its
    dense index, assigned by first appearance in file order. Integer stamps
    are read exactly and other numeric ones truncated through float; a stamp
    outside the int64 range is refused. A malformed file raises
    ``ParseError`` naming the first line that does not parse.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = list(map(str.strip, text.split("\n")))
    line_nos = [k for k, line in enumerate(lines, start=1) if line and line[0] != "#"]
    if not line_nos:
        raise ParseError(f"{path}: no edge events found")
    fields = "\n".join([lines[k - 1] for k in line_nos]).replace(",", " ")
    counts = np.fromiter(map(len, map(str.split, fields.split("\n"))), np.int64, len(line_nos))
    try:
        if not np.all((counts == 3) | (counts == 4)):
            raise ValueError
        tokens = np.array(fields.split(), dtype=object)
        starts = np.cumsum(counts) - counts
        ends = tokens[(starts[:, None] + [0, 1]).ravel()].tolist()
        ts = _timestamps(tokens[starts + 2])
        list(map(float, tokens[starts[counts == 4] + 3]))
    except (ValueError, OverflowError):
        raise ParseError(_first_bad_line(path, lines, line_nos)) from None
    id_map = {token: k for k, token in enumerate(dict.fromkeys(ends))}
    dense = np.fromiter(map(id_map.__getitem__, ends), np.int64, len(ends))
    return EdgeTable(dense[0::2], dense[1::2], ts), id_map


def _first_bad_line(path: str, lines: list[str], line_nos: list[int]) -> str:
    """The error message of the first data line that does not parse; the
    caller has seen one fail."""
    for line_no in line_nos:
        line = lines[line_no - 1]
        parts = line.replace(",", " ").split()
        if len(parts) not in (3, 4):
            return f"{path}:{line_no}: expected 'src dst timestamp [weight]', got {line!r}"
        try:
            ts = _parse_timestamp(parts[2])
            if len(parts) == 4:
                float(parts[3])
        except (ValueError, OverflowError) as exc:
            return f"{path}:{line_no}: {exc}"
        if not INT64_MIN <= ts <= INT64_MAX:
            return f"{path}:{line_no}: timestamp {parts[2]!r} lies outside the int64 range"
    raise AssertionError(f"{path}: no line fails to parse")


def utf8_lines(fh, path: str):
    """The lines of a text file opened as UTF-8; a byte sequence that is not
    UTF-8 raises ``ParseError`` naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _timestamps(tokens: np.ndarray) -> np.ndarray:
    """The int64 stamps of an object array of tokens, read as by
    ``_parse_timestamp``. numpy's object cast calls ``int`` on each token
    without a Python call per token, about three times as fast on integer
    columns; a float token makes it fail, and the mapped parser then reads
    the column again."""
    try:
        return tokens.astype(np.int64)
    except ValueError:
        return np.array(list(map(_parse_timestamp, tokens)), dtype=np.int64)


def _parse_timestamp(token: str) -> int:
    """Integer tokens exactly; other numeric tokens truncated through float."""
    try:
        return int(token)
    except ValueError:
        return int(float(token))


class DynamicGraph:
    """A sequence of graph snapshots over one shared node set.

    The adjacency, one stacked (T*N, N) CSR matrix, is the only record of
    the edges; ``slot_edges[t]`` lists the distinct edges of slot t as (i, j)
    rows, canonicalized i < j when the graph is undirected and sorted
    lexicographically, derived from it on first use.
    """

    def __init__(self, n_nodes: int, adjacency: SliceSparse3, id_map: dict[str, int], undirected: bool = True):
        if adjacency.shape2d != (n_nodes, n_nodes):
            raise ShapeError(f"adjacency {adjacency.shape2d} does not match n_nodes={n_nodes}")
        self.n_nodes = n_nodes
        self.adjacency = adjacency
        self.id_map = id_map
        self.undirected = undirected
        self.overlap_cache: dict[int, SliceSparse3] = {}
        self._slot_edges: list[np.ndarray] | None = None
        self._keys: np.ndarray | None = None
        if undirected:
            self._check_symmetric()

    @classmethod
    def from_slot_keys(cls, g: "DynamicGraph", keys: np.ndarray) -> "DynamicGraph":
        """The unit-valued graph on ``g``'s nodes and slots of the entries
        whose ascending slot keys are ``keys``, a subset of ``g.slot_keys()``
        that holds every kept entry's mirror when ``g`` is undirected.

        Such a graph is symmetric because ``g`` was checked to be, so the
        check is not run again, and ``slot_keys()`` is seeded from ``keys``.
        """
        # built as directed, which runs no check, then given g's direction
        graph = cls(g.n_nodes, unit_stack(keys, g.n_nodes, g.t_slots), g.id_map, undirected=False)
        graph.undirected = g.undirected
        graph._keys = keys
        return graph

    def _check_symmetric(self) -> None:
        """Raise ``ShapeError`` naming the first slot whose adjacency differs
        from its transpose, in an entry or a value."""
        n = self.n_nodes
        keys = self.slot_keys()
        i, j = divmod(keys % (n * n), n)
        # transposing moves no entry to another slot, so the transposed keys,
        # sorted, line up slot by slot with the keys
        transposed = keys + (j - i) * (n - 1)
        order = np.argsort(transposed)
        values = self.adjacency.matrix.data
        differ = (transposed[order] != keys) | (values[order] != values)
        if differ.any():
            raise ShapeError(f"slot {int(keys[differ.argmax()]) // (n * n)} adjacency is not symmetric")

    @property
    def t_slots(self) -> int:
        return self.adjacency.t_slots

    @property
    def slot_edges(self) -> list[np.ndarray]:
        if self._slot_edges is None:
            rows = self.edge_rows()
            cuts = np.searchsorted(rows[:, 2], np.arange(1, self.t_slots))
            self._slot_edges = np.split(np.ascontiguousarray(rows[:, :2]), cuts)
        return self._slot_edges

    @property
    def edge_count(self) -> int:
        return sum(len(e) for e in self.slot_edges)

    def edge_rows(self) -> np.ndarray:
        """Every slot edge as an (i, j, t) row, in (t, i, j) order."""
        t, rest = np.divmod(self.slot_keys(), self.n_nodes * self.n_nodes)
        i, j = np.divmod(rest, self.n_nodes)
        rows = np.column_stack([i, j, t])
        return rows[j > i] if self.undirected else rows

    def neighbors(self, i: int, t: int) -> np.ndarray:
        m, r = self.adjacency.matrix, t * self.n_nodes + i
        return m.indices[m.indptr[r] : m.indptr[r + 1]]

    def edge_keys(self, t: int) -> np.ndarray:
        """Int64 keys i*N+j of every stored adjacency entry at slot t, in
        CSR order, so they line up with the slice's values."""
        n, indptr = self.n_nodes, self.adjacency.matrix.indptr
        return self.slot_keys()[indptr[t * n] : indptr[(t + 1) * n]] - t * n * n

    def slot_keys(self) -> np.ndarray:
        """Sorted int64 keys t*N^2 + i*N + j of every stored entry, r*N + j
        for the entry (r, j) of the canonical stacked matrix, r = t*N + i;
        built on first use and shared by every caller, which must not write it."""
        if self._keys is None:
            m = self.adjacency.matrix
            self._keys = np.repeat(np.arange(m.shape[0], dtype=np.int64) * self.n_nodes, np.diff(m.indptr)) + m.indices
        return self._keys


@dataclass
class LabeledPairSet:
    """Labeled node pairs (i, j, t) for one role; y=1 rows are observed edges."""

    pairs: np.ndarray
    labels: np.ndarray
    role: str

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if len(self.pairs) != len(self.labels):
            raise ShapeError("pairs and labels lengths differ")

    @property
    def size(self) -> int:
        return len(self.labels)


def merge_pair_sets(a: LabeledPairSet, b: LabeledPairSet) -> LabeledPairSet:
    return LabeledPairSet(np.concatenate([a.pairs, b.pairs]), np.concatenate([a.labels, b.labels]), a.role)


def bin_snapshots(
    events: EdgeTable | list[EdgeEvent],
    t_slots: int,
    undirected: bool = True,
    id_map: dict[str, int] | None = None,
) -> DynamicGraph:
    """Bin events into T uniform timestamp ranges and build the adjacency.

    ``events`` is an ``EdgeTable`` or a list of ``EdgeEvent`` records. Slot
    index is floor(T*(ts-ts_min)/(ts_max-ts_min+1)), computed in exact
    integer arithmetic. Self-loops are dropped; duplicate edges within a slot
    collapse to a single unit entry.
    """
    if t_slots < 1:
        raise ParameterError(f"t_slots must be >= 1, got {t_slots}")
    table = events if isinstance(events, EdgeTable) else EdgeTable.from_events(events)
    if not len(table):
        raise ParameterError("cannot bin an empty event list")
    ts_min, ts_max = int(table.ts.min()), int(table.ts.max())
    span = ts_max - ts_min + 1
    if ts_min == ts_max and t_slots > 1:
        log.warning("all %d events share one timestamp; every event lands in slot 0", len(table))
    negative = np.flatnonzero((table.src < 0) | (table.dst < 0))
    if len(negative):
        k = int(negative[0])
        raise ParameterError(
            f"event {k} ({table.src[k]}, {table.dst[k]}, {table.ts[k]}) has a negative endpoint id"
        )
    n_nodes = 1 + max(int(table.src.max()), int(table.dst.max()))
    if t_slots * n_nodes * n_nodes > INT64_MAX:
        raise ParameterError(f"{t_slots} slots of {n_nodes} nodes overflow the int64 edge keys")

    # slot t >= 1 starts at ts_min + ceil(t*span/T), so the stamp before that
    # start is the last of slot t - 1; Python integers keep it exact
    last = [ts_min + -(-t * span // t_slots) - 1 for t in range(1, t_slots)]
    slot = np.searchsorted(np.array(last, dtype=np.int64), table.ts)
    loop = table.src == table.dst
    src, dst, slot = table.src[~loop], table.dst[~loop], slot[~loop]
    if undirected:
        src, dst, slot = np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([slot, slot])
    keys = np.sort(slot * (n_nodes * n_nodes) + src * n_nodes + dst)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    return DynamicGraph(n_nodes, unit_stack(keys, n_nodes, t_slots), dict(id_map or {}), undirected)


def unit_stack(keys: np.ndarray, n_nodes: int, t_slots: int) -> SliceSparse3:
    """The unit-valued stack of the entries whose ascending, distinct int64
    keys are t*N^2 + i*N + j: key // N is the entry's row t*N + i of the
    stacked matrix, and key % N its column."""
    rows, cols = np.divmod(keys, n_nodes)
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=t_slots * n_nodes)))
    return SliceSparse3(sp.csr_matrix((np.ones(len(keys)), cols, indptr), shape=(t_slots * n_nodes, n_nodes)), t_slots)


def _apportion(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Largest-remainder apportionment of n items into the given fractions."""
    exact = [n * f for f in fractions]
    base = [math.floor(x) for x in exact]
    remainders = np.asarray([x - b for x, b in zip(exact, base)])
    for idx in np.argsort(-remainders, kind="stable")[: n - sum(base)]:
        base[idx] += 1
    return base


def split_edges(
    g: DynamicGraph,
    fractions: tuple[float, float, float] = SPLIT_FRACTIONS,
    seed: int = 0,
) -> tuple[LabeledPairSet, LabeledPairSet, LabeledPairSet, DynamicGraph]:
    """Partition each slot's edges into train/val/test positives.

    Slots with fewer than three edges send everything to train. The train
    positives and the masked graph, without the validation and test edges,
    come from ``hold_out``, as when a stored dataset is loaded.
    """
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError(f"fractions must be positive and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    roles = []
    for t, edges in enumerate(g.slot_edges):
        n_edges = len(edges)
        if 0 < n_edges < MIN_SPLITTABLE_EDGES:
            log.warning("slot %d has only %d edge(s); assigning all to train", t, n_edges)
        counts = [n_edges, 0, 0] if n_edges < MIN_SPLITTABLE_EDGES else _apportion(n_edges, fractions)
        # an empty slot draws no permutation; the shuffled edges fall into train, val and test in that order
        role = np.empty(n_edges, dtype=np.int8)
        role[rng.permutation(n_edges)] = np.repeat(np.arange(3, dtype=np.int8), counts)
        roles.append(role)
    role = np.concatenate(roles)
    pairs = g.edge_rows()
    val, test = (LabeledPairSet(pairs[role == r], np.ones(int((role == r).sum())), name)
                 for r, name in ((1, "val"), (2, "test")))
    train, masked = hold_out(g, val, test)
    return train, val, test, masked


def hold_out(g: DynamicGraph, val: LabeledPairSet, test: LabeledPairSet) -> tuple[LabeledPairSet, DynamicGraph]:
    """The train positives and the masked graph left when the validation
    and test pairs are held out of ``g``: every other slot edge in (t, i, j)
    order, and ``g`` with unit values, without the held-out entries and,
    when undirected, their mirrors. A held-out pair that is not a slot edge
    (i < j when undirected), or is held out twice, raises ``ParameterError``.
    """
    n, span = g.n_nodes, g.n_nodes * g.n_nodes
    held = np.concatenate([val.pairs, test.pairs])
    pairs = g.edge_rows()
    held_keys, pair_keys = (rows[:, 2] * span + rows[:, 0] * n + rows[:, 1] for rows in (held, pairs))
    # a pair outside the graph could alias the key of an edge
    stray = ~_contains(pair_keys, held_keys) | np.any((held < 0) | (held >= [n, n, g.t_slots]), axis=1)
    order = np.argsort(held_keys, kind="stable")
    twice = np.zeros(len(held), dtype=bool)
    twice[order[1:]] = np.diff(held_keys[order]) == 0
    not_edge = "is not an edge of the graph" + (" with i < j" if g.undirected else "")
    for bad, what in ((stray, not_edge), (twice, "is held out twice")):
        if bad.any():
            i, j, t = held[bad.argmax()].tolist()
            raise ParameterError(f"held-out pair ({i}, {j}) at slot {t} {what}")
    # every held-out key is now an edge key, and its mirror is one too when undirected
    keys = g.slot_keys()
    train, kept = np.ones(len(pairs), dtype=bool), np.ones(len(keys), dtype=bool)
    train[np.searchsorted(pair_keys, held_keys)] = kept[np.searchsorted(keys, held_keys)] = False
    if g.undirected:
        kept[np.searchsorted(keys, held[:, 2] * span + held[:, 1] * n + held[:, 0])] = False
    return LabeledPairSet(pairs[train], np.ones(int(train.sum())), "train"), DynamicGraph.from_slot_keys(g, keys[kept])


def negative_sample(
    g: DynamicGraph,
    positives: LabeledPairSet,
    ratio: int = 1,
    seed: int | list[int] = 0,
) -> LabeledPairSet:
    """Draw ``ratio`` label-0 pairs per positive by corrupting the tail node.

    A candidate (i, j', t) is accepted when j' != i, the pair is not an edge
    of ``g`` at slot t, and it was not already sampled in this call. Each of
    at most ``SAMPLE_ROUNDS`` rounds draws one tail per pending candidate and
    judges the whole round at once against int64 keys t*N^2 + a*N + b of the
    canonical pair (a, b): edge and already-taken membership by binary search
    in sorted keys, and among candidates of the round sharing a key only the
    first is accepted. Validity depends on the key alone, so this accepts
    exactly what a loop over the candidates in order would. Anchors still
    pending after the rounds fall back to a uniform non-edge of the slot; a
    fully connected slot raises a sampling error.
    """
    if ratio < 1:
        raise ParameterError(f"negative ratio must be >= 1, got {ratio}")
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    slot_span = n * n
    anchors = np.repeat(positives.pairs[:, 0], ratio)
    slots = np.repeat(positives.pairs[:, 2], ratio)
    total = len(anchors)
    out = np.empty((total, 3), dtype=np.int64)
    out[:, 0] = anchors
    out[:, 2] = slots
    edges = g.slot_keys()
    taken = np.zeros(0, dtype=np.int64)
    pending = np.arange(total)
    rounds = 0
    while len(pending) and rounds < SAMPLE_ROUNDS:
        rounds += 1
        a, b = anchors[pending], rng.integers(0, n, size=len(pending))
        if g.undirected:
            a, b = np.minimum(a, b), np.maximum(a, b)
        keys = slots[pending] * slot_span + a * n + b
        order = np.argsort(keys, kind="stable")
        lead = np.ones(len(keys), dtype=bool)
        lead[1:] = keys[order[1:]] != keys[order[:-1]]
        first = np.empty(len(keys), dtype=bool)
        first[order] = lead
        accept = first & (a != b) & ~_contains(edges, keys) & ~_contains(taken, keys)
        out[pending[accept], 0] = a[accept]
        out[pending[accept], 1] = b[accept]
        taken = np.sort(np.concatenate([taken, keys[accept]]))
        pending = pending[~accept]
    for k in pending:
        i, t = int(anchors[k]), int(slots[k])
        lo, hi = np.searchsorted(taken, [t * slot_span, (t + 1) * slot_span])
        a, b = _fallback_non_edge(g, i, t, taken[lo:hi] - t * slot_span, rng)
        out[k, 0], out[k, 1] = a, b
        key = t * slot_span + a * n + b
        taken = np.insert(taken, np.searchsorted(taken, key), key)
    return LabeledPairSet(out, np.zeros(total), positives.role)


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key occurs in the ascending array ``sorted_keys``."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _candidate_tails(g: DynamicGraph, i: int, t: int, taken: np.ndarray) -> np.ndarray:
    """Ascending tails j whose pair with anchor i is a free non-edge at slot t.

    ``taken`` holds the sorted slot-local keys a*N+b already sampled.
    """
    n = g.n_nodes
    free = np.ones(n, dtype=bool)
    free[g.neighbors(i, t)] = False
    free[i] = False
    tails = np.flatnonzero(free)
    keys = np.where(tails > i, i * n + tails, tails * n + i) if g.undirected else i * n + tails
    return tails[~_contains(taken, keys)]


def _fallback_non_edge(
    g: DynamicGraph, i: int, t: int, taken: np.ndarray, rng: np.random.Generator
) -> tuple[int, int]:
    """A uniform free non-edge for anchor i at slot t, else of the whole slot.

    One draw indexes the free tails of i in ascending order or, when i has
    none, the free pairs of the slot in ascending (a, b) order; the second
    is located row by row from per-row free counts.
    """
    tails = _candidate_tails(g, i, t, taken)
    if len(tails):
        j = int(tails[rng.integers(0, len(tails))])
        return (i, j) if (i < j or not g.undirected) else (j, i)
    n = g.n_nodes
    keys = g.edge_keys(t)
    heads, ends = np.divmod(keys, n)
    in_domain = ends > heads if g.undirected else ends != heads
    blocked = np.union1d(keys[in_domain], taken)
    domain_per_row = n - 1 - np.arange(n) if g.undirected else np.full(n, n - 1)
    free_per_row = domain_per_row - np.bincount(blocked // n, minlength=n)
    total = int(free_per_row.sum())
    if total == 0:
        raise SamplingError(f"slot {t} has no remaining non-edges to sample")
    pick = int(rng.integers(0, total))
    row_ends = np.cumsum(free_per_row)
    a = int(np.searchsorted(row_ends, pick, side="right"))
    cols = np.arange(a + 1, n) if g.undirected else np.delete(np.arange(n), a)
    cols = cols[~_contains(blocked, a * n + cols)]
    return a, int(cols[pick - (row_ends[a] - free_per_row[a])])
