"""Multi-hop overlap counting and structural feature generation.

The overlap tensor B sums the first K adjacency powers, so b_ijt counts walks
of length at most K between i and j at slot t. Per-node structural features
pass each b value through an edge perceptron, sum over the row's support, and
finish with a node perceptron.

Because b values are small integers with few distinct values, the edge
perceptron runs once per distinct value and a constant counts matrix performs
the per-row summation; this is arithmetic-identical to mapping every entry
separately and keeps node-relabeling equivariance bit-exact. A feature row
depends only on its row of that histogram, and few of the T*N rows are
distinct (7,199 of 273,604 on an ask-ubuntu-sized input), so the counts
matrix keeps one row per class of identical rows and the node perceptron runs
once per class. The features stay per class, and no (T, N, F) feature tensor
is built. Both perceptrons work row by row, so every feature row keeps its
bits; only the summation order of the generator's own gradients changes.

A pair score o_it · o_jt then depends only on the class pair (class(t, i),
class(t, j)), and few class pairs are distinct (832,623 for the 2,834,658
aggregation-pattern entries of the same input). The context's ``PairPlan``
lists them, so the score op (``Tape.pair_dot``) scores each pair once.
"""

from __future__ import annotations

import mmap
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from nohgnn.data import DynamicGraph
from nohgnn.errors import ParameterError
from nohgnn.tape import Node, ParamStore, Tape, init_dense
from nohgnn.tensor3 import SlicePattern, SliceSparse3, index_dtype, sparse_matpower_sum


def generator_param_shapes(dim: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each feature-generator parameter's name and shape, in creation order:
    the edge perceptron maps 1->F->F, the node perceptron F->F->F."""
    if dim < 1:
        raise ParameterError(f"feature dimension must be >= 1, got {dim}")
    for name, fan_in in (("edge", 1), ("theta", dim)):
        yield f"gen.{name}.w1", (fan_in, dim)
        yield f"gen.{name}.b1", (dim,)
        yield f"gen.{name}.w2", (dim, dim)
        yield f"gen.{name}.b2", (dim,)


def init_generator_params(store: ParamStore, dim: int, rng: np.random.Generator) -> None:
    """Register both feature perceptrons: Xavier-uniform weights drawn in a
    fixed creation order, zero biases."""
    for name, shape in generator_param_shapes(dim):
        store.add(name, init_dense(shape, rng))


def compute_overlap_tensor(g: DynamicGraph, k_hops: int) -> SliceSparse3:
    """Sum of the first k_hops adjacency powers, cached on the graph.

    The tensor carries no gradient, so repeated calls return the same cached
    object bit-identically.
    """
    if k_hops not in g.overlap_cache:
        g.overlap_cache[k_hops] = sparse_matpower_sum(g.adjacency, k_hops)
    return g.overlap_cache[k_hops]


# Odd 64-bit multipliers of the row hash in ``_row_representatives``; a
# module constant so a test can force collisions.
ROW_HASH_WEIGHTS = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB], dtype=np.uint64)

# Bits a ``build_pair_plan`` sort key may use: a pair key with its entry
# packed below it when they fit, else the pair key alone and an argsort; a
# module constant so a test can force the argsort.
PLAN_KEY_BITS = 63


class PairPlan(NamedTuple):
    """The distinct ordered class pairs of a pattern's entries, sorted: pair p
    joins class rows ``rows[p]`` and ``cols[p]``, ``indptr`` delimits each
    row class's pairs as a CSR indptr, and entry e of the pattern's flat
    layout is pair ``pair_of[e]``. Indices are int32 where they fit."""

    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    pair_of: np.ndarray


@dataclass(frozen=True)
class FeatureContext:
    """Constant quantities for feature generation over one overlap tensor.

    ``unique_values`` holds the distinct b values. Row (t, i) of the walk-count
    histogram counts, in its u-th column, the occurrences of the u-th value in
    row i of slot t. ``counts`` is a (classes, U) matrix holding each distinct
    histogram row once, in order of first occurrence, and ``row_class`` is the
    (T, N) index of each (t, i) row's class, so ``counts[row_class.ravel()]``
    is the full (T*N, U) histogram.
    """

    unique_values: np.ndarray
    counts: sp.csr_matrix
    row_class: np.ndarray
    _plans: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False)

    def pair_plan(self, pattern: SlicePattern) -> PairPlan:
        """The class pairs of ``pattern``'s entries under this context's
        classes, built on the first call for a pattern, as the first score
        forward makes it, and kept while the pattern lives."""
        plan = self._plans.get(pattern)
        if plan is None:
            plan = self._plans[pattern] = build_pair_plan(self.row_class, self.counts.shape[0], pattern)
        return plan


def build_feature_context(b: SliceSparse3) -> FeatureContext:
    m = b.matrix
    unique = np.unique(m.data)
    # one CSR row per (slot, node) over the value columns: B's own row
    # structure, each entry moved to its value's column, then summed, on a
    # copy of B's indptr, which the sum rewrites in place
    counts = sp.csr_matrix((np.ones(m.nnz), np.searchsorted(unique, m.data), m.indptr.copy()), shape=(m.shape[0], len(unique)))
    counts.sum_duplicates()
    rep = _row_representatives(counts)
    # classes are numbered by their first rows, in row order
    is_first = rep == np.arange(len(rep))
    firsts = np.flatnonzero(is_first)
    row_class = (np.cumsum(is_first) - 1)[rep].reshape(b.t_slots, b.shape2d[0])
    return FeatureContext(unique, counts[firsts], row_class)


def _mapped(n: int, dtype) -> np.ndarray:
    """An uninitialised array of ``n`` values in its own anonymous memory
    map, which is unmapped when the array is freed.

    A plan's arrays outlive the step that builds them. Held in the heap,
    they kept the step memory freed below them resident: 92 MiB more after
    the first training of an L/identity benchmark round, and 6.6% more peak
    RSS over the benchmark's run.
    """
    return np.frombuffer(mmap.mmap(-1, max(n, 1) * np.dtype(dtype).itemsize), dtype=dtype, count=n)


def build_pair_plan(row_class: np.ndarray, n_classes: int, pattern: SlicePattern) -> PairPlan:
    """The ``PairPlan`` of the pattern's entries (t, i, j), whose class pair
    is (row_class[t, i], row_class[t, j]).

    One sort of int64 keys, pair key ci * n_classes + cj with the entry
    number packed below it, orders the entries by pair and says where each
    went. ci is read at the entry's stacked row t*N + i, cj at t*N + j, both
    in ``row_class`` flattened, and the pair indices are narrowed before the
    next array is made. The arrays the plan keeps, all but the short
    ``indptr``, are ``_mapped``.
    """
    nnz, n = pattern.nnz, pattern.n_rows
    index = index_dtype(nnz, n_classes)
    bits = nnz.bit_length()
    packed = (n_classes * n_classes) << bits <= 1 << PLAN_KEY_BITS
    pair_of = _mapped(nnz, index)
    flat_class = row_class.ravel()
    keys = np.repeat(flat_class * n_classes, np.diff(pattern.row_splits))
    cols = np.repeat(np.arange(0, pattern.t_slots * n, n), np.diff(pattern.offsets))
    cols += pattern.cols
    keys += flat_class.take(cols)
    del cols
    if packed:
        keys <<= bits
        keys |= np.arange(nnz)
        keys.sort()
        # the cast keeps the low bits, the entry number among them
        entry = keys.astype(index)
        entry &= (1 << bits) - 1
        keys >>= bits
    else:
        entry = np.argsort(keys).astype(index)
        keys = keys[entry]
    first = np.empty(nnz, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pairs = keys[first]
    del keys
    order = np.cumsum(first, dtype=index)
    order -= 1
    pair_of[entry] = order
    del first, entry, order
    rows, cols = _mapped(len(pairs), index), _mapped(len(pairs), index)
    np.floor_divide(pairs, n_classes, out=rows)
    np.remainder(pairs, n_classes, out=cols)
    indptr = np.searchsorted(rows, np.arange(n_classes + 1)).astype(index)
    return PairPlan(rows, cols, indptr, pair_of)


def _row_representatives(m: sp.csr_matrix) -> np.ndarray:
    """For every row of a canonical CSR matrix, the first row equal to it
    entry for entry.

    Nonempty rows are grouped by a 64-bit hash of their entries with one
    sort, and every row is then compared, length and entries, with its
    group's first row. A group holding a row that differs from that row (a
    hash collision) is split exactly on the rows' bytes.
    """
    lengths = np.diff(m.indptr)
    # every empty row's representative is the first empty row
    rep = np.full(len(lengths), np.argmin(lengths), dtype=np.int64)
    filled = np.flatnonzero(lengths)
    if filled.size == 0:
        return rep
    w = ROW_HASH_WEIGHTS
    x = m.indices.astype(np.uint64) * w[0]
    x += m.data.view(np.uint64) * w[1]
    x ^= x >> np.uint64(29)
    x *= w[2]
    x ^= x >> np.uint64(32)
    row_hash = np.add.reduceat(x, m.indptr[filled])
    order = np.argsort(row_hash)
    h = row_hash[order]
    starts = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))
    rows = filled[order]
    rep[rows] = np.repeat(np.minimum.reduceat(rows, starts), np.diff(starts, append=len(rows)))
    leaders = rep[filled]
    # each entry's counterpart in its leader's row; a row longer than its
    # leader may run past the last entry, and the length check flags it
    partner = np.arange(m.nnz) + np.repeat(m.indptr[leaders] - m.indptr[filled], lengths[filled])
    np.minimum(partner, m.nnz - 1, out=partner)
    differ = (m.indices[partner] != m.indices) | (m.data[partner] != m.data)
    bad = np.logical_or.reduceat(differ, m.indptr[filled]) | (lengths[filled] != lengths[leaders])
    for leader in np.unique(leaders[bad]):
        first: dict[bytes, int] = {}
        for r in np.flatnonzero(rep == leader):
            lo, hi = m.indptr[r], m.indptr[r + 1]
            rep[r] = first.setdefault(m.indices[lo:hi].tobytes() + m.data[lo:hi].tobytes(), r)
    return rep


class ClassFeatures(NamedTuple):
    """Structural features stored once per class of identical walk-count
    rows: the feature row of node i at slot t is row ``ctx.row_class[t, i]``
    of the (classes, F) node ``rows``."""

    rows: Node
    ctx: FeatureContext


def _perceptron(tape: Tape, x: Node, leaves: dict[str, Node], prefix: str) -> Node:
    h = tape.relu(tape.affine(x, leaves[f"{prefix}.w1"], leaves[f"{prefix}.b1"]))
    return tape.affine(h, leaves[f"{prefix}.w2"], leaves[f"{prefix}.b2"])


def generate_features(tape: Tape, ctx: FeatureContext, leaves: dict[str, Node]) -> ClassFeatures:
    """Structural features, one row per class of ``ctx``.

    Row (t, i) is g_theta applied to the support-sum of g_edge over row i of
    the overlap slice t; empty rows feed the zero vector into g_theta. Both
    perceptrons run on the distinct rows only.
    """
    col = tape.constant(ctx.unique_values.reshape(-1, 1))
    edge_out = _perceptron(tape, col, leaves, "gen.edge")
    summed = tape.csr_const_matmul(ctx.counts, edge_out)
    return ClassFeatures(_perceptron(tape, summed, leaves, "gen.theta"), ctx)
