"""Differential tests of the propagation ops against the earlier ops in
``propagate_oracle.py``: values and gradients must agree bit for bit."""

import functools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nohgnn.model as model_mod
from nohgnn import structural
from nohgnn.data import bin_snapshots, split_edges
from nohgnn.errors import ParameterError, ShapeError
from nohgnn.model import init_model_params
from nohgnn.overlap import overlap_scores
from nohgnn.structural import build_feature_context, compute_overlap_tensor
from nohgnn.synth import planted_partition
from nohgnn.tape import ParamStore, Tape
from nohgnn.tensor3 import (
    FacewiseOperator,
    SlicePattern,
    SliceSparse3,
    SlotSumOperator,
    Tensor3,
    _sddmm,
    m_product,
    make_transform,
)
from feature_helpers import row_features
from pattern_helpers import entry_table, to_sparse, to_sparse_keeping_zeros
from propagate_oracle import OracleTape, SlotFacewiseOperator, chunked_m_product, slot_pair_plan, slot_with_diagonal, sparse_m_product
from tape_helpers import mul, total
from train_loop_oracle import forward

T_SLOTS, N, F = 4, 60, 5
WEIGHT_CASES = ("no_zeros", "diagonal_only", "zero_slices", "mixed")


def make_pattern(seed: int, t_slots: int = T_SLOTS, n: int = N, density: float = 0.3) -> SlicePattern:
    rng = np.random.default_rng(seed)
    dense = (rng.random((t_slots, n, n)) < density).astype(float)
    return SlicePattern.with_diagonal(SliceSparse3.from_dense(dense))


def make_weights(case: str, pattern: SlicePattern, rng: np.random.Generator) -> np.ndarray:
    w = rng.random(pattern.nnz) + 0.1
    table = entry_table(pattern)
    if case == "diagonal_only":
        # what the softmax gives a row whose off-diagonal scores underflow
        w = np.where(table[:, 1] == table[:, 2], 1.0, 0.0)
    elif case == "zero_slices":
        w[(table[:, 0] == 0) | (table[:, 0] == pattern.t_slots - 1)] = 0.0
    elif case == "mixed":
        w[rng.random(pattern.nnz) < 0.5] = 0.0
        w[rng.random(pattern.nnz) < 0.1] = -0.0
    return w


def run_op(tape: Tape, pattern: SlicePattern, w0, h0, r):
    """The face-wise product of ``w0`` over the pattern with ``h0`` and its
    gradients: the operator on a ``Tape``, the earlier spmm on an
    ``OracleTape``, which built its operator itself."""
    w = tape.leaf(w0, requires_grad=True)
    h = tape.leaf(h0, requires_grad=True)
    if isinstance(tape, OracleTape):
        out = tape.spmm(pattern, w, h)
    else:
        out = tape.m_product(w, h, FacewiseOperator(pattern, w0))
    tape.backward(total(tape, mul(tape, out, tape.constant(r))))
    return out.value, w.grad, h.grad


def assert_bit_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def inputs(seed: int, pattern: SlicePattern, case: str):
    rng = np.random.default_rng(seed)
    w0 = make_weights(case, pattern, rng)
    h0 = rng.normal(size=(pattern.t_slots, pattern.n_cols, F))
    r = rng.normal(size=(pattern.t_slots, pattern.n_rows, F))
    return w0, h0, r


@pytest.mark.parametrize("case", WEIGHT_CASES)
def test_spmm_bit_equals_oracle(case):
    pattern = make_pattern(1)
    w0, h0, r = inputs(2, pattern, case)
    assert_bit_equal(run_op(Tape(), pattern, w0, h0, r), run_op(OracleTape(), pattern, w0, h0, r))


def library_matches_oracle(x: SliceSparse3, h0: np.ndarray, tf) -> None:
    """``tensor3.m_product`` of the sparse stack ``x`` equals the oracle's
    product over the pattern of ``x`` bit for bit."""
    got = m_product(x, Tensor3(h0), tf).data
    want = sparse_m_product(SlicePattern.from_sparse(x), np.concatenate([s.data for s in x.slices]), h0, tf)[0]
    assert_bit_equal([got], [want])


@pytest.mark.parametrize("case", WEIGHT_CASES)
@pytest.mark.parametrize("kind", ["dct", "identity", "custom"])
def test_sparse_m_product_bit_equals_oracle(case, kind):
    pattern = make_pattern(3)
    w0, h0, _ = inputs(4, pattern, case)
    matrix = np.eye(T_SLOTS) + 0.3 * np.random.default_rng(5).normal(size=(T_SLOTS, T_SLOTS))
    library_matches_oracle(to_sparse(pattern, w0), h0, make_transform(kind, T_SLOTS, matrix if kind == "custom" else None))


@pytest.mark.parametrize("kind", ["dct", "custom"])
def test_library_sparse_m_product_at_scale_bit_equals_oracle(kind):
    """32 slices over a union 72,687 entries wide, not a multiple of 8: the
    mode-3 products run OpenBLAS's blocked kernels, whose last columns
    round unlike the others, and still give the oracle's bits."""
    pattern = scale_pattern()
    rng = np.random.default_rng(23)
    w0 = make_weights("no_zeros", pattern, rng)
    h0 = rng.normal(size=(pattern.t_slots, pattern.n_cols, F))
    matrix = np.eye(pattern.t_slots) + 0.3 * rng.normal(size=(pattern.t_slots, pattern.t_slots)) / np.sqrt(pattern.t_slots)
    tf = make_transform(kind, pattern.t_slots, matrix if kind == "custom" else None)
    library_matches_oracle(to_sparse(pattern, w0), h0, tf)


@pytest.mark.parametrize("values", [32 * 1001, 2**17, 2**20])
def test_sparse_m_product_chunks_at_scale(values):
    """The library product over the whole union gives the bits of P-hat
    built one chunk of ``values`` values at a time, on the scale pattern with
    zero and negative-zero weights, where every chunk but the last is a
    multiple of 8 union entries wide and the last is not. Both sides run on
    the pattern's union: ``x`` keeps the zero weights as explicit entries,
    since a tube can round one way in the last columns of the mode-3
    product and another elsewhere, and pruning them narrows the union."""
    pattern = scale_pattern()
    w0, h0, _ = inputs(16, pattern, "mixed")
    tf = make_transform("dct", pattern.t_slots)
    x = to_sparse_keeping_zeros(pattern, w0)
    assert x.nnz == pattern.nnz
    got = m_product(x, Tensor3(h0), tf).data
    want = chunked_m_product(pattern, w0, h0, tf, values)
    assert_bit_equal([got], [want])
    library_matches_oracle(x, h0, tf)
    # at least two chunks, as chunked_m_product cuts them
    width = (-(-values // pattern.t_slots) + 7) // 8 * 8
    assert len(pattern.union[1]) // width >= 2


@pytest.mark.parametrize("case", ["no_zeros", "half_zero", "zero_slices"])
def test_pair_dot_bit_equals_oracle(case):
    pattern = make_pattern(8)
    rng = np.random.default_rng(9)
    o0 = rng.normal(size=(T_SLOTS, N, F))
    r = rng.normal(size=pattern.nnz)
    if case == "half_zero":
        r[rng.random(pattern.nnz) < 0.5] = 0.0
        r[rng.random(pattern.nnz) < 0.1] = -0.0
    elif case == "zero_slices":
        r[: pattern.offsets[2]] = 0.0
    results = []
    # the score op reads one class per (slot, node) row; the oracle, the rows
    for tape, scores in (
        (Tape(), lambda tape, o: overlap_scores(tape, row_features(tape, o), pattern)),
        (OracleTape(), lambda tape, o: tape.pair_dot(o, pattern)),
    ):
        o = tape.leaf(o0, requires_grad=True)
        out = scores(tape, o)
        tape.backward(total(tape, mul(tape, out, tape.constant(r))))
        results.append((out.value, o.grad))
    assert_bit_equal(*results)


@pytest.mark.parametrize("kind", ["identity", "dct"])
def test_one_operator_per_forward(monkeypatch, kind):
    calls = []
    name = "FacewiseOperator" if kind == "identity" else "SlotSumOperator"
    build = getattr(model_mod, name)

    def counted(*args, **kwargs):
        calls.append((args[0], kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(model_mod, name, counted)
    pattern = make_pattern(10, n=12)
    store = ParamStore()
    init_model_params(store, 12, F, T_SLOTS, 2, np.random.default_rng(11))
    tape = Tape()
    leaves = store.leaves(tape)
    weights = tape.leaf(np.random.default_rng(12).random(pattern.nnz), requires_grad=True)
    h = forward(tape, leaves, pattern, weights, kind, 2)
    tape.backward(total(tape, h))
    assert calls == [(pattern, {"live_only": True} if kind == "identity" else {})]
    assert weights.grad is not None


@pytest.mark.parametrize("kind", ["identity", "dct"])
def test_value_gradient_at_zero_weight(kind):
    """At an exactly-zero weight the op's value gradient is still g·h: the
    products leave the entry out, the SDDMM must not. Under the dct the op
    is P-bar on (N, F) rows, and the zeros are taken in the tubes P-bar
    holds, whose other slices carry a nonzero weight."""
    pattern = make_pattern(13, n=8, density=0.4)
    rng = np.random.default_rng(14)
    w0 = make_weights("mixed", pattern, rng)
    h0 = rng.normal(size=(T_SLOTS, 8, F))
    r = rng.normal(size=(T_SLOTS, 8, F))
    if kind == "identity":
        build, candidates = FacewiseOperator, w0 == 0
    else:
        h0, r = h0[0], r[0]
        build, candidates = SlotSumOperator, (w0 == 0) & live_entries(kind, pattern, w0)
    zeros = np.flatnonzero(candidates)[:6]
    assert len(zeros) > 0
    op = build(pattern, w0)
    grad = op.grads(r, op.apply(h0)[1])[0]

    def loss(w):
        return float((build(pattern, w).apply(h0)[0] * r).sum())

    eps = 1e-6
    for e in zeros:
        plus, minus = w0.copy(), w0.copy()
        plus[e] += eps
        minus[e] -= eps
        numeric = (loss(plus) - loss(minus)) / (2 * eps)
        assert abs(grad[e]) > 1e-3
        assert abs(grad[e] - numeric) <= 1e-6 * max(1.0, abs(numeric))
    t, i, j = entry_table(pattern)[zeros].T
    rows = (r[t, i], h0[t, j]) if kind == "identity" else (r[i], h0[j])
    np.testing.assert_allclose(grad[zeros], np.einsum("ef,ef->e", *rows), rtol=1e-12)


LIVE_CASES = ("no_zeros", "mixed", "dead_chunks", "single_tube")


def scale_pattern() -> SlicePattern:
    """32 slices over a union 72,687 entries wide, not a multiple of 8."""
    pattern = make_pattern(18, t_slots=32, n=300, density=0.05)
    assert len(pattern.union[1]) % 8 != 0
    return pattern


def live_weights(case: str, pattern: SlicePattern, rng: np.random.Generator) -> np.ndarray:
    flat_to_union = pattern.union[2]
    if case in ("no_zeros", "mixed"):
        return make_weights(case, pattern, rng)
    w = rng.random(pattern.nnz) + 0.1
    if case == "dead_chunks":
        # every tube of union positions [1008, 3024) dead, and zeros elsewhere
        w[(flat_to_union >= 1008) & (flat_to_union < 3024)] = 0.0
        w[rng.random(pattern.nnz) < 0.3] = 0.0
    else:
        # one live tube, near the end of the union
        w[flat_to_union != len(pattern.union[1]) - 1064] = 0.0
    return w


def live_entries(kind: str, pattern: SlicePattern, w: np.ndarray) -> np.ndarray:
    """The entries whose value gradient the live operator computes."""
    if kind == "identity":
        return w != 0
    flat_to_union = pattern.union[2]
    tubes = np.zeros(len(pattern.union[1]), dtype=bool)
    tubes[flat_to_union[w != 0]] = True
    return tubes[flat_to_union]


def slot_sum_oracle(pattern: SlicePattern, w0, h0, r):
    """The product P-bar h0 with P-bar the slices of ``to_sparse`` added in
    slot order, its node gradient P-bar^T r, and every flat entry's value
    gradient r_i · h0_j."""
    p_bar = functools.reduce(operator.add, to_sparse(pattern, w0).slices)
    table = entry_table(pattern)
    dw = np.einsum("ef,ef->e", r[table[:, 1]], h0[table[:, 2]])
    return p_bar @ h0, dw, p_bar.T @ r


@pytest.mark.parametrize("case", LIVE_CASES)
@pytest.mark.parametrize("kind", ["identity", "dct"])
def test_live_operator_bit_equals_oracle(kind, case):
    """The live operator's product and node gradient equal the oracle's bit
    for bit, and so does its value gradient on the live entries; on the
    dead ones it is +0. Under the identity the oracle is the earlier spmm;
    under the dct the operator is P-bar on slot-constant rows, and the
    oracle the slices summed by scipy."""
    pattern = scale_pattern()
    rng = np.random.default_rng(19)
    w0 = live_weights(case, pattern, rng)
    h0 = rng.normal(size=(pattern.t_slots, pattern.n_cols, F))
    r = rng.normal(size=(pattern.t_slots, pattern.n_rows, F))
    live = live_entries(kind, pattern, w0)
    if kind == "identity":
        op = FacewiseOperator(pattern, w0, live_only=True)
        assert op.matrix.nnz == np.count_nonzero(w0)
        want = run_op(OracleTape(), pattern, w0, h0, r)
    else:
        h0, r = h0[0], r[0]
        op = SlotSumOperator(pattern, w0)
        # P-bar holds exactly the live tubes: the weights are not negative
        assert op.matrix.nnz == len(np.unique(pattern.union[2][live]))
        want = slot_sum_oracle(pattern, w0, h0, r)
    tape = Tape()
    w, h = tape.leaf(w0, requires_grad=True), tape.leaf(h0, requires_grad=True)
    out = tape.m_product(w, h, op)
    tape.backward(total(tape, mul(tape, out, tape.constant(r))))
    assert_bit_equal((out.value, h.grad), (want[0], want[2]))
    assert live.all() == (case == "no_zeros")
    assert w.grad[live].tobytes() == want[1][live].tobytes()
    dead = w.grad[~live]
    assert np.all(dead == 0) and not np.any(np.signbit(dead))


class FullTubeSlotSum(SlotSumOperator):
    """P-bar with its value gradient taken on every tube of the union, the
    live ones and the ones whose every slice is 0."""

    def grads(self, g, y):
        u_indptr, u_indices, flat_to_union = self.pattern.union
        d_sums = np.empty(len(u_indices))
        _sddmm(g, np.repeat(np.arange(self.pattern.n_rows), np.diff(u_indptr)), y, u_indices, d_sums)
        return d_sums[flat_to_union], self.matrix.T @ g


@pytest.mark.parametrize("case", ["no_zeros", "mixed", "diagonal_only"])
@pytest.mark.parametrize("kind", ["identity", "dct"])
def test_live_forward_gradients_bit_equal_full(monkeypatch, kind, case):
    """Every parameter gradient of a loss that reaches ``forward`` through
    the score op and ``segment_softmax`` is the same, bit for bit, with the
    live operator ``forward`` builds and with the full one: under the dct,
    the same P-bar with its value gradient taken on every tube."""
    pattern = scale_pattern()
    rng = np.random.default_rng(20)
    o0 = 0.3 * rng.normal(size=(pattern.t_slots, pattern.n_rows, F))
    table = entry_table(pattern)
    off_diagonal = table[:, 1] != table[:, 2]
    # an offset of -1e4 sets a weight to exactly 0; every row keeps its diagonal
    offset = np.zeros(pattern.nnz)
    if case == "mixed":
        offset[off_diagonal & (rng.random(pattern.nnz) < 0.7)] = -1e4
    elif case == "diagonal_only":
        offset[off_diagonal] = -1e4
    store = ParamStore()
    init_model_params(store, pattern.n_rows, F, pattern.t_slots, 2, np.random.default_rng(21))

    def grads(full=False):
        def facewise(pattern, values, live_only):
            return FacewiseOperator(pattern, values, live_only and not full)

        def slot_sum(pattern, values):
            return (FullTubeSlotSum if full else SlotSumOperator)(pattern, values)

        monkeypatch.setattr(model_mod, "FacewiseOperator", facewise)
        monkeypatch.setattr(model_mod, "SlotSumOperator", slot_sum)
        tape = Tape()
        leaves = store.leaves(tape)
        o = tape.leaf(o0, requires_grad=True)
        scores = tape.add(overlap_scores(tape, row_features(tape, o), pattern), tape.constant(offset))
        weights = tape.segment_softmax(scores, pattern.row_splits)
        assert np.any(weights.value == 0) == (case != "no_zeros")
        h = forward(tape, leaves, pattern, weights, kind, 2)
        tape.backward(total(tape, h))
        return [h.value, o.grad] + [leaves[name].grad for name in sorted(leaves) if leaves[name].grad is not None]

    live, full = grads(), grads(full=True)
    assert len(live) == len(full) == 5
    assert_bit_equal(live, full)


@pytest.mark.parametrize("live_only", [False, True])
@pytest.mark.parametrize("case", WEIGHT_CASES)
def test_window_bit_equals_its_slots_of_the_whole_operator(case, live_only):
    # slot t's product and gradients read slice t alone, so a window's are
    # the whole operator's on its slots, bit for bit, for any split
    pattern = make_pattern(41, t_slots=5)
    w0, h0, r = inputs(42, pattern, case)
    whole = FacewiseOperator(pattern, w0, live_only)
    out, _ = whole.apply(h0)
    dvals, dh = whole.grads(r, h0)
    for start, stop in ((0, 5), (0, 1), (1, 3), (3, 5), (4, 5)):
        op = whole.window(start, stop)
        lo, hi = pattern.offsets[start], pattern.offsets[stop]
        op.check(w0[lo:hi], h0[start:stop])
        assert op.slots == range(start, stop)
        got_out, _ = op.apply(h0[start:stop])
        got_dvals, got_dh = op.grads(r[start:stop], h0[start:stop])
        assert_bit_equal([got_out, got_dvals, got_dh], [out[start:stop], dvals[lo:hi], dh[start:stop]])
    # a window of a window is the window of the whole
    inner = whole.window(1, 5).window(2, 4)
    n = pattern.n_rows
    want = whole.matrix[2 * n : 4 * n, 2 * n : 4 * n]
    assert inner.slots == range(2, 4) and inner.matrix.shape == want.shape
    assert inner.matrix.data.tobytes() == want.data.tobytes()
    assert np.array_equal(inner.matrix.indices, want.indices) and np.array_equal(inner.matrix.indptr, want.indptr)


def test_window_refuses_slots_outside_and_misaligned_operands():
    pattern = make_pattern(43, t_slots=4)
    w0, h0, _ = inputs(44, pattern, "no_zeros")
    op = FacewiseOperator(pattern, w0)
    for start, stop in ((-1, 2), (2, 2), (3, 5), (2, 1)):
        with pytest.raises(ParameterError, match="slot window"):
            op.window(start, stop)
    with pytest.raises(ParameterError, match="slot window"):
        op.window(1, 3).window(0, 2)
    sub = op.window(1, 3)
    lo, hi = pattern.offsets[1], pattern.offsets[3]
    with pytest.raises(ShapeError, match="pattern nnz"):
        sub.check(w0, h0[1:3])
    with pytest.raises(ShapeError, match="node tensor shape"):
        sub.check(w0[lo:hi], h0)


# ----- the stacked pattern against the per-slot form it replaced -----


def edge_weights(pattern: SlicePattern, rng: np.random.Generator) -> np.ndarray:
    """Weights with +0, -0 and subnormal entries among positive ones."""
    w = rng.random(pattern.nnz) + 0.1
    pick = rng.random(pattern.nnz)
    w[pick < 0.3] = 0.0
    w[(pick >= 0.3) & (pick < 0.4)] = -0.0
    w[(pick >= 0.4) & (pick < 0.45)] = 5e-324 * rng.integers(1, 1000, size=np.count_nonzero((pick >= 0.4) & (pick < 0.45)))
    return w


@pytest.mark.parametrize("live_only", [False, True])
@pytest.mark.parametrize("y_kind", ["broadcast", "full"])
def test_stacked_operator_bit_equals_per_slot(y_kind, live_only):
    """The block-diagonal operator's product and both gradients equal the
    per-slot operator's bit for bit, for the whole operator and for every
    window of a split into 3-slot windows."""
    pattern = scale_pattern()
    rng = np.random.default_rng(45)
    w0 = edge_weights(pattern, rng)
    assert np.any(np.signbit(w0) & (w0 == 0)) and np.any((w0 > 0) & (w0 < np.finfo(float).tiny))
    e = rng.normal(size=(pattern.n_cols, F))
    full = rng.normal(size=(pattern.t_slots, pattern.n_cols, F))
    g = rng.normal(size=(pattern.t_slots, pattern.n_rows, F))
    stacked = FacewiseOperator(pattern, w0, live_only)
    per_slot = SlotFacewiseOperator(pattern, w0, live_only)
    windows = [(0, pattern.t_slots)] + [(lo, min(lo + 3, pattern.t_slots)) for lo in range(0, pattern.t_slots, 3)]
    for start, stop in windows:
        y = np.broadcast_to(e, (stop - start,) + e.shape) if y_kind == "broadcast" else full[start:stop]
        got_op, want_op = stacked.window(start, stop), per_slot.window(start, stop)
        got, want = got_op.apply(y)[0], want_op.apply(y)[0]
        assert_bit_equal([got], [want])
        assert_bit_equal(got_op.grads(g[start:stop], y), want_op.grads(g[start:stop], y))


def assert_matches_per_slot(pattern: SlicePattern, indptrs: list, indices: list):
    """The stacked pattern says what the per-slot lists say, and its per-slot
    views give them back."""
    n = pattern.n_rows
    assert pattern.t_slots == len(indptrs)
    sizes = [len(ix) for ix in indices]
    np.testing.assert_array_equal(pattern.offsets, np.concatenate(([0], np.cumsum(sizes))))
    starts = [p[:-1] + off for p, off in zip(indptrs, pattern.offsets)]
    np.testing.assert_array_equal(pattern.row_splits, np.concatenate(starts + [[pattern.nnz]]))
    np.testing.assert_array_equal(pattern.cols, np.concatenate([np.zeros(0, int)] + indices))
    assert pattern.row_splits.dtype == pattern.cols.dtype == np.int32
    assert pattern.offsets.base is not None
    for t in range(pattern.t_slots):
        np.testing.assert_array_equal(pattern.indptrs[t], indptrs[t])
        np.testing.assert_array_equal(pattern.indices[t], indices[t])
        np.testing.assert_array_equal(pattern.rows[t], np.repeat(np.arange(n), np.diff(indptrs[t])))
    assert pattern.indices[-1].base is not None and np.array_equal(pattern.rows[-1], pattern.rows[pattern.t_slots - 1])
    with pytest.raises(IndexError):
        pattern.indptrs[pattern.t_slots]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t_slots=st.integers(1, 5), n=st.integers(1, 12), density=st.floats(0.0, 0.9))
def test_with_diagonal_equals_per_slot_build(seed, t_slots, n, density):
    # values of -1 among others, which a diagonal 1 would cancel in a sum
    rng = np.random.default_rng(seed)
    dense = rng.choice([-1.0, 1.0, 2.0], size=(t_slots, n, n)) * (rng.random((t_slots, n, n)) < density)
    x = SliceSparse3.from_dense(dense)
    assert_matches_per_slot(SlicePattern.with_diagonal(x), *slot_with_diagonal(x))


def test_with_diagonal_equals_per_slot_build_on_the_criterion_9_fixture():
    events = planted_partition(16, 3, p_in=0.6, p_out=0.05, retention=0.9, seed=4)
    _, _, _, masked = split_edges(bin_snapshots(events, 3), seed=5)
    b = compute_overlap_tensor(masked, 2)
    assert_matches_per_slot(SlicePattern.with_diagonal(b), *slot_with_diagonal(b))


def test_from_sparse_keeps_every_slice_and_refuses_a_ragged_stack():
    x = SliceSparse3.from_dense((np.random.default_rng(46).random((3, 5, 4)) < 0.4).astype(float))
    pattern = SlicePattern.from_sparse(x)
    assert_matches_per_slot(pattern, [s.indptr for s in x.slices], [s.indices for s in x.slices])
    with pytest.raises(ShapeError, match="5-row slices"):
        SlicePattern(pattern.row_splits[:-1], pattern.cols, 5, 4)
    with pytest.raises(ShapeError, match="5-row slices"):
        SlicePattern(pattern.row_splits, pattern.cols[:-1], 5, 4)


@pytest.mark.parametrize("key_bits", [structural.PLAN_KEY_BITS, 0])
def test_pair_plan_equals_per_slot_build(key_bits):
    """The plan of the scale pattern under the classes of its own walk-count
    rows is the per-slot build's, array for array."""
    pattern = scale_pattern()
    rng = np.random.default_rng(47)
    dense = (rng.random((pattern.t_slots, pattern.n_rows, pattern.n_cols)) < 0.01) * rng.integers(1, 4, size=(pattern.t_slots, pattern.n_rows, pattern.n_cols))
    ctx = build_feature_context(SliceSparse3.from_dense(dense.astype(float)))
    n_classes = ctx.counts.shape[0]
    assert 1 < n_classes < pattern.t_slots * pattern.n_rows
    with mock.patch.object(structural, "PLAN_KEY_BITS", key_bits):
        got = structural.build_pair_plan(ctx.row_class, n_classes, pattern)
        want = slot_pair_plan(ctx.row_class, n_classes, pattern)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
