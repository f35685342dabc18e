"""Differential tests of the propagation ops against the earlier ops in
``propagate_oracle.py``: values and gradients must agree bit for bit."""

import functools
import operator

import numpy as np
import pytest

import nohgnn.model as model_mod
from nohgnn.model import forward, init_model_params
from nohgnn.overlap import overlap_scores
from nohgnn.tape import ParamStore, Tape
from nohgnn.tensor3 import (
    FacewiseOperator,
    SlicePattern,
    SliceSparse3,
    SlotSumOperator,
    Tensor3,
    m_product,
    make_transform,
)
from feature_helpers import row_features
from pattern_helpers import entry_table, to_sparse, to_sparse_keeping_zeros
from propagate_oracle import OracleTape, chunked_m_product, sparse_m_product
from tape_helpers import mul

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
    tape.backward(tape.sum(mul(tape, out, tape.constant(r))))
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
        tape.backward(tape.sum(mul(tape, out, tape.constant(r))))
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
    tape.backward(tape.sum(h))
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
        assert sum(s.nnz for s in op.slices) == np.count_nonzero(w0)
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
    tape.backward(tape.sum(mul(tape, out, tape.constant(r))))
    assert_bit_equal((out.value, h.grad), (want[0], want[2]))
    assert live.all() == (case == "no_zeros")
    assert w.grad[live].tobytes() == want[1][live].tobytes()
    dead = w.grad[~live]
    assert np.all(dead == 0) and not np.any(np.signbit(dead))


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
            op = SlotSumOperator(pattern, values)
            op.live[:] |= full
            return op

        monkeypatch.setattr(model_mod, "FacewiseOperator", facewise)
        monkeypatch.setattr(model_mod, "SlotSumOperator", slot_sum)
        tape = Tape()
        leaves = store.leaves(tape)
        o = tape.leaf(o0, requires_grad=True)
        scores = tape.add(overlap_scores(tape, row_features(tape, o), pattern), tape.constant(offset))
        weights = tape.segment_softmax(scores, pattern.row_splits)
        assert np.any(weights.value == 0) == (case != "no_zeros")
        h = forward(tape, leaves, pattern, weights, kind, 2)
        tape.backward(tape.sum(h))
        return [h.value, o.grad] + [leaves[name].grad for name in sorted(leaves) if leaves[name].grad is not None]

    live, full = grads(), grads(full=True)
    assert len(live) == len(full) == 5
    assert_bit_equal(live, full)
