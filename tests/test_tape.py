import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nohgnn.tape as tape_mod
import nohgnn.tensor3 as tensor3_mod
from nohgnn.errors import ParameterError, ShapeError
from nohgnn.structural import FeatureContext
from nohgnn.tape import Node, ParamStore, Tape
from nohgnn.tensor3 import (
    DenseOperator,
    FacewiseOperator,
    SlicePattern,
    SliceSparse3,
    Tensor3,
    m_product,
    make_transform,
)
from pattern_helpers import csr, entry_table, slice_stack, to_sparse
from propagate_oracle import OracleTape
from softmax_reference import masked_softmax
from tape_helpers import add, gather_rows, grad_check, matmul, mul, total


def fd_probe(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        plus = f(x)
        flat_x[i] = orig - eps
        minus = f(x)
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class TestScalarRules:
    def test_sigmoid_at_zero(self):
        t = Tape()
        x = t.leaf(np.zeros(()), requires_grad=True)
        loss = t.sigmoid(x)
        t.backward(loss)
        assert loss.value == pytest.approx(0.5)
        assert x.grad == pytest.approx(0.25)

    def test_dead_relu(self):
        t = Tape()
        x = t.leaf(np.asarray(-1.0), requires_grad=True)
        loss = t.relu(x)
        t.backward(loss)
        assert loss.value == 0.0
        assert x.grad == 0.0

    def test_relu_backward_allocates_one_array_of_g(self):
        # the gradient is g times the boolean mask, with no float copy of
        # the mask, and keeps the bits of g times the mask as floats
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=(1 << 15, 8))
        x0[::7] = -0.0
        g = rng.normal(size=x0.shape)
        t = Tape()
        t.relu(t.leaf(x0, requires_grad=True))
        rule = t._entries[-1][2]
        tracemalloc.start()
        try:
            (dx,) = rule(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * g.nbytes
        assert dx.tobytes() == (g * (x0 > 0).astype(np.float64)).tobytes()

    def test_matvec_sum_grad_is_column_sums(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(4, 3))
        t = Tape()
        v = t.leaf(rng.normal(size=(3, 1)), requires_grad=True)
        loss = total(t, matmul(t, t.constant(m), v))
        t.backward(loss)
        np.testing.assert_allclose(v.grad[:, 0], m.sum(axis=0), atol=1e-12)

    def test_bias_broadcast_backward(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5, 2))
        r = rng.normal(size=(3, 5, 2))
        t = Tape()
        b = t.leaf(rng.normal(size=(2,)), requires_grad=True)
        loss = total(t, mul(t, add(t, t.constant(x), b), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(b.grad, r.sum(axis=(0, 1)), atol=1e-12)

    def test_sumsq_grad(self):
        t = Tape()
        a = t.leaf(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = t.sumsq(a)
        t.backward(loss)
        assert float(loss.value) == pytest.approx(14.0)
        np.testing.assert_allclose(a.grad, [2.0, -4.0, 6.0], atol=0)

    def test_mean_and_scale(self):
        t = Tape()
        a = t.leaf(np.array([2.0, 4.0]), requires_grad=True)
        loss = t.scale(t.scale(total(t, a), 1 / 2), 3.0)
        t.backward(loss)
        assert float(loss.value) == pytest.approx(9.0)
        np.testing.assert_allclose(a.grad, [1.5, 1.5], atol=0)


class TestStructuredRules:
    def test_mode3_grad_matches_transpose_rule(self):
        # the dense operator's gradients are the matmul rule between the
        # transpose rules of its mode-3 products: M^-T on the way in, M^T out
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4))
        tf = make_transform("custom", 4, m)
        a0, y0 = rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 5, 2))
        r = rng.normal(size=(4, 3, 2))
        t = Tape()
        a, y = t.leaf(a0, requires_grad=True), t.leaf(y0, requires_grad=True)
        loss = total(t, mul(t, t.m_product(a, y, DenseOperator(a0, tf)), t.constant(r)))
        t.backward(loss)
        r_hat = np.einsum("tk,tij->kij", tf.minv, r)
        a_hat, y_hat = np.einsum("kt,tij->kij", m, a0), np.einsum("kt,tij->kij", m, y0)
        oracle_a = np.einsum("kt,kij->tij", m, r_hat @ np.swapaxes(y_hat, 1, 2))
        oracle_y = np.einsum("kt,kij->tij", m, np.swapaxes(a_hat, 1, 2) @ r_hat)
        np.testing.assert_allclose(a.grad, oracle_a, atol=1e-12)
        np.testing.assert_allclose(y.grad, oracle_y, atol=1e-12)

    def test_batched_matmul_grads(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(3, 4, 2))
        b0 = rng.normal(size=(3, 2, 5))
        r = rng.normal(size=(3, 4, 5))
        t = Tape()
        a = t.leaf(a0, requires_grad=True)
        b = t.leaf(b0, requires_grad=True)
        loss = total(t, mul(t, matmul(t, a, b), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(a.grad, r @ np.swapaxes(b0, 1, 2), atol=1e-12)
        np.testing.assert_allclose(b.grad, np.swapaxes(a0, 1, 2) @ r, atol=1e-12)

    def test_replicate_sums_over_copies(self):
        rng = np.random.default_rng(14)
        r = rng.normal(size=(5, 2, 3))
        t = Tape()
        e = t.leaf(rng.normal(size=(2, 3)), requires_grad=True)
        loss = total(t, mul(t, t.replicate(e, 5), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(e.grad, r.sum(axis=0), atol=1e-12)

    def test_gather_rows_accumulates_duplicates(self):
        t = Tape()
        a = t.leaf(np.arange(6.0).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 2, 0])
        out = gather_rows(t, a, idx)
        loss = total(t, out)
        t.backward(loss)
        np.testing.assert_array_equal(out.value, [[0, 1], [4, 5], [0, 1]])
        np.testing.assert_array_equal(a.grad, [[2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("n_rows,n_index", [(7, 0), (7, 1), (7, 40), (50, 30), (3, 200)])
    def test_gather_rows_backward_bit_equals_add_at(self, n_rows, n_index):
        # repeated indices, and (with more rows than picks) rows never gathered
        rng = np.random.default_rng(n_rows * 1000 + n_index)
        idx = rng.integers(0, n_rows, size=n_index)
        g = rng.normal(size=(n_index, 5)) * 10.0 ** rng.integers(-8, 8, size=(n_index, 1))
        t = Tape()
        a = t.leaf(rng.normal(size=(n_rows, 5)), requires_grad=True)
        gather_rows(t, a, idx)
        want = np.zeros((n_rows, 5))
        np.add.at(want, idx, g)
        ((_, _, backward),) = t._entries
        (got,) = backward(g)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 0), (2, 3, 2)])
    def test_shaped_gather_equals_flat_gather_and_reshape(self, shape):
        # the value is the flat gather's, reshaped; the gradient sums each
        # column of the index's last axis as a flat gather of that column
        # alone does, and adds the column sums in order
        rng = np.random.default_rng(sum(shape))
        idx = rng.integers(0, 5, size=shape)
        a0 = rng.normal(size=(5, 3))
        r = rng.normal(size=shape + (3,)) * 10.0 ** rng.integers(-8, 8, size=shape + (1,))
        t = Tape()
        a = t.leaf(a0, requires_grad=True)
        out = gather_rows(t, a, idx)
        t.backward(total(t, mul(t, out, t.constant(r))))
        flat = gather_rows(Tape(), Tape().leaf(a0), idx.ravel())
        assert out.value.shape == shape + (3,)
        assert out.value.tobytes() == flat.value.tobytes()
        want = np.zeros_like(a0)
        for c in range(shape[-1]):
            part = Tape()
            b = part.leaf(a0, requires_grad=True)
            column = gather_rows(part, b, idx[..., c].ravel())
            part.backward(total(part, mul(part, column, part.constant(r[..., c, :].reshape(-1, 3)))))
            want = b.grad if c == 0 else want + b.grad
        assert a.grad.tobytes() == want.tobytes()

    def test_gather_rows_reads_a_stack_as_the_matrix_of_its_rows(self):
        rng = np.random.default_rng(16)
        h0 = rng.normal(size=(3, 4, 2))
        idx = np.array([[5, 0], [11, 5], [7, 7]])
        t = Tape()
        h = t.leaf(h0, requires_grad=True)
        out = gather_rows(t, h, idx)
        t.backward(total(t, out))
        assert out.value.tobytes() == h0.reshape(12, 2)[idx].tobytes()
        want = np.zeros((12, 2))
        np.add.at(want, idx.ravel(), 1.0)
        assert h.grad.shape == (3, 4, 2)
        np.testing.assert_array_equal(h.grad.reshape(12, 2), want)

    def test_gather_rows_range_check(self):
        t = Tape()
        a = t.leaf(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(ParameterError):
            gather_rows(t, a, np.array([3]))
        with pytest.raises(ShapeError):
            gather_rows(t, t.leaf(np.zeros(3), requires_grad=True), np.array([0]))

    def test_affine_equals_matmul_then_bias_add(self):
        # the ops the decoder and the perceptrons recorded before affine
        rng = np.random.default_rng(17)
        x0, w0, b0 = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        r = rng.normal(size=(6, 3))
        results = []
        for fused in (True, False):
            t = Tape()
            x, w, b = (t.leaf(v, requires_grad=True) for v in (x0, w0, b0))
            out = t.affine(x, w, b) if fused else add(t, matmul(t, x, w), b)
            t.backward(total(t, mul(t, out, t.constant(r))))
            results.append([out.value, x.grad, w.grad, b.grad])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_shape_errors(self):
        t = Tape()
        with pytest.raises(ShapeError):
            matmul(t, t.constant(np.zeros((2, 3))), t.constant(np.zeros((2, 3, 4))))
        with pytest.raises(ShapeError):
            mul(t, t.constant(np.zeros(2)), t.constant(np.zeros(3)))
        with pytest.raises(ShapeError, match="add operands"):
            t.add(t.constant(np.zeros((2, 3))), t.constant(np.zeros(3)))
        for x, w, b in (((2, 3), (4, 2), (2,)), ((2, 3), (3, 2), (3,)), ((2, 3, 1), (3, 2), (2,))):
            with pytest.raises(ShapeError, match="affine operands"):
                t.affine(t.constant(np.zeros(x)), t.constant(np.zeros(w)), t.constant(np.zeros(b)))


# (i, j) rows over 7 rows: repeated endpoints and pairs, i == j pairs, and
# rows 3 and 6, which no pair reads
PAIR_AFFINE_ENDS = np.array([[0, 1], [0, 1], [2, 2], [5, 0], [1, 4], [4, 4], [2, 5]])


class TestPairAffine:
    @pytest.mark.parametrize("shape", [(7, 3), (1, 7, 3), (2, 3, 3)])
    def test_gradients_match_central_differences(self, shape):
        # on an (N, F) matrix and on (T, N, F) stacks, whose rows the ends
        # index as one (T * N, F) matrix
        rng = np.random.default_rng(sum(shape))
        store = ParamStore()
        store.add("a", rng.normal(size=shape))
        store.add("w", rng.normal(size=(6, 4)))
        store.add("b", rng.normal(size=4))
        r = rng.normal(size=(len(PAIR_AFFINE_ENDS), 4))

        def build(t, leaves):
            out = t.pair_affine(leaves["a"], PAIR_AFFINE_ENDS, leaves["w"], leaves["b"])
            return total(t, mul(t, t.sigmoid(out), t.constant(r)))

        assert grad_check(build, store) <= 1e-6
        t = Tape()
        leaves = store.leaves(t)
        out = t.pair_affine(leaves["a"], PAIR_AFFINE_ENDS, leaves["w"], leaves["b"])
        t.backward(total(t, mul(t, out, t.constant(r))))
        rows = store.value("a").reshape(-1, 3)
        both = np.concatenate([rows[PAIR_AFFINE_ENDS[:, 0]], rows[PAIR_AFFINE_ENDS[:, 1]]], axis=1)
        np.testing.assert_allclose(out.value, both @ store.value("w") + store.value("b"), rtol=1e-13)
        read = np.zeros(rows.shape[0], dtype=bool)
        read[PAIR_AFFINE_ENDS] = True
        grad = leaves["a"].grad.reshape(-1, 3)
        assert leaves["a"].grad.shape == shape
        assert np.all(grad[~read] == 0.0) and not np.signbit(grad[~read]).any()
        assert np.all(grad[read] != 0.0)

    def test_index_range_check(self):
        t = Tape()
        a, w, b = t.leaf(np.zeros((2, 3, 2)), True), t.leaf(np.zeros((4, 5)), True), t.leaf(np.zeros(5), True)
        for bad in ([[0, 6]], [[-1, 0]], [[5, 0], [0, -7]]):
            with pytest.raises(ParameterError, match="pair_affine index"):
                t.pair_affine(a, np.array(bad), w, b)
        assert t.pair_affine(a, np.array([[5, 0]]), w, b).value.shape == (1, 5)

    def test_shape_errors(self):
        t = Tape()
        a, w, b = t.leaf(np.zeros((6, 2)), True), t.leaf(np.zeros((4, 5)), True), t.leaf(np.zeros(5), True)
        ends = np.array([[0, 1]])
        for case in (
            (t.leaf(np.zeros(6), True), ends, w, b),
            (a, np.array([0, 1]), w, b),
            (a, np.array([[0, 1, 2]]), w, b),
            (a, ends, t.leaf(np.zeros((2, 5)), True), b),
            (a, ends, t.leaf(np.zeros(4), True), b),
            (a, ends, w, t.leaf(np.zeros(4), True)),
            (a, ends, w, t.leaf(np.zeros((1, 5)), True)),
        ):
            with pytest.raises(ShapeError, match="pair_affine"):
                t.pair_affine(*case)


class TestInner:
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 3, 2)])
    def test_gradients_match_central_differences(self, shape):
        # the gradient of sum(a * c) is c, handed on to what made a
        rng = np.random.default_rng(len(shape))
        store = ParamStore()
        store.add("x", rng.normal(size=shape))
        c = rng.normal(size=shape)

        def build(t, leaves):
            return t.inner(t.sigmoid(leaves["x"]), c)

        assert grad_check(build, store) <= 1e-7
        t = Tape()
        a = t.leaf(store.value("x"), requires_grad=True)
        out = t.inner(a, c)
        t.backward(out)
        assert float(out.value) == pytest.approx(float((store.value("x") * c).sum()), rel=1e-13)
        assert a.grad.tobytes() == c.tobytes()

    def test_shape_errors(self):
        t = Tape()
        a = t.leaf(np.zeros((2, 3)), requires_grad=True)
        for c in (np.zeros(6), np.zeros((3, 2)), np.zeros((2, 3, 1)), np.zeros(())):
            with pytest.raises(ShapeError, match="inner operands"):
                t.inner(a, c)

    def test_rule_is_named_after_the_op(self):
        # backward timers are keyed by the method the rule is a closure of
        t = Tape()
        t.inner(t.leaf(np.ones(3), requires_grad=True), np.ones(3))
        ((_, _, rule),) = t._entries
        assert rule.__qualname__.split(".")[1] == "inner"
        assert rule.__qualname__ == "Tape.inner.<locals>.backward"


def random_pattern(rng, t_slots, n, density=0.4):
    dense = (rng.random((t_slots, n, n)) < density).astype(float)
    return SlicePattern.from_sparse(SliceSparse3.from_dense(dense))


class TestSparseRules:
    def test_spmm_matches_dense_route(self):
        rng = np.random.default_rng(16)
        pat = random_pattern(rng, 3, 6)
        vals0 = rng.normal(size=pat.nnz)
        h0 = rng.normal(size=(3, 6, 4))
        r = rng.normal(size=(3, 6, 4))

        t = Tape()
        vals = t.leaf(vals0, requires_grad=True)
        h = t.leaf(h0, requires_grad=True)
        out = t.m_product(vals, h, FacewiseOperator(pat, vals0))
        loss = total(t, mul(t, out, t.constant(r)))
        t.backward(loss)

        # dense dual route: scatter values into full slices and use matmul
        t2 = Tape()
        vals2 = t2.leaf(vals0, requires_grad=True)
        h2 = t2.leaf(h0, requires_grad=True)
        dense_p = np.stack([csr(pat, vals0, k).toarray() for k in range(3)])
        out2 = matmul(t2, t2.constant(dense_p), h2)
        loss2 = total(t2, mul(t2, out2, t2.constant(r)))
        t2.backward(loss2)

        np.testing.assert_allclose(out.value, out2.value, atol=1e-12)
        np.testing.assert_allclose(h.grad, h2.grad, atol=1e-12)
        fd = fd_probe(
            lambda v: float(
                sum(
                    (csr(pat, v, k) @ h0[k] * r[k]).sum() for k in range(3)
                )
            ),
            vals0.copy(),
        )
        assert max_rel_err(vals.grad, fd) < 1e-6

    def test_spmm_shared_matches_dense(self):
        # every slice shares one support; under the identity transform the
        # fused sparse M-product is the plain per-slice sparse product
        rng = np.random.default_rng(17)
        n = 5
        base = (rng.random((n, n)) < 0.5).astype(float)
        base_csr = sp.csr_matrix(base)
        indptr, indices = base_csr.indptr, base_csr.indices
        t_slots = 3
        pat = SlicePattern.from_sparse(slice_stack([base_csr] * t_slots))
        vals0 = rng.normal(size=(t_slots, base_csr.nnz))
        h0 = rng.normal(size=(t_slots, n, 2))
        r = rng.normal(size=(t_slots, n, 2))

        t = Tape()
        vals = t.leaf(vals0.reshape(-1), requires_grad=True)
        h = t.leaf(h0, requires_grad=True)
        out = t.m_product(vals, h, FacewiseOperator(pat, vals.value))
        loss = total(t, mul(t, out, t.constant(r)))
        t.backward(loss)

        dense = np.stack(
            [sp.csr_matrix((vals0[k], indices, indptr), shape=(n, n)).toarray() for k in range(t_slots)]
        )
        np.testing.assert_allclose(out.value, dense @ h0, atol=1e-12)
        np.testing.assert_allclose(h.grad, np.swapaxes(dense, 1, 2) @ r, atol=1e-12)

        def f(v):
            v = v.reshape(t_slots, -1)
            acc = 0.0
            for k in range(t_slots):
                acc += float((sp.csr_matrix((v[k], indices, indptr), shape=(n, n)) @ h0[k] * r[k]).sum())
            return acc

        fd = fd_probe(f, vals0.reshape(-1).copy())
        assert max_rel_err(vals.grad, fd) < 1e-6

    @pytest.mark.parametrize("kind", ["dct", "custom"])
    def test_sparse_m_product_matches_dense_route(self, kind):
        """The library product of a sparse stack under a mixing transform,
        and the gradients of the oracle op the tests take it from, against
        the dense M-product of the densified stack."""
        rng = np.random.default_rng(17)
        t_slots, n = 3, 5
        pat = random_pattern(rng, t_slots, n)
        if kind == "dct":
            tf = make_transform("dct", t_slots)
        else:
            tf = make_transform("custom", t_slots, np.eye(t_slots) + 0.4 * rng.normal(size=(t_slots, t_slots)))
            assert not np.allclose(tf.minv, tf.m.T)
        vals0 = rng.normal(size=pat.nnz)
        h0 = rng.normal(size=(t_slots, n, 2))
        r = rng.normal(size=(t_slots, n, 2))

        t = OracleTape()
        vals = t.leaf(vals0, requires_grad=True)
        h = t.leaf(h0, requires_grad=True)
        out = t.sparse_m_product(pat, vals, h, tf)
        t.backward(total(t, mul(t, out, t.constant(r))))

        # dense route: densify the stack and take the library's dense M-product
        def dense_route(v, h_arr):
            return m_product(to_sparse(pat, v).densify(), Tensor3(h_arr), tf).data

        np.testing.assert_allclose(m_product(to_sparse(pat, vals0), Tensor3(h0), tf).data, dense_route(vals0, h0), atol=1e-12)
        np.testing.assert_allclose(out.value, dense_route(vals0, h0), atol=1e-12)
        fd_vals = fd_probe(lambda v: float((dense_route(v, h0) * r).sum()), vals0.copy())
        fd_h = fd_probe(lambda h_arr: float((dense_route(vals0, h_arr) * r).sum()), h0.copy())
        assert max_rel_err(vals.grad, fd_vals) < 1e-6
        assert max_rel_err(h.grad, fd_h) < 1e-6

    def test_sparse_m_product_shape_checks(self):
        pat = random_pattern(np.random.default_rng(20), 3, 4)
        x = to_sparse(pat, np.ones(pat.nnz))
        with pytest.raises(ShapeError, match="transform size 4"):
            m_product(x, Tensor3(np.ones((3, 4, 2))), make_transform("dct", 4))
        for kind in ("identity", "dct"):
            with pytest.raises(ShapeError, match="node tensor shape"):
                m_product(x, Tensor3(np.ones((3, 5, 2))), make_transform(kind, 3))
        t = Tape()
        op = FacewiseOperator(pat, np.ones(pat.nnz))
        with pytest.raises(ShapeError, match="values shape"):
            t.m_product(t.leaf(np.ones(pat.nnz + 1), requires_grad=True), t.leaf(np.ones((3, 4, 2))), op)

    @pytest.mark.parametrize("kind", ["identity", "dct", "custom"])
    def test_dense_m_product_matches_library_route(self, kind):
        rng = np.random.default_rng(21)
        t_slots = 3
        if kind == "custom":
            tf = make_transform("custom", t_slots, np.eye(t_slots) + 0.4 * rng.normal(size=(t_slots, t_slots)))
        else:
            tf = make_transform(kind, t_slots)
        a0, y0 = rng.normal(size=(t_slots, 4, 3)), rng.normal(size=(t_slots, 3, 2))
        r = rng.normal(size=(t_slots, 4, 2))

        t = Tape()
        a, y = t.leaf(a0, requires_grad=True), t.leaf(y0, requires_grad=True)
        out = t.m_product(a, y, DenseOperator(a0, tf))
        t.backward(total(t, mul(t, out, t.constant(r))))

        def library(a_arr, y_arr):
            return m_product(Tensor3(a_arr), Tensor3(y_arr), tf).data

        np.testing.assert_allclose(out.value, library(a0, y0), atol=1e-12)
        fd_a = fd_probe(lambda a_arr: float((library(a_arr, y0) * r).sum()), a0.copy())
        fd_y = fd_probe(lambda y_arr: float((library(a0, y_arr) * r).sum()), y0.copy())
        assert max_rel_err(a.grad, fd_a) < 1e-6
        assert max_rel_err(y.grad, fd_y) < 1e-6

    def test_dense_m_product_shape_checks(self):
        tf = make_transform("dct", 3)
        for bad in ((4, 2, 2), (3, 2)):
            with pytest.raises(ShapeError, match="stack of 3 slices"):
                DenseOperator(np.ones(bad), tf)
        t = Tape()
        op = DenseOperator(np.ones((3, 4, 2)), tf)
        y = t.leaf(np.ones((3, 2, 5)), requires_grad=True)
        with pytest.raises(ShapeError, match="dense operand shape"):
            t.m_product(t.leaf(np.ones((3, 4, 3)), requires_grad=True), y, op)
        a = t.leaf(np.ones((3, 4, 2)), requires_grad=True)
        for bad in ((3, 3, 5), (2, 2, 5), (3, 2)):
            with pytest.raises(ShapeError, match="right operand shape"):
                t.m_product(a, t.leaf(np.ones(bad)), op)

    def test_pair_dot_matches_masked_gram(self):
        # 4 class rows spread over 2 slots of 5 nodes, so rows repeat within
        # and across slots; the gradient of a class row sums over its rows
        rng = np.random.default_rng(18)
        pat = random_pattern(rng, 2, 5)
        o0 = rng.normal(size=(4, 3))
        row_class = rng.integers(0, 4, size=(2, 5))
        classes = FeatureContext(np.zeros(0), sp.csr_matrix((4, 0)), row_class)
        r = rng.normal(size=pat.nnz)

        t = Tape()
        o = t.leaf(o0, requires_grad=True)
        v = t.pair_dot(o, classes, pat)
        loss = total(t, mul(t, v, t.constant(r)))
        t.backward(loss)

        table = entry_table(pat)

        def f(o_arr):
            rows = o_arr[row_class]
            g = np.einsum("tif,tjf->tij", rows, rows)
            return float((g[table[:, 0], table[:, 1], table[:, 2]] * r).sum())

        rows = o0[row_class]
        gram = np.einsum("tif,tjf->tij", rows, rows)
        np.testing.assert_allclose(v.value, gram[table[:, 0], table[:, 1], table[:, 2]], atol=1e-12)
        fd = fd_probe(f, o0.copy())
        assert max_rel_err(o.grad, fd) < 1e-6

    def test_pair_dot_shape_check(self):
        pat = random_pattern(np.random.default_rng(19), 2, 5)
        t = Tape()
        o = t.leaf(np.ones((4, 3)), requires_grad=True)
        for row_class in (np.zeros((2, 4), dtype=np.int64), np.zeros((3, 5), dtype=np.int64)):
            with pytest.raises(ShapeError, match="do not match the pattern"):
                t.pair_dot(o, FeatureContext(np.zeros(0), sp.csr_matrix((4, 0)), row_class), pat)

    def test_scatter_to_union_round_trip(self):
        # against identity slices of H the product returns the slices, and
        # the union support holds the entries of both
        a0 = np.array([[0, 1.0], [0, 0]])
        a1 = np.array([[0, 2.0], [3.0, 0]])
        pat = SlicePattern.from_sparse(SliceSparse3.from_dense(np.stack([a0, a1])))
        t = Tape()
        v = t.leaf(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        h = t.constant(np.stack([np.eye(2)] * 2))
        out = t.m_product(v, h, FacewiseOperator(pat, v.value))
        loss = total(t, mul(t, out, t.constant(np.ones_like(out.value))))
        t.backward(loss)
        # union support is {(0,1), (1,0)}; slice 0 leaves (1,0) empty
        u_indptr, u_indices, flat_to_union = pat.union
        np.testing.assert_array_equal(u_indptr, [0, 1, 2])
        np.testing.assert_array_equal(u_indices, [1, 0])
        np.testing.assert_array_equal(flat_to_union, [0, 0, 1])
        assert out.value.shape == (2, 2, 2)
        np.testing.assert_array_equal(out.value[0], [[0.0, 10.0], [0.0, 0.0]])
        np.testing.assert_array_equal(out.value[1], [[0.0, 20.0], [30.0, 0.0]])
        np.testing.assert_array_equal(v.grad, [1.0, 1.0, 1.0])

    def test_csr_const_matmul(self):
        rng = np.random.default_rng(19)
        c = sp.csr_matrix((rng.random((4, 3)) < 0.6).astype(float) * rng.normal(size=(4, 3)))
        g0 = rng.normal(size=(3, 2))
        r = rng.normal(size=(4, 2))
        t = Tape()
        g = t.leaf(g0, requires_grad=True)
        loss = total(t, mul(t, t.csr_const_matmul(c, g), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(g.grad, c.toarray().T @ r, atol=1e-12)


class TestSddmm:
    @pytest.mark.parametrize("nnz", [0, 1, tensor3_mod.SDDMM_BLOCK, tensor3_mod.SDDMM_BLOCK + 1, 3 * tensor3_mod.SDDMM_BLOCK + 7])
    @pytest.mark.parametrize("width", [3, 32])
    def test_blocked_bit_equals_one_einsum(self, nnz, width):
        rng = np.random.default_rng(nnz + width)
        a = rng.normal(size=(60, width))
        b = rng.normal(size=(45, width))
        rows = rng.integers(0, 60, size=nnz)
        cols = rng.integers(0, 45, size=nnz)
        got = np.empty(nnz)
        tensor3_mod._sddmm(a, rows, b, cols, got)
        want = np.einsum("ef,ef->e", a[rows], b[cols])
        assert got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_uniform_pair(self):
        np.testing.assert_allclose(masked_softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_log_two_pair(self):
        w = masked_softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-12)

    def test_singleton(self):
        np.testing.assert_allclose(masked_softmax(np.array([7.3])), [1.0], atol=0)

    def test_support_selection(self):
        row = np.array([5.0, 1.0, 1.0, -9.0])
        w = masked_softmax(row, support=np.array([1, 2]))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_empty_support_rejected(self):
        with pytest.raises(ParameterError):
            masked_softmax(np.zeros(4), support=np.array([], dtype=np.int64))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-5, 5, size=rng.integers(1, 8))
        np.testing.assert_allclose(
            masked_softmax(scores), masked_softmax(scores + shift), atol=1e-12
        )

    def test_segment_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(20)
        v0 = rng.uniform(-4, 4, size=10)
        splits = np.array([0, 3, 4, 10])
        t = Tape()
        v = t.leaf(v0, requires_grad=True)
        w = t.segment_softmax(v, splits)
        sums = np.add.reduceat(w.value, splits[:-1])
        np.testing.assert_allclose(sums, np.ones(3), atol=1e-12)
        for lo, hi in zip(splits[:-1], splits[1:]):
            np.testing.assert_allclose(w.value[lo:hi], masked_softmax(v0[lo:hi]), atol=1e-14)

    def test_segment_softmax_gradient(self):
        rng = np.random.default_rng(21)
        v0 = rng.uniform(-3, 3, size=7)
        splits = np.array([0, 2, 7])
        r = rng.normal(size=7)
        t = Tape()
        v = t.leaf(v0, requires_grad=True)
        loss = total(t, mul(t, t.segment_softmax(v, splits), t.constant(r)))
        t.backward(loss)

        def f(arr):
            parts = [masked_softmax(arr[lo:hi]) for lo, hi in zip(splits[:-1], splits[1:])]
            return float((np.concatenate(parts) * r).sum())

        fd = fd_probe(f, v0.copy())
        assert max_rel_err(v.grad, fd) < 1e-7

    def test_segment_softmax_computes_in_place(self):
        # the forward allocates its output and one repeated array, the
        # backward its output and one more; both keep the bits of the
        # out-of-place formulas
        rng = np.random.default_rng(22)
        n = 1 << 18
        splits = np.append(np.arange(0, n, 64), n)
        v0, g0 = 30.0 * rng.normal(size=n), rng.normal(size=n)
        t = Tape()
        v = t.leaf(v0, requires_grad=True)
        tracemalloc.start()
        try:
            w = t.segment_softmax(v, splits)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            (dv,) = t._entries[-1][2](g0)
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert forward_peak <= 2.25 * v0.nbytes
        assert backward_peak <= 2.25 * v0.nbytes
        starts, seg_len = splits[:-1], np.diff(splits)
        e = np.exp(v0 - np.repeat(np.maximum.reduceat(v0, starts), seg_len))
        want = e / np.repeat(np.add.reduceat(e, starts), seg_len)
        gw = g0 * want
        assert w.value.tobytes() == want.tobytes()
        assert dv.tobytes() == (gw - want * np.repeat(np.add.reduceat(gw, starts), seg_len)).tobytes()

    def test_segment_softmax_rejects_empty_segment(self):
        t = Tape()
        v = t.leaf(np.zeros(3), requires_grad=True)
        with pytest.raises(ParameterError):
            t.segment_softmax(v, np.array([0, 0, 3]))


class TestBce:
    def test_half_prob_is_log_two(self):
        t = Tape()
        p = t.leaf(np.array([0.5]), requires_grad=True)
        loss = t.bce_mean(p, np.array([1.0]))
        t.backward(loss)
        assert float(loss.value) == pytest.approx(math.log(2.0), rel=1e-12)
        assert p.grad[0] == pytest.approx(-2.0, rel=1e-12)

    def test_mean_over_pairs(self):
        t = Tape()
        p = t.leaf(np.array([0.9, 0.2]), requires_grad=True)
        y = np.array([1.0, 0.0])
        loss = t.bce_mean(p, y)
        expect = -(math.log(0.9) + math.log(0.8)) / 2
        assert float(loss.value) == pytest.approx(expect, rel=1e-12)

    def test_saturated_probability_stays_finite(self):
        t = Tape()
        p = t.leaf(np.array([1.0, 0.0]), requires_grad=True)
        loss = t.bce_mean(p, np.array([0.0, 1.0]))
        t.backward(loss)
        assert np.isfinite(loss.value)
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(22)
        p0 = rng.uniform(0.05, 0.95, size=6)
        y = (rng.random(6) < 0.5).astype(float)
        t = Tape()
        p = t.leaf(p0, requires_grad=True)
        loss = t.bce_mean(p, y)
        t.backward(loss)

        def f(arr):
            clipped = np.clip(arr, 1e-12, 1 - 1e-12)
            return float(-(y * np.log(clipped) + (1 - y) * np.log(1 - clipped)).mean())

        fd = fd_probe(f, p0.copy())
        assert max_rel_err(p.grad, fd) < 1e-7


    def test_shares_over_a_count_sum_to_the_mean(self):
        # a part's share is its BCE sum over the whole count: one part is
        # the mean itself, bit for bit, and the gradients are the mean's
        rng = np.random.default_rng(23)
        p0 = rng.uniform(0.05, 0.95, size=9)
        y = (rng.random(9) < 0.5).astype(float)
        t = Tape()
        p = t.leaf(p0, requires_grad=True)
        whole = t.bce_mean(p, y)
        t.backward(whole)
        t = Tape()
        q = t.leaf(p0, requires_grad=True)
        one = t.bce_mean(q, y, count=9)
        t.backward(one)
        assert one.value.tobytes() == whole.value.tobytes()
        assert q.grad.tobytes() == p.grad.tobytes()
        shares, grads = [], []
        for part in (slice(0, 4), slice(4, 9)):
            t = Tape()
            q = t.leaf(p0[part], requires_grad=True)
            share = t.bce_mean(q, y[part], count=9)
            t.backward(share)
            shares.append(float(share.value))
            grads.append(q.grad)
        assert sum(shares) == pytest.approx(float(whole.value), rel=1e-14)
        assert np.concatenate(grads).tobytes() == p.grad.tobytes()

    def test_count_below_the_pairs_rejected(self):
        t = Tape()
        with pytest.raises(ParameterError, match="over 1 pairs"):
            t.bce_mean(t.leaf(np.full(2, 0.5), requires_grad=True), np.ones(2), count=1)


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        t = Tape()
        a = t.leaf(np.zeros(3), requires_grad=True)
        out = t.relu(a)
        with pytest.raises(ParameterError):
            t.backward(out)

    def test_repeat_backward_bit_identical(self):
        # one sweep consumes a tape: the same leaves recorded on a second tape
        # get bit-identical gradients, and the swept tape refuses more work
        rng = np.random.default_rng(23)
        a = Tape().leaf(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tape().leaf(rng.normal(size=(4, 4)), requires_grad=True)
        grads = []
        for _ in range(2):
            t = Tape()
            loss = total(t, t.sigmoid(matmul(t, a, b)))
            t.backward(loss)
            grads.append((a.grad.copy(), b.grad.copy()))
        assert grads[0][0].tobytes() == grads[1][0].tobytes()
        assert grads[0][1].tobytes() == grads[1][1].tobytes()
        with pytest.raises(ParameterError, match="tape already swept"):
            t.backward(loss)
        with pytest.raises(ParameterError, match="tape already swept"):
            t.relu(a)
        assert a.grad.tobytes() == grads[1][0].tobytes()

    def test_sweep_frees_entries_it_has_passed(self):
        rng = np.random.default_rng(31)
        t = Tape()
        x = t.leaf(rng.normal(size=(4, 3)), requires_grad=True)
        y = t.scale(x, 2.0)
        z = t.relu(y)
        kept = mul(t, z, t.constant(rng.normal(size=(4, 3))))
        loss = total(t, kept)
        # z is held by the tape alone once the test lets go of it
        value_ref = weakref.ref(z.value)
        del z
        seen = []
        out, parents, rule = t._entries[0]

        def spy(g):
            # the rule of y = scale(x) runs after every consumer of z
            seen.append(value_ref() is None)
            return rule(g)

        t._entries[0] = (out, parents, spy)
        del out, parents
        t.backward(loss)
        assert seen == [True]
        # a node the caller holds keeps its gradient, and the leaf gets its own
        assert kept.grad is not None and np.array_equal(kept.grad, np.ones((4, 3)))
        assert y.grad is not None
        assert np.array_equal(x.grad, 2.0 * y.grad)

    def test_entries_show_every_value_to_a_tracer(self):
        # a tracer sums ``.value.nbytes`` (through ``.base``) over every
        # element of every entry: each reads an ndarray, the array while it
        # lives and an empty one once no rule or caller holds it
        rng = np.random.default_rng(37)
        t = Tape()
        x = t.leaf(rng.normal(size=(4, 3)), requires_grad=True)
        pre = t.scale(x, 2.0)
        z = t.relu(pre)
        kept = mul(t, z, t.constant(rng.normal(size=(4, 3))))
        loss = t.add(total(t, kept), t.scale(t.sumsq(x), 0.5))
        # a sum of 0-d arrays is a numpy scalar, which takes no weak reference
        assert not isinstance(loss.value, np.ndarray)
        cells = {"pre": pre.cell, "z": z.cell, "kept": kept.cell}
        del pre, z, kept
        for out, parents, _ in t._entries:
            for cell in (out, *parents):
                assert isinstance(cell.value, np.ndarray)
        assert t._entries[-1][0] is loss.cell and loss.cell.value == loss.value
        # relu keeps its mask, not its input; mul keeps both operands
        assert cells["pre"].value.nbytes == 0
        assert cells["z"].value.nbytes == 4 * 3 * 8
        assert cells["kept"].value.nbytes == 0
        t.backward(loss)
        assert cells["z"].value.nbytes == 0
        # the caller's leaf keeps its value, and its gradient
        assert x.cell.value is x.value and x.grad is not None

    def test_shared_leaf_accumulates(self):
        t = Tape()
        x = t.leaf(np.asarray(3.0), requires_grad=True)
        loss = t.add(mul(t, x, x), x)  # x^2 + x
        t.backward(loss)
        assert float(x.grad) == pytest.approx(7.0)

    @pytest.mark.parametrize("order", list(itertools.permutations(("add", "reshape", "scale"))))
    def test_aliased_gradients_accumulate_out_of_place(self, order):
        # y feeds add(y, y), a reshape and a scale: three consumers, two of
        # whose rules hand back their incoming gradient or a view of it; the
        # one recorded last hands y its first gradient
        rng = np.random.default_rng(29)
        c = rng.normal(size=(3, 4))
        r1, r2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))

        def build(t, x):
            y = mul(t, x, t.constant(c))
            make = {
                "add": lambda: t.add(y, y),
                "reshape": lambda: t.reshape(y, (4, 3)),
                "scale": lambda: t.scale(y, 0.5),
            }
            out = {name: make[name]() for name in order}
            loss = t.add(
                t.add(total(t, mul(t, out["add"], t.constant(r1))), total(t, mul(t, out["reshape"], t.constant(r2)))),
                t.sumsq(out["scale"]),
            )
            return loss, y, out

        x0 = rng.normal(size=(3, 4))
        t = Tape()
        x = t.leaf(x0, requires_grad=True)
        loss, y, out = build(t, x)
        t.backward(loss)
        numeric = fd_probe(lambda v: float(build(Tape(), Tape().leaf(v, requires_grad=True))[0].value), x0.copy())
        assert max_rel_err(x.grad, numeric) < 1e-6
        # each consumer's own gradient is untouched by the sums taken into y
        assert np.array_equal(out["add"].grad, r1)
        assert np.array_equal(out["reshape"].grad, r2)
        assert np.array_equal(out["scale"].grad, 2.0 * out["scale"].value)
        np.testing.assert_allclose(y.grad, 2.0 * r1 + r2.reshape(3, 4) + out["scale"].value, rtol=1e-12)
        assert np.array_equal(x.grad, y.grad * c)

    def test_constant_subgraph_not_recorded(self):
        t = Tape()
        c = t.constant(np.ones((2, 2)))
        out = matmul(t, c, c)
        assert not out.requires_grad
        assert len(t._entries) == 0


class TestParamStore:
    def test_lexicographic_order(self):
        store = ParamStore()
        store.add("layer2.w", np.zeros(2))
        store.add("embed", np.zeros(3))
        store.add("layer1.w", np.zeros(2))
        assert store.names() == ["embed", "layer1.w", "layer2.w"]

    def test_duplicate_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ParameterError):
            store.add("w", np.zeros(1))

    def test_grad_shape_matches_value(self):
        store = ParamStore()
        store.add("w", np.zeros((3, 4)))
        assert store.grad("w").shape == (3, 4)

    def test_zero_grads_exact(self):
        store = ParamStore()
        store.add("w", np.ones(3))
        store.grad("w")[:] = 5.0
        store.zero_grads()
        assert np.all(store.grad("w") == 0.0)

    def test_clone_is_independent(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        dup = store.clone()
        dup.value("w")[0] = 9.0
        assert store.value("w")[0] == 1.0

    def test_clone_copies_values_not_gradients(self):
        store = ParamStore()
        store.add("w", np.ones((2, 3)))
        store.grad("w")[...] = 5.0
        dup = store.clone()
        assert dup.value("w").tobytes() == store.value("w").tobytes()
        assert not np.shares_memory(dup.value("w"), store.value("w"))
        assert dup.grad("w").shape == (2, 3) and not np.any(dup.grad("w"))
        assert not np.signbit(dup.grad("w")).any()
        dup.grad("w")[0, 0] = 7.0
        store.grad("w")[1, 1] = 9.0
        assert store.grad("w")[0, 0] == 5.0 and dup.grad("w")[1, 1] == 0.0

    def test_harvest_accumulates(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        t = Tape()
        leaves = store.leaves(t)
        loss = t.sumsq(leaves["w"])
        t.backward(loss)
        store.harvest(leaves)
        np.testing.assert_allclose(store.grad("w"), [2.0, 4.0], atol=0)
        store.harvest(leaves)
        np.testing.assert_allclose(store.grad("w"), [4.0, 8.0], atol=0)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        store = ParamStore()
        rng = np.random.default_rng(24)
        store.add("theta", rng.normal(size=(3, 2)))

        def build(t, leaves):
            return t.scale(t.sumsq(leaves["theta"]), 0.5)

        assert grad_check(build, store) <= 1e-9

    def test_reads_the_gradient_the_callback_leaves_in_the_store(self):
        # no tape: the loss 0.5 |theta|^2 and its gradient theta, written
        # into the store's buffer; a wrong gradient shows
        store = ParamStore()
        store.add("theta", np.random.default_rng(27).normal(size=(3, 2)))
        seen = []

        def loss_of(probe, scale=1.0):
            seen.append(probe)
            theta = probe.value("theta")
            probe.grad("theta")[...] = scale * theta
            return 0.5 * float(np.sum(theta * theta))

        assert tape_mod.grad_check(loss_of, store) <= 1e-9
        # once on the store, then twice per entry on one probe copy
        assert seen[0] is store and len(seen) == 1 + 2 * 6
        assert len({id(probe) for probe in seen[1:]}) == 1 and seen[1] is not store
        assert tape_mod.grad_check(lambda probe: loss_of(probe, 1.5), store) > 1e-4

    def test_composite_mlp_within_tolerance(self):
        rng = np.random.default_rng(25)
        store = ParamStore()
        store.add("w1", rng.uniform(-1, 1, size=(3, 4)))
        store.add("b1", rng.uniform(-1, 1, size=(4,)))
        store.add("w2", rng.uniform(-1, 1, size=(4, 1)))
        x = rng.uniform(-1, 1, size=(5, 3))

        def build(t, leaves):
            h = t.relu(add(t, matmul(t, t.constant(x), leaves["w1"]), leaves["b1"]))
            out = t.sigmoid(matmul(t, h, leaves["w2"]))
            return t.scale(total(t, out), 1 / out.value.size)

        assert grad_check(build, store) <= 1e-4

    def test_zero_eps_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ParameterError):
            tape_mod.grad_check(lambda probe: 0.0, store, eps=0.0)

    def test_detects_corrupted_backward_rule(self, monkeypatch):
        rng = np.random.default_rng(26)
        store = ParamStore()
        store.add("w", rng.uniform(0.5, 1.5, size=(3,)))

        def build(t, leaves):
            return total(t, t.relu(leaves["w"]))

        assert grad_check(build, store) <= 1e-9
        monkeypatch.setattr(tape_mod, "_relu_grad", lambda x: (x > 0) * 1.25)
        assert grad_check(build, store) > 1e-4


SMOOTH_OP_CASES = ["sigmoid", "matmul", "mode3", "softmax", "add_mul"]


@pytest.mark.parametrize("op_name", SMOOTH_OP_CASES)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_primitive_fd_property(op_name, seed):
    """Every primitive's tape gradient tracks central differences on
    randomized inputs drawn from [-1, 1]."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    if op_name == "sigmoid":
        store.add("x", rng.uniform(-1, 1, size=(4, 3)))
        build = lambda t, lv: t.scale(total(t, t.sigmoid(lv["x"])), 1 / 12)
    elif op_name == "matmul":
        store.add("a", rng.uniform(-1, 1, size=(2, 3, 4)))
        store.add("b", rng.uniform(-1, 1, size=(2, 4, 2)))
        build = lambda t, lv: total(t, t.sigmoid(matmul(t, lv["a"], lv["b"])))
    elif op_name == "mode3":
        tf = make_transform("custom", 3, np.eye(3) + 0.3 * rng.uniform(-1, 1, size=(3, 3)))
        store.add("x", rng.uniform(-1, 1, size=(3, 2, 2)))
        store.add("y", rng.uniform(-1, 1, size=(3, 2, 2)))
        build = lambda t, lv: total(t, t.sigmoid(t.m_product(lv["x"], lv["y"], DenseOperator(lv["x"].value, tf))))
    elif op_name == "softmax":
        splits = np.array([0, 2, 5, 6])
        store.add("v", rng.uniform(-1, 1, size=6))
        r = rng.uniform(-1, 1, size=6)
        build = lambda t, lv: total(t, mul(t, t.segment_softmax(lv["v"], splits), t.constant(r)))
    else:
        store.add("a", rng.uniform(-1, 1, size=(3, 3)))
        store.add("b", rng.uniform(-1, 1, size=(3, 3)))
        build = lambda t, lv: t.scale(total(t, mul(t, t.add(lv["a"], lv["b"]), lv["b"])), 1 / 9)
    assert grad_check(build, store) <= 1e-4
