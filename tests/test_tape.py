import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nohgnn.tape as tape_mod
from nohgnn.errors import ParameterError, ShapeError
from nohgnn.tape import Node, ParamStore, Tape, grad_check
from nohgnn.tensor3 import SlicePattern, SliceSparse3, Tensor3, m_product, make_transform
from softmax_reference import masked_softmax


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

    def test_matvec_sum_grad_is_column_sums(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(4, 3))
        t = Tape()
        v = t.leaf(rng.normal(size=(3, 1)), requires_grad=True)
        loss = t.sum(t.matmul(t.constant(m), v))
        t.backward(loss)
        np.testing.assert_allclose(v.grad[:, 0], m.sum(axis=0), atol=1e-12)

    def test_bias_broadcast_backward(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5, 2))
        r = rng.normal(size=(3, 5, 2))
        t = Tape()
        b = t.leaf(rng.normal(size=(2,)), requires_grad=True)
        loss = t.sum(t.mul(t.add(t.constant(x), b), t.constant(r)))
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
        loss = t.scale(t.mean(a), 3.0)
        t.backward(loss)
        assert float(loss.value) == pytest.approx(9.0)
        np.testing.assert_allclose(a.grad, [1.5, 1.5], atol=0)


class TestStructuredRules:
    def test_mode3_grad_matches_transpose_rule(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4))
        r = rng.normal(size=(4, 3, 2))
        t = Tape()
        x = t.leaf(rng.normal(size=(4, 3, 2)), requires_grad=True)
        loss = t.sum(t.mul(t.mode3(x, m), t.constant(r)))
        t.backward(loss)
        oracle = np.einsum("kt,kij->tij", m, r)
        np.testing.assert_allclose(x.grad, oracle, atol=1e-12)

    def test_batched_matmul_grads(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(3, 4, 2))
        b0 = rng.normal(size=(3, 2, 5))
        r = rng.normal(size=(3, 4, 5))
        t = Tape()
        a = t.leaf(a0, requires_grad=True)
        b = t.leaf(b0, requires_grad=True)
        loss = t.sum(t.mul(t.matmul(a, b), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(a.grad, r @ np.swapaxes(b0, 1, 2), atol=1e-12)
        np.testing.assert_allclose(b.grad, np.swapaxes(a0, 1, 2) @ r, atol=1e-12)

    def test_replicate_sums_over_copies(self):
        rng = np.random.default_rng(14)
        r = rng.normal(size=(5, 2, 3))
        t = Tape()
        e = t.leaf(rng.normal(size=(2, 3)), requires_grad=True)
        loss = t.sum(t.mul(t.replicate(e, 5), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(e.grad, r.sum(axis=0), atol=1e-12)

    def test_gather_rows_accumulates_duplicates(self):
        t = Tape()
        a = t.leaf(np.arange(6.0).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 2, 0])
        out = t.gather_rows(a, idx)
        loss = t.sum(out)
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
        t.gather_rows(a, idx)
        _, _, backward = t._entries[-1]
        (got,) = backward(g)
        want = np.zeros((n_rows, 5))
        np.add.at(want, idx, g)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_gather_rows_range_check(self):
        t = Tape()
        a = t.leaf(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(ParameterError):
            t.gather_rows(a, np.array([3]))

    def test_concat_splits_gradient(self):
        rng = np.random.default_rng(15)
        r = rng.normal(size=(2, 5))
        t = Tape()
        a = t.leaf(rng.normal(size=(2, 2)), requires_grad=True)
        b = t.leaf(rng.normal(size=(2, 3)), requires_grad=True)
        loss = t.sum(t.mul(t.concat(a, b), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(a.grad, r[:, :2], atol=0)
        np.testing.assert_allclose(b.grad, r[:, 2:], atol=0)

    def test_shape_errors(self):
        t = Tape()
        with pytest.raises(ShapeError):
            t.matmul(t.constant(np.zeros((2, 3))), t.constant(np.zeros((2, 3, 4))))
        with pytest.raises(ShapeError):
            t.mul(t.constant(np.zeros(2)), t.constant(np.zeros(3)))
        with pytest.raises(ShapeError):
            t.concat(t.constant(np.zeros((2, 2))), t.constant(np.zeros((3, 2))))


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
        out = t.spmm(pat, vals, h)
        loss = t.sum(t.mul(out, t.constant(r)))
        t.backward(loss)

        # dense dual route: scatter values into full slices and use matmul
        t2 = Tape()
        vals2 = t2.leaf(vals0, requires_grad=True)
        h2 = t2.leaf(h0, requires_grad=True)
        dense_p = np.stack([pat.csr(vals0, k).toarray() for k in range(3)])
        out2 = t2.matmul(t2.constant(dense_p), h2)
        loss2 = t2.sum(t2.mul(out2, t2.constant(r)))
        t2.backward(loss2)

        np.testing.assert_allclose(out.value, out2.value, atol=1e-12)
        np.testing.assert_allclose(h.grad, h2.grad, atol=1e-12)
        fd = fd_probe(
            lambda v: float(
                sum(
                    (pat.csr(v, k) @ h0[k] * r[k]).sum() for k in range(3)
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
        pat = SlicePattern([indptr] * t_slots, [indices] * t_slots, n, n)
        vals0 = rng.normal(size=(t_slots, base_csr.nnz))
        h0 = rng.normal(size=(t_slots, n, 2))
        r = rng.normal(size=(t_slots, n, 2))

        t = Tape()
        vals = t.leaf(vals0.reshape(-1), requires_grad=True)
        h = t.leaf(h0, requires_grad=True)
        out = t.sparse_m_product(pat, vals, h, make_transform("identity", t_slots))
        loss = t.sum(t.mul(out, t.constant(r)))
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

        t = Tape()
        vals = t.leaf(vals0, requires_grad=True)
        h = t.leaf(h0, requires_grad=True)
        out = t.sparse_m_product(pat, vals, h, tf)
        t.backward(t.sum(t.mul(out, t.constant(r))))

        # dense route: densify the stack and take the library's dense M-product
        def dense_route(v, h_arr):
            return m_product(pat.to_sparse(v).densify(), Tensor3(h_arr), tf).data

        np.testing.assert_allclose(out.value, dense_route(vals0, h0), atol=1e-12)
        fd_vals = fd_probe(lambda v: float((dense_route(v, h0) * r).sum()), vals0.copy())
        fd_h = fd_probe(lambda h_arr: float((dense_route(vals0, h_arr) * r).sum()), h0.copy())
        assert max_rel_err(vals.grad, fd_vals) < 1e-6
        assert max_rel_err(h.grad, fd_h) < 1e-6

    def test_pair_dot_matches_masked_gram(self):
        rng = np.random.default_rng(18)
        pat = random_pattern(rng, 2, 5)
        o0 = rng.normal(size=(2, 5, 3))
        r = rng.normal(size=pat.nnz)

        t = Tape()
        o = t.leaf(o0, requires_grad=True)
        v = t.pair_dot(o, pat)
        loss = t.sum(t.mul(v, t.constant(r)))
        t.backward(loss)

        table = pat.entry_table()
        gram = np.einsum("tif,tjf->tij", o0, o0)
        expect = gram[table[:, 0], table[:, 1], table[:, 2]]
        np.testing.assert_allclose(v.value, expect, atol=1e-12)

        def f(o_arr):
            g = np.einsum("tif,tjf->tij", o_arr, o_arr)
            return float((g[table[:, 0], table[:, 1], table[:, 2]] * r).sum())

        fd = fd_probe(f, o0.copy())
        assert max_rel_err(o.grad, fd) < 1e-6

    def test_scatter_to_union_round_trip(self):
        # sparse_m_product scatters the flat values onto the union support;
        # against identity slices of H it returns the scattered slices
        a0 = np.array([[0, 1.0], [0, 0]])
        a1 = np.array([[0, 2.0], [3.0, 0]])
        pat = SlicePattern.from_sparse(SliceSparse3.from_dense(np.stack([a0, a1])))
        t = Tape()
        v = t.leaf(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        out = t.sparse_m_product(pat, v, t.constant(np.stack([np.eye(2)] * 2)), make_transform("identity", 2))
        loss = t.sum(t.mul(out, t.constant(np.ones_like(out.value))))
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
        loss = t.sum(t.mul(t.csr_const_matmul(c, g), t.constant(r)))
        t.backward(loss)
        np.testing.assert_allclose(g.grad, c.toarray().T @ r, atol=1e-12)


class TestSddmm:
    @pytest.mark.parametrize("nnz", [0, 1, tape_mod.SDDMM_BLOCK, tape_mod.SDDMM_BLOCK + 1, 3 * tape_mod.SDDMM_BLOCK + 7])
    @pytest.mark.parametrize("width", [3, 32])
    def test_blocked_bit_equals_one_einsum(self, nnz, width):
        rng = np.random.default_rng(nnz + width)
        a = rng.normal(size=(60, width))
        b = rng.normal(size=(45, width))
        rows = rng.integers(0, 60, size=nnz)
        cols = rng.integers(0, 45, size=nnz)
        got = np.empty(nnz)
        tape_mod._sddmm(a, rows, b, cols, got)
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
        loss = t.sum(t.mul(t.segment_softmax(v, splits), t.constant(r)))
        t.backward(loss)

        def f(arr):
            parts = [masked_softmax(arr[lo:hi]) for lo, hi in zip(splits[:-1], splits[1:])]
            return float((np.concatenate(parts) * r).sum())

        fd = fd_probe(f, v0.copy())
        assert max_rel_err(v.grad, fd) < 1e-7

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


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        t = Tape()
        a = t.leaf(np.zeros(3), requires_grad=True)
        out = t.relu(a)
        with pytest.raises(ParameterError):
            t.backward(out)

    def test_repeat_backward_bit_identical(self):
        rng = np.random.default_rng(23)
        t = Tape()
        a = t.leaf(rng.normal(size=(4, 4)), requires_grad=True)
        b = t.leaf(rng.normal(size=(4, 4)), requires_grad=True)
        loss = t.sum(t.sigmoid(t.matmul(a, b)))
        t.backward(loss)
        first_a, first_b = a.grad.copy(), b.grad.copy()
        t.backward(loss)
        assert np.array_equal(a.grad, first_a)
        assert np.array_equal(b.grad, first_b)

    def test_shared_leaf_accumulates(self):
        t = Tape()
        x = t.leaf(np.asarray(3.0), requires_grad=True)
        loss = t.add(t.mul(x, x), x)  # x^2 + x
        t.backward(loss)
        assert float(x.grad) == pytest.approx(7.0)

    @pytest.mark.parametrize("order", list(itertools.permutations(("add", "concat", "scale"))))
    def test_aliased_gradients_accumulate_out_of_place(self, order):
        # y feeds add(y, y), both halves of a concat, and a scale: three
        # consumers, two of whose rules hand back their incoming gradient or
        # views of it; the one recorded last hands y its first gradient
        rng = np.random.default_rng(29)
        c = rng.normal(size=(3, 4))
        r1, r2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 8))

        def build(t, x):
            y = t.mul(x, t.constant(c))
            make = {
                "add": lambda: t.add(y, y),
                "concat": lambda: t.concat(y, y),
                "scale": lambda: t.scale(y, 0.5),
            }
            out = {name: make[name]() for name in order}
            loss = t.add(
                t.add(t.sum(t.mul(out["add"], t.constant(r1))), t.sum(t.mul(out["concat"], t.constant(r2)))),
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
        assert np.array_equal(out["concat"].grad, r2)
        assert np.array_equal(out["scale"].grad, 2.0 * out["scale"].value)
        np.testing.assert_allclose(y.grad, 2.0 * r1 + r2[:, :4] + r2[:, 4:] + out["scale"].value, rtol=1e-12)
        assert np.array_equal(x.grad, y.grad * c)

    def test_constant_subgraph_not_recorded(self):
        t = Tape()
        c = t.constant(np.ones((2, 2)))
        out = t.matmul(c, c)
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

    def test_composite_mlp_within_tolerance(self):
        rng = np.random.default_rng(25)
        store = ParamStore()
        store.add("w1", rng.uniform(-1, 1, size=(3, 4)))
        store.add("b1", rng.uniform(-1, 1, size=(4,)))
        store.add("w2", rng.uniform(-1, 1, size=(4, 1)))
        x = rng.uniform(-1, 1, size=(5, 3))

        def build(t, leaves):
            h = t.relu(t.add(t.matmul(t.constant(x), leaves["w1"]), leaves["b1"]))
            out = t.sigmoid(t.matmul(h, leaves["w2"]))
            return t.mean(out)

        assert grad_check(build, store) <= 1e-4

    def test_zero_eps_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ParameterError):
            grad_check(lambda t, leaves: t.sum(leaves["w"]), store, eps=0.0)

    def test_detects_corrupted_backward_rule(self, monkeypatch):
        rng = np.random.default_rng(26)
        store = ParamStore()
        store.add("w", rng.uniform(0.5, 1.5, size=(3,)))

        def build(t, leaves):
            return t.sum(t.relu(leaves["w"]))

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
        build = lambda t, lv: t.mean(t.sigmoid(lv["x"]))
    elif op_name == "matmul":
        store.add("a", rng.uniform(-1, 1, size=(2, 3, 4)))
        store.add("b", rng.uniform(-1, 1, size=(2, 4, 2)))
        build = lambda t, lv: t.sum(t.sigmoid(t.matmul(lv["a"], lv["b"])))
    elif op_name == "mode3":
        m = rng.uniform(-1, 1, size=(3, 3))
        store.add("x", rng.uniform(-1, 1, size=(3, 2, 2)))
        build = lambda t, lv: t.sum(t.sigmoid(t.mode3(lv["x"], m)))
    elif op_name == "softmax":
        splits = np.array([0, 2, 5, 6])
        store.add("v", rng.uniform(-1, 1, size=6))
        r = rng.uniform(-1, 1, size=6)
        build = lambda t, lv: t.sum(t.mul(t.segment_softmax(lv["v"], splits), t.constant(r)))
    else:
        store.add("a", rng.uniform(-1, 1, size=(3, 3)))
        store.add("b", rng.uniform(-1, 1, size=(3, 3)))
        build = lambda t, lv: t.mean(t.mul(t.add(lv["a"], lv["b"]), lv["b"]))
    assert grad_check(build, store) <= 1e-4
