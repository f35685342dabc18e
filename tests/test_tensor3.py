import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nohgnn.errors import NumericError, ParameterError, ShapeError
from nohgnn.tensor3 import (
    SlicePattern,
    SliceSparse3,
    Tensor3,
    facewise_product,
    m_product,
    make_transform,
    mode3_product,
    sparse_matpower_sum,
)
from pattern_helpers import entry_table, to_sparse


def naive_mode3(x: Tensor3, m: np.ndarray) -> np.ndarray:
    """Triple-loop oracle: transform every tube independently."""
    d1, d2, d3 = x.dims
    out = np.zeros((d3, d1, d2))
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                acc = 0.0
                for t in range(d3):
                    acc += m[k, t] * x.data[t, i, j]
                out[k, i, j] = acc
    return out


def reshape_mode3(x: Tensor3, m: np.ndarray) -> np.ndarray:
    """Independent oracle: flatten tubes to rows and right-multiply by m^T."""
    d1, d2, d3 = x.dims
    tubes = x.data.reshape(d3, d1 * d2).T  # row (i*d2+j) is tube (i, j)
    out = tubes @ m.T
    return out.T.reshape(d3, d1, d2)


def rand_tensor(rng, d1, d2, d3) -> Tensor3:
    return Tensor3(rng.uniform(-1.0, 1.0, size=(d3, d1, d2)))


class TestMode3Product:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, 3, 4, 5)
        out = mode3_product(x, np.eye(5))
        assert np.array_equal(out.data, x.data)

    def test_single_tube_example(self):
        x = Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = mode3_product(x, m)
        assert out.data[:, 0, 0] == pytest.approx([3.0, 2.0], abs=0)

    def test_matches_reshape_oracle(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, 3, 2, 4)
        m = rng.uniform(-1, 1, size=(4, 4))
        out = mode3_product(x, m)
        np.testing.assert_allclose(out.data, reshape_mode3(x, m), atol=1e-12)
        np.testing.assert_allclose(out.data, naive_mode3(x, m), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        x = rand_tensor(rng, 4, 3, 6)
        tf = make_transform("dct", 6)
        back = mode3_product(mode3_product(x, tf.m), tf.minv)
        np.testing.assert_allclose(back.data, x.data, rtol=1e-10, atol=1e-12)

    def test_shape_mismatch(self):
        x = Tensor3.zeros(2, 2, 3)
        with pytest.raises(ShapeError):
            mode3_product(x, np.eye(4))
        with pytest.raises(ShapeError):
            mode3_product(x, np.ones((3, 4)))


class TestFacewiseProduct:
    def test_identity_slices(self):
        rng = np.random.default_rng(3)
        y = rand_tensor(rng, 3, 2, 4)
        x = Tensor3(np.stack([np.eye(3)] * 4))
        out = facewise_product(x, y)
        np.testing.assert_allclose(out.data, y.data, atol=0)

    def test_identity_right_factor(self):
        x = Tensor3(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        y = Tensor3(np.eye(2)[None, :, :])
        out = facewise_product(x, y)
        np.testing.assert_array_equal(out.data, x.data)

    def test_sparse_matches_densified(self):
        rng = np.random.default_rng(4)
        dense = rng.uniform(-1, 1, size=(3, 4, 5)) * (rng.random((3, 4, 5)) < 0.4)
        xs = SliceSparse3.from_dense(dense)
        y = rand_tensor(rng, 5, 2, 3)
        out = facewise_product(xs, y)
        oracle = facewise_product(xs.densify(), y)
        np.testing.assert_allclose(out.data, oracle.data, atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            facewise_product(Tensor3.zeros(2, 3, 4), Tensor3.zeros(2, 3, 4))

    def test_builds_no_t_by_t_matrix(self):
        # 4,000 slices of 2 x 2: the product and its inputs are 125 KiB
        # each, the identity's two 4,000 x 4,000 matrices 122 MiB each
        rng = np.random.default_rng(6)
        x, y = rand_tensor(rng, 2, 2, 4000), rand_tensor(rng, 2, 2, 4000)
        tracemalloc.start()
        try:
            out = facewise_product(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.tobytes() == (x.data @ y.data).tobytes()
        assert peak < 2**20


class TestMProduct:
    def test_identity_transform_collapses(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, 3, 4, 5)
        y = rand_tensor(rng, 4, 2, 5)
        tf = make_transform("identity", 5)
        out = m_product(x, y, tf)
        ref = facewise_product(x, y)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)

    def test_dct_single_tube_matches_composed_oracle(self):
        x = Tensor3(np.array([1.0, 0.0]).reshape(2, 1, 1))
        y = Tensor3(np.array([1.0, 0.0]).reshape(2, 1, 1))
        tf = make_transform("dct", 2)
        out = m_product(x, y, tf)
        x_hat = reshape_mode3(x, tf.m)
        y_hat = reshape_mode3(y, tf.m)
        prod = np.matmul(x_hat, y_hat)
        oracle = reshape_mode3(Tensor3(prod), tf.minv)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)
        # hand value: transformed tubes are (1/sqrt2, 1/sqrt2) each
        np.testing.assert_allclose(out.data[:, 0, 0], [1 / np.sqrt(2), 0.0], atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(6)
        tf = make_transform("dct", 3)
        x = rand_tensor(rng, 2, 2, 3)
        y = rand_tensor(rng, 2, 2, 3)
        z = rand_tensor(rng, 2, 2, 3)
        left = m_product(m_product(x, y, tf), z, tf)
        right = m_product(x, m_product(y, z, tf), tf)
        np.testing.assert_allclose(left.data, right.data, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-2, 2), st.floats(-2, 2))
    def test_bilinearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        tf = make_transform("dct", 3)
        x = rand_tensor(rng, 2, 2, 3)
        y = rand_tensor(rng, 2, 2, 3)
        z = rand_tensor(rng, 2, 2, 3)
        combo = Tensor3(a * y.data + b * z.data)
        lhs = m_product(x, combo, tf)
        rhs = a * m_product(x, y, tf).data + b * m_product(x, z, tf).data
        np.testing.assert_allclose(lhs.data, rhs, atol=1e-10)

    def test_sparse_left_operand_dct(self):
        rng = np.random.default_rng(7)
        dense = rng.uniform(-1, 1, size=(4, 5, 5)) * (rng.random((4, 5, 5)) < 0.3)
        xs = SliceSparse3.from_dense(dense)
        y = rand_tensor(rng, 5, 3, 4)
        tf = make_transform("dct", 4)
        out = m_product(xs, y, tf)
        oracle = m_product(xs.densify(), y, tf)
        np.testing.assert_allclose(out.data, oracle.data, atol=1e-12)

    def test_transform_size_mismatch(self):
        with pytest.raises(ShapeError):
            m_product(Tensor3.zeros(2, 2, 3), Tensor3.zeros(2, 2, 3), make_transform("dct", 4))


class TestMakeTransform:
    def test_identity(self):
        tf = make_transform("identity", 3)
        np.testing.assert_array_equal(tf.m, np.eye(3))
        np.testing.assert_array_equal(tf.minv, np.eye(3))
        assert tf.is_identity

    @pytest.mark.parametrize("size", [1, 2, 5, 16])
    def test_dct_orthonormal(self, size):
        tf = make_transform("dct2-orthonormal", size)
        np.testing.assert_allclose(tf.m @ tf.m.T, np.eye(size), atol=1e-12)
        np.testing.assert_allclose(tf.m @ tf.minv, np.eye(size), atol=1e-12)

    def test_custom_inverse(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        tf = make_transform("custom", 2, m)
        np.testing.assert_allclose(tf.m @ tf.minv, np.eye(2), atol=1e-12)

    def test_singular_custom_rejected(self):
        with pytest.raises(NumericError):
            make_transform("custom", 2, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_bad_kind_and_size(self):
        with pytest.raises(ParameterError):
            make_transform("fourier", 3)
        with pytest.raises(ParameterError):
            make_transform("identity", 0)


def count_walks(adj: np.ndarray, max_len: int) -> np.ndarray:
    """Brute-force oracle: enumerate every walk of length 1..max_len."""
    n = adj.shape[0]
    neighbors = [np.flatnonzero(adj[i]) for i in range(n)]
    counts = np.zeros((n, n), dtype=np.int64)

    for length in range(1, max_len + 1):
        # separate pass per length so every walk of that exact length counts
        def walk(node, depth, start):
            if depth == length:
                counts[start, node] += 1
                return
            for nxt in neighbors[node]:
                walk(nxt, depth + 1, start)

        for s in range(n):
            walk(s, 0, s)
    return counts


class TestSparseMatpowerSum:
    def test_k1_returns_input_values(self):
        rng = np.random.default_rng(8)
        dense = (rng.random((3, 5, 5)) < 0.4).astype(float)
        a = SliceSparse3.from_dense(dense)
        b = sparse_matpower_sum(a, 1)
        np.testing.assert_array_equal(b.densify().data, a.densify().data)

    def test_path_graph_k2(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[1, 2] = adj[2, 1] = 1.0
        a = SliceSparse3.from_dense(adj[None, :, :])
        b = sparse_matpower_sum(a, 2).densify().data[0]
        assert b[0, 0] == 1.0 and b[0, 1] == 1.0 and b[0, 2] == 1.0
        assert b[1, 1] == 2.0 and b[1, 0] == 1.0 and b[1, 2] == 1.0
        assert b[2, 2] == 1.0 and b[2, 1] == 1.0 and b[2, 0] == 1.0

    def test_triangle_k2(self):
        adj = np.ones((3, 3)) - np.eye(3)
        a = SliceSparse3.from_dense(adj[None, :, :])
        b = sparse_matpower_sum(a, 2).densify().data[0]
        assert np.all(b == 2.0)

    def test_empty_slice(self):
        a = SliceSparse3([sp.csr_matrix((4, 4))])
        b = sparse_matpower_sum(a, 3)
        assert b.nnz == 0

    def test_k0_rejected(self):
        a = SliceSparse3([sp.csr_matrix((2, 2))])
        with pytest.raises(ParameterError):
            sparse_matpower_sum(a, 0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(1, 3),
    )
    def test_matches_walk_enumeration(self, seed, n, k):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.3).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        a = SliceSparse3.from_dense(adj[None, :, :])
        b = sparse_matpower_sum(a, k).densify().data[0]
        np.testing.assert_array_equal(b, count_walks(adj, k).astype(float))


class TestTypesAndInvariants:
    def test_tensor3_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            Tensor3(np.array([[[np.nan]]]))

    def test_tensor3_dims(self):
        x = Tensor3.zeros(2, 3, 4)
        assert x.dims == (2, 3, 4)
        assert x.data.shape == (4, 2, 3)

    def test_slicesparse_prunes_explicit_zeros(self):
        m = sp.csr_matrix((np.array([0.0, 1.0]), (np.array([0, 1]), np.array([1, 0]))), shape=(2, 2))
        s = SliceSparse3([m])
        assert s.nnz == 1

    def test_slicesparse_shape_consistency(self):
        with pytest.raises(ShapeError):
            SliceSparse3([sp.csr_matrix((2, 2)), sp.csr_matrix((3, 3))])

    def test_pattern_round_trip(self):
        rng = np.random.default_rng(9)
        dense = rng.uniform(-1, 1, size=(3, 4, 4)) * (rng.random((3, 4, 4)) < 0.5)
        ssp = SliceSparse3.from_dense(dense)
        pat = SlicePattern.from_sparse(ssp)
        vals = np.concatenate([s.data for s in ssp.slices]) if pat.nnz else np.zeros(0)
        round_tripped = to_sparse(pat, vals)
        np.testing.assert_allclose(round_tripped.densify().data, ssp.densify().data, atol=0)

    def test_pattern_with_diagonal(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0
        pat = SlicePattern.with_diagonal(SliceSparse3.from_dense(adj[None]))
        table = entry_table(pat)
        entries = {(int(r), int(c)) for _, r, c in table}
        assert entries == {(0, 0), (0, 1), (1, 1), (2, 2)}
        # every row segment non-empty
        assert np.all(np.diff(pat.row_splits) >= 1)

    def test_pattern_union_map(self):
        a0 = np.array([[0, 1.0], [0, 0]])
        a1 = np.array([[0, 0], [2.0, 0]])
        ssp = SliceSparse3.from_dense(np.stack([a0, a1]))
        pat = SlicePattern.from_sparse(ssp)
        u_indptr, u_indices, flat_to_union = pat.union
        assert len(u_indices) == 2
        dense0 = sp.csr_matrix((np.array([5.0, 0.0]), u_indices, u_indptr), shape=(2, 2)).toarray()
        dense1 = sp.csr_matrix((np.array([0.0, 7.0]), u_indices, u_indptr), shape=(2, 2)).toarray()
        placed = {tuple(np.argwhere(dense0 == 5.0)[0]), tuple(np.argwhere(dense1 == 7.0)[0])}
        assert placed == {(0, 1), (1, 0)}
        assert sorted(flat_to_union.tolist()) == [0, 1]

    @pytest.mark.parametrize(
        "t_slots, n_rows, n_cols, empty_slots, empty_rows",
        [
            (1, 6, 6, (), (2,)),  # single slice
            (3, 4, 9, (1,), ()),  # non-square
            (4, 7, 5, (0, 3), (0, 4, 6)),
            (2, 3, 3, (0, 1), ()),  # every slice empty
        ],
    )
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.05, 0.9))
    def test_pattern_union_matches_set_reference(
        self, t_slots, n_rows, n_cols, empty_slots, empty_rows, seed, density
    ):
        rng = np.random.default_rng(seed)
        dense = rng.random((t_slots, n_rows, n_cols)) < density
        dense[list(empty_slots)] = False
        dense[:, list(empty_rows)] = False
        pat = SlicePattern.from_sparse(SliceSparse3.from_dense(dense.astype(float)))
        u_indptr, u_indices, flat_to_union = pat.union

        flat = [(int(i), int(j)) for t in range(t_slots) for i, j in zip(pat.rows[t], pat.indices[t])]
        got = [(i, int(j)) for i in range(n_rows) for j in u_indices[u_indptr[i] : u_indptr[i + 1]]]
        assert got == sorted(set(flat))
        assert u_indptr.dtype == u_indices.dtype == flat_to_union.dtype == np.int64
        assert len(u_indptr) == n_rows + 1
        assert [got[u] for u in flat_to_union] == flat
