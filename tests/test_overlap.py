import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nohgnn.data import EdgeEvent, bin_snapshots
from nohgnn.overlap import (
    aggregation_weights,
    build_aggregation_pattern,
    normalize_scores,
    overlap_scores,
)
from nohgnn.structural import build_feature_context, compute_overlap_tensor
from nohgnn.tape import Tape
from nohgnn.tensor3 import SliceSparse3
from softmax_reference import masked_softmax


def pattern_for(dense_b: np.ndarray):
    return build_aggregation_pattern(SliceSparse3.from_dense(dense_b))


class TestPattern:
    def test_support_is_b_plus_diagonal(self):
        b = np.zeros((1, 3, 3))
        b[0, 0, 1] = b[0, 1, 0] = 4.0
        pat = pattern_for(b)
        entries = {(int(t), int(i), int(j)) for t, i, j in pat.entry_table()}
        assert entries == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 2)}

    def test_every_row_non_empty(self):
        rng = np.random.default_rng(40)
        b = (rng.random((4, 9, 9)) < 0.2).astype(float)
        pat = pattern_for(b)
        assert np.all(np.diff(pat.row_splits) >= 1)
        assert len(pat.row_splits) == 4 * 9 + 1


class TestScores:
    def test_orthogonal_rows_score_zero(self):
        b = np.zeros((1, 2, 2))
        b[0, 0, 1] = b[0, 1, 0] = 1.0
        pat = pattern_for(b)
        o = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        t = Tape()
        scores = overlap_scores(t, t.constant(o), pat)
        table = pat.entry_table()
        for (slot, i, j), s in zip(table, scores.value):
            if i != j:
                assert s == 0.0

    def test_dot_product_value(self):
        b = np.zeros((1, 2, 2))
        b[0, 0, 1] = b[0, 1, 0] = 1.0
        pat = pattern_for(b)
        o = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        t = Tape()
        scores = overlap_scores(t, t.constant(o), pat)
        table = pat.entry_table().tolist()
        idx = table.index([0, 0, 1])
        assert scores.value[idx] == pytest.approx(11.0)
        assert scores.value[table.index([0, 1, 0])] == pytest.approx(11.0)
        assert scores.value[table.index([0, 0, 0])] == pytest.approx(5.0)

    def test_symmetry_over_support(self):
        rng = np.random.default_rng(41)
        b = (rng.random((2, 6, 6)) < 0.4).astype(float)
        b = np.maximum(b, np.swapaxes(b, 1, 2))
        pat = pattern_for(b)
        o = rng.normal(size=(2, 6, 3))
        t = Tape()
        scores = overlap_scores(t, t.constant(o), pat)
        lookup = {
            (int(tt), int(i), int(j)): float(v)
            for (tt, i, j), v in zip(pat.entry_table(), scores.value)
        }
        for (tt, i, j), v in lookup.items():
            assert lookup[(tt, j, i)] == pytest.approx(v, rel=1e-12)


class TestNormalization:
    def test_isolated_node_gets_weight_one(self):
        b = np.zeros((1, 3, 3))
        b[0, 0, 1] = b[0, 1, 0] = 1.0
        pat = pattern_for(b)
        rng = np.random.default_rng(42)
        o = rng.normal(size=(1, 3, 2))
        t = Tape()
        w = aggregation_weights(t, t.constant(o), pat)
        table = pat.entry_table().tolist()
        assert w.value[table.index([0, 2, 2])] == pytest.approx(1.0, abs=0)

    def test_two_equal_scores_give_half(self):
        # nodes 0 and 1 share identical features, so row 0's two entries tie
        b = np.zeros((1, 2, 2))
        b[0, 0, 1] = b[0, 1, 0] = 1.0
        pat = pattern_for(b)
        o = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        t = Tape()
        w = aggregation_weights(t, t.constant(o), pat)
        np.testing.assert_allclose(w.value, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_log_two_gap(self):
        b = np.zeros((1, 2, 2))
        b[0, 0, 1] = b[0, 1, 0] = 1.0
        pat = pattern_for(b)
        t = Tape()
        scores = t.leaf(np.zeros(pat.nnz))
        table = pat.entry_table().tolist()
        raw = np.zeros(pat.nnz)
        raw[table.index([0, 0, 0])] = np.log(2.0)
        w = normalize_scores(t, t.constant(raw), pat)
        np.testing.assert_allclose(w.value[table.index([0, 0, 0])], 2 / 3, atol=1e-12)
        np.testing.assert_allclose(w.value[table.index([0, 0, 1])], 1 / 3, atol=1e-12)

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        t_slots = int(rng.integers(1, 4))
        b = (rng.random((t_slots, n, n)) < 0.3).astype(float)
        pat = pattern_for(b)
        o = rng.normal(size=(t_slots, n, 4))
        t = Tape()
        w = aggregation_weights(t, t.constant(o), pat)
        sums = np.add.reduceat(w.value, pat.row_splits[:-1])
        np.testing.assert_allclose(sums, np.ones(t_slots * n), atol=1e-9)
        assert np.all(w.value > 0.0)
        assert np.all(w.value <= 1.0)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(43)
        b = (rng.random((1, 5, 5)) < 0.5).astype(float)
        pat = pattern_for(b)
        raw = rng.normal(size=pat.nnz)
        shifted = raw.copy()
        lo, hi = pat.row_splits[2], pat.row_splits[3]
        shifted[lo:hi] += 17.0
        t = Tape()
        w1 = normalize_scores(t, t.constant(raw), pat)
        w2 = normalize_scores(t, t.constant(shifted), pat)
        np.testing.assert_allclose(w1.value[lo:hi], w2.value[lo:hi], atol=1e-10)

    def test_scaling_features_keeps_argmax(self):
        rng = np.random.default_rng(44)
        b = (rng.random((2, 6, 6)) < 0.4).astype(float)
        pat = pattern_for(b)
        o = rng.normal(size=(2, 6, 3))
        t = Tape()
        w1 = aggregation_weights(t, t.constant(o), pat)
        w2 = aggregation_weights(t, t.constant(o * 2.0), pat)
        for lo, hi in zip(pat.row_splits[:-1], pat.row_splits[1:]):
            assert np.argmax(w1.value[lo:hi]) == np.argmax(w2.value[lo:hi])

    def test_matches_row_by_row_masked_softmax(self):
        g = bin_snapshots([EdgeEvent(0, 1, 0), EdgeEvent(1, 2, 0), EdgeEvent(0, 1, 1), EdgeEvent(2, 3, 1)], 2)
        b = compute_overlap_tensor(g, 2)
        pat = build_aggregation_pattern(b)
        rng = np.random.default_rng(45)
        o = rng.normal(size=(2, 4, 3))
        t = Tape()
        w = aggregation_weights(t, t.constant(o), pat)
        dense_w = np.zeros((2, 4, 4))
        for (tt, i, j), v in zip(pat.entry_table(), w.value):
            dense_w[tt, i, j] = v
        for tt in range(2):
            for i in range(4):
                support = np.flatnonzero(dense_w[tt, i])
                scores = o[tt, i] @ o[tt, support].T
                np.testing.assert_allclose(dense_w[tt, i, support], masked_softmax(scores), atol=1e-12)
