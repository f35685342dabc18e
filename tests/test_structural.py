import numpy as np
import pytest

from nohgnn.data import EdgeEvent, bin_snapshots
from nohgnn.errors import ParameterError
from nohgnn.structural import (
    build_feature_context,
    compute_overlap_tensor,
    generate_features,
    init_generator_params,
)
from nohgnn.tape import ParamStore, Tape, grad_check, xavier_uniform
from nohgnn.synth import dense_tiny_graph, planted_partition, planted_partition_graph
from nohgnn.tensor3 import SliceSparse3


def triangle_graph():
    events = [EdgeEvent(0, 1, 0), EdgeEvent(1, 2, 0), EdgeEvent(0, 2, 0)]
    return bin_snapshots(events, 1)


def naive_features(b_dense: np.ndarray, store: ParamStore) -> np.ndarray:
    """Entry-by-entry oracle for the generator: loops over every node and
    support entry, no shared code with the implementation."""

    def edge(v):
        h = np.maximum(np.array([[v]]) @ store.value("gen.edge.w1") + store.value("gen.edge.b1"), 0.0)
        return h @ store.value("gen.edge.w2") + store.value("gen.edge.b2")

    def theta(vec):
        h = np.maximum(vec @ store.value("gen.theta.w1") + store.value("gen.theta.b1"), 0.0)
        return h @ store.value("gen.theta.w2") + store.value("gen.theta.b2")

    t_slots, n, _ = b_dense.shape
    dim = store.value("gen.edge.b1").shape[0]
    out = np.zeros((t_slots, n, dim))
    for t in range(t_slots):
        for i in range(n):
            acc = np.zeros((1, dim))
            for j in range(n):
                if b_dense[t, i, j] != 0.0:
                    acc = acc + edge(b_dense[t, i, j])
            out[t, i] = theta(acc)[0]
    return out


class TestOverlapTensor:
    def test_k1_equals_adjacency(self):
        g = triangle_graph()
        b = compute_overlap_tensor(g, 1)
        np.testing.assert_array_equal(b.densify().data, g.adjacency.densify().data)

    def test_triangle_k2_all_twos(self):
        g = triangle_graph()
        b = compute_overlap_tensor(g, 2)
        np.testing.assert_array_equal(b.densify().data[0], np.full((3, 3), 2.0))

    def test_isolated_nodes_stay_empty(self):
        events = [EdgeEvent(0, 1, 0), EdgeEvent(3, 4, 5)]
        g = bin_snapshots(events, 2)
        b = compute_overlap_tensor(g, 3)
        dense = b.densify().data
        assert dense[0, 2, :].sum() == 0.0
        assert dense[1, 0, :].sum() == 0.0

    def test_cache_returns_same_object(self):
        g = triangle_graph()
        assert compute_overlap_tensor(g, 2) is compute_overlap_tensor(g, 2)
        assert compute_overlap_tensor(g, 1) is not compute_overlap_tensor(g, 2)


class TestFeatureContext:
    def test_counts_reproduce_rows(self):
        g = dense_tiny_graph(6, 3, seed=1)
        b = compute_overlap_tensor(g, 2)
        ctx = build_feature_context(b)
        dense = b.densify().data
        for t in range(3):
            for i in range(6):
                row = dense[t, i]
                for u, val in enumerate(ctx.unique_values):
                    assert ctx.counts[t * 6 + i, u] == np.count_nonzero(row == val)

    def test_unique_values_sorted_distinct(self):
        g = planted_partition_graph(20, 3, seed=2)
        b = compute_overlap_tensor(g, 2)
        ctx = build_feature_context(b)
        assert np.all(np.diff(ctx.unique_values) > 0)
        assert ctx.counts.shape == (3 * 20, len(ctx.unique_values))


class TestGenerateFeatures:
    def make_store(self, dim=4, seed=3):
        store = ParamStore()
        init_generator_params(store, dim, np.random.default_rng(seed))
        return store

    def test_zero_params_give_zero_features(self):
        store = ParamStore()
        init_generator_params(store, 4, np.random.default_rng(0))
        for name in store.names():
            store.set_value(name, np.zeros_like(store.value(name)))
        g = triangle_graph()
        ctx = build_feature_context(compute_overlap_tensor(g, 2))
        t = Tape()
        out = generate_features(t, ctx, store.leaves(t))
        assert np.all(out.value == 0.0)

    def test_matches_naive_oracle(self):
        store = self.make_store()
        g = dense_tiny_graph(7, 2, seed=4)
        b = compute_overlap_tensor(g, 2)
        ctx = build_feature_context(b)
        t = Tape()
        out = generate_features(t, ctx, store.leaves(t))
        np.testing.assert_allclose(out.value, naive_features(b.densify().data, store), atol=1e-12)

    def test_linear_identity_maps_pass_value_through(self):
        dim = 3
        store = ParamStore()
        init_generator_params(store, dim, np.random.default_rng(0))
        store.set_value("gen.edge.w1", np.ones((1, dim)))
        store.set_value("gen.edge.w2", np.eye(dim))
        store.set_value("gen.theta.w1", np.eye(dim))
        store.set_value("gen.theta.w2", np.eye(dim))
        # single pair with b = 1: the edge perceptron emits (1, 1, 1), and
        # identity-like theta layers pass it through unchanged; every
        # pre-activation is nonnegative, so the ReLUs pass it too
        g = bin_snapshots([EdgeEvent(0, 1, 0)], 1)
        ctx = build_feature_context(compute_overlap_tensor(g, 1))
        t = Tape()
        out = generate_features(t, ctx, store.leaves(t))
        np.testing.assert_allclose(out.value[0, 0], np.ones(dim), atol=1e-12)
        np.testing.assert_allclose(out.value[0, 1], np.ones(dim), atol=1e-12)

    def test_empty_support_rows_get_theta_of_zero(self):
        store = self.make_store()
        # slot 1 holds only the (4, 5) edge, so nodes 0..3 have empty rows there
        g = bin_snapshots([EdgeEvent(0, 1, 0), EdgeEvent(1, 2, 0), EdgeEvent(3, 0, 0), EdgeEvent(0, 4, 0), EdgeEvent(4, 5, 5)], 2)
        b = compute_overlap_tensor(g, 1)
        ctx = build_feature_context(b)
        t = Tape()
        out = generate_features(t, ctx, store.leaves(t))
        zero_in = np.zeros((1, 4))
        h = np.maximum(zero_in @ store.value("gen.theta.w1") + store.value("gen.theta.b1"), 0)
        expect = (h @ store.value("gen.theta.w2") + store.value("gen.theta.b2"))[0]
        # slot 1 leaves nodes 0..3 without edges
        np.testing.assert_allclose(out.value[1, 0], expect, atol=1e-12)
        np.testing.assert_allclose(out.value[1, 2], expect, atol=1e-12)

    def test_node_permutation_equivariance(self):
        store = self.make_store(seed=5)
        rng = np.random.default_rng(6)
        base_events = planted_partition(12, 2, 0.5, 0.2, seed=7)
        perm = rng.permutation(12)
        permuted_events = [EdgeEvent(int(perm[e.src]), int(perm[e.dst]), e.timestamp) for e in base_events]
        g1 = bin_snapshots(base_events, 2)
        g2 = bin_snapshots(permuted_events, 2)
        ctx1 = build_feature_context(compute_overlap_tensor(g1, 2))
        ctx2 = build_feature_context(compute_overlap_tensor(g2, 2))
        t1, t2 = Tape(), Tape()
        o1 = generate_features(t1, ctx1, store.leaves(t1))
        o2 = generate_features(t2, ctx2, store.leaves(t2))
        np.testing.assert_array_equal(o2.value[:, perm, :], o1.value)

    def test_gradients_match_central_differences(self):
        store = self.make_store(dim=3, seed=8)
        g = dense_tiny_graph(5, 2, seed=9)
        ctx = build_feature_context(compute_overlap_tensor(g, 2))
        rng = np.random.default_rng(10)
        r = rng.normal(size=(2, 5, 3))

        def build(t, leaves):
            return t.sum(t.mul(generate_features(t, ctx, leaves), t.constant(r)))

        assert grad_check(build, store) <= 1e-4


class TestInit:
    def test_xavier_limits(self):
        rng = np.random.default_rng(11)
        w = xavier_uniform(rng, 50, 50, (50, 50))
        limit = np.sqrt(6.0 / 100)
        assert np.max(np.abs(w)) <= limit
        assert np.std(w) > 0.3 * limit

    def test_param_names_and_shapes(self):
        store = ParamStore()
        init_generator_params(store, 5, np.random.default_rng(12))
        assert store.names() == [
            "gen.edge.b1",
            "gen.edge.b2",
            "gen.edge.w1",
            "gen.edge.w2",
            "gen.theta.b1",
            "gen.theta.b2",
            "gen.theta.w1",
            "gen.theta.w2",
        ]
        assert store.value("gen.edge.w1").shape == (1, 5)
        assert np.all(store.value("gen.edge.b1") == 0.0)

    def test_bad_dim(self):
        with pytest.raises(ParameterError):
            init_generator_params(ParamStore(), 0, np.random.default_rng(0))


class TestSynthGenerators:
    def test_planted_partition_density_gap(self):
        g = planted_partition_graph(40, 4, 0.3, 0.02, seed=13)
        half = 20
        intra = inter = 0
        for t in range(4):
            for i, j in g.slot_edges[t]:
                if (i < half) == (j < half):
                    intra += 1
                else:
                    inter += 1
        assert intra > 4 * inter

    def test_planted_partition_deterministic(self):
        a = planted_partition(20, 2, seed=14)
        b = planted_partition(20, 2, seed=14)
        assert a == b

    def test_planted_partition_slot_marginal_matches_p_in(self):
        # Retention thins a denser base draw, so each slot's intra-community
        # edge density must still land on p_in, not p_in * retention.
        n, t_slots, p_in, ret = 200, 10, 0.2, 0.8
        g = planted_partition_graph(n, t_slots, p_in, 0.02, retention=ret, seed=16)
        half = n // 2
        intra_pairs = 2 * (half * (half - 1) // 2)
        intra = sum(
            1
            for t in range(t_slots)
            for i, j in g.slot_edges[t]
            if (i < half) == (j < half)
        )
        density = intra / (t_slots * intra_pairs)
        assert abs(density - p_in) < 0.01

    def test_planted_partition_rejects_unreachable_marginal(self):
        with pytest.raises(ParameterError):
            planted_partition(8, 2, p_in=0.5, p_out=0.1, retention=0.4)

    def test_dense_tiny_graph_covers_every_node(self):
        g = dense_tiny_graph(6, 3, seed=15)
        for t in range(3):
            degrees = np.asarray(g.adjacency.slices[t].sum(axis=1)).ravel()
            assert np.all(degrees >= 2)

    def test_generator_validation(self):
        with pytest.raises(ParameterError):
            planted_partition(7, 2)
        with pytest.raises(ParameterError):
            planted_partition(8, 2, p_in=0.1, p_out=0.5)
