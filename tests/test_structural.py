import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from feature_helpers import expand, row_features
import nohgnn.tape as tape_mod
from nohgnn import structural, training
from nohgnn.data import EdgeEvent, EdgeTable, bin_snapshots, split_edges
from nohgnn.errors import ParameterError
from nohgnn.structural import (
    build_feature_context,
    compute_overlap_tensor,
    generate_features,
    init_generator_params,
)
from nohgnn.tape import ParamStore, Tape, xavier_uniform
from nohgnn.synth import dense_tiny_graph, planted_partition, planted_partition_graph
from nohgnn.tensor3 import SlicePattern, SliceSparse3
from pattern_helpers import entry_table, slice_stack
from tape_helpers import gather_rows, grad_check, mul, total
import train_loop_oracle

# A gen.* gradient of the per-class generator and class-pair score op may
# differ from the per-row oracle's by this much, relative to its largest
# entry. Measured worst on the fixtures below, with one BLAS thread: 2.0e-11
# (criterion 6, gen.theta.b2, a sum over the feature rows' gradients that
# cancels to about 6e-6 of the sum of their magnitudes), and at most 6.1e-14
# on the others.
GEN_GRAD_RTOL = 1e-10


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


def heavy_tailed_graph(n_nodes=80, n_events=600, t_slots=5, seed=3):
    """A small edge list whose endpoints follow a Zipf-like activity law, so a
    few hubs carry most events and many walk-count rows repeat."""
    rng = np.random.default_rng(seed)
    weight = (np.arange(n_nodes) + 1.0) ** -0.8
    weight /= weight.sum()
    src, dst = rng.choice(n_nodes, (2, n_events), p=weight)
    return bin_snapshots(EdgeTable(src, dst, np.sort(rng.integers(0, 10_000, n_events))), t_slots)


def criterion_9_graph():
    events = planted_partition(16, 3, p_in=0.6, p_out=0.05, retention=0.9, seed=4)
    return bin_snapshots(events, 3)


# (graph, config) of the criterion-6 instance, the criterion-9 fixture under
# both transforms, and a small heavy-tailed input
ORACLE_CASES = {
    "criterion-6": (lambda: planted_partition_graph(seed=9), dict(dim=32, transform="dct", seed=1)),
    "criterion-9-identity": (criterion_9_graph, dict(dim=8, seed=5)),
    "criterion-9-dct": (criterion_9_graph, dict(dim=8, transform="dct", seed=5)),
    "heavy-tailed": (heavy_tailed_graph, dict(dim=7, transform="dct", seed=2)),
}


def full_counts(ctx) -> sp.csr_matrix:
    return ctx.counts[ctx.row_class.ravel()]


def theta_of_zero(store: ParamStore) -> np.ndarray:
    dim = store.value("gen.theta.b1").shape[0]
    h = np.maximum(np.zeros((1, dim)) @ store.value("gen.theta.w1") + store.value("gen.theta.b1"), 0)
    return (h @ store.value("gen.theta.w2") + store.value("gen.theta.b2"))[0]


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
        full = full_counts(ctx)
        dense = b.densify().data
        for t in range(3):
            for i in range(6):
                row = dense[t, i]
                for u, val in enumerate(ctx.unique_values):
                    assert full[t * 6 + i, u] == np.count_nonzero(row == val)

    def test_unique_values_sorted_distinct(self):
        g = planted_partition_graph(20, 3, seed=2)
        b = compute_overlap_tensor(g, 2)
        ctx = build_feature_context(b)
        assert np.all(np.diff(ctx.unique_values) > 0)
        assert ctx.row_class.shape == (3, 20)
        assert ctx.counts.shape == (ctx.row_class.max() + 1, len(ctx.unique_values))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_classes_expand_to_the_oracle_histogram(self, case):
        make_graph, _ = ORACLE_CASES[case]
        b = compute_overlap_tensor(make_graph(), 2)
        ctx, old = build_feature_context(b), oracle.build_feature_context(b)
        assert np.array_equal(ctx.unique_values, old.unique_values)
        assert ctx.row_class.shape == (old.t_slots, old.n_nodes)
        full = full_counts(ctx)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(full, name), getattr(old.counts, name)), name
        # the classes are distinct rows, numbered in order of first occurrence
        assert len({(r.indices.tobytes(), r.data.tobytes()) for r in ctx.counts}) == ctx.counts.shape[0]
        flat = ctx.row_class.ravel()
        first = np.unique(flat, return_index=True)[1]
        assert np.all(np.diff(first) > 0)
        assert ctx.counts.shape[0] < flat.size

    def test_empty_overlap_gives_one_class_of_theta_of_zero(self):
        b = slice_stack([sp.csr_matrix((4, 4)) for _ in range(3)], shape=(4, 4))
        ctx = build_feature_context(b)
        assert ctx.counts.shape == (1, 0)
        assert np.array_equal(ctx.row_class, np.zeros((3, 4), dtype=np.int64))
        store = ParamStore()
        init_generator_params(store, 5, np.random.default_rng(1))
        t = Tape()
        out = expand(generate_features(t, ctx, store.leaves(t)))
        assert out.shape == (3, 4, 5)
        assert np.array_equal(out, np.broadcast_to(theta_of_zero(store), (3, 4, 5)))

    def test_all_distinct_rows(self):
        # slot t, row i holds i + 1 entries of value t + 1: no two rows agree
        slices = [
            sp.csr_matrix(np.triu(np.full((5, 5), t + 1.0))[::-1]) for t in range(2)
        ]
        b = slice_stack(slices, shape=(5, 5))
        ctx, old = build_feature_context(b), oracle.build_feature_context(b)
        assert np.array_equal(ctx.row_class, np.arange(10).reshape(2, 5))
        store = ParamStore()
        init_generator_params(store, 4, np.random.default_rng(2))
        t1, t2 = Tape(), Tape()
        got = expand(generate_features(t1, ctx, store.leaves(t1)))
        want = oracle.generate_features(t2, old, store.leaves(t2)).value
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weights", [(0, 0, 0), (1, 0, 1), (0, 1, 1)])
    def test_hash_collisions_split_exactly(self, monkeypatch, weights):
        # zero multipliers give every row one hash, or hash only its columns
        # or only its counts; the grouping must still be exact
        b = compute_overlap_tensor(heavy_tailed_graph(), 2)
        want = build_feature_context(b)
        monkeypatch.setattr(structural, "ROW_HASH_WEIGHTS", np.array(weights, dtype=np.uint64))
        got = build_feature_context(b)
        assert np.array_equal(got.row_class, want.row_class)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.counts, name), getattr(want.counts, name)), name


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
        out = expand(generate_features(t, ctx, store.leaves(t)))
        assert np.all(out == 0.0)

    def test_matches_naive_oracle(self):
        store = self.make_store()
        g = dense_tiny_graph(7, 2, seed=4)
        b = compute_overlap_tensor(g, 2)
        ctx = build_feature_context(b)
        t = Tape()
        out = expand(generate_features(t, ctx, store.leaves(t)))
        np.testing.assert_allclose(out, naive_features(b.densify().data, store), atol=1e-12)

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
        out = expand(generate_features(t, ctx, store.leaves(t)))
        np.testing.assert_allclose(out[0, 0], np.ones(dim), atol=1e-12)
        np.testing.assert_allclose(out[0, 1], np.ones(dim), atol=1e-12)

    def test_empty_support_rows_get_theta_of_zero(self):
        store = self.make_store()
        # slot 1 holds only the (4, 5) edge, so nodes 0..3 have empty rows there
        g = bin_snapshots([EdgeEvent(0, 1, 0), EdgeEvent(1, 2, 0), EdgeEvent(3, 0, 0), EdgeEvent(0, 4, 0), EdgeEvent(4, 5, 5)], 2)
        b = compute_overlap_tensor(g, 1)
        ctx = build_feature_context(b)
        t = Tape()
        out = expand(generate_features(t, ctx, store.leaves(t)))
        expect = theta_of_zero(store)
        # slot 1 leaves nodes 0..3 without edges
        np.testing.assert_allclose(out[1, 0], expect, atol=1e-12)
        np.testing.assert_allclose(out[1, 2], expect, atol=1e-12)

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
        o1 = expand(generate_features(t1, ctx1, store.leaves(t1)))
        o2 = expand(generate_features(t2, ctx2, store.leaves(t2)))
        np.testing.assert_array_equal(o2[:, perm, :], o1)

    def test_gradients_match_central_differences(self):
        store = self.make_store(dim=3, seed=8)
        g = dense_tiny_graph(5, 2, seed=9)
        ctx = build_feature_context(compute_overlap_tensor(g, 2))
        rng = np.random.default_rng(10)
        r = rng.normal(size=(2, 5, 3))

        def build(t, leaves):
            features = generate_features(t, ctx, leaves)
            rows = gather_rows(t, features.rows, ctx.row_class)
            return total(t, mul(t, rows, t.constant(r)))

        assert grad_check(build, store) <= 1e-4


def oracle_case(case):
    make_graph, kwargs = ORACLE_CASES[case]
    config = training.TrainConfig(**kwargs)
    prep = training.prepare(make_graph(), config)
    b = compute_overlap_tensor(split_edges(prep.full_graph, seed=config.seed)[3], config.k_hops)
    return config, prep, dataclasses.replace(prep, ctx=oracle.build_feature_context(b))


def step_gradients(config, prep, store):
    """Every parameter's gradient of one training step's loss."""
    pairs = training.labeled_split(prep, config, "train")
    tape = Tape()
    leaves = store.leaves(tape)
    probs = training.decode(tape, leaves, train_loop_oracle.embed(tape, leaves, prep, config), pairs.pairs)
    tape.backward(training.compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg))
    return {name: node.grad for name, node in leaves.items()}


class TestPerClassGenerator:
    """The per-class generator against the per-row one it replaced
    (``ingest_oracle.generate_features``)."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_features_bit_equal_to_oracle(self, case):
        config, prep, old = oracle_case(case)
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        t1, t2 = Tape(), Tape()
        got = expand(generate_features(t1, prep.ctx, store.leaves(t1)))
        want = oracle.generate_features(t2, old.ctx, store.leaves(t2)).value
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_training_step_gradients_match_oracle(self, monkeypatch, case):
        config, prep, old = oracle_case(case)
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        got = step_gradients(config, prep, store)
        # the oracle's (T, N, F) rows, scored with one class per row
        monkeypatch.setattr(
            train_loop_oracle, "generate_features", lambda tape, ctx, leaves: row_features(tape, oracle.generate_features(tape, ctx, leaves))
        )
        want = step_gradients(config, old, store)
        assert got.keys() == want.keys()
        for name in got:
            if name.startswith("gen."):
                # the duplicate rows' gradients are summed in another order
                scale = max(np.abs(want[name]).max(), np.finfo(float).tiny)
                assert np.abs(got[name] - want[name]).max() <= GEN_GRAD_RTOL * scale, name
            else:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_only_the_decoder_gathers_build_a_scatter_in_the_backward(self, monkeypatch):
        # the score op sums per class pair without a scatter; the decoder's
        # first layer builds one per endpoint over the rows some pair reads
        config, prep, _ = oracle_case("heavy-tailed")
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        built = []
        inner = tape_mod.row_scatter

        def counted(index, n_rows):
            built.append((np.shape(index), n_rows))
            return inner(index, n_rows)

        monkeypatch.setattr(tape_mod, "row_scatter", counted)
        step_gradients(config, prep, store)
        pairs = training.labeled_split(prep, config, "train").pairs
        live = len(np.unique(pairs[:, :2]))
        assert built == [((len(pairs),), live)] * 2

    def test_the_pair_plan_is_built_once_per_prepared_input(self, monkeypatch):
        # an assemble never builds it; the first score forward of a prepared
        # input does, with or without gradients, and later ones reuse it
        built = []
        inner = structural.build_pair_plan

        def counted(row_class, n_classes, pattern):
            built.append(pattern)
            return inner(row_class, n_classes, pattern)

        monkeypatch.setattr(structural, "build_pair_plan", counted)
        config, prep, _ = oracle_case("heavy-tailed")
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        assert built == []
        training.predict(store, prep, config, prep.val_set.pairs)
        step_gradients(config, prep, store)
        step_gradients(config, prep, store)
        assert built == [prep.pattern]
        again = training.prepare(prep.full_graph, config)
        step_gradients(config, again, store)
        assert built == [prep.pattern, again.pattern]

    def test_recorded_values_have_one_row_per_class(self):
        # nothing the generator records is as tall as the T*N rows of the
        # histogram: its output is the class rows themselves
        config, prep, _ = oracle_case("heavy-tailed")
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        tape = Tape()
        out = generate_features(tape, prep.ctx, store.leaves(tape))
        n_classes = prep.ctx.counts.shape[0]
        assert len(prep.ctx.unique_values) <= n_classes < prep.t_slots * prep.n_nodes
        assert out.ctx is prep.ctx
        assert tape._entries[-1][0] is out.rows.cell and out.rows.value.shape == (n_classes, config.dim)
        assert max(node.value.shape[0] for node, _, _ in tape._entries) == n_classes


class TestPairPlan:
    """``build_pair_plan`` against ``np.unique`` of the entries' class-pair
    keys, through the packed sort and through the argsort it falls back to."""

    @pytest.mark.parametrize("key_bits", [structural.PLAN_KEY_BITS, 0])
    @pytest.mark.parametrize("empty_slot", [False, True])
    @pytest.mark.parametrize("classes", ["drawn", "single", "distinct"])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_plan_matches_unique(self, key_bits, empty_slot, classes, data):
        t_slots = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 6))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=t_slots * n * n, max_size=t_slots * n * n)))
        dense = mask.reshape(t_slots, n, n).astype(float)
        if empty_slot:
            dense[0] = 0.0
        pattern = SlicePattern.from_sparse(SliceSparse3.from_dense(dense))
        if classes == "single":
            n_classes, row_class = 1, np.zeros((t_slots, n), dtype=np.int64)
        elif classes == "distinct":
            n_classes, row_class = t_slots * n, np.arange(t_slots * n).reshape(t_slots, n)
        else:
            n_classes = data.draw(st.integers(1, t_slots * n))
            row_class = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=t_slots * n, max_size=t_slots * n)))
            row_class = row_class.reshape(t_slots, n)
        with mock.patch.object(structural, "PLAN_KEY_BITS", key_bits):
            plan = structural.build_pair_plan(row_class, n_classes, pattern)
        table = entry_table(pattern)
        keys = row_class[table[:, 0], table[:, 1]] * n_classes + row_class[table[:, 0], table[:, 2]]
        pairs, pair_of = np.unique(keys, return_inverse=True)
        assert all(a.dtype == np.int32 for a in plan)
        np.testing.assert_array_equal(plan.rows, pairs // n_classes)
        np.testing.assert_array_equal(plan.cols, pairs % n_classes)
        np.testing.assert_array_equal(plan.pair_of, pair_of)
        np.testing.assert_array_equal(plan.indptr, np.searchsorted(plan.rows, np.arange(n_classes + 1)))


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
