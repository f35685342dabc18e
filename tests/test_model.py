import numpy as np
import pytest

from nohgnn import training
from nohgnn.errors import NumericError, ParameterError, ShapeError
from nohgnn.model import LAYER_NOISE_SCALE, decode, forward, init_model_params
from nohgnn.overlap import aggregation_weights
from nohgnn.structural import generate_features
from nohgnn.synth import planted_partition_graph
from nohgnn.tape import ParamStore, Tape
from nohgnn.tensor3 import DenseOperator, SlicePattern, SliceSparse3, make_transform
from pattern_helpers import to_sparse
import propagate_oracle
from tape_helpers import mul, total
from weight_product_oracle import OracleTape
from weight_product_oracle import weight_product as oracle_weight_product


def loop_mode3(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    t_count, a, b = x.shape
    out = np.zeros_like(x)
    for k in range(t_count):
        for t in range(t_count):
            for i in range(a):
                for j in range(b):
                    out[k, i, j] += m[k, t] * x[t, i, j]
    return out


def loop_facewise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    t_count, a, mid = x.shape
    out = np.zeros((t_count, a, y.shape[2]))
    for t in range(t_count):
        for i in range(a):
            for j in range(y.shape[2]):
                for k in range(mid):
                    out[t, i, j] += x[t, i, k] * y[t, k, j]
    return out


def loop_m_product(x: np.ndarray, y: np.ndarray, m: np.ndarray, minv: np.ndarray) -> np.ndarray:
    return loop_mode3(loop_facewise(loop_mode3(x, m), loop_mode3(y, m)), minv)


def loop_forward(p_dense, embed, layer_ws, m, minv, n_layers, relu=True):
    t_count = p_dense.shape[0]
    h = np.stack([embed.copy() for _ in range(t_count)])
    for layer in range(1, n_layers + 1):
        spread = loop_m_product(p_dense, h, m, minv)
        h = loop_m_product(spread, layer_ws[layer - 1], m, minv)
        if relu and layer < n_layers:
            h = np.maximum(h, 0.0)
    return h


def random_sparse_p(rng, t_slots, n):
    """Row-stochastic sparse aggregation stack over a random support."""
    b = (rng.random((t_slots, n, n)) < 0.45).astype(float)
    pattern = SlicePattern.with_diagonal(SliceSparse3.from_dense(b))
    raw = rng.normal(size=pattern.nnz)
    tape = Tape()
    weights = tape.segment_softmax(tape.constant(raw), pattern.row_splits).value
    dense = to_sparse(pattern, weights).densify().data
    return pattern, weights, dense


class UnionTape(Tape):
    """A tape with the oracle's sparse M-product over the union support."""

    sparse_m_product = propagate_oracle.OracleTape.sparse_m_product


def union_stack(tape: UnionTape, leaves, pattern, p_weights, tf, n_layers, relu=True):
    """The layer stack composed from its layer ops on T copies of the
    embedding, under any transform: the oracle's sparse M-product over the
    union support, then the dense weight product of each (T, N, F) result;
    with ``relu=False``, without the hidden ReLUs."""
    h = tape.replicate(leaves["embed.e"], pattern.t_slots)
    for layer in range(1, n_layers + 1):
        spread = tape.sparse_m_product(pattern, p_weights, h, tf)
        h = tape.m_product(spread, leaves[f"layer{layer}.w"], DenseOperator(spread.value, tf))
        if relu and layer < n_layers:
            h = tape.relu(h)
    return h


def diag_pattern(t_slots, n):
    empty = SliceSparse3.from_dense(np.zeros((t_slots, n, n)))
    return SlicePattern.with_diagonal(empty)


class TestForward:
    def test_identity_pipeline_returns_embeddings(self):
        rng = np.random.default_rng(50)
        n, dim, t_slots = 5, 3, 4
        store = ParamStore()
        init_model_params(store, n, dim, t_slots, 2, rng)
        for layer in (1, 2):
            store.set_value(f"layer{layer}.w", np.stack([np.eye(dim)] * t_slots))
        pattern = diag_pattern(t_slots, n)
        tf = make_transform("identity", t_slots)
        tape = UnionTape()
        leaves = store.leaves(tape)
        p_w = tape.constant(np.ones(pattern.nnz))
        h = union_stack(tape, leaves, pattern, p_w, tf, 2, relu=False)
        expect = np.stack([store.value("embed.e")] * t_slots)
        np.testing.assert_allclose(h.value, expect, atol=1e-12)
        # on a nonnegative embedding the hidden ReLU passes everything through
        store.set_value("embed.e", np.abs(store.value("embed.e")))
        tape = Tape()
        h = forward(tape, store.leaves(tape), pattern, tape.constant(np.ones(pattern.nnz)), "identity", 2)
        np.testing.assert_allclose(h.value, np.stack([store.value("embed.e")] * t_slots), atol=1e-12)

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(51)
        store = ParamStore()
        init_model_params(store, 4, 2, 2, 2, rng)
        store.set_value("layer1.w", np.zeros((2, 2, 2)))
        pattern, weights, _ = random_sparse_p(rng, 2, 4)
        tape = Tape()
        h = forward(tape, store.leaves(tape), pattern, tape.constant(weights), "identity", 2)
        assert np.all(h.value == 0.0)

    @pytest.mark.parametrize("kind", ["identity", "dct"])
    def test_matches_loop_oracle(self, kind):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n, dim, t_slots, n_layers = 4, 2, 2, 2
            store = ParamStore()
            init_model_params(store, n, dim, t_slots, n_layers, rng)
            pattern, weights, p_dense = random_sparse_p(rng, t_slots, n)
            tf = make_transform(kind, t_slots)
            tape = Tape()
            h = forward(tape, store.leaves(tape), pattern, tape.constant(weights), kind, n_layers)
            oracle = loop_forward(
                p_dense,
                store.value("embed.e"),
                [store.value("layer1.w"), store.value("layer2.w")],
                tf.m,
                tf.minv,
                n_layers,
            )
            # the dct embedding is the (N, F) rows every slot shares
            np.testing.assert_allclose(np.broadcast_to(h.value, oracle.shape), oracle, atol=1e-10)

    def test_identity_transform_decomposes_per_slice(self):
        rng = np.random.default_rng(52)
        n, dim, t_slots = 6, 3, 3
        store = ParamStore()
        init_model_params(store, n, dim, t_slots, 2, rng)
        pattern, weights, p_dense = random_sparse_p(rng, t_slots, n)
        tape = Tape()
        h = forward(tape, store.leaves(tape), pattern, tape.constant(weights), "identity", 2)
        for t in range(t_slots):
            sub = ParamStore()
            sub.add("embed.e", store.value("embed.e"))
            sub.add("layer1.w", store.value("layer1.w")[t][None])
            sub.add("layer2.w", store.value("layer2.w")[t][None])
            sub_pattern = SlicePattern.from_sparse(
                SliceSparse3.from_dense(p_dense[t][None])
            )
            # row-major nonzero extraction matches the pattern's flat order
            sub_weights = p_dense[t][p_dense[t] != 0.0]
            tape_t = Tape()
            h_t = forward(
                tape_t,
                sub.leaves(tape_t),
                sub_pattern,
                tape_t.constant(sub_weights),
                "identity",
                2,
            )
            np.testing.assert_allclose(h_t.value[0], h.value[t], atol=1e-12)

    def test_node_permutation_equivariance(self):
        rng = np.random.default_rng(53)
        n, dim, t_slots = 7, 3, 2
        store = ParamStore()
        init_model_params(store, n, dim, t_slots, 2, rng)
        pattern, weights, p_dense = random_sparse_p(rng, t_slots, n)
        tape = Tape()
        h = forward(tape, store.leaves(tape), pattern, tape.constant(weights), "dct", 2)

        perm = rng.permutation(n)
        q = np.argsort(perm)
        p2_dense = p_dense[:, q][:, :, q]
        sp2 = SliceSparse3.from_dense(p2_dense)
        pattern2 = SlicePattern.from_sparse(sp2)
        weights2 = np.concatenate([s.data for s in sp2.slices])
        store2 = store.clone()
        store2.set_value("embed.e", store.value("embed.e")[q])
        tape2 = Tape()
        h2 = forward(tape2, store2.leaves(tape2), pattern2, tape2.constant(weights2), "dct", 2)
        np.testing.assert_allclose(h2.value[..., perm, :], h.value, atol=1e-10)

    def test_nonfinite_reports_layer(self):
        rng = np.random.default_rng(54)
        store = ParamStore()
        init_model_params(store, 4, 2, 2, 2, rng)
        store.set_value("embed.e", np.full((4, 2), 1e200))
        store.set_value("layer1.w", np.full((2, 2, 2), 1e200))
        pattern, weights, _ = random_sparse_p(rng, 2, 4)
        tape = Tape()
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="layer 1"):
            forward(tape, store.leaves(tape), pattern, tape.constant(weights), "identity", 2)


class TestSlotConstantDct:
    """The dct stack runs on the (N, F) rows every slot shares."""

    @pytest.mark.parametrize("t_slots", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_forward_matches_loop_oracle(self, t_slots, n_layers):
        rng = np.random.default_rng(70 + 10 * t_slots + n_layers)
        n, dim = 5, 3
        store = ParamStore()
        init_model_params(store, n, dim, t_slots, n_layers, rng)
        pattern, weights, p_dense = random_sparse_p(rng, t_slots, n)
        tf = make_transform("dct", t_slots)
        tape = Tape()
        h = forward(tape, store.leaves(tape), pattern, tape.constant(weights), "dct", n_layers)
        oracle = loop_forward(
            p_dense, store.value("embed.e"),
            [store.value(f"layer{k}.w") for k in range(1, n_layers + 1)], tf.m, tf.minv, n_layers,
        )
        assert h.value.shape == (n, dim)
        np.testing.assert_allclose(np.broadcast_to(h.value, oracle.shape), oracle, atol=1e-10)

    def test_the_m_product_embedding_is_slot_constant(self):
        # the full M-product stack on T copies of the embedding gives the
        # same rows in every slot, to rounding, and forward gives those rows
        rng = np.random.default_rng(80)
        n, dim, t_slots, n_layers = 7, 4, 6, 2
        store = ParamStore()
        init_model_params(store, n, dim, t_slots, n_layers, rng)
        pattern, weights, _ = random_sparse_p(rng, t_slots, n)
        tf = make_transform("dct", t_slots)
        tape = UnionTape()
        full = union_stack(tape, store.leaves(tape), pattern, tape.constant(weights), tf, n_layers).value
        assert full.shape == (t_slots, n, dim)
        # over 200 random instances (T 1-9, 1-3 layers) the slots differed
        # by at most 8e-17 and forward by 3e-15 of the largest entry
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full - full[0])) <= 1e-15 * scale
        tape = Tape()
        h = forward(tape, store.leaves(tape), pattern, tape.constant(weights), "dct", n_layers)
        assert np.max(np.abs(h.value - full)) <= 1e-13 * scale

    @pytest.mark.parametrize("seed", [1, 2])
    def test_gradients_match_the_union_path(self, seed):
        """Every parameter gradient of a training loss on the criterion-6
        graph, through features, softmax, layers and decoder, against the
        union-path stack on the same parameters. Over seeds 1-5 the largest
        gap was 4.7e-13 of a gradient's largest entry (in the generator;
        3e-15 in the layers and decoder); the bound is 1e-11."""
        config = training.TrainConfig(dim=32, transform="dct", seed=seed)
        prep = training.prepare(planted_partition_graph(seed=9), config)
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        rng = np.random.default_rng(seed)
        for name in store.names():
            value = store.value(name)
            store.set_value(name, value + 0.1 * rng.normal(size=value.shape))
        pairs = training.labeled_split(prep, config, "train")
        tf = make_transform("dct", prep.t_slots)
        grads = []
        for union in (False, True):
            tape = UnionTape() if union else Tape()
            leaves = store.leaves(tape)
            if union:
                weights = aggregation_weights(tape, generate_features(tape, prep.ctx, leaves), prep.pattern)
                h = union_stack(tape, leaves, prep.pattern, weights, tf, config.layers)
            else:
                h = training.embed(tape, leaves, prep, config)
            probs = training.decode(tape, leaves, h, pairs.pairs)
            tape.backward(training.compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg))
            grads.append({name: leaves[name].grad for name in store.names()})
        for name in store.names():
            new, old = grads[0][name], grads[1][name]
            assert np.max(np.abs(new - old)) <= 1e-11 * np.max(np.abs(old)), name

    def test_forward_refuses_other_transforms(self):
        rng = np.random.default_rng(81)
        store = ParamStore()
        init_model_params(store, 4, 2, 3, 2, rng)
        pattern, weights, _ = random_sparse_p(rng, 3, 4)
        tape = Tape()
        with pytest.raises(ParameterError, match="'custom'"):
            forward(tape, store.leaves(tape), pattern, tape.constant(weights), "custom", 2)

    @pytest.mark.parametrize("kind", ["identity", "dct"])
    def test_forward_refuses_weights_over_other_slots(self, kind):
        # the slot count comes from the pattern, so a layer stack over 4
        # slots cannot meet a 3-slot pattern unnoticed
        rng = np.random.default_rng(82)
        store = ParamStore()
        init_model_params(store, 4, 2, 4, 2, rng)
        pattern, weights, _ = random_sparse_p(rng, 3, 4)
        tape = Tape()
        with pytest.raises(ShapeError):
            forward(tape, store.leaves(tape), pattern, tape.constant(weights), kind, 2)


@pytest.mark.parametrize("kind", ["identity", "dct", "custom"])
def test_weight_product_bit_equals_composite_oracle(kind):
    """One ``m_product`` entry over the ``DenseOperator`` gives the output
    and both gradients of the old ``mode3``/``matmul``/``mode3`` composite,
    bit for bit."""
    rng = np.random.default_rng(61)
    t_slots, n, dim = 8, 60, 32
    if kind == "custom":
        tf = make_transform("custom", t_slots, np.eye(t_slots) + 0.3 * rng.normal(size=(t_slots, t_slots)))
    else:
        tf = make_transform(kind, t_slots)
    h0 = rng.normal(size=(t_slots, n, dim))
    w0 = rng.normal(size=(t_slots, dim, dim))
    r = rng.normal(size=(t_slots, n, dim))
    runs = []
    def weight_product(tape, h, w, tf):
        return tape.m_product(h, w, DenseOperator(h.value, tf))

    for tape, product in ((Tape(), weight_product), (OracleTape(), oracle_weight_product)):
        h, w = tape.leaf(h0, requires_grad=True), tape.leaf(w0, requires_grad=True)
        out = product(tape, h, w, tf)
        tape.backward(total(tape, mul(tape, out, tape.constant(r))))
        runs.append([out.value.tobytes(), h.grad.tobytes(), w.grad.tobytes()])
    assert runs[0] == runs[1]


class TestDecode:
    def make_instance(self, seed, n=5, dim=3, t_slots=2):
        rng = np.random.default_rng(seed)
        store = ParamStore()
        init_model_params(store, n, dim, t_slots, 1, rng)
        h_value = rng.normal(size=(t_slots, n, dim))
        return store, h_value

    def test_zero_everything_gives_half(self):
        store, _ = self.make_instance(56)
        for name in ("dec.w1", "dec.b1", "dec.w2", "dec.b2"):
            store.set_value(name, np.zeros_like(store.value(name)))
        tape = Tape()
        h = tape.constant(np.zeros((2, 5, 3)))
        probs = decode(tape, store.leaves(tape), h, np.array([[0, 1, 0], [2, 3, 1]]))
        np.testing.assert_allclose(probs.value, [0.5, 0.5], atol=0)

    def test_matches_hand_rolled_perceptron(self):
        store, h_value = self.make_instance(57)
        pairs = np.array([[0, 1, 0], [3, 4, 1], [2, 0, 1]])
        tape = Tape()
        probs = decode(tape, store.leaves(tape), tape.constant(h_value), pairs)
        w1, b1 = store.value("dec.w1"), store.value("dec.b1")
        w2, b2 = store.value("dec.w2"), store.value("dec.b2")
        for row, (i, j, t) in zip(probs.value, pairs):
            z = np.concatenate([h_value[t, i], h_value[t, j]])
            hidden = np.maximum(z @ w1 + b1, 0.0)
            logit = hidden @ w2 + b2
            expect = 1.0 / (1.0 + np.exp(-logit[0]))
            assert row == pytest.approx(expect, abs=1e-12)

    def test_probabilities_in_open_interval(self):
        store, h_value = self.make_instance(58)
        pairs = np.array([[i, j, t] for t in range(2) for i in range(5) for j in range(5) if i != j])
        tape = Tape()
        probs = decode(tape, store.leaves(tape), tape.constant(h_value), pairs)
        assert np.all(probs.value > 0.0)
        assert np.all(probs.value < 1.0)

    def test_order_sensitivity_exists(self):
        # decoder that returns sigmoid(first endpoint's scalar feature)
        store = ParamStore()
        init_model_params(store, 2, 1, 1, 1, np.random.default_rng(59))
        store.set_value("dec.w1", np.array([[1.0], [0.0]]))
        store.set_value("dec.w2", np.array([[1.0]]))
        h_value = np.array([[[1.0], [2.0]]])
        tape = Tape()
        probs = decode(tape, store.leaves(tape), tape.constant(h_value), np.array([[0, 1, 0], [1, 0, 0]]))
        np.testing.assert_allclose(probs.value, [1 / (1 + np.exp(-1.0)), 1 / (1 + np.exp(-2.0))], atol=1e-14)
        assert probs.value[0] != probs.value[1]

    def test_slot_constant_embedding_reads_node_rows(self):
        # an (N, F) embedding is the rows every slot shares: row i for any t
        store, h_value = self.make_instance(62)
        rows = h_value[0]
        pairs = np.array([[0, 1, 0], [3, 4, 1], [2, 0, 1], [0, 1, 1]])
        results = []
        for h0 in (rows, np.stack([rows, rows])):
            tape = Tape()
            h = tape.leaf(h0, requires_grad=True)
            probs = decode(tape, store.leaves(tape), h, pairs)
            tape.backward(total(tape, probs))
            results.append((probs.value, h.grad))
        assert results[0][0].tobytes() == results[1][0].tobytes()
        np.testing.assert_allclose(results[0][1], results[1][1].sum(axis=0), rtol=1e-14, atol=1e-15)
        tape = Tape()
        with pytest.raises(ParameterError):
            decode(tape, store.leaves(tape), tape.constant(rows), np.array([[0, 5, 0]]))

    def test_index_range_errors(self):
        store, h_value = self.make_instance(60)
        tape = Tape()
        h = tape.constant(h_value)
        leaves = store.leaves(tape)
        with pytest.raises(ParameterError):
            decode(tape, leaves, h, np.array([[0, 5, 0]]))
        with pytest.raises(ParameterError):
            decode(tape, leaves, h, np.array([[0, 1, 2]]))
        with pytest.raises(ParameterError):
            decode(tape, leaves, h, np.zeros((0, 3)))


class TestInit:
    def test_param_inventory(self):
        store = ParamStore()
        init_model_params(store, 6, 4, 3, 2, np.random.default_rng(61))
        assert store.names() == [
            "dec.b1",
            "dec.b2",
            "dec.w1",
            "dec.w2",
            "embed.e",
            "layer1.w",
            "layer2.w",
        ]
        assert store.value("embed.e").shape == (6, 4)
        assert store.value("layer1.w").shape == (3, 4, 4)
        assert store.value("dec.w1").shape == (8, 4)

    def test_seeded_determinism(self):
        a, b = ParamStore(), ParamStore()
        init_model_params(a, 5, 3, 2, 2, np.random.default_rng(62))
        init_model_params(b, 5, 3, 2, 2, np.random.default_rng(62))
        for name in a.names():
            np.testing.assert_array_equal(a.value(name), b.value(name))

    def test_layer_stacks_start_near_identity(self):
        store = ParamStore()
        init_model_params(store, 6, 4, 3, 2, np.random.default_rng(63))
        bound = LAYER_NOISE_SCALE * np.sqrt(6.0 / (4 + 4))
        for name in ("layer1.w", "layer2.w"):
            off = np.abs(store.value(name) - np.eye(4))
            assert 0.0 < off.max() <= bound + 1e-12

    def test_validation(self):
        with pytest.raises(ParameterError):
            init_model_params(ParamStore(), 4, 2, 2, 0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            init_model_params(ParamStore(), 0, 2, 2, 1, np.random.default_rng(0))
