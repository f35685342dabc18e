"""Tests for the trainer: loss assembly, Adam, evaluation, and the loop protocol."""

import json
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

import train_loop_oracle
from graph_helpers import has_edge
from nohgnn import tensor3, training
from nohgnn.data import LabeledPairSet, split_edges
from nohgnn.errors import NumericError, ParameterError
from nohgnn.synth import planted_partition_graph
from nohgnn.tape import ParamStore, Tape
from nohgnn.training import (
    BETA_GRID,
    LR_GRID,
    Adam,
    Metrics,
    TrainConfig,
    compute_loss,
    evaluate,
    evaluate_model,
    predict,
    prepare,
    run_gradient_check,
    train_loop,
    write_metric_log,
)


def small_prep(seed=0, **overrides):
    overrides.setdefault("max_epochs", 3)
    config = TrainConfig(dim=4, seed=seed, **overrides)
    graph = planted_partition_graph(16, 3, p_in=0.6, p_out=0.05, seed=seed)
    return prepare(graph, config), config


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.01
        assert config.beta_reg == 0.001
        assert config.max_epochs == 300
        assert config.patience == 10
        assert config.threshold == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"beta_reg": -0.1},
            {"patience": 0},
            {"max_epochs": 0},
            {"k_hops": 0},
            {"layers": 0},
            {"dim": 0},
            {"neg_ratio": 0},
            {"transform": "fft"},
            {"threshold": 0.0},
            {"threshold": 1.0},
            # NaN fails every comparison, so plain range checks would let it through
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"beta_reg": math.nan},
            {"beta_reg": math.inf},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            TrainConfig(**kwargs)

    def test_grids(self):
        assert LR_GRID == (0.1, 0.01, 0.02, 0.05, 0.001, 0.002)
        assert BETA_GRID == (0.01, 0.005, 0.001, 0.0005)


class TestEvaluate:
    def test_worked_confusion_example(self):
        # 2 hits, 1 false alarm, 1 miss, 6 correct rejections
        probs = np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        labels = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        m = evaluate(probs, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 6)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert m.accuracy == pytest.approx(0.8, abs=1e-12)

    def test_perfect_predictions(self):
        m = evaluate(np.array([0.99, 0.01, 0.93]), np.array([1.0, 0.0, 1.0]))
        assert m.f1 == 1.0
        assert m.accuracy == 1.0
        assert (m.fp, m.fn) == (0, 0)

    def test_all_negative_degenerate_f1_is_zero(self):
        m = evaluate(np.array([0.1, 0.2]), np.array([0.0, 0.0]))
        assert m.f1 == 0.0
        assert m.accuracy == 1.0

    def test_probability_at_threshold_counts_positive(self):
        m = evaluate(np.array([0.5]), np.array([1.0]))
        assert m.tp == 1

    def test_custom_threshold(self):
        probs = np.array([0.6, 0.4])
        labels = np.array([1.0, 1.0])
        assert evaluate(probs, labels, threshold=0.5).tp == 1
        assert evaluate(probs, labels, threshold=0.3).tp == 2

    def test_raising_threshold_never_adds_positives(self):
        rng = np.random.default_rng(7)
        probs = rng.random(50)
        labels = (rng.random(50) < 0.5).astype(float)
        last = 51
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = evaluate(probs, labels, threshold)
            assert m.tp + m.fp <= last
            last = m.tp + m.fp

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            evaluate(np.zeros(0), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            evaluate(np.zeros(3), np.zeros(2))

    def test_bad_threshold_rejected(self):
        with pytest.raises(ParameterError):
            evaluate(np.array([0.5]), np.array([1.0]), threshold=1.5)


class TestComputeLoss:
    def test_coin_flip_probs_give_log_two(self):
        tape = Tape()
        probs = tape.leaf(np.full(8, 0.5), requires_grad=True)
        labels = np.array([1.0, 0.0] * 4)
        loss = compute_loss(tape, probs, labels, {}, beta=0.0)
        assert loss.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_probs_nearly_zero(self):
        tape = Tape()
        probs = tape.leaf(np.array([1.0, 0.0, 1.0]), requires_grad=True)
        labels = np.array([1.0, 0.0, 1.0])
        loss = compute_loss(tape, probs, labels, {}, beta=0.0)
        assert 0.0 <= loss.value <= 1e-10

    def test_regularizer_adds_beta_times_sumsq(self):
        tape = Tape()
        probs = tape.leaf(np.full(4, 0.5), requires_grad=True)
        labels = np.ones(4)
        leaves = {
            "a": tape.leaf(np.array([1.0, 2.0]), requires_grad=True),
            "b": tape.leaf(np.array([[3.0]]), requires_grad=True),
        }
        loss = compute_loss(tape, probs, labels, leaves, beta=0.1)
        expected = math.log(2.0) + 0.1 * (1.0 + 4.0 + 9.0)
        assert loss.value == pytest.approx(expected, rel=1e-12)

    def test_penalty_sums_leaves_in_name_order(self):
        # magnitudes far apart, so a different summation order rounds differently
        rng = np.random.default_rng(3)
        values = {name: rng.normal(size=5) * scale for name, scale in (("c", 1e8), ("a", 1.0), ("b", 1e-8))}
        tape = Tape()
        probs = tape.leaf(np.full(2, 0.5), requires_grad=True)
        leaves = {name: tape.leaf(v, requires_grad=True) for name, v in values.items()}
        loss = compute_loss(tape, probs, np.ones(2), leaves, beta=0.1)
        reg = (values["a"] ** 2).sum() + (values["b"] ** 2).sum() + (values["c"] ** 2).sum()
        assert float(loss.value) == float(tape.bce_mean(tape.constant(np.full(2, 0.5)), np.ones(2)).value) + reg * 0.1
        assert [op.__qualname__.split(".")[1] for _, _, op in tape._entries] == ["bce_mean", "sumsq", "scale", "add"]
        tape.backward(loss)
        for name, v in values.items():
            assert leaves[name].grad.tobytes() == (2.0 * 0.1 * v).tobytes()

    def test_zero_beta_skips_parameters(self):
        tape = Tape()
        probs = tape.leaf(np.full(2, 0.5), requires_grad=True)
        leaves = {"a": tape.leaf(np.array([100.0]), requires_grad=True)}
        loss = compute_loss(tape, probs, np.ones(2), leaves, beta=0.0)
        assert loss.value == pytest.approx(math.log(2.0), abs=1e-12)


def manual_adam(values, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference recurrence, scalar-at-a-time with explicit bias correction."""
    x = list(values)
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    for t, grads in enumerate(grads_per_step, start=1):
        for k, g in enumerate(grads):
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1**t)
            v_hat = v[k] / (1 - beta2**t)
            x[k] = x[k] - lr * m_hat / (math.sqrt(v_hat) + eps)
    return x


def store_with(values):
    store = ParamStore()
    for name, value in values.items():
        store.add(name, np.asarray(value, dtype=np.float64))
    return store


def set_grads(store, grads):
    store.zero_grads()
    tape = Tape()
    leaves = store.leaves(tape)
    for name, g in grads.items():
        leaves[name].grad = np.asarray(g, dtype=np.float64)
    store.harvest(leaves)


class TestAdam:
    def test_first_step_magnitude_is_almost_lr(self):
        # constant gradient: m_hat = g, v_hat = g*g, so the step is -lr*sign(g)
        store = store_with({"x": 0.0})
        adam = Adam(store, lr=0.1)
        set_grads(store, {"x": 1.0})
        adam.step()
        assert store.value("x") == pytest.approx(-0.1, abs=1e-8)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(3)
        grads_per_step = [rng.normal(size=2) for _ in range(5)]
        store = store_with({"x": np.array([1.0, -2.0])})
        adam = Adam(store, lr=0.05)
        for g in grads_per_step:
            set_grads(store, {"x": g})
            adam.step()
        expected = np.array(
            [
                manual_adam([1.0], [[g[0]] for g in grads_per_step], 0.05),
                manual_adam([-2.0], [[g[1]] for g in grads_per_step], 0.05),
            ]
        ).ravel()
        assert np.allclose(store.value("x"), expected, atol=1e-14)

    def test_step_keeps_the_whole_array_bits_and_peaks_at_two_stacks(self):
        """Steps on a (500, 32, 32) stack give the bits of the update written
        as whole-array expressions, and a step allocates at most two stacks
        (those expressions allocated four)."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(500, 32, 32))
        store = store_with({"w": x})
        adam = Adam(store, lr=0.01)
        m, v = np.zeros_like(x), np.zeros_like(x)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        for t in (1, 2, 3):
            g = rng.normal(size=x.shape)
            set_grads(store, {"w": g})
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * g * g
            x = x - 0.01 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + training.ADAM_EPS)
            tracemalloc.start()
            try:
                adam.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert store.value("w").tobytes() == x.tobytes()
            assert peak <= 2 * x.nbytes + 64 * 1024

    def test_zero_gradient_is_a_fixed_point(self):
        store = store_with({"x": np.array([3.0, -7.0]), "y": 1.5})
        adam = Adam(store, lr=0.1)
        before = {name: store.value(name).copy() for name in store.names()}
        for _ in range(4):
            set_grads(store, {"x": np.zeros(2), "y": 0.0})
            adam.step()
        for name in store.names():
            assert np.array_equal(store.value(name), before[name])

    def test_deterministic_across_instances(self):
        def run():
            store = store_with({"a": np.array([1.0, 2.0]), "b": 0.5})
            adam = Adam(store, lr=0.01)
            for t in range(3):
                set_grads(store, {"a": np.array([0.1 * t, -0.2]), "b": 1.0})
                adam.step()
            return {name: store.value(name).copy() for name in store.names()}

        first, second = run(), run()
        for name in first:
            assert np.array_equal(first[name], second[name])

    def test_nonfinite_gradient_names_parameter(self):
        store = store_with({"bad.w": np.array([1.0])})
        adam = Adam(store, lr=0.1)
        set_grads(store, {"bad.w": np.array([np.nan])})
        with pytest.raises(NumericError, match="bad.w"):
            adam.step()

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ParameterError):
            Adam(store_with({"x": 0.0}), lr=0.0)


class TestPrepare:
    def test_frozen_sets_have_positives_and_negatives(self):
        prep, config = small_prep()
        for pair_set in (prep.val_set, prep.test_set):
            assert pair_set.size > 0
            n_pos = int(pair_set.labels.sum())
            assert pair_set.size == n_pos * (1 + config.neg_ratio)

    def test_negatives_checked_against_full_graph(self):
        prep, _ = small_prep()
        for pair_set in (prep.val_set, prep.test_set):
            for i, j, t in pair_set.pairs[pair_set.labels == 0.0]:
                assert not has_edge(prep.full_graph, int(i), int(j), int(t))

    def test_val_positives_absent_from_masked_graph(self):
        prep, config = small_prep()
        masked = split_edges(prep.full_graph, seed=config.seed)[3]
        for i, j, t in prep.val_set.pairs[prep.val_set.labels == 1.0]:
            assert has_edge(prep.full_graph, int(i), int(j), int(t))
            assert not has_edge(masked, int(i), int(j), int(t))

    def test_deterministic(self):
        prep_a, _ = small_prep(seed=5)
        prep_b, _ = small_prep(seed=5)
        assert np.array_equal(prep_a.val_set.pairs, prep_b.val_set.pairs)
        assert np.array_equal(prep_a.test_set.pairs, prep_b.test_set.pairs)

    def test_support_built_on_masked_graph(self):
        prep, config = small_prep()
        assert prep.pattern.nnz >= split_edges(prep.full_graph, seed=config.seed)[3].edge_count
        assert prep.ctx.row_class.shape == (prep.full_graph.t_slots, prep.n_nodes)

    @pytest.mark.parametrize("k_hops", [1, 2, 3])
    def test_assemble_writes_no_array_of_the_cached_overlap_tensor(self, k_hops):
        """The aggregation pattern and the feature context read B's own
        arrays; after ``assemble`` the cached B is still bit-equal to a
        fresh build, in its values, columns and row pointers."""
        graph = planted_partition_graph(16, 3, p_in=0.6, p_out=0.05, seed=0)
        train, val, test, masked = split_edges(graph, seed=0)
        training.assemble(graph, masked, {"train": train, "val": val, "test": test}, TrainConfig(dim=4, k_hops=k_hops))
        cached = masked.overlap_cache[k_hops].matrix
        fresh = tensor3.sparse_matpower_sum(masked.adjacency, k_hops).matrix
        assert cached.data.max() > 1 or k_hops == 1
        for name in ("data", "indices", "indptr"):
            a, b = getattr(cached, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestTrainLoop:
    def test_frozen_metric_stops_after_patience(self, script_val_f1):
        prep, config = small_prep(max_epochs=50, patience=10)
        script_val_f1(lambda epoch: 0.5)
        result = train_loop(prep, config)
        assert result.epochs_run == 11
        assert result.best_epoch == 1
        assert len(result.history) == 11

    def test_improving_metric_runs_to_cap(self, script_val_f1):
        prep, config = small_prep(max_epochs=7)
        script_val_f1(lambda epoch: epoch / 100.0)
        result = train_loop(prep, config)
        assert result.epochs_run == 7
        assert result.best_epoch == 7

    def test_ties_do_not_count_as_improvement(self, script_val_f1):
        prep, config = small_prep(max_epochs=50, patience=3)
        scores = {1: 0.4, 2: 0.6, 3: 0.6, 4: 0.6, 5: 0.6}
        script_val_f1(scores.__getitem__)
        result = train_loop(prep, config)
        assert result.best_epoch == 2
        assert result.epochs_run == 5

    def test_best_parameters_restored(self, monkeypatch, script_val_f1):
        prep, config = small_prep(max_epochs=20, patience=5)
        snapshots = {}
        inner = Adam.step

        def step_then_snapshot(self):
            inner(self)
            snapshots[self.step_count] = self.store.clone()

        monkeypatch.setattr(Adam, "step", step_then_snapshot)
        script_val_f1(lambda epoch: {1: 0.2, 2: 0.9}.get(epoch, 0.1))
        result = train_loop(prep, config)
        assert result.best_epoch == 2
        assert result.epochs_run == 7
        best = snapshots[2]
        for name in best.names():
            assert np.array_equal(result.store.value(name), best.value(name))

    def test_history_rows_and_log_file(self, tmp_path):
        log_path = tmp_path / "metrics.jsonl"
        prep, config = small_prep(max_epochs=3)
        result = train_loop(prep, config, log_path=str(log_path))
        assert result.epochs_run == 3
        lines = log_path.read_text().splitlines()
        assert len(lines) == 3
        for epoch, line in enumerate(lines, start=1):
            row = json.loads(line)
            assert list(row) == ["epoch", "loss", "val_f1", "val_acc"]
            assert row["epoch"] == epoch
            assert math.isfinite(row["loss"])
            assert 0.0 <= row["val_f1"] <= 1.0
            assert 0.0 <= row["val_acc"] <= 1.0

    def test_bit_identical_reruns(self):
        prep_a, config = small_prep(seed=11, max_epochs=3)
        prep_b, _ = small_prep(seed=11, max_epochs=3)
        result_a = train_loop(prep_a, config)
        result_b = train_loop(prep_b, config)
        assert result_a.history == result_b.history
        for name in result_a.store.names():
            assert np.array_equal(result_a.store.value(name), result_b.store.value(name))

    def test_loss_improves_somewhere(self):
        prep, config = small_prep(max_epochs=12)
        result = train_loop(prep, config)
        losses = [row["loss"] for row in result.history]
        assert min(losses[1:]) < losses[0]

    def test_smoothed_early_loss_non_increasing(self):
        # per-epoch negative resampling makes raw losses noisy; a window-5
        # moving average over the first 20 epochs must still fall monotonely
        graph = planted_partition_graph(seed=9)
        config = TrainConfig(transform="dct", seed=1, max_epochs=20, patience=300)
        prep = prepare(graph, config)
        result = train_loop(prep, config)
        losses = np.array([row["loss"] for row in result.history])
        smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smoothed) <= 0.0)

    def test_empty_validation_rejected(self):
        prep, config = small_prep()
        prep.val_set = LabeledPairSet(np.zeros((0, 3)), np.zeros(0), "val")
        with pytest.raises(ParameterError, match="validation"):
            train_loop(prep, config)

    def test_predictions_are_probabilities(self):
        prep, config = small_prep(max_epochs=2)
        result = train_loop(prep, config)
        probs = predict(result.store, prep, config, prep.test_set.pairs)
        assert probs.shape == (prep.test_set.size,)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_predict_refuses_a_slot_out_of_range(self, transform):
        # the dct embedding has no slot axis for decode to check t against
        prep, config = small_prep(transform=transform)
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        with pytest.raises(ParameterError, match="out of range"):
            predict(store, prep, config, np.array([[0, 1, prep.t_slots]]))

    def test_evaluate_model_matches_manual_evaluate(self):
        prep, config = small_prep(max_epochs=2)
        result = train_loop(prep, config)
        metrics = evaluate_model(result.store, prep, config, prep.val_set)
        probs = predict(result.store, prep, config, prep.val_set.pairs)
        manual = evaluate(probs, prep.val_set.labels, config.threshold)
        assert metrics == manual


def assert_same_run(got, want):
    assert got.history == want.history
    assert (got.best_epoch, got.epochs_run, got.best_val_f1) == (want.best_epoch, want.epochs_run, want.best_val_f1)
    assert got.store.names() == want.store.names()
    for name in want.store.names():
        assert got.store.value(name).tobytes() == want.store.value(name).tobytes()


def first_step_grads(monkeypatch, loop, prep, config):
    """The store's gradients at the first Adam step of ``loop``."""
    grads = {}
    inner = Adam.step

    def step(self):
        if self.step_count == 0:
            grads.update((name, self.store.grad(name).copy()) for name in self.store.names())
        inner(self)

    with monkeypatch.context() as patch:
        patch.setattr(Adam, "step", step)
        loop(prep, config)
    return grads


def log_calls(monkeypatch, module, attr, calls):
    """Append ``attr`` to ``calls`` at each call of ``module.attr``."""
    inner = getattr(module, attr)

    def logged(*args, **kwargs):
        calls.append(attr)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, logged)


class TestSharedForward:
    """The loop that embeds each parameter state once against the loop that
    ran a training and a validation forward per epoch (``train_loop_oracle``)."""

    @pytest.mark.parametrize("transform", ["identity", "dct"])
    @pytest.mark.parametrize("max_epochs, patience", [(1, 10), (4, 10), (30, 1)], ids=["one", "four", "early-stop"])
    def test_bit_equal_to_two_forward_loop(self, tmp_path, transform, max_epochs, patience):
        prep, config = small_prep(seed=3, transform=transform, max_epochs=max_epochs, patience=patience)
        want = train_loop_oracle.train_loop(prep, config, log_path=str(tmp_path / "want.jsonl"))
        got = train_loop(prep, config, log_path=str(tmp_path / "got.jsonl"))
        assert_same_run(got, want)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        if patience == 1:
            assert want.epochs_run < max_epochs

    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_step_gradients_bit_equal_to_oracle_and_to_a_kept_tape(self, monkeypatch, transform):
        # the sweeps free what they have passed; holding every entry of
        # every tape alive to its end must not change one bit of the step's
        # gradients
        prep, config = small_prep(seed=3, transform=transform, max_epochs=1)
        got = first_step_grads(monkeypatch, train_loop, prep, config)
        want = first_step_grads(monkeypatch, train_loop_oracle.train_loop, prep, config)
        held = []
        sweep = Tape.backward

        def sweep_holding_entries(tape, loss):
            held.append(list(tape._entries))
            return sweep(tape, loss)

        monkeypatch.setattr(Tape, "backward", sweep_holding_entries)
        kept = first_step_grads(monkeypatch, train_loop_oracle.train_loop, prep, config)
        assert len(held) == 1
        kept_chunked = first_step_grads(monkeypatch, train_loop, prep, config)
        # one chunk, then the shared stage
        assert len(held) == 3
        assert any(np.any(grad) for grad in want.values())
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
            assert kept[name].tobytes() == want[name].tobytes(), name
            assert kept_chunked[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_values_no_rule_reads_are_freed_before_the_backward(self, monkeypatch, transform):
        # the tape holds gradient cells, not nodes: once the caller lets go,
        # a value lives on only if a backward rule captured it
        prep, config = small_prep(seed=3, transform=transform, max_epochs=1)
        assert config.layers >= 2
        want = first_step_grads(monkeypatch, train_loop_oracle.train_loop, prep, config)
        refs = {"pre_relu": [], "scores": [], "rows": []}
        relu, pair_dot, pair_affine = Tape.relu, Tape.pair_dot, Tape.pair_affine

        def watched_relu(tape, a):
            refs["pre_relu"].append(weakref.ref(a.value))
            return relu(tape, a)

        def watched_pair_dot(tape, o, classes, pattern):
            out = pair_dot(tape, o, classes, pattern)
            refs["scores"].append(weakref.ref(out.value))
            return out

        def watched_pair_affine(tape, a, ends, w, b):
            out = pair_affine(tape, a, ends, w, b)
            if out.requires_grad:
                rule = tape._entries[-1][2]
                rows = rule.__closure__[rule.__code__.co_freevars.index("picked")].cell_contents
                refs["rows"].append(weakref.ref(rows))
            return out

        monkeypatch.setattr(Tape, "relu", watched_relu)
        monkeypatch.setattr(Tape, "pair_dot", watched_pair_dot)
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        # the pairs of train_loop's first step
        neg = training.negative_sample(prep.full_graph, prep.train_pos, config.neg_ratio, seed=[config.seed, 1])
        pairs = training.merge_pair_sets(prep.train_pos, neg)
        tape = Tape()
        leaves = store.leaves(tape)
        h = training.embed(tape, leaves, prep, config)
        # every relu of the generator's two perceptrons and of the hidden layers
        assert len(refs["pre_relu"]) == 2 + config.layers - 1
        monkeypatch.setattr(Tape, "pair_affine", watched_pair_affine)
        probs = training.decode(tape, leaves, h, pairs.pairs)
        loss = compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg)
        embedding = weakref.ref(h.value)
        del h, probs
        assert [len(refs[k]) for k in ("pre_relu", "scores", "rows")] == [2 + config.layers, 1, 1]
        assert embedding() is None
        for name in ("pre_relu", "scores"):
            assert all(ref() is None for ref in refs[name]), name
        # the decoder's first layer reads the embedding rows some pair reads
        (rows,) = refs["rows"]
        assert rows() is not None
        for out, parents, _ in tape._entries:
            assert all(isinstance(cell.value, np.ndarray) for cell in (out, *parents))
        tape.backward(loss)
        assert rows() is None
        store.harvest(leaves)
        for name in want:
            assert store.grad(name).tobytes() == want[name].tobytes(), name

    def test_train_loop_lets_the_embedding_go_before_the_backward(self, monkeypatch):
        # in one chunk, and in chunks of 1 and of 3 slots: each chunk's
        # embedding goes before its sweep, and every one before the shared
        # stage's sweep
        prep, config = small_prep(seed=3, max_epochs=3, patience=10)
        for width in (None, 1, 3):
            embeddings, held_in_sweep = [], []
            stack, sweep = training.layer_stack, Tape.backward

            def watched_stack(*args):
                h = stack(*args)
                embeddings.append(weakref.ref(h.value))
                return h

            def watched_sweep(tape, loss):
                held_in_sweep.append(any(ref() is not None for ref in embeddings))
                return sweep(tape, loss)

            with monkeypatch.context() as patch:
                if width is not None:
                    patch.setattr(training, "CHUNK_BYTES", width * prep.n_nodes * config.dim * 8)
                n_chunks = len(training.slot_chunks(prep, config))
                assert n_chunks == (1 if width is None else -(-prep.t_slots // width))
                patch.setattr(training, "layer_stack", watched_stack)
                patch.setattr(Tape, "backward", watched_sweep)
                assert train_loop(prep, config).epochs_run == 3
            # each epoch sweeps its chunks, then the shared stage
            assert held_in_sweep == [False] * (3 * (n_chunks + 1))
            # three training passes and the final validation pass
            assert len(embeddings) == 4 * n_chunks

    def test_bit_equal_under_scripted_val_f1(self, script_val_f1):
        prep, config = small_prep(seed=3, transform="dct", max_epochs=6, patience=2)
        scores = {1: 0.3, 2: 0.5, 3: 0.4}
        runs = []
        for loop in (train_loop, train_loop_oracle.train_loop):
            script_val_f1(lambda epoch: scores.get(epoch, 0.1))
            runs.append(loop(prep, config))
        assert_same_run(*runs)
        assert (runs[0].best_epoch, runs[0].epochs_run) == (2, 4)

    @pytest.mark.parametrize("scoring", ["validate"])
    def test_one_embedding_per_parameter_state(self, monkeypatch, scoring):
        prep, config = small_prep(max_epochs=4, patience=10)
        order = []
        for module, attr in ((training, "generate_features"), (training, "negative_sample"), (Adam, "step")):
            log_calls(monkeypatch, module, attr, order)
        result = train_loop(prep, config)
        assert result.epochs_run == 4
        assert order.count("generate_features") == 5
        assert order.count("negative_sample") == 4
        # the initial parameters are embedded before the first epoch's negatives are drawn
        assert order == ["generate_features"] + ["negative_sample", "step", "generate_features"] * 4

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "param, message",
        [("embed.e", "layer 1 produced non-finite activations"), ("dec.w2", "training diverged at epoch 3: loss is not finite")],
    )
    def test_divergence_raises_at_the_same_step(self, monkeypatch, param, message):
        prep, config = small_prep(max_epochs=6, patience=10)
        steps = []
        inner = training.Adam.step

        def step_then_poison(self):
            inner(self)
            steps.append(None)
            if self.step_count == 2:
                self.store.set_value(param, np.full_like(self.store.value(param), np.inf))

        monkeypatch.setattr(training.Adam, "step", step_then_poison)
        outcomes = []
        for loop in (train_loop_oracle.train_loop, train_loop):
            steps.clear()
            with pytest.raises(NumericError) as excinfo:
                loop(prep, config)
            outcomes.append((str(excinfo.value), len(steps)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (message, 2)


class TestInitParams:
    def test_param_shapes_describe_init_params(self):
        config = TrainConfig(dim=5, layers=3)
        store = training.init_params(config, 7, 4)
        shapes = dict(training.param_shapes(config, 7, 4))
        assert sorted(shapes) == store.names()
        for name, shape in shapes.items():
            assert store.value(name).shape == shape

    def test_param_shapes_refuse_an_empty_graph(self):
        with pytest.raises(ParameterError, match="n_nodes"):
            list(training.param_shapes(TrainConfig(), 0, 4))


class TestGradientCheck:
    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_full_model_gradients(self, transform):
        assert run_gradient_check(transform) <= 1e-4


@pytest.mark.parametrize("transform", ["identity", "dct"])
def test_training_builds_no_transform(monkeypatch, transform):
    """Training, prediction and the gradient check build no ``Transform``,
    whose T x T matrices the model never reads: at 20,000 slots the two
    would take 2.98 GiB."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Transform was built")

    monkeypatch.setattr(tensor3.Transform, "__init__", refuse)
    prep, config = small_prep(seed=4, transform=transform, max_epochs=2)
    result = train_loop(prep, config)
    assert result.epochs_run == 2
    probs = training.predict(result.store, prep, config, prep.test_set.pairs)
    assert probs.shape == (len(prep.test_set.pairs),)
    assert run_gradient_check(transform) <= 1e-4


@pytest.mark.parametrize("kind, shared, chunk", [("dct", 13, 11), ("identity", 13, 12)])
def test_tape_entries_of_one_training_step(monkeypatch, kind, shared, chunk):
    """One training step on the criterion-6 instance, one slot chunk: the
    chunk's tape records two M-product entries per layer, the aggregation
    and the weight product, and the decoder, whose first layer is one
    ``pair_affine`` on the embedding rows, then the chunk's BCE share. The
    identity replicates the embedding over the chunk's slots; the dct runs
    on the (N, F) rows every slot shares and records no replicate. The
    shared tape records the feature generator (two affine entries in each
    perceptron), the pair scores and the softmax, then one entry for the L2
    penalty over every parameter and the inner product that carries the
    chunks' flat-weight gradient."""
    config = TrainConfig(dim=32, transform=kind, seed=1, max_epochs=1)
    prep = prepare(planted_partition_graph(seed=9), config)
    assert len(training.slot_chunks(prep, config)) == 1
    tapes = []
    sweep = Tape.backward

    def watched(tape, loss):
        tapes.append([backward.__qualname__.split(".")[1] for _, _, backward in tape._entries])
        return sweep(tape, loss)

    monkeypatch.setattr(Tape, "backward", watched)
    train_loop(prep, config)
    chunk_ops, shared_ops = tapes
    assert (len(shared_ops), len(chunk_ops)) == (shared, chunk)
    assert chunk_ops.count("m_product") == 2 * config.layers
    assert chunk_ops.count("affine") == 1 and chunk_ops.count("pair_affine") == 1
    assert chunk_ops.count("replicate") == (kind == "identity")
    assert chunk_ops[-6:] == ["pair_affine", "relu", "affine", "reshape", "sigmoid", "bce_mean"]
    assert shared_ops.count("affine") == 4 and shared_ops.count("pair_dot") == 1
    assert shared_ops[-6:] == ["pair_dot", "segment_softmax", "sumsq", "scale", "inner", "add"]
    for ops in tapes:
        assert "spmm" not in ops and "mode3" not in ops
        assert "gather_rows" not in ops and "matmul" not in ops


def criterion_6_chunked(monkeypatch, width, **overrides):
    """The criterion-6 instance under the identity, in chunks of ``width``
    slots (one chunk for None)."""
    config = TrainConfig(dim=32, seed=1, **overrides)
    prep = prepare(planted_partition_graph(seed=9), config)
    if width is not None:
        monkeypatch.setattr(training, "CHUNK_BYTES", width * prep.n_nodes * config.dim * 8)
    return prep, config


def assert_within(got, want, rtol):
    scale = max(np.abs(want).max(), np.finfo(float).tiny)
    assert got.shape == want.shape and np.abs(got - want).max() <= rtol * scale


# Chunks sum the embedding gradient over the slots, the decoder's gradients
# over the pairs and the loss over the shares in another order than one
# chunk. Relative to a value's largest entry, measured worst on the
# criterion-6 instance at widths 1, 2 and 3: 8.4e-13 on dec.b1, a sum of
# hidden gradients that cancels; 1.7e-16 on the logged loss; 2.3e-14 on the
# returned parameters and 2.0e-16 on their test probabilities
CHUNK_SUM_RTOL = 1e-12


class TestSlotChunks:
    """The step in slot chunks against the step in one chunk."""

    def test_chunk_widths(self):
        config = TrainConfig(dim=32)
        l_shape = types.SimpleNamespace(n_nodes=3748, t_slots=73)
        assert [len(c) for c in training.slot_chunks(l_shape, config)] == [17, 17, 17, 17, 5]
        assert training.slot_chunks(l_shape, TrainConfig(dim=32, transform="dct")) == [range(73)]
        walkthrough = types.SimpleNamespace(n_nodes=60, t_slots=20000)
        chunks = training.slot_chunks(walkthrough, config)
        assert len(chunks) == 19 and chunks[-1].stop == 20000
        prep, config = small_prep()
        assert training.slot_chunks(prep, config) == [range(prep.t_slots)]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_step_gradients_against_one_chunk(self, monkeypatch, width):
        # the flat-weight, layer-stack and generator gradients keep every
        # bit; the sums across chunks move within CHUNK_SUM_RTOL
        runs = []
        for w in (None, width):
            with monkeypatch.context() as patch:
                prep, config = criterion_6_chunked(patch, w, max_epochs=1)
                flat, inner = [], Tape.inner

                def watched_inner(tape, a, c):
                    flat.append(np.array(c))
                    return inner(tape, a, c)

                patch.setattr(Tape, "inner", watched_inner)
                grads = first_step_grads(patch, train_loop, prep, config)
                result = train_loop(prep, config)
                runs.append((len(training.slot_chunks(prep, config)), flat[0], grads, result.history[0]["loss"]))
        (one, flat_one, want, loss_one), (n_chunks, flat_got, got, loss_got) = runs
        assert (one, n_chunks) == (1, -(-prep.t_slots // width))
        assert flat_got.tobytes() == flat_one.tobytes()
        assert np.any(flat_one)
        for name in want:
            if name.startswith(("layer", "gen.")):
                assert got[name].tobytes() == want[name].tobytes(), name
            else:
                assert_within(got[name], want[name], CHUNK_SUM_RTOL)
        assert loss_got == pytest.approx(loss_one, rel=CHUNK_SUM_RTOL, abs=0)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_runs_match_one_chunk_under_early_stopping(self, monkeypatch, width):
        runs = []
        for w in (None, width):
            with monkeypatch.context() as patch:
                prep, config = criterion_6_chunked(patch, w, max_epochs=40, patience=3)
                result = train_loop(prep, config)
                probs = predict(result.store, prep, config, prep.test_set.pairs)
                runs.append((result, probs))
        (want, want_probs), (got, got_probs) = runs
        assert want.epochs_run < 40
        assert (got.epochs_run, got.best_epoch, got.best_val_f1) == (want.epochs_run, want.best_epoch, want.best_val_f1)
        assert len(got.history) == len(want.history) == want.epochs_run
        for row, expected in zip(got.history, want.history):
            assert {k: row[k] for k in ("epoch", "val_f1", "val_acc")} == {k: expected[k] for k in ("epoch", "val_f1", "val_acc")}
            assert row["loss"] == pytest.approx(expected["loss"], rel=CHUNK_SUM_RTOL, abs=0)
        for name in want.store.names():
            assert_within(got.store.value(name), want.store.value(name), CHUNK_SUM_RTOL)
        assert_within(got_probs, want_probs, CHUNK_SUM_RTOL)

    @pytest.mark.parametrize("width", [1, 3])
    def test_predict_bit_equals_one_chunk(self, monkeypatch, width):
        # for the same parameters every probability keeps its bits
        prep, config = criterion_6_chunked(monkeypatch, None)
        store = training.init_params(config, prep.n_nodes, prep.t_slots)
        want = predict(store, prep, config, prep.test_set.pairs)
        monkeypatch.setattr(training, "CHUNK_BYTES", width * prep.n_nodes * config.dim * 8)
        got = predict(store, prep, config, prep.test_set.pairs)
        assert got.tobytes() == want.tobytes()

    def test_chunk_peak_does_not_grow_with_the_slot_count(self, monkeypatch):
        # the traced peak of each chunk, from its layer stack to the end of
        # its sweep, at 2 slots a chunk: the same at T = 4 and T = 16; in
        # one chunk of all the slots it grows with T
        def chunk_peak(t_slots, width):
            config = TrainConfig(dim=32, seed=1, max_epochs=1)
            prep = prepare(planted_partition_graph(400, t_slots, p_in=0.01, p_out=0.001, seed=5), config)
            starts, peaks = [], []
            stack, sweep = training.layer_stack, Tape.backward

            def watched_stack(*args):
                tracemalloc.reset_peak()
                starts.append(tracemalloc.get_traced_memory()[0])
                return stack(*args)

            def watched_sweep(tape, loss):
                out = sweep(tape, loss)
                if len(peaks) < len(starts):
                    peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])
                return out

            with monkeypatch.context() as patch:
                patch.setattr(training, "CHUNK_BYTES", width * prep.n_nodes * config.dim * 8)
                patch.setattr(training, "layer_stack", watched_stack)
                patch.setattr(Tape, "backward", watched_sweep)
                tracemalloc.start()
                try:
                    train_loop(prep, config)
                finally:
                    tracemalloc.stop()
            assert len(peaks) == -(-t_slots // width)
            return max(peaks)

        small, large = chunk_peak(4, 2), chunk_peak(16, 2)
        assert large <= 1.1 * small
        assert chunk_peak(16, 16) >= 3 * chunk_peak(4, 4)
