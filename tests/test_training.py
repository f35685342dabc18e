"""Tests for the trainer: loss assembly, Adam, evaluation, and the loop protocol."""

import json
import math

import numpy as np
import pytest

import train_loop_oracle
from nohgnn import training
from nohgnn.data import LabeledPairSet
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
                assert not prep.full_graph.has_edge(int(i), int(j), int(t))

    def test_val_positives_absent_from_masked_graph(self):
        prep, _ = small_prep()
        for i, j, t in prep.val_set.pairs[prep.val_set.labels == 1.0]:
            assert prep.full_graph.has_edge(int(i), int(j), int(t))
            assert not prep.masked_graph.has_edge(int(i), int(j), int(t))

    def test_deterministic(self):
        prep_a, _ = small_prep(seed=5)
        prep_b, _ = small_prep(seed=5)
        assert np.array_equal(prep_a.val_set.pairs, prep_b.val_set.pairs)
        assert np.array_equal(prep_a.test_set.pairs, prep_b.test_set.pairs)

    def test_support_built_on_masked_graph(self):
        prep, config = small_prep()
        assert prep.pattern.nnz >= prep.masked_graph.edge_count
        assert prep.ctx.t_slots == prep.full_graph.t_slots


class TestTrainLoop:
    def test_frozen_metric_stops_after_patience(self, tmp_path):
        prep, config = small_prep(max_epochs=50, patience=10)
        result = train_loop(prep, config, eval_hook=lambda epoch, store: 0.5)
        assert result.epochs_run == 11
        assert result.best_epoch == 1
        assert len(result.history) == 11

    def test_improving_metric_runs_to_cap(self):
        prep, config = small_prep(max_epochs=7)
        result = train_loop(prep, config, eval_hook=lambda epoch, store: epoch / 100.0)
        assert result.epochs_run == 7
        assert result.best_epoch == 7

    def test_ties_do_not_count_as_improvement(self):
        prep, config = small_prep(max_epochs=50, patience=3)
        scores = {1: 0.4, 2: 0.6, 3: 0.6, 4: 0.6, 5: 0.6}
        result = train_loop(prep, config, eval_hook=lambda epoch, store: scores[epoch])
        assert result.best_epoch == 2
        assert result.epochs_run == 5

    def test_best_parameters_restored(self):
        prep, config = small_prep(max_epochs=20, patience=5)
        snapshots = {}

        def hook(epoch, store):
            snapshots[epoch] = store.clone()
            return {1: 0.2, 2: 0.9}.get(epoch, 0.1)

        result = train_loop(prep, config, eval_hook=hook)
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


def count_calls(monkeypatch, module, attr):
    calls = []
    inner = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


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

    def test_bit_equal_with_eval_hook(self):
        prep, config = small_prep(seed=3, transform="dct", max_epochs=6, patience=2)
        scores = {1: 0.3, 2: 0.5, 3: 0.4}
        hook = lambda epoch, store: scores.get(epoch, 0.1)  # noqa: E731
        assert_same_run(train_loop(prep, config, eval_hook=hook), train_loop_oracle.train_loop(prep, config, eval_hook=hook))

    @pytest.mark.parametrize("hook", [False, True], ids=["validate", "eval-hook"])
    def test_one_embedding_per_parameter_state(self, monkeypatch, hook):
        prep, config = small_prep(max_epochs=4, patience=10)
        calls = count_calls(monkeypatch, training, "generate_features")
        samples = count_calls(monkeypatch, training, "negative_sample")
        result = train_loop(prep, config, eval_hook=(lambda epoch, store: epoch / 10.0) if hook else None)
        assert result.epochs_run == 4
        assert len(calls) == (4 if hook else 5)
        assert len(samples) == 4

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("hook", [False, True], ids=["validate", "eval-hook"])
    @pytest.mark.parametrize(
        "param, message",
        [("embed.e", "layer 1 produced non-finite activations"), ("dec.w2", "training diverged at epoch 3: loss is not finite")],
    )
    def test_divergence_raises_at_the_same_step(self, monkeypatch, hook, param, message):
        prep, config = small_prep(max_epochs=6, patience=10)
        steps = []
        inner = training.Adam.step

        def step_then_poison(self):
            inner(self)
            steps.append(None)
            if self.step_count == 2:
                self.store.set_value(param, np.full_like(self.store.value(param), np.inf))

        monkeypatch.setattr(training.Adam, "step", step_then_poison)
        eval_hook = (lambda epoch, store: 0.5) if hook else None
        outcomes = []
        for loop in (train_loop_oracle.train_loop, train_loop):
            steps.clear()
            with pytest.raises(NumericError) as excinfo:
                loop(prep, config, eval_hook=eval_hook)
            outcomes.append((str(excinfo.value), len(steps)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (message, 2)


class TestGradientCheck:
    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_full_model_gradients(self, transform):
        assert run_gradient_check(transform) <= 1e-4
