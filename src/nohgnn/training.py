"""Full-batch training of the link predictor.

The pipeline splits into ``embed`` (feature generation, aggregation weights,
layer stack) and the decoder. One epoch resamples the training negatives,
decodes them from an embedding recorded on the current parameters, applies
one Adam update, and records the embedding of the updated parameters. That
one forward both scores the frozen validation set and serves as the next
epoch's training forward, so each parameter state is embedded once. Training
stops at the epoch cap or after ``patience`` epochs without a new best
validation F1; the best epoch's parameters are returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from nohgnn.data import (
    DynamicGraph,
    LabeledPairSet,
    merge_pair_sets,
    negative_sample,
    split_edges,
)
from nohgnn.errors import NumericError, ParameterError
from nohgnn.model import decode, forward, init_model_params
from nohgnn.overlap import aggregation_weights, build_aggregation_pattern
from nohgnn.structural import (
    FeatureContext,
    build_feature_context,
    compute_overlap_tensor,
    generate_features,
    init_generator_params,
)
from nohgnn.synth import dense_tiny_graph
from nohgnn.tape import Node, ParamStore, Tape, grad_check
from nohgnn.tensor3 import SlicePattern, Transform, make_transform

LR_GRID = (0.1, 0.01, 0.02, 0.05, 0.001, 0.002)
BETA_GRID = (0.01, 0.005, 0.001, 0.0005)
TRANSFORM_KINDS = ("identity", "dct")

# seed tags for the frozen negative sets; epoch tags start at 1 and stay far below
VAL_SEED_TAG = 1 << 20
TEST_SEED_TAG = (1 << 20) + 1
TRAIN_EVAL_SEED_TAG = (1 << 20) + 2


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and protocol knobs for one training run."""

    learning_rate: float = 0.01
    beta_reg: float = 0.001
    max_epochs: int = 300
    patience: int = 10
    k_hops: int = 2
    layers: int = 2
    dim: int = 32
    transform: str = "identity"
    seed: int = 0
    neg_ratio: int = 1
    threshold: float = 0.5

    def __post_init__(self):
        # written so NaN, for which every comparison is false, fails too
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.beta_reg < math.inf:
            raise ParameterError(f"beta_reg must be finite and >= 0, got {self.beta_reg}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.k_hops < 1 or self.layers < 1 or self.dim < 1 or self.neg_ratio < 1:
            raise ParameterError("k_hops, layers, dim, neg_ratio must all be >= 1")
        if self.transform not in TRANSFORM_KINDS:
            raise ParameterError(f"transform must be one of {TRANSFORM_KINDS}, got {self.transform!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError(f"threshold must be in (0, 1), got {self.threshold}")


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    f1: float
    accuracy: float
    loss: float = float("nan")


def evaluate(probs: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> Metrics:
    """Confusion counts, positive-class F1, and accuracy at the threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ParameterError(f"probs shape {probs.shape} does not match labels {labels.shape}")
    if probs.size == 0:
        raise ParameterError("cannot evaluate an empty pair set")
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")
    pred = probs >= threshold
    truth = labels >= 0.5
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))
    denom = 2 * tp + fp + fn
    f1 = 2.0 * tp / denom if denom else 0.0
    accuracy = (tp + tn) / probs.size
    return Metrics(tp, fp, tn, fn, f1, accuracy)


def compute_loss(
    tape: Tape, probs: Node, labels: np.ndarray, leaves: dict[str, Node], beta: float
) -> Node:
    """Mean BCE over the labeled pairs plus beta times the summed squared
    entries of every parameter."""
    loss = tape.bce_mean(probs, labels)
    if beta > 0.0:
        reg = None
        for name in sorted(leaves):
            term = tape.sumsq(leaves[name])
            reg = term if reg is None else tape.add(reg, term)
        loss = tape.add(loss, tape.scale(reg, beta))
    return loss


class Adam:
    """Bias-corrected Adam over a ParamStore, visiting parameters in name order."""

    def __init__(
        self,
        store: ParamStore,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ParameterError(f"learning rate must be > 0, got {lr}")
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(store.value(name)) for name in store.names()}
        self._v = {name: np.zeros_like(store.value(name)) for name in store.names()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name in self.store.names():
            g = self.store.grad(name)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            self.store.set_value(
                name, self.store.value(name) - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            )


@dataclass
class PreparedData:
    """Everything derivable from the graph and the split, fixed before training."""

    full_graph: DynamicGraph
    masked_graph: DynamicGraph
    train_pos: LabeledPairSet
    val_set: LabeledPairSet
    test_set: LabeledPairSet
    pattern: SlicePattern
    ctx: FeatureContext

    @property
    def n_nodes(self) -> int:
        return self.full_graph.n_nodes

    @property
    def t_slots(self) -> int:
        return self.full_graph.t_slots


def assemble(
    graph: DynamicGraph,
    masked: DynamicGraph,
    splits: dict[str, LabeledPairSet],
    config: TrainConfig,
) -> PreparedData:
    """Build the overlap support on the masked graph and freeze the
    validation/test pair sets (positives plus seeded negatives)."""
    b = compute_overlap_tensor(masked, config.k_hops)
    pattern = build_aggregation_pattern(b)
    ctx = build_feature_context(b)

    def frozen(pos: LabeledPairSet, tag: int) -> LabeledPairSet:
        if pos.size == 0:
            return pos
        neg = negative_sample(graph, pos, config.neg_ratio, seed=[config.seed, tag])
        return merge_pair_sets(pos, neg)

    return PreparedData(
        full_graph=graph,
        masked_graph=masked,
        train_pos=splits["train"],
        val_set=frozen(splits["val"], VAL_SEED_TAG),
        test_set=frozen(splits["test"], TEST_SEED_TAG),
        pattern=pattern,
        ctx=ctx,
    )


def prepare(graph: DynamicGraph, config: TrainConfig) -> PreparedData:
    """Split the edges with the configured seed, mask the graph, and assemble."""
    train_pos, val_pos, test_pos, masked = split_edges(graph, seed=config.seed)
    return assemble(graph, masked, {"train": train_pos, "val": val_pos, "test": test_pos}, config)


def labeled_split(prep: PreparedData, config: TrainConfig, role: str) -> LabeledPairSet:
    """The labeled pair set for one role; the train role gets its own frozen
    negatives so repeated evaluations agree."""
    if role == "val":
        return prep.val_set
    if role == "test":
        return prep.test_set
    if role != "train":
        raise ParameterError(f"role must be train, val, or test, got {role!r}")
    neg = negative_sample(
        prep.full_graph, prep.train_pos, config.neg_ratio, seed=[config.seed, TRAIN_EVAL_SEED_TAG]
    )
    return merge_pair_sets(prep.train_pos, neg)


def init_params(config: TrainConfig, n_nodes: int, t_slots: int) -> ParamStore:
    """Seeded parameter store: model parameters first, then the feature
    generator, in one fixed creation order."""
    rng = np.random.default_rng(config.seed)
    store = ParamStore()
    init_model_params(store, n_nodes, config.dim, t_slots, config.layers, rng)
    init_generator_params(store, config.dim, rng)
    return store


def embed(
    tape: Tape, leaves: dict[str, Node], prep: PreparedData, tf: Transform, config: TrainConfig
) -> Node:
    """Features, aggregation weights and the layer stack: the (T, N, F)
    embedding node that the decoder reads pairs from."""
    feats = generate_features(tape, prep.ctx, leaves)
    weights = aggregation_weights(tape, feats, prep.pattern)
    return forward(tape, leaves, prep.pattern, weights, tf, config.layers)


def model_probs(
    tape: Tape,
    leaves: dict[str, Node],
    prep: PreparedData,
    tf: Transform,
    config: TrainConfig,
    pairs: np.ndarray,
) -> Node:
    """The whole pipeline: features, aggregation weights, layers, decoder."""
    return decode(tape, leaves, embed(tape, leaves, prep, tf, config), pairs)


def predict(store: ParamStore, prep: PreparedData, config: TrainConfig, pairs: np.ndarray) -> np.ndarray:
    """Probabilities from the current parameters, without recording gradients."""
    tape = Tape()
    return model_probs(tape, store.constants(tape), prep, make_transform(config.transform, prep.t_slots), config, pairs).value


def evaluate_model(store: ParamStore, prep: PreparedData, config: TrainConfig, pair_set: LabeledPairSet) -> Metrics:
    return evaluate(predict(store, prep, config, pair_set.pairs), pair_set.labels, config.threshold)


@dataclass
class TrainResult:
    store: ParamStore
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_f1: float = float("-inf")
    epochs_run: int = 0


def write_metric_log(path: str, history: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(
                json.dumps(
                    {
                        "epoch": row["epoch"],
                        "loss": row["loss"],
                        "val_f1": row["val_f1"],
                        "val_acc": row["val_acc"],
                    }
                )
                + "\n"
            )


def _record_embedding(
    store: ParamStore, prep: PreparedData, tf: Transform, config: TrainConfig
) -> tuple[Tape, dict[str, Node], Node]:
    """A fresh tape holding the embedding of the store's current parameters,
    recorded for the backward."""
    tape = Tape()
    leaves = store.leaves(tape)
    return tape, leaves, embed(tape, leaves, prep, tf, config)


def train_loop(
    prep: PreparedData,
    config: TrainConfig,
    log_path: str | None = None,
    eval_hook=None,
) -> TrainResult:
    """Optimize and early-stop on validation F1, embedding each parameter
    state once.

    After the Adam step of epoch e the embedding of the updated parameters is
    recorded on a fresh tape. The validation pairs are decoded from its
    values on a separate tape without gradients, and epoch e + 1 decodes its
    training pairs on the recorded tape and runs the backward through it. The
    finished tape, with every gradient on it, is released before the next one
    is recorded. An epoch with no recorded embedding records its own when it
    starts: the first one, and every one when ``eval_hook`` is given.

    ``eval_hook(epoch, store) -> float`` replaces the validation metric when
    given (protocol tests drive stopping behavior through it). Raises a
    numeric error naming the epoch if the loss diverges.
    """
    if prep.train_pos.size == 0:
        raise ParameterError("training set has no positive pairs")
    if eval_hook is None and prep.val_set.size == 0:
        raise ParameterError("validation set is empty; cannot early-stop")
    tf = make_transform(config.transform, prep.t_slots)
    store = init_params(config, prep.n_nodes, prep.t_slots)
    adam = Adam(store, config.learning_rate)
    result = TrainResult(store=store.clone())
    stall = 0
    recorded = None
    for epoch in range(1, config.max_epochs + 1):
        neg = negative_sample(
            prep.full_graph, prep.train_pos, config.neg_ratio, seed=[config.seed, epoch]
        )
        train_set = merge_pair_sets(prep.train_pos, neg)
        tape, leaves, h = recorded or _record_embedding(store, prep, tf, config)
        recorded = None
        probs = decode(tape, leaves, h, train_set.pairs)
        loss = compute_loss(tape, probs, train_set.labels, leaves, config.beta_reg)
        if not np.isfinite(loss.value):
            raise NumericError(f"training diverged at epoch {epoch}: loss is not finite")
        tape.backward(loss)
        store.zero_grads()
        store.harvest(leaves)
        adam.step()
        loss_value = float(loss.value)
        # the finished tape and its gradients go before the next forward is recorded
        del tape, leaves, h, probs, loss

        if eval_hook is not None:
            val_f1 = float(eval_hook(epoch, store))
            val_acc = val_f1
        else:
            recorded = _record_embedding(store, prep, tf, config)
            vt = Tape()
            val_probs = decode(vt, store.constants(vt), vt.constant(recorded[2].value), prep.val_set.pairs)
            metrics = evaluate(val_probs.value, prep.val_set.labels, config.threshold)
            val_f1 = metrics.f1
            val_acc = metrics.accuracy
        result.history.append(
            {"epoch": epoch, "loss": loss_value, "val_f1": val_f1, "val_acc": val_acc}
        )
        result.epochs_run = epoch
        if val_f1 > result.best_val_f1:
            result.best_val_f1 = val_f1
            result.best_epoch = epoch
            result.store = store.clone()
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    if log_path is not None:
        write_metric_log(log_path, result.history)
    return result


def run_gradient_check(transform: str = "identity", eps: float = 1e-5, seed: int = 0) -> float:
    """Worst relative error between tape and central-difference gradients of
    the full training loss on a small dense instance.

    The instance keeps every node connected in every slot, and the parameters
    are jittered away from the initialization before probing. Both choices
    avoid measure-zero points where finite differences are uninformative: an
    empty aggregation row with zero biases parks ReLU pre-activations exactly
    at the kink, and the zero-bias init point hides gradient paths behind the
    symmetries of a near-regular graph.
    """
    config = TrainConfig(dim=4, layers=2, k_hops=2, transform=transform, seed=seed)
    # one chord on top of the ring leaves every slot enough non-edges to
    # sample one negative per positive
    graph = dense_tiny_graph(6, 3, extra=1, seed=seed)
    b = compute_overlap_tensor(graph, config.k_hops)
    pattern = build_aggregation_pattern(b)
    ctx = build_feature_context(b)
    prep = PreparedData(
        full_graph=graph,
        masked_graph=graph,
        train_pos=LabeledPairSet(np.zeros((0, 3)), np.zeros(0), "train"),
        val_set=LabeledPairSet(np.zeros((0, 3)), np.zeros(0), "val"),
        test_set=LabeledPairSet(np.zeros((0, 3)), np.zeros(0), "test"),
        pattern=pattern,
        ctx=ctx,
    )
    positives = LabeledPairSet(
        np.concatenate(
            [
                np.column_stack([edges, np.full(len(edges), t, dtype=np.int64)])
                for t, edges in enumerate(graph.slot_edges)
            ]
        ),
        np.ones(graph.edge_count),
        "train",
    )
    negatives = negative_sample(graph, positives, 1, seed=[seed, 1])
    pairs_set = merge_pair_sets(positives, negatives)
    store = init_params(config, graph.n_nodes, graph.t_slots)
    rng = np.random.default_rng([seed, 2])
    for name in store.names():
        v = store.value(name)
        store.set_value(name, v + rng.uniform(-0.3, 0.3, size=v.shape))
    tf = make_transform(config.transform, graph.t_slots)

    def build(tape: Tape, leaves: dict[str, Node]) -> Node:
        probs = model_probs(tape, leaves, prep, tf, config, pairs_set.pairs)
        return compute_loss(tape, probs, pairs_set.labels, leaves, config.beta_reg)

    return grad_check(build, store, eps)
