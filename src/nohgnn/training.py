"""Full-batch training of the link predictor.

The pipeline splits into a shared stage (feature generation and the
aggregation weights with their operator) and slot chunks (the layer stack
and the decoder). Under the identity slot t's layers and decoded pairs read
only slice t and the shared parameters, so a chunk of slots runs on its own
tape and is swept at once: a step's peak follows the chunk width
(``CHUNK_BYTES``), not T. The dct couples the slots through P-bar and runs
as one chunk.

The shared stage of the initial parameters is recorded once before the
first epoch. Each epoch then resamples the training negatives, runs
``train_step`` (the chunks, each decoding its training pairs and writing
its run of the flat weights' gradient, then the shared stage's sweep),
applies one Adam update, and records the shared stage of the updated
parameters; the gradient check runs the same ``train_step``. The next
epoch's chunk pass also scores the frozen validation set, so the
parameters of epoch k are validated in epoch k+1's chunk pass, and the
last ones in one final pass without gradients: each parameter state is
embedded once. Training stops at the epoch cap or after ``patience``
epochs without a new best validation F1; the best epoch's parameters are
returned.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from nohgnn.data import (
    DynamicGraph,
    LabeledPairSet,
    merge_pair_sets,
    negative_sample,
    split_edges,
)
from nohgnn.errors import NumericError, ParameterError
from nohgnn.model import aggregation_operator, decode, init_model_params, layer_stack, model_param_shapes
from nohgnn.overlap import aggregation_weights, build_aggregation_pattern
from nohgnn.structural import (
    FeatureContext,
    build_feature_context,
    compute_overlap_tensor,
    generate_features,
    generator_param_shapes,
    init_generator_params,
)
from nohgnn.synth import dense_tiny_graph
from nohgnn.tape import Node, ParamStore, Tape, grad_check
from nohgnn.tensor3 import SlicePattern, SparseOperator

LR_GRID = (0.1, 0.01, 0.02, 0.05, 0.001, 0.002)
BETA_GRID = (0.01, 0.005, 0.001, 0.0005)
TRANSFORM_KINDS = ("identity", "dct")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
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


def penalty(tape: Tape, leaves: dict[str, Node], beta: float) -> Node | None:
    """Beta times the summed squared entries of every parameter, in name
    order; None when beta is 0."""
    if beta > 0.0:
        return tape.scale(tape.sumsq(*(leaves[name] for name in sorted(leaves))), beta)
    return None


def compute_loss(
    tape: Tape, probs: Node, labels: np.ndarray, leaves: dict[str, Node], beta: float
) -> Node:
    """Mean BCE over the labeled pairs plus the ``penalty``."""
    loss = tape.bce_mean(probs, labels)
    reg = penalty(tape, leaves, beta)
    return loss if reg is None else tape.add(loss, reg)


class Adam:
    """Bias-corrected Adam over a ParamStore, visiting parameters in name order."""

    def __init__(self, store: ParamStore, lr: float):
        if lr <= 0:
            raise ParameterError(f"learning rate must be > 0, got {lr}")
        self.store = store
        self.lr = lr
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
            m, v, a, b = self._m[name], self._v[name], np.empty(g.shape), np.empty(g.shape)
            # value - lr * m_hat / (sqrt(v_hat) + eps), each operation in
            # its order, in the two buffers a and b
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=a), g, out=a)
            np.multiply(np.divide(m, 1.0 - ADAM_BETA1**t, out=a), self.lr, out=a)
            np.add(np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=b), out=b), ADAM_EPS, out=b)
            np.subtract(self.store.value(name), np.divide(a, b, out=a), out=a)
            del b
            self.store.set_value(name, a)


@dataclass
class PreparedData:
    """Everything derivable from the graph and the split, fixed before training."""

    full_graph: DynamicGraph
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
        neg = negative_sample(graph, pos, config.neg_ratio, seed=[config.seed, tag])
        return merge_pair_sets(pos, neg)

    return PreparedData(
        full_graph=graph,
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


def param_shapes(config: TrainConfig, n_nodes: int, t_slots: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each parameter ``init_params`` creates, as a lazy (name, shape) pair."""
    yield from model_param_shapes(n_nodes, config.dim, t_slots, config.layers)
    yield from generator_param_shapes(config.dim)


def init_params(config: TrainConfig, n_nodes: int, t_slots: int) -> ParamStore:
    """Seeded parameter store: model parameters first, then the feature
    generator, in one fixed creation order."""
    rng = np.random.default_rng(config.seed)
    store = ParamStore()
    init_model_params(store, n_nodes, config.dim, t_slots, config.layers, rng)
    init_generator_params(store, config.dim, rng)
    return store


# bytes of one (W, N, F) float64 stack of the identity's layer stack: a
# chunk is the W slots that fit, so a step's peak follows W, not T. At
# N = 3,748 and F = 32 that is 17 slots a chunk, 5 chunks for 73 slots
CHUNK_BYTES = 16 << 20


def slot_chunks(prep: PreparedData, config: TrainConfig, chunk_bytes: int | None = None) -> list[range]:
    """The slot ranges the layer stack and the decoder run on, one tape
    each: under the identity the slots whose stack fits ``chunk_bytes``
    (``CHUNK_BYTES`` if None), at least one. The identity's slots are
    independent; the dct couples every slot through P-bar, so it runs as
    one chunk."""
    t_slots = prep.t_slots
    if config.transform != "identity":
        return [range(t_slots)]
    width = max(1, (CHUNK_BYTES if chunk_bytes is None else chunk_bytes) // (prep.n_nodes * config.dim * 8))
    return [range(t0, min(t0 + width, t_slots)) for t0 in range(0, t_slots, width)]


@dataclass
class SharedStage:
    """What every chunk of one parameter state reads, recorded once: the
    tape of the feature generator, the pair scores and the softmax, its
    leaves, the flat aggregation weights and their operator."""

    tape: Tape
    leaves: dict[str, Node]
    weights: Node
    op: SparseOperator


def _record_shared(store: ParamStore, prep: PreparedData, config: TrainConfig, grad: bool = True) -> SharedStage:
    tape = Tape()
    leaves = store.leaves(tape) if grad else store.constants(tape)
    weights = aggregation_weights(tape, generate_features(tape, prep.ctx, leaves), prep.pattern)
    return SharedStage(tape, leaves, weights, aggregation_operator(prep.pattern, weights.value, config.transform))


def _window(value: np.ndarray, slots: range) -> np.ndarray:
    """The part of a parameter a chunk of slots reads: the slots' slices of
    a (T, F, F) layer stack, the store's only 3-D parameters, and all of
    any other."""
    return value[slots.start : slots.stop] if value.ndim == 3 else value


def _in_slots(pairs: np.ndarray, slots: range, whole: bool) -> tuple[np.ndarray | slice, np.ndarray]:
    """The index, in order, of the (i, j, t) rows with t in ``slots``, and
    those rows with t counted from the first of the slots: all of them, as
    they are, if the slots are ``whole``, every slot."""
    if whole:
        return slice(None), pairs
    t = pairs[:, 2]
    picked = np.flatnonzero((t >= slots.start) & (t < slots.stop))
    rows = pairs[picked]
    rows[:, 2] -= slots.start
    return picked, rows


def _chunk_pass(
    store: ParamStore,
    stage: SharedStage,
    prep: PreparedData,
    config: TrainConfig,
    score_pairs: np.ndarray,
    train_set: LabeledPairSet | None = None,
    epoch: int = 0,
    chunk_bytes: int | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """Run the layer stack and the decoder one slot chunk (``slot_chunks``
    at ``chunk_bytes``) at a time on the stage's weights, each chunk on a
    fresh tape, and return the summed BCE shares and the flat-weight
    gradient (None without a ``train_set``) and the probabilities of
    ``score_pairs``.

    A chunk scores its ``score_pairs`` from its embedding's values without
    gradients. With a ``train_set`` it decodes its training pairs, takes
    their share of the mean BCE, sweeps its tape at once, adds the
    gradients of its leaves (its slices of the layer stacks) into the
    store's and writes its run of the flat-weight gradient. A chunk with no
    pair to read is skipped. Raises a numeric error naming ``epoch`` if a
    share is not finite.
    """
    offsets = prep.pattern.offsets
    # a chunk reads the model's parameters; the generator's are the shared stage's
    names = [name for name, _ in model_param_shapes(prep.n_nodes, config.dim, prep.t_slots, config.layers)]
    training = train_set is not None
    train_pairs = train_set.pairs if training else score_pairs[:0]
    bce = weight_grad = None
    probs = np.empty(len(score_pairs))
    for slots in slot_chunks(prep, config, chunk_bytes):
        whole = len(slots) == prep.t_slots
        scored, scored_pairs = _in_slots(score_pairs, slots, whole)
        trained, trained_pairs = _in_slots(train_pairs, slots, whole)
        if not (len(scored_pairs) or len(trained_pairs)):
            continue
        tape = Tape()
        make = (lambda value: tape.leaf(value, requires_grad=True)) if training else tape.constant
        leaves = {name: make(_window(store.value(name), slots)) for name in names}
        lo, hi = offsets[slots.start], offsets[slots.stop]
        weights = make(stage.weights.value[lo:hi])
        op = stage.op if whole else stage.op.window(slots.start, slots.stop)
        h = layer_stack(tape, leaves, weights, op, config.layers)
        if len(scored_pairs):
            vt = Tape()
            probs[scored] = decode(vt, store.constants(vt), vt.constant(h.value), scored_pairs).value
        if not len(trained_pairs):
            continue
        chunk_probs = decode(tape, leaves, h, trained_pairs)
        # no rule reads the embedding, so it goes before the backward runs
        del h
        share = tape.bce_mean(chunk_probs, train_set.labels[trained], count=train_set.size)
        if not np.isfinite(share.value):
            raise NumericError(f"training diverged at epoch {epoch}: loss is not finite")
        tape.backward(share)
        bce = share.value if bce is None else bce + share.value
        for name, node in leaves.items():
            if node.grad is not None:
                part = _window(store.grad(name), slots)
                part += node.grad
        if whole:
            weight_grad = weights.grad
        else:
            if weight_grad is None:
                weight_grad = np.zeros(prep.pattern.nnz)
            weight_grad[lo:hi] = weights.grad
    return bce, weight_grad, probs


def train_step(
    store: ParamStore,
    stage: SharedStage,
    prep: PreparedData,
    config: TrainConfig,
    train_set: LabeledPairSet,
    score_pairs: np.ndarray,
    epoch: int,
    chunk_bytes: int | None = None,
) -> tuple[float, np.ndarray]:
    """One epoch's loss, the mean BCE of ``train_set`` plus the
    ``penalty``, at the parameters ``stage`` recorded, with its gradient
    left in the store's zeroed buffers; returns the loss and the
    probabilities of ``score_pairs``.

    The slot chunks (``_chunk_pass``) each sweep their own tape and write
    their run of the flat-weight gradient; the stage's tape is swept last,
    from the penalty plus the inner product of the flat weights with that
    gradient. Raises a numeric error naming ``epoch`` if the loss is not
    finite.
    """
    store.zero_grads()
    bce, weight_grad, probs = _chunk_pass(store, stage, prep, config, score_pairs, train_set, epoch, chunk_bytes)
    tape = stage.tape
    reg = penalty(tape, stage.leaves, config.beta_reg)
    loss = float(bce if reg is None else bce + reg.value)
    if not np.isfinite(loss):
        raise NumericError(f"training diverged at epoch {epoch}: loss is not finite")
    dot = tape.inner(stage.weights, weight_grad)
    # the flat-weight gradient goes once the sweep has passed the inner product
    del weight_grad
    tape.backward(dot if reg is None else tape.add(reg, dot))
    store.harvest(stage.leaves)
    return loss, probs


def predict(store: ParamStore, prep: PreparedData, config: TrainConfig, pairs: np.ndarray) -> np.ndarray:
    """Probabilities from the current parameters, chunk by chunk, without
    recording gradients."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 3)
    if len(pairs) == 0:
        raise ParameterError("decode needs at least one pair")
    if pairs[:, 2].min() < 0 or pairs[:, 2].max() >= prep.t_slots:
        raise ParameterError("pair slot out of range")  # it would fall in no chunk
    stage = _record_shared(store, prep, config, grad=False)
    return _chunk_pass(store, stage, prep, config, pairs)[2]


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
            fh.write(json.dumps({key: row[key] for key in ("epoch", "loss", "val_f1", "val_acc")}) + "\n")


def train_loop(prep: PreparedData, config: TrainConfig, log_path: str | None = None) -> TrainResult:
    """Optimize and early-stop on validation F1, embedding each parameter
    state once.

    The shared stage of the initial parameters is recorded before the first
    epoch, and that of the updated parameters after the Adam step of every
    epoch. Each epoch draws its training negatives and runs ``train_step``
    on the stage, which also scores the validation pairs: the parameters of
    epoch k are validated in epoch k+1's step, and the last ones in one
    final chunk pass without gradients; early stopping after epoch k drops
    epoch k+1's gradients. Raises a numeric error naming the epoch if the
    loss diverges.
    """
    if prep.train_pos.size == 0:
        raise ParameterError("training set has no positive pairs")
    if prep.val_set.size == 0:
        raise ParameterError("validation set is empty; cannot early-stop")
    store = init_params(config, prep.n_nodes, prep.t_slots)
    adam = Adam(store, config.learning_rate)
    result = TrainResult(store=store.clone())
    stall = 0

    def validated(epoch: int, loss: float, probs: np.ndarray) -> bool:
        """Log epoch ``epoch`` with its parameters' validation metrics, and
        whether early stopping ends the run there."""
        nonlocal stall
        metrics = evaluate(probs, prep.val_set.labels, config.threshold)
        result.history.append({"epoch": epoch, "loss": loss, "val_f1": metrics.f1, "val_acc": metrics.accuracy})
        result.epochs_run = epoch
        if metrics.f1 > result.best_val_f1:
            result.best_val_f1 = metrics.f1
            result.best_epoch = epoch
            result.store = store.clone()
            stall = 0
            return False
        stall += 1
        return stall >= config.patience

    stage = _record_shared(store, prep, config)
    loss_value = 0.0
    for epoch in range(1, config.max_epochs + 1):
        neg = negative_sample(
            prep.full_graph, prep.train_pos, config.neg_ratio, seed=[config.seed, epoch]
        )
        train_set = merge_pair_sets(prep.train_pos, neg)
        val_pairs = prep.val_set.pairs if epoch > 1 else prep.val_set.pairs[:0]
        loss, val_probs = train_step(store, stage, prep, config, train_set, val_pairs, epoch)
        if epoch > 1 and validated(epoch - 1, loss_value, val_probs):
            break
        loss_value = loss
        # the swept stage and its gradients go before Adam's temporaries
        del stage
        adam.step()
        stage = _record_shared(store, prep, config)
    else:
        validated(config.max_epochs, loss_value, _chunk_pass(store, stage, prep, config, prep.val_set.pairs)[2])
    if log_path is not None:
        write_metric_log(log_path, result.history)
    return result


def run_gradient_check(transform: str = "identity", eps: float = 1e-5, seed: int = 0) -> float:
    """Worst relative error between the gradient ``train_step`` leaves in the
    store and central differences of the loss it returns, on a small dense
    instance. The identity runs one slot a chunk, so the check covers the
    seam between chunks: each chunk's slices of the layer stacks and its
    run of the flat-weight gradient.

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
    empty = {role: LabeledPairSet(np.zeros((0, 3)), np.zeros(0), role) for role in ("train", "val", "test")}
    prep = assemble(graph, graph, empty, config)
    positives = LabeledPairSet(graph.edge_rows(), np.ones(graph.edge_count), "train")
    negatives = negative_sample(graph, positives, 1, seed=[seed, 1])
    pairs_set = merge_pair_sets(positives, negatives)
    store = init_params(config, graph.n_nodes, graph.t_slots)
    rng = np.random.default_rng([seed, 2])
    for name in store.names():
        v = store.value(name)
        store.set_value(name, v + rng.uniform(-0.3, 0.3, size=v.shape))
    one_slot = graph.n_nodes * config.dim * 8

    def loss_of(probe: ParamStore) -> float:
        stage = _record_shared(probe, prep, config)
        return train_step(probe, stage, prep, config, pairs_set, pairs_set.pairs[:0], 1, one_slot)[0]

    return grad_check(loss_of, store, eps)
