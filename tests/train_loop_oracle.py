"""The whole model on one tape, and the ``train_loop`` that ran it: two
forwards per epoch (a recorded training forward, then a gradient-free
validation forward after the Adam step). The program runs the layer stack
and the decoder in slot chunks, each on its own tape (``training.train_step``);
the differential tests compare it against this reference, built from
``forward``, ``embed`` and ``model_probs``."""

from __future__ import annotations

import numpy as np

from nohgnn.data import merge_pair_sets, negative_sample
from nohgnn.errors import NumericError, ParameterError
from nohgnn.model import aggregation_operator, decode, layer_stack
from nohgnn.overlap import aggregation_weights
from nohgnn.structural import generate_features
from nohgnn.tape import Node, Tape
from nohgnn.tensor3 import SlicePattern
from nohgnn.training import (
    Adam,
    PreparedData,
    TrainConfig,
    TrainResult,
    compute_loss,
    evaluate_model,
    init_params,
    write_metric_log,
)


def forward(
    tape: Tape,
    leaves: dict[str, Node],
    pattern: SlicePattern,
    p_weights: Node,
    kind: str,
    n_layers: int,
) -> Node:
    """The layer stack under the transform ``kind`` over the pattern's T
    slots: the embedding node, (T, N, F) under the identity, the (N, F) rows
    every slot shares under the dct."""
    return layer_stack(tape, leaves, p_weights, aggregation_operator(pattern, p_weights.value, kind), n_layers)


def embed(tape: Tape, leaves: dict[str, Node], prep: PreparedData, config: TrainConfig) -> Node:
    """Features, aggregation weights and the layer stack over every slot:
    the embedding node the decoder reads pairs from."""
    weights = aggregation_weights(tape, generate_features(tape, prep.ctx, leaves), prep.pattern)
    return forward(tape, leaves, prep.pattern, weights, config.transform, config.layers)


def model_probs(
    tape: Tape,
    leaves: dict[str, Node],
    prep: PreparedData,
    config: TrainConfig,
    pairs: np.ndarray,
) -> Node:
    """The whole pipeline: features, aggregation weights, layers, decoder."""
    return decode(tape, leaves, embed(tape, leaves, prep, config), pairs)


def train_loop(
    prep: PreparedData,
    config: TrainConfig,
    log_path: str | None = None,
) -> TrainResult:
    """Optimize and early-stop on validation F1. Raises a numeric error
    naming the epoch if the loss diverges.
    """
    if prep.train_pos.size == 0:
        raise ParameterError("training set has no positive pairs")
    if prep.val_set.size == 0:
        raise ParameterError("validation set is empty; cannot early-stop")
    store = init_params(config, prep.n_nodes, prep.t_slots)
    adam = Adam(store, config.learning_rate)
    result = TrainResult(store=store.clone())
    stall = 0
    for epoch in range(1, config.max_epochs + 1):
        neg = negative_sample(
            prep.full_graph, prep.train_pos, config.neg_ratio, seed=[config.seed, epoch]
        )
        train_set = merge_pair_sets(prep.train_pos, neg)
        tape = Tape()
        leaves = store.leaves(tape)
        probs = model_probs(tape, leaves, prep, config, train_set.pairs)
        loss = compute_loss(tape, probs, train_set.labels, leaves, config.beta_reg)
        if not np.isfinite(loss.value):
            raise NumericError(f"training diverged at epoch {epoch}: loss is not finite")
        tape.backward(loss)
        store.zero_grads()
        store.harvest(leaves)
        adam.step()

        metrics = evaluate_model(store, prep, config, prep.val_set)
        val_f1 = metrics.f1
        val_acc = metrics.accuracy
        result.history.append(
            {"epoch": epoch, "loss": float(loss.value), "val_f1": val_f1, "val_acc": val_acc}
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
