"""The ``train_loop`` that ran two forwards per epoch (a recorded training
forward, then a gradient-free validation forward after the Adam step), kept
as the reference the differential tests compare against, with the pipeline
composite ``model_probs`` it called."""

from __future__ import annotations

import numpy as np

from nohgnn.data import merge_pair_sets, negative_sample
from nohgnn.errors import NumericError, ParameterError
from nohgnn.model import decode
from nohgnn.tape import Node, Tape
from nohgnn.training import (
    Adam,
    PreparedData,
    TrainConfig,
    TrainResult,
    compute_loss,
    embed,
    evaluate_model,
    init_params,
    write_metric_log,
)


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
