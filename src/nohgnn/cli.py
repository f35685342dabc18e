"""Command-line entry point.

Four subcommands: ``ingest`` parses and bins an edge list into a dataset
artifact, ``train`` fits the model and writes a checkpoint plus a JSON-lines
metric log, ``eval`` scores a checkpoint on a stored split, and ``gradcheck``
verifies the backward pass against central differences. Every command is
deterministic given its configuration and seed.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

from nohgnn.checkpoint import load_dataset, load_model, save_dataset, save_model
from nohgnn.config import RunConfig, load_run_config, with_overrides
from nohgnn.data import bin_snapshots, load_edge_list, split_edges
from nohgnn.errors import CheckpointError, NohgnnError, ParameterError
from nohgnn.training import (
    TRANSFORM_KINDS,
    assemble,
    evaluate_model,
    labeled_split,
    run_gradient_check,
    train_loop,
)

log = logging.getLogger(__name__)

GRAD_TOLERANCE = 1e-4
DATASET_FILE = "dataset.nohg"
CHECKPOINT_FILE = "checkpoint.nohg"
METRICS_FILE = "metrics.jsonl"


def _ingest(edges: str, slots: int, undirected: bool, seed: int):
    events, id_map = load_edge_list(edges)
    graph = bin_snapshots(events, slots, undirected=undirected, id_map=id_map)
    train, val, test, masked = split_edges(graph, seed=seed)
    return events, graph, masked, {"train": train, "val": val, "test": test}


def _load_config(args) -> RunConfig:
    """The run file named by ``args.config``, if any, under the flags given;
    a flag's destination is the field it sets."""
    config_path = getattr(args, "config", None)
    base = load_run_config(config_path) if config_path else RunConfig()
    return with_overrides(base, **{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def cmd_ingest(args) -> int:
    config = _load_config(args)
    events, graph, masked, splits = _ingest(config.edges, config.slots, config.undirected, config.seed)
    os.makedirs(config.out, exist_ok=True)
    out_path = os.path.join(config.out, DATASET_FILE)
    save_dataset(out_path, graph, masked, splits, split_seed=config.seed)
    log.info("wrote %s", out_path)
    print(f"nodes={graph.n_nodes} edges={len(events)} slots={graph.t_slots}")
    return 0


def cmd_train(args) -> int:
    run = _load_config(args)
    config = run.to_train_config()
    if run.data is not None and run.edges is not None:
        raise ParameterError("config names two dataset sources, data= and edges=; set exactly one")
    if run.data is not None:
        graph, masked, splits, _ = load_dataset(run.data)
        if run.slots is not None and run.slots != graph.t_slots:
            raise ParameterError(f"slots = {run.slots}, but dataset {run.data} has {graph.t_slots} slots")
        if not run.undirected and graph.undirected:
            raise ParameterError(f"undirected = false, but dataset {run.data} is undirected")
    elif run.edges is not None:
        if run.slots is None:
            raise ParameterError("training from a raw edge list needs slots (--slots)")
        _, graph, masked, splits = _ingest(run.edges, run.slots, run.undirected, config.seed)
    else:
        raise ParameterError("config names no dataset: set data= or edges= and slots=")
    os.makedirs(run.out, exist_ok=True)
    if run.edges is not None:
        save_dataset(os.path.join(run.out, DATASET_FILE), graph, masked, splits, config.seed)
    prep = assemble(graph, masked, splits, config)
    result = train_loop(prep, config, log_path=os.path.join(run.out, METRICS_FILE))
    save_model(os.path.join(run.out, CHECKPOINT_FILE), result.store, config, graph.n_nodes, graph.t_slots)
    log.info(
        "stopped after %d epoch(s); best validation F1 %.4f at epoch %d",
        result.epochs_run, result.best_val_f1, result.best_epoch,
    )
    metrics = evaluate_model(result.store, prep, config, prep.test_set)
    print(f"test_f1={metrics.f1:.4f} test_accuracy={metrics.accuracy:.4f}")
    return 0


def cmd_eval(args) -> int:
    store, config, n_nodes, t_slots = load_model(args.checkpoint)
    graph, masked, splits, _ = load_dataset(args.dataset)
    if graph.n_nodes != n_nodes or graph.t_slots != t_slots:
        raise CheckpointError(
            "checkpoint/dataset mismatch: "
            f"checkpoint has nodes={n_nodes} slots={t_slots}, "
            f"dataset has nodes={graph.n_nodes} slots={graph.t_slots}"
        )
    prep = assemble(graph, masked, splits, config)
    metrics = evaluate_model(store, prep, config, labeled_split(prep, config, args.split))
    print(
        '{"f1": %.4f, "accuracy": %.4f, "tp": %d, "fp": %d, "tn": %d, "fn": %d}'
        % (metrics.f1, metrics.accuracy, metrics.tp, metrics.fp, metrics.tn, metrics.fn)
    )
    return 0


def cmd_gradcheck(args) -> int:
    kinds = (args.transform,) if args.transform else TRANSFORM_KINDS
    worst = 0.0
    for kind in kinds:
        err = run_gradient_check(kind, seed=args.seed if args.seed is not None else 0)
        worst = max(worst, err)
        print(f"transform={kind} max_rel_error={err:.3e}")
    return 0 if worst <= GRAD_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nohgnn",
        description="Dynamic-graph link prediction with overlap-aware tensor message passing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse an edge list into a dataset artifact")
    ingest.add_argument("--edges", required=True, metavar="PATH", help="edge-list file")
    ingest.add_argument("--slots", required=True, type=int, metavar="T", help="number of time slots")
    ingest.add_argument("--seed", type=int, default=None, help="split seed (default 0)")
    ingest.add_argument("--out", default=None, metavar="DIR", help="output directory (default .)")

    train = sub.add_parser("train", help="train and write a checkpoint plus metric log")
    train.add_argument("config", nargs="?", default=None, help="run-configuration file")
    train.add_argument("--edges", default=None, metavar="PATH", help="edge-list file")
    train.add_argument("--slots", type=int, default=None, metavar="T", help="number of time slots")
    train.add_argument("--k-hops", type=int, default=None, metavar="K", help="overlap walk depth")
    train.add_argument("--layers", type=int, default=None, metavar="L", help="message-passing layers")
    train.add_argument("--dim", type=int, default=None, metavar="F", help="feature dimension")
    train.add_argument("--lr", dest="learning_rate", type=float, default=None, metavar="LR",
                       help="Adam learning rate")
    train.add_argument("--beta", dest="beta_reg", type=float, default=None, metavar="BETA",
                       help="L2 penalty weight")
    train.add_argument("--transform", choices=TRANSFORM_KINDS, default=None, help="mode-3 transform")
    train.add_argument("--seed", type=int, default=None, help="run seed")
    train.add_argument("--neg-ratio", type=int, default=None, help="negatives per positive")
    train.add_argument("--epochs", dest="max_epochs", type=int, default=None, metavar="EPOCHS",
                       help="epoch cap")
    train.add_argument("--patience", type=int, default=None, help="early-stopping patience")
    train.add_argument("--out", default=None, metavar="DIR", help="output directory (default .)")

    evaluate = sub.add_parser("eval", help="score a checkpoint on a stored split")
    evaluate.add_argument("checkpoint", help="model checkpoint file")
    evaluate.add_argument("dataset", help="dataset artifact file")
    evaluate.add_argument("--split", choices=("train", "val", "test"), default="test")

    gradcheck = sub.add_parser("gradcheck", help="compare the backward pass with central differences")
    gradcheck.add_argument("--transform", choices=TRANSFORM_KINDS, default=None,
                           help="check one transform (default: both)")
    gradcheck.add_argument("--seed", type=int, default=None, help="instance seed")

    parser.set_defaults(func=None)
    ingest.set_defaults(func=cmd_ingest)
    train.set_defaults(func=cmd_train)
    evaluate.set_defaults(func=cmd_eval)
    gradcheck.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NohgnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
