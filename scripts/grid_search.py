#!/usr/bin/env python3
"""Sweep the learning-rate and penalty grids on an ingested edge list.

Runs one full training per (lr, beta) pair with shared splits, reports each
grid point's test metrics, and prints the best pair last. Without --edges it
sweeps the built-in planted-partition generator instead.
"""

import argparse
import sys
import time

from nohgnn.data import bin_snapshots, load_edge_list
from nohgnn.synth import planted_partition_graph
from nohgnn.training import BETA_GRID, LR_GRID, TrainConfig, evaluate_model, prepare, train_loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", default=None, help="edge-list file (src dst timestamp)")
    parser.add_argument("--slots", type=int, default=None, help="time slots for binning")
    parser.add_argument("--transform", default="identity", choices=("identity", "dct"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.edges is not None:
        if args.slots is None:
            parser.error("--edges requires --slots")
        events, id_map = load_edge_list(args.edges)
        graph = bin_snapshots(events, args.slots, id_map=id_map)
    else:
        graph = planted_partition_graph(seed=args.seed)
    print(f"graph: nodes={graph.n_nodes} slots={graph.t_slots} edges={graph.edge_count}")

    best = None
    for lr in LR_GRID:
        for beta in BETA_GRID:
            config = TrainConfig(
                learning_rate=lr, beta_reg=beta, transform=args.transform, seed=args.seed
            )
            start = time.perf_counter()
            prep = prepare(graph, config)
            result = train_loop(prep, config)
            metrics = evaluate_model(result.store, prep, config, prep.test_set)
            wall = time.perf_counter() - start
            print(
                f"lr={lr:<6g} beta={beta:<7g} epochs={result.epochs_run:<4d} "
                f"test_f1={metrics.f1:.4f} test_accuracy={metrics.accuracy:.4f} ({wall:.1f}s)"
            )
            if best is None or metrics.f1 > best[0]:
                best = (metrics.f1, metrics.accuracy, lr, beta)
    f1, accuracy, lr, beta = best
    print(f"best: lr={lr} beta={beta} test_f1={f1:.4f} test_accuracy={accuracy:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
