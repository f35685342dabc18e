"""Seeded heavy-tailed temporal edge lists for the M and L workloads.

The program only ever sees the text file this module writes; the arrays it
returns are the benchmark's own record of what was generated, used by the
independent binning check.

Shape of a generated list:

* every one of ``n_nodes`` nodes appears in at least one event, so ingest
  reports exactly ``n_nodes`` nodes;
* both endpoints of every other event are drawn from a Zipf-like activity
  distribution (weight of the node with activity rank r is
  (r+1)^-ZIPF_EXPONENT), so a few hubs carry most events, pairs recur across
  slots, and two-hop walk counts grow much faster than the edge count;
* timestamps are integer seconds spread uniformly over a fixed span, lines
  are written in time order, and node tokens are random distinct integers,
  so the dense id remapping is exercised.

Only the node, event and slot counts are those of bitcoin-alpha and
ask-ubuntu. The exponent is fitted to the make-up of the synthetic baseline
in ROADMAP.md (aggregation-support and union nnz of the M and L shapes), not
to either dataset, whose degree law and pair recurrence have not been
measured here; see README.md, "Generated inputs".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZIPF_EXPONENT = 0.8
TIME_ORIGIN = 1_200_000_000
TIME_SPAN = 150_000_000


@dataclass(frozen=True)
class EdgeList:
    """Generated events in file order, with endpoints as dense ids."""

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    tokens: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.ts)


def heavy_tailed_events(n_nodes: int, n_events: int, seed: int) -> EdgeList:
    """Draw ``n_events`` events over exactly ``n_nodes`` nodes."""
    if n_events < n_nodes:
        raise ValueError(f"need at least one event per node: {n_events} < {n_nodes}")
    rng = np.random.default_rng(seed)
    weight = np.empty(n_nodes)
    weight[rng.permutation(n_nodes)] = (np.arange(n_nodes) + 1.0) ** -ZIPF_EXPONENT
    weight /= weight.sum()

    # one event per node guarantees coverage; its partner is activity-weighted
    cover = rng.permutation(n_nodes)
    partner = rng.choice(n_nodes, size=n_nodes, p=weight)
    partner = np.where(partner == cover, (partner + 1) % n_nodes, partner)
    flip = rng.random(n_nodes) < 0.5
    cover_src = np.where(flip, partner, cover)
    cover_dst = np.where(flip, cover, partner)

    rest = n_events - n_nodes
    src = rng.choice(n_nodes, size=rest, p=weight)
    dst = rng.choice(n_nodes, size=rest, p=weight)
    src = np.concatenate([cover_src, src]).astype(np.int64)
    dst = np.concatenate([cover_dst, dst]).astype(np.int64)

    order = rng.permutation(n_events)
    src, dst = src[order], dst[order]
    ts = np.sort(rng.integers(0, TIME_SPAN, size=n_events)) + TIME_ORIGIN
    ts[0], ts[-1] = TIME_ORIGIN, TIME_ORIGIN + TIME_SPAN - 1

    tokens = rng.choice(np.arange(10 * n_nodes, 100 * n_nodes), size=n_nodes, replace=False)
    return EdgeList(src, dst, ts.astype(np.int64), tokens)


def write_edge_list(path: str, edges: EdgeList) -> None:
    """Write ``src dst timestamp`` lines with the random node tokens."""
    a = edges.tokens[edges.src]
    b = edges.tokens[edges.dst]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# heavy-tailed synthetic temporal edge list: src dst timestamp\n")
        fh.writelines(f"{x} {y} {t}\n" for x, y, t in zip(a.tolist(), b.tolist(), edges.ts.tolist()))
