"""Edge lookups on a ``DynamicGraph`` that only the tests use."""

from __future__ import annotations

import numpy as np

from nohgnn.data import DynamicGraph


def has_edge(g: DynamicGraph, i: int, j: int, t: int) -> bool:
    """Whether (i, j) is a stored adjacency entry of slot t."""
    keys = g.edge_keys(t)
    pos = np.searchsorted(keys, i * g.n_nodes + j)
    return pos < len(keys) and keys[pos] == i * g.n_nodes + j
