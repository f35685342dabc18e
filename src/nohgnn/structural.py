"""Multi-hop overlap counting and structural feature generation.

The overlap tensor B sums the first K adjacency powers, so b_ijt counts walks
of length at most K between i and j at slot t. Per-node structural features
pass each b value through an edge perceptron, sum over the row's support, and
finish with a node perceptron.

Because b values are small integers with few distinct values, the edge
perceptron runs once per distinct value and a constant counts matrix performs
the per-row summation; this is arithmetic-identical to mapping every entry
separately and keeps node-relabeling equivariance bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from nohgnn.data import DynamicGraph
from nohgnn.errors import ParameterError
from nohgnn.tape import Node, ParamStore, Tape, xavier_uniform
from nohgnn.tensor3 import SliceSparse3, sparse_matpower_sum


def init_generator_params(store: ParamStore, dim: int, rng: np.random.Generator) -> None:
    """Register both feature perceptrons: edge maps 1->F->F, node maps F->F->F.

    Weights are Xavier-uniform draws in a fixed creation order; biases start
    at zero.
    """
    if dim < 1:
        raise ParameterError(f"feature dimension must be >= 1, got {dim}")
    store.add("gen.edge.w1", xavier_uniform(rng, 1, dim, (1, dim)))
    store.add("gen.edge.b1", np.zeros(dim))
    store.add("gen.edge.w2", xavier_uniform(rng, dim, dim, (dim, dim)))
    store.add("gen.edge.b2", np.zeros(dim))
    store.add("gen.theta.w1", xavier_uniform(rng, dim, dim, (dim, dim)))
    store.add("gen.theta.b1", np.zeros(dim))
    store.add("gen.theta.w2", xavier_uniform(rng, dim, dim, (dim, dim)))
    store.add("gen.theta.b2", np.zeros(dim))


def compute_overlap_tensor(g: DynamicGraph, k_hops: int) -> SliceSparse3:
    """Sum of the first k_hops adjacency powers, cached on the graph.

    The tensor carries no gradient, so repeated calls return the same cached
    object bit-identically.
    """
    if k_hops not in g.overlap_cache:
        g.overlap_cache[k_hops] = sparse_matpower_sum(g.adjacency, k_hops)
    return g.overlap_cache[k_hops]


@dataclass(frozen=True)
class FeatureContext:
    """Constant quantities for feature generation over one overlap tensor.

    ``unique_values`` holds the distinct b values; ``counts`` is a
    (T*N, U) matrix whose (t*N+i, u) entry counts occurrences of the u-th
    value in row i of slot t.
    """

    unique_values: np.ndarray
    counts: sp.csr_matrix
    n_nodes: int
    t_slots: int


def build_feature_context(b: SliceSparse3) -> FeatureContext:
    n = b.shape2d[0]
    t_slots = len(b.slices)
    all_vals = np.concatenate([s.data for s in b.slices]) if b.nnz else np.zeros(0)
    unique, inverse = np.unique(all_vals, return_inverse=True)
    rows = np.concatenate(
        [
            t * n + np.repeat(np.arange(n, dtype=np.int64), np.diff(s.indptr))
            for t, s in enumerate(b.slices)
        ]
    ) if b.nnz else np.zeros(0, dtype=np.int64)
    counts = sp.csr_matrix(
        (np.ones(len(rows)), (rows, inverse)), shape=(t_slots * n, len(unique))
    )
    counts.sum_duplicates()
    return FeatureContext(unique, counts, n, t_slots)


def _perceptron(tape: Tape, x: Node, leaves: dict[str, Node], prefix: str) -> Node:
    h = tape.relu(tape.add(tape.matmul(x, leaves[f"{prefix}.w1"]), leaves[f"{prefix}.b1"]))
    return tape.add(tape.matmul(h, leaves[f"{prefix}.w2"]), leaves[f"{prefix}.b2"])


def generate_features(tape: Tape, ctx: FeatureContext, leaves: dict[str, Node]) -> Node:
    """Structural features as a (T, N, F) node.

    Row (t, i) is g_theta applied to the support-sum of g_edge over row i of
    the overlap slice t; empty rows feed the zero vector into g_theta.
    """
    col = tape.constant(ctx.unique_values.reshape(-1, 1))
    edge_out = _perceptron(tape, col, leaves, "gen.edge")
    summed = tape.csr_const_matmul(ctx.counts, edge_out)
    node_out = _perceptron(tape, summed, leaves, "gen.theta")
    dim = node_out.value.shape[1]
    return tape.reshape(node_out, (ctx.t_slots, ctx.n_nodes, dim))
