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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from nohgnn.data import DynamicGraph
from nohgnn.errors import ParameterError
from nohgnn.tape import Node, ParamStore, Tape, init_dense
from nohgnn.tensor3 import SliceSparse3, sparse_matpower_sum


def generator_param_shapes(dim: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each feature-generator parameter's name and shape, in creation order:
    the edge perceptron maps 1->F->F, the node perceptron F->F->F."""
    if dim < 1:
        raise ParameterError(f"feature dimension must be >= 1, got {dim}")
    for name, fan_in in (("edge", 1), ("theta", dim)):
        yield f"gen.{name}.w1", (fan_in, dim)
        yield f"gen.{name}.b1", (dim,)
        yield f"gen.{name}.w2", (dim, dim)
        yield f"gen.{name}.b2", (dim,)


def init_generator_params(store: ParamStore, dim: int, rng: np.random.Generator) -> None:
    """Register both feature perceptrons: Xavier-uniform weights drawn in a
    fixed creation order, zero biases."""
    for name, shape in generator_param_shapes(dim):
        store.add(name, init_dense(shape, rng))


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
    values = np.concatenate([np.zeros(0)] + [s.data for s in b.slices])
    unique = np.unique(values)
    # one CSR row per (slot, node) over the value columns: B's own row
    # structure, each entry moved to its value's column, then summed
    indptr = np.concatenate([[0]] + [np.diff(s.indptr) for s in b.slices]).cumsum()
    counts = sp.csr_matrix(
        (np.ones(len(values)), np.searchsorted(unique, values), indptr), shape=(t_slots * n, len(unique))
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
