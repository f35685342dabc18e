"""The feature, scoring and decoding code as it was before the training
step kept only what its backward reads, kept as the reference the
differential tests in ``test_step_memory.py`` compare against.

``generate_features`` ran both perceptrons as matmul and bias-add pairs and
gathered the per-class feature rows to a (T, N, F) node with
``Tape.gather_rows`` and the context's prebuilt scatter; ``Tape.pair_dot``
scored that tensor; ``Tape.replicate`` stacked T copies of the embedding;
and ``decode`` gathered each endpoint on its own, concatenated the two, and
ran its perceptron as matmul and bias-add pairs too. They are copied
verbatim; the one edit is that the four ops are methods of ``OracleTape``
and ``row_scatter`` is this module's copy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from nohgnn import tensor3
from nohgnn.errors import ParameterError, ShapeError
from nohgnn.structural import FeatureContext
from nohgnn.tape import Node, Tape
from nohgnn.tensor3 import SlicePattern
import tape_helpers


def row_scatter(index: np.ndarray, n_rows: int) -> sp.csr_matrix:
    """The (n_rows, index.size) CSR matrix of ones at (index.flat[k], k).

    Times a matrix with one row per index entry, it sums the rows gathered
    from each of the n_rows rows in index order, and so to the same bits as
    ``np.add.at``. It is the transpose of the (index.size, n_rows) matrix
    with one entry per row, whose conversion to CSC is a counting sort that
    keeps each column's entries in index order.
    """
    flat = np.asarray(index, dtype=np.int64).ravel()
    picks = sp.csr_matrix((np.ones(flat.size), flat, np.arange(flat.size + 1)), shape=(flat.size, n_rows))
    return picks.tocsc().T


class OracleTape(Tape):
    """A tape whose replicate, gather, concat and pair-dot ops are the
    earlier ones, with the test-side matmul and bias add."""

    add = tape_helpers.add
    matmul = tape_helpers.matmul

    def replicate(self, a: Node, count: int) -> Node:
        if count < 1:
            raise ParameterError(f"replicate count must be >= 1, got {count}")

        def backward(g):
            return (g.sum(axis=0),)

        value = np.broadcast_to(a.value, (count,) + a.value.shape).copy()
        return self._record(value, (a,), backward)

    def gather_rows(self, a: Node, index: np.ndarray, scatter: sp.csr_matrix | None = None) -> Node:
        """Rows ``a[index]`` of a matrix, shaped ``index.shape + (columns,)``;
        an index of any shape may repeat or leave rows out.

        Backward multiplies the gradient, flattened to one row per index
        entry, by ``row_scatter(index, rows of a)``. A caller that gathers by
        one index many times passes that scatter, built once, as ``scatter``;
        otherwise each backward builds its own.
        """
        index = np.asarray(index, dtype=np.int64)
        if a.value.ndim != 2:
            raise ShapeError(f"gather_rows expects a matrix, got {a.value.shape}")
        if index.size and (index.min() < 0 or index.max() >= a.value.shape[0]):
            raise ParameterError("gather_rows index out of range")
        n_rows, n_cols = a.value.shape
        if scatter is not None and scatter.shape != (n_rows, index.size):
            raise ShapeError(f"scatter shape {scatter.shape} does not match {n_rows} rows and {index.size} picks")

        def backward(g):
            s = row_scatter(index, n_rows) if scatter is None else scatter
            return (s @ g.reshape(index.size, n_cols),)

        return self._record(a.value.take(index, axis=0), (a,), backward)

    def concat(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
            raise ShapeError(f"concat expects matrices with equal rows, got {a.value.shape}, {b.value.shape}")
        split = a.value.shape[1]

        def backward(g):
            return g[:, :split], g[:, split:]

        return self._record(np.concatenate([a.value, b.value], axis=1), (a, b), backward)

    def pair_dot(self, o: Node, pattern: SlicePattern) -> Node:
        """Dot products o[t,i]·o[t,j] for every (t,i,j) in the pattern, flat.

        Backward leaves out the entries whose incoming gradient is exactly 0
        (``tensor3.nonzero_csr``), such as those of every zero softmax weight.
        """
        vo = o.value
        if vo.ndim != 3 or vo.shape[0] != pattern.t_slots:
            raise ShapeError(f"feature tensor shape {vo.shape} does not match pattern slices")
        t_count, n = vo.shape[:2]
        out = np.empty(pattern.nnz)
        for t in range(t_count):
            lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
            tensor3._sddmm(vo[t], pattern.rows[t], vo[t], pattern.indices[t], out[lo:hi])

        def backward(g):
            do = np.empty_like(vo)
            for t in range(t_count):
                lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
                s_g = tensor3.nonzero_csr(g[lo:hi], pattern.indices[t], pattern.indptrs[t], (n, n))
                do[t] = s_g @ vo[t] + s_g.T @ vo[t]
            return (do,)

        return self._record(out, (o,), backward)


def _perceptron(tape: Tape, x: Node, leaves: dict[str, Node], prefix: str) -> Node:
    h = tape.relu(tape.add(tape.matmul(x, leaves[f"{prefix}.w1"]), leaves[f"{prefix}.b1"]))
    return tape.add(tape.matmul(h, leaves[f"{prefix}.w2"]), leaves[f"{prefix}.b2"])


def generate_features(tape: OracleTape, ctx: FeatureContext, leaves: dict[str, Node]) -> Node:
    """Structural features as a (T, N, F) node.

    Row (t, i) is g_theta applied to the support-sum of g_edge over row i of
    the overlap slice t; empty rows feed the zero vector into g_theta. Both
    perceptrons run on the distinct rows only, and the row gather's backward
    sums the gradients of the rows of one class.
    """
    col = tape.constant(ctx.unique_values.reshape(-1, 1))
    edge_out = _perceptron(tape, col, leaves, "gen.edge")
    summed = tape.csr_const_matmul(ctx.counts, edge_out)
    node_out = _perceptron(tape, summed, leaves, "gen.theta")
    return tape.gather_rows(node_out, ctx.row_class, ctx.row_scatter if node_out.requires_grad else None)


def decode(
    tape: OracleTape,
    leaves: dict[str, Node],
    h: Node,
    pairs: np.ndarray,
) -> Node:
    """Link probabilities for (i, j, t) rows from the final embeddings."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 3)
    t_slots, n_nodes, dim = h.value.shape
    if len(pairs) == 0:
        raise ParameterError("decode needs at least one pair")
    if pairs.min() < 0 or pairs[:, :2].max() >= n_nodes or pairs[:, 2].max() >= t_slots:
        raise ParameterError("pair indices out of range")
    flat = tape.reshape(h, (t_slots * n_nodes, dim))
    rows_i = tape.gather_rows(flat, pairs[:, 2] * n_nodes + pairs[:, 0])
    rows_j = tape.gather_rows(flat, pairs[:, 2] * n_nodes + pairs[:, 1])
    both = tape.concat(rows_i, rows_j)
    hidden = tape.relu(tape.add(tape.matmul(both, leaves["dec.w1"]), leaves["dec.b1"]))
    logits = tape.add(tape.matmul(hidden, leaves["dec.w2"]), leaves["dec.b2"])
    return tape.sigmoid(tape.reshape(logits, (len(pairs),)))
