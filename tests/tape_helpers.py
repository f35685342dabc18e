"""Tape ops that only the tests and their oracles record: the sum of every
entry and an elementwise product, which make an output a test loss; a
matrix product of matching 2-D or 3-D stacks; an add that broadcasts a
trailing operand such as a bias (the program records ``Tape.affine`` for
the last two); and the row gather the decoder recorded before
``Tape.pair_affine``. Each records through ``Tape._record``, so it works on
any tape, the one ``grad_check`` builds among them; an oracle tape takes
them as methods.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from nohgnn import tape as tape_mod
from nohgnn.errors import ParameterError, ShapeError
from nohgnn.tape import Node, Tape


def total(tape: Tape, a: Node) -> Node:
    shape = a.value.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return tape._record(np.asarray(a.value.sum()), (a,), backward)


def mul(tape: Tape, a: Node, b: Node) -> Node:
    va, vb = a.value, b.value
    if va.shape != vb.shape:
        raise ShapeError(f"mul operands {va.shape} and {vb.shape} differ")

    def backward(g):
        return g * vb, g * va

    return tape._record(va * vb, (a, b), backward)


def matmul(tape: Tape, a: Node, b: Node) -> Node:
    va, vb = a.value, b.value
    if va.ndim == vb.ndim and va.ndim in (2, 3):
        def backward(g):
            return g @ np.swapaxes(vb, -1, -2), np.swapaxes(va, -1, -2) @ g

        return tape._record(va @ vb, (a, b), backward)
    raise ShapeError(f"matmul expects matching 2-D or 3-D stacks, got {va.shape} @ {vb.shape}")


def add(tape: Tape, a: Node, b: Node) -> Node:
    va, vb = a.value, b.value
    if va.shape != vb.shape and vb.shape != va.shape[va.ndim - vb.ndim :]:
        raise ShapeError(f"add operands {va.shape} and {vb.shape} do not align")
    lead = tuple(range(va.ndim - vb.ndim))

    def backward(g):
        gb = g.sum(axis=lead) if lead else g
        return g, gb

    return tape._record(va + vb, (a, b), backward)


def row_scatter(index: np.ndarray, n_rows: int, column: int | None = None) -> sp.csr_matrix:
    """``tape.row_scatter``; with ``column``, the (n_rows, index.size)
    matrix of ones at (index.flat[k], k) only for the k in that column of
    the index's last axis, which multiplies the gradient of a gather by a
    many-column index without a strided copy of it."""
    if column is None:
        return tape_mod.row_scatter(index, n_rows)
    index = np.asarray(index, dtype=np.int64)
    width = index.shape[-1]
    picked = index.reshape(-1, width)[:, column]
    # row k of the picks holds an entry when k % width == column
    indptr = (np.arange(index.size + 1) + width - 1 - column) // width
    picks = sp.csr_matrix((np.ones(picked.size), picked, indptr), shape=(index.size, n_rows))
    return picks.tocsc().T


def gather_rows(tape: Tape, a: Node, index: np.ndarray) -> Node:
    """Rows of ``a`` viewed as a matrix over its last axis, shaped
    ``index.shape + (columns,)``; an index of any shape may repeat or leave
    rows out.

    Backward views the gradient with one row per index entry and multiplies
    it by ``row_scatter`` of each column of the index's last axis (of the
    whole index, if it is 1-D), then adds the products in column order: each
    column's rows are summed as a gather of that column alone would sum
    them.
    """
    index = np.asarray(index, dtype=np.int64)
    shape = a.value.shape
    if a.value.ndim < 2:
        raise ShapeError(f"gather_rows expects a matrix or a stack, got {shape}")
    rows = a.value.reshape(-1, shape[-1])
    n_rows, n_cols = rows.shape
    if index.size and (index.min() < 0 or index.max() >= n_rows):
        raise ParameterError("gather_rows index out of range")
    columns = list(range(index.shape[-1])) if index.ndim > 1 and index.size else [None]

    def backward(g):
        flat = g.reshape(index.size, n_cols)
        summed = row_scatter(index, n_rows, columns[0]) @ flat
        for column in columns[1:]:
            summed += row_scatter(index, n_rows, column) @ flat
        return (summed.reshape(shape),)

    return tape._record(rows.take(index, axis=0), (a,), backward)
