"""Tape ops that only the tests and their oracles record: an elementwise
product, which weights an output into a test loss; a matrix product of
matching 2-D or 3-D stacks; and an add that broadcasts a trailing operand
such as a bias (the program records ``Tape.affine`` for the last two). Each
records through ``Tape._record``, so it works on any tape, the one
``grad_check`` builds among them; an oracle tape takes them as methods.
"""

from __future__ import annotations

import numpy as np

from nohgnn.errors import ShapeError
from nohgnn.tape import Node, Tape


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
