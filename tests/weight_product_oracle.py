"""The weight product as it was before the dense M-product operator, kept as
the reference ``test_model.py`` compares ``model.weight_product`` against.

``model.weight_product`` tested the transform itself: one ``Tape.matmul``
under the identity, otherwise three ``Tape.mode3`` entries around a
``matmul``. Both are copied verbatim, ``mode3`` as a method of
``OracleTape``, which takes the matmul that left the program's tape from
``tape_helpers``.
"""

from __future__ import annotations

import numpy as np

from nohgnn.errors import ShapeError
from nohgnn.tape import Node, Tape, _as_f64
from nohgnn.tensor3 import Transform
import tape_helpers


class OracleTape(Tape):
    matmul = tape_helpers.matmul

    def mode3(self, a: Node, m: np.ndarray) -> Node:
        m = _as_f64(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[1] != a.value.shape[0]:
            raise ShapeError(f"mode-3 matrix {m.shape} does not match leading dim {a.value.shape}")

        def backward(g):
            return (np.tensordot(m.T, g, axes=(1, 0)),)

        return self._record(np.tensordot(m, a.value, axes=(1, 0)), (a,), backward)


def weight_product(tape: OracleTape, h: Node, w: Node, tf: Transform) -> Node:
    """Node tensor times a (T, F, F) weight stack under the transform."""
    if tf.is_identity:
        return tape.matmul(h, w)
    h_hat = tape.mode3(h, tf.m)
    w_hat = tape.mode3(w, tf.m)
    return tape.mode3(tape.matmul(h_hat, w_hat), tf.minv)
