"""Per-row feature tensors in the per-class form the score op reads, for
tests that set the (T, N, F) features directly."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from nohgnn.structural import ClassFeatures, FeatureContext
from nohgnn.tape import Node, Tape


def row_features(tape: Tape, o: Node) -> ClassFeatures:
    """A (T, N, F) feature node as ``ClassFeatures`` with one class per
    (slot, node) row, row t*N + i holding o[t, i]."""
    t_slots, n, dim = o.value.shape
    ctx = FeatureContext(np.zeros(0), sp.csr_matrix((t_slots * n, 0)), np.arange(t_slots * n).reshape(t_slots, n))
    return ClassFeatures(tape.reshape(o, (t_slots * n, dim)), ctx)


def expand(features: ClassFeatures) -> np.ndarray:
    """The (T, N, F) feature tensor that per-class features stand for."""
    return features.rows.value[features.ctx.row_class]
