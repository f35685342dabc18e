"""Views of a ``SlicePattern`` and its flat values that only the tests use:
per-slice CSR matrices, the ``SliceSparse3`` stack (with or without the
values' zeros), and the entry table."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from nohgnn.tensor3 import SlicePattern, SliceSparse3


def csr(pattern: SlicePattern, values: np.ndarray, t: int) -> sp.csr_matrix:
    """Slice t of a flat value array as a CSR matrix over the pattern."""
    return sp.csr_matrix(
        (values[pattern.offsets[t] : pattern.offsets[t + 1]], pattern.indices[t], pattern.indptrs[t]),
        shape=(pattern.n_rows, pattern.n_cols),
    )


def to_sparse(pattern: SlicePattern, values: np.ndarray) -> SliceSparse3:
    return SliceSparse3(
        [csr(pattern, values, t).copy() for t in range(pattern.t_slots)],
        shape=(pattern.n_rows, pattern.n_cols),
    )


def to_sparse_keeping_zeros(pattern: SlicePattern, values: np.ndarray) -> SliceSparse3:
    """``to_sparse`` over the whole pattern: the stack's slices keep the
    entries where ``values`` is ±0 as explicit zeros, which building it
    from the values would prune, so its support is the pattern's."""
    x = to_sparse(pattern, np.ones(pattern.nnz))
    for t, s in enumerate(x.slices):
        s.data[:] = values[pattern.offsets[t] : pattern.offsets[t + 1]]
    return x


def entry_table(pattern: SlicePattern) -> np.ndarray:
    """All pattern entries as an (nnz, 3) array of (t, row, col)."""
    out = np.empty((pattern.nnz, 3), dtype=np.int64)
    for t in range(pattern.t_slots):
        o0, o1 = pattern.offsets[t], pattern.offsets[t + 1]
        out[o0:o1, 0] = t
        out[o0:o1, 1] = pattern.rows[t]
        out[o0:o1, 2] = pattern.indices[t]
    return out
