"""Views of a ``SlicePattern`` and its flat values that only the tests use:
per-slice CSR matrices, the ``SliceSparse3`` stack (with or without the
values' zeros), and the entry table; and the stack of a list of slices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from nohgnn.errors import ShapeError
from nohgnn.tensor3 import SlicePattern, SliceSparse3


def csr(pattern: SlicePattern, values: np.ndarray, t: int) -> sp.csr_matrix:
    """Slice t of a flat value array as a CSR matrix over the pattern."""
    return sp.csr_matrix(
        (values[pattern.offsets[t] : pattern.offsets[t + 1]], pattern.indices[t], pattern.indptrs[t]),
        shape=(pattern.n_rows, pattern.n_cols),
    )


def slice_stack(slices, shape: tuple[int, int] | None = None) -> SliceSparse3:
    """The ``SliceSparse3`` stack of one or more 2-d slices sharing one
    shape, and ``shape`` if given."""
    mats = [sp.csr_matrix(s, dtype=np.float64) for s in slices]
    shapes = {m.shape for m in mats} | ({tuple(shape)} if shape is not None else set())
    if len(shapes) != 1:
        raise ShapeError(f"slices must share one shape, got {sorted(shapes)}")
    return SliceSparse3(sp.vstack(mats, format="csr"), len(mats))


def to_sparse(pattern: SlicePattern, values: np.ndarray) -> SliceSparse3:
    return slice_stack(
        [csr(pattern, values, t).copy() for t in range(pattern.t_slots)],
        shape=(pattern.n_rows, pattern.n_cols),
    )


def to_sparse_keeping_zeros(pattern: SlicePattern, values: np.ndarray) -> SliceSparse3:
    """``to_sparse`` over the whole pattern: the stack's slices keep the
    entries where ``values`` is ±0 as explicit zeros, which building it
    from the values would prune, so its support is the pattern's. The
    stack's matrix holds the entries in the pattern's flat order, so the
    values are written into its data in one assignment."""
    x = to_sparse(pattern, np.ones(pattern.nnz))
    x.matrix.data[:] = values
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
