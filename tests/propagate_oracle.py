"""The propagation ops as they were before the aggregation operator was
built once per forward, kept as the reference the differential tests in
``test_propagate.py`` compare against.

``Tape.spmm``, ``Tape.sparse_m_product`` and ``Tape.pair_dot`` rebuilt their
operator from the flat values on every call, walked every pattern entry,
zero or not, and the sparse M-product backward held full (T, union nnz)
stacks. They are copied verbatim, with the SDDMM helper and
``tensor3.sparse_m_product`` they called. The edits: the slice CSR view,
which has left ``SlicePattern``, comes from ``pattern_helpers``, and the
slot of every flat entry, which has left it too, is derived here by
``entry_slots``. ``chunked_m_product`` is the forward of the sparse
M-product as it was built one union chunk at a time, before the library
product took the whole union at once.

``slot_with_diagonal``, ``SlotFacewiseOperator`` and ``slot_pair_plan`` are
the aggregation pattern's diagonal build, the identity operator and the
pair plan as they were while ``SlicePattern`` kept per-slot lists: one scipy
sum, one CSR matrix and one run of keys per slot, in a Python loop. They are
copied verbatim but for reading the pattern's per-slot views.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from nohgnn import structural, tensor3
from nohgnn.errors import ParameterError, ShapeError
from nohgnn.structural import PairPlan, _mapped
from nohgnn.tape import Node, Tape
from nohgnn.tensor3 import SlicePattern, SliceSparse3, SparseOperator, Transform, _apply_mode3, nonzero_csr
from pattern_helpers import csr

SDDMM_BLOCK = 1024


def _sddmm(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """Sampled dense-dense product into ``out``: ``out[e] = a[rows[e]] · b[cols[e]]``,
    one block of ``SDDMM_BLOCK`` entries at a time."""
    for lo in range(0, len(rows), SDDMM_BLOCK):
        hi = lo + SDDMM_BLOCK
        np.einsum("ef,ef->e", a[rows[lo:hi]], b[cols[lo:hi]], out=out[lo:hi])


def entry_slots(pattern: SlicePattern) -> np.ndarray:
    """The slice of every flat entry of the pattern."""
    return np.repeat(np.arange(pattern.t_slots), np.diff(pattern.offsets))


def sparse_m_product(
    pattern: SlicePattern, values: np.ndarray, y: np.ndarray, tf: Transform
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M-product of a sparse stack, given as flat values over ``pattern``,
    with a dense (T, d2, F) array ``y``.

    The values are scattered onto the union of the slices' supports, so the
    mode-3 transform acts on a dense (T, union nnz) stack and never on the
    full d1 x d2 x T tensor; each transformed slice then multiplies the
    matching slice of y M as a CSR matrix, and M^-1 maps the result back.
    Returns the product with the transformed stack P-hat and y-hat, which a
    backward pass reuses.
    """
    u_indptr, u_indices, flat_to_union = pattern.union
    p_stack = np.zeros((pattern.t_slots, len(u_indices)))
    p_stack[entry_slots(pattern), flat_to_union] = values
    p_hat = _apply_mode3(p_stack, tf.m)
    y_hat = _apply_mode3(y, tf.m)
    shape = (pattern.n_rows, pattern.n_cols)
    prod = np.empty((pattern.t_slots, pattern.n_rows, y.shape[2]))
    for t in range(pattern.t_slots):
        prod[t] = sp.csr_matrix((p_hat[t], u_indices, u_indptr), shape=shape, copy=False) @ y_hat[t]
    return _apply_mode3(prod, tf.minv), p_hat, y_hat


def chunked_m_product(pattern: SlicePattern, values: np.ndarray, y: np.ndarray, tf: Transform, chunk_values: int) -> np.ndarray:
    """``sparse_m_product`` with P-hat built one union chunk at a time: each
    chunk is ``chunk_values`` values over T slices wide, rounded up to a
    multiple of 8 union entries, and the last one takes the remainder."""
    u_indptr, u_indices, flat_to_union = pattern.union
    n_union = len(u_indices)
    width = (-(-chunk_values // pattern.t_slots) + 7) // 8 * 8
    bounds = np.append(np.arange(0, n_union, width)[: max(1, n_union // width)], n_union)
    slots = entry_slots(pattern)
    p_hat = np.empty((pattern.t_slots, n_union))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        entries = np.flatnonzero((flat_to_union >= lo) & (flat_to_union < hi))
        p_chunk = np.zeros((pattern.t_slots, hi - lo))
        p_chunk[slots[entries], flat_to_union[entries] - lo] = values[entries]
        p_hat[:, lo:hi] = _apply_mode3(p_chunk, tf.m)
    y_hat = _apply_mode3(y, tf.m)
    shape = (pattern.n_rows, pattern.n_cols)
    prod = np.empty((pattern.t_slots, pattern.n_rows, y.shape[2]))
    for t in range(pattern.t_slots):
        prod[t] = sp.csr_matrix((p_hat[t], u_indices, u_indptr), shape=shape, copy=False) @ y_hat[t]
    return _apply_mode3(prod, tf.minv)


class OracleTape(Tape):
    """A tape whose three propagation ops are the earlier ones."""

    def spmm(self, pattern: SlicePattern, values: Node, h: Node) -> Node:
        """Per-slice sparse @ dense with one flat value vector over the pattern."""
        if values.value.shape != (pattern.nnz,):
            raise ShapeError(f"values shape {values.value.shape} does not match pattern nnz {pattern.nnz}")
        if h.value.ndim != 3 or h.value.shape[0] != pattern.t_slots:
            raise ShapeError(f"node tensor shape {h.value.shape} does not match pattern slices")
        t_count = h.value.shape[0]
        out = np.empty((t_count, pattern.n_rows, h.value.shape[2]))
        for t in range(t_count):
            out[t] = csr(pattern, values.value, t) @ h.value[t]

        def backward(g):
            dvals = np.empty(pattern.nnz)
            dh = np.empty_like(h.value)
            for t in range(t_count):
                lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
                _sddmm(g[t], pattern.rows[t], h.value[t], pattern.indices[t], dvals[lo:hi])
                dh[t] = csr(pattern, values.value, t).T @ g[t]
            return dvals, dh

        return self._record(out, (values, h), backward)

    def pair_dot(self, o: Node, pattern: SlicePattern) -> Node:
        """Dot products o[t,i]·o[t,j] for every (t,i,j) in the pattern, flat."""
        if o.value.ndim != 3 or o.value.shape[0] != pattern.t_slots:
            raise ShapeError(f"feature tensor shape {o.value.shape} does not match pattern slices")
        n = o.value.shape[1]
        t_count = o.value.shape[0]
        out = np.empty(pattern.nnz)
        for t in range(t_count):
            lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
            _sddmm(o.value[t], pattern.rows[t], o.value[t], pattern.indices[t], out[lo:hi])

        def backward(g):
            do = np.empty_like(o.value)
            for t in range(t_count):
                lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
                s_g = sp.csr_matrix((g[lo:hi], pattern.indices[t], pattern.indptrs[t]), shape=(n, n), copy=False)
                do[t] = s_g @ o.value[t] + s_g.T @ o.value[t]
            return (do,)

        return self._record(out, (o,), backward)

    def sparse_m_product(self, pattern: SlicePattern, values: Node, h: Node, tf: Transform) -> Node:
        """Sparse M-product of flat pattern values with a (T, N, F) node
        tensor under the transform (``tensor3.sparse_m_product``).

        The op keeps the transformed union stack P-hat and H-hat; backward
        applies M^-T to the incoming gradient, takes the sampled and the
        transposed slice products in the transform domain, maps both back
        with M^T, and gathers the value gradient off the union support.
        """
        if values.value.shape != (pattern.nnz,):
            raise ShapeError(f"values shape {values.value.shape} does not match pattern nnz {pattern.nnz}")
        if h.value.ndim != 3 or h.value.shape[:2] != (pattern.t_slots, pattern.n_cols):
            raise ShapeError(f"node tensor shape {h.value.shape} does not match pattern {pattern.t_slots}x{pattern.n_cols}")
        if tf.size != pattern.t_slots:
            raise ShapeError(f"transform size {tf.size} does not match {pattern.t_slots} slices")
        out, p_hat, h_hat = sparse_m_product(pattern, values.value, h.value, tf)
        u_indptr, u_indices, flat_to_union = pattern.union
        rows = np.repeat(np.arange(pattern.n_rows), np.diff(u_indptr))
        shape = (pattern.n_rows, pattern.n_cols)

        def backward(g):
            g_hat = np.tensordot(tf.minv.T, g, axes=(1, 0))
            dp_hat = np.empty_like(p_hat)
            dh_hat = np.empty_like(h_hat)
            for t in range(pattern.t_slots):
                _sddmm(g_hat[t], rows, h_hat[t], u_indices, dp_hat[t])
                p_t = sp.csr_matrix((p_hat[t], u_indices, u_indptr), shape=shape, copy=False)
                dh_hat[t] = p_t.T @ g_hat[t]
            dp = np.tensordot(tf.m.T, dp_hat, axes=(1, 0))
            dh = np.tensordot(tf.m.T, dh_hat, axes=(1, 0))
            return dp[entry_slots(pattern), flat_to_union], dh

        return self._record(out, (values, h), backward)


def slot_with_diagonal(x: SliceSparse3) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-slot indptrs and indices of x with the full diagonal added to
    every slice."""
    d1, d2 = x.shape2d
    if d1 != d2:
        raise ShapeError("diagonal augmentation needs square slices")
    eye = sp.eye(d1, format="csr")
    indptrs, indices = [], []
    for s in x.slices:
        marker = sp.csr_matrix(
            (np.ones(s.nnz), s.indices.copy(), s.indptr.copy()), shape=s.shape
        )
        aug = marker + eye
        aug.sum_duplicates()
        aug.sort_indices()
        indptrs.append(aug.indptr)
        indices.append(aug.indices)
    return indptrs, indices


class SlotFacewiseOperator(SparseOperator):
    """The face-wise operator with one CSR matrix per slot: slice t of the
    stack, without the values' exact zeros, times slice t of y."""

    def __init__(self, pattern: SlicePattern, values: np.ndarray, live_only: bool = False):
        super().__init__(pattern)
        shape = (pattern.n_rows, pattern.n_cols)
        self.slices = [
            nonzero_csr(values[pattern.offsets[t] : pattern.offsets[t + 1]], pattern.indices[t], pattern.indptrs[t], shape)
            for t in range(pattern.t_slots)
        ]
        self.live = values != 0 if live_only else np.ones(pattern.nnz, dtype=bool)

    def window(self, start: int, stop: int) -> "SlotFacewiseOperator":
        if not self.slots.start <= start < stop <= self.slots.stop:
            raise ParameterError(f"slot window [{start}, {stop}) is not inside [{self.slots.start}, {self.slots.stop})")
        sub = copy.copy(self)
        sub.slots = range(start, stop)
        sub.slices = self.slices[start - self.slots.start : stop - self.slots.start]
        return sub

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = np.empty((len(self.slices), self.pattern.n_rows, y.shape[2]))
        for k, s in enumerate(self.slices):
            out[k] = s @ y[k]
        return out, y

    def grads(self, g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pattern = self.pattern
        base = pattern.offsets[self.slots.start]
        dvals = np.zeros(pattern.offsets[self.slots.stop] - base)
        # C order even for a broadcast y, whose empty_like would put the
        # slots innermost and change how the gradient's consumers sum it
        dy = np.empty(y.shape)
        for k, (t, s) in enumerate(zip(self.slots, self.slices)):
            lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
            keep = self.live[lo:hi]
            live_vals = np.empty(np.count_nonzero(keep))
            tensor3._sddmm(g[k], pattern.rows[t][keep], y[k], pattern.indices[t][keep], live_vals)
            dvals[lo - base : hi - base][keep] = live_vals
            dy[k] = s.T @ g[k]
        return dvals, dy


def slot_pair_plan(row_class: np.ndarray, n_classes: int, pattern: SlicePattern) -> PairPlan:
    """``structural.build_pair_plan`` with its keys built slot by slot."""
    nnz = pattern.nnz
    index = np.int32 if max(nnz, n_classes) <= np.iinfo(np.int32).max else np.int64
    bits = nnz.bit_length()
    packed = (n_classes * n_classes) << bits <= 1 << structural.PLAN_KEY_BITS
    pair_of = _mapped(nnz, index)
    keys = np.empty(nnz, dtype=np.int64)
    for t in range(pattern.t_slots):
        lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
        key = keys[lo:hi]
        np.multiply(row_class[t].take(pattern.rows[t]), n_classes, out=key)
        key += row_class[t].take(pattern.indices[t])
        if packed:
            key <<= bits
            key |= np.arange(lo, hi)
    if packed:
        keys.sort()
        entry = keys.astype(index)
        entry &= (1 << bits) - 1
        keys >>= bits
    else:
        entry = np.argsort(keys).astype(index)
        keys = keys[entry]
    first = np.empty(nnz, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pairs = keys[first]
    del keys
    order = np.cumsum(first, dtype=index)
    order -= 1
    pair_of[entry] = order
    del first, entry, order
    rows, cols = _mapped(len(pairs), index), _mapped(len(pairs), index)
    np.floor_divide(pairs, n_classes, out=rows)
    np.remainder(pairs, n_classes, out=cols)
    indptr = np.searchsorted(rows, np.arange(n_classes + 1)).astype(index)
    return PairPlan(rows, cols, indptr, pair_of)
