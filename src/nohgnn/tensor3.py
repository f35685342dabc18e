"""Third-order tensor algebra: dense tensors, sparse slice stacks as one
stacked CSR matrix, and the invertible-transform tensor product (M-product).

No other module applies a transform. The model's products run through
operators of their left operand, each with ``check``, ``apply`` and
``grads``, which it records with ``Tape.m_product``: ``FacewiseOperator``
(flat values over a ``SlicePattern`` as one block-diagonal CSR matrix, the
identity), ``DenseOperator`` (a dense stack, times M under a mixing
transform) and the DCT's two below. The library ``m_product`` uses the
first two, and for a sparse left operand under a mixing transform scatters
its values onto the union of the slices' supports, which M mixes tube by
tube, so the product is never densified to d1 x d2 x T.

The orthonormal DCT-II maps a constant tube onto its first (DC) slice alone
and back, so a product with a slot-constant operand is slot-constant: P
times constant rows y is (sum_t P_t) y / sqrt(T), and constant rows a times
W is sqrt(T) a mean_t(W_t). ``SlotSumOperator`` and ``SlotMeanOperator``
compute them on the shared rows without the factors, which cancel in a layer.

Storage convention: a tensor with dims (d1, d2, d3) lives in a float64 array
of shape (d3, d1, d2), so ``data[t]`` is the t-th frontal slice and
``data[:, i, j]`` is the (i, j) tube. The third axis is time everywhere in
this package.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, ParameterError, ShapeError

MAX_CONDITION = 1e12
INVERSE_TOL = 1e-10


class Tensor3:
    """Dense third-order tensor of float64 values."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"Tensor3 expects a 3-d array, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("Tensor3 values must be finite")
        self.data = arr

    @classmethod
    def zeros(cls, d1: int, d2: int, d3: int) -> "Tensor3":
        return cls(np.zeros((d3, d1, d2)))

    @property
    def dims(self) -> tuple[int, int, int]:
        d3, d1, d2 = self.data.shape
        return (d1, d2, d3)

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims})"


class SliceSparse3:
    """Stack of T sparse (d1, d2) slices as one canonical CSR ``matrix`` of
    shape (T*d1, d2), whose row t*d1 + i is row i of slice t: duplicates
    summed, columns sorted within each row, explicit zeros pruned. Slice t's
    entries are ``[offsets[t], offsets[t+1])`` of its arrays."""

    __slots__ = ("matrix", "shape2d", "t_slots")

    def __init__(self, matrix, t_slots: int):
        """The stack whose slices are the ``t_slots`` row blocks of the
        (T*d1, d2) ``matrix``, which it canonicalizes in place."""
        rows, d2 = matrix.shape
        if t_slots < 1 or rows % t_slots:
            raise ShapeError(f"a {rows}-row matrix is not a stack of {t_slots} slices")
        m = sp.csr_matrix(matrix, dtype=np.float64)
        m.sum_duplicates()
        m.eliminate_zeros()
        if not np.all(np.isfinite(m.data)):
            raise NumericError("SliceSparse3 values must be finite")
        self.matrix, self.t_slots, self.shape2d = m, t_slots, (rows // t_slots, d2)

    @classmethod
    def from_dense(cls, x) -> "SliceSparse3":
        arr = x.data if isinstance(x, Tensor3) else np.asarray(x, dtype=np.float64)
        t_slots, d1, d2 = arr.shape
        return cls(sp.csr_matrix(arr.reshape(t_slots * d1, d2)), t_slots)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.shape2d[0], self.shape2d[1], self.t_slots)

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def offsets(self) -> np.ndarray:
        return self.matrix.indptr[np.arange(self.t_slots + 1) * self.shape2d[0]]

    # Slice t as a CSR matrix of its own, a copy built on access and never
    # stored; only perfbench/checks.py and the test oracles read it.
    slices = property(lambda self: _PerSlot(self, lambda x, t: x.matrix[t * x.shape2d[0] : (t + 1) * x.shape2d[0]]))

    def densify(self) -> Tensor3:
        return Tensor3(self.matrix.toarray().reshape(self.t_slots, *self.shape2d))

    def __repr__(self) -> str:
        return f"SliceSparse3(dims={self.dims}, nnz={self.nnz})"


@dataclass(frozen=True)
class Transform:
    """Invertible mode-3 transform: ``kind`` is identity, dct2-orthonormal,
    or custom; ``m`` and ``minv`` are the forward and inverse matrices."""

    kind: str
    size: int
    m: np.ndarray
    minv: np.ndarray

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"


def _dct2_orthonormal(n: int) -> np.ndarray:
    # type-II DCT rows, scaled so the matrix is orthonormal
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    m = math.sqrt(2.0 / n) * np.cos(math.pi * (2 * j + 1) * k / (2 * n))
    m[0] /= math.sqrt(2.0)
    return m


def make_transform(kind: str, size: int, matrix=None) -> Transform:
    """Build a mode-3 transform of the given size.

    ``identity`` decouples the time slices; ``dct2-orthonormal`` (alias
    ``dct``) mixes them with an orthonormal type-II DCT; ``custom`` takes a
    caller-supplied square matrix whose inverse is computed numerically.
    """
    if size < 1:
        raise ParameterError(f"transform size must be >= 1, got {size}")
    if kind == "identity":
        eye = np.eye(size)
        return Transform("identity", size, eye, eye.copy())
    if kind in ("dct", "dct2-orthonormal"):
        m = _dct2_orthonormal(size)
        return Transform("dct2-orthonormal", size, m, m.T.copy())
    if kind == "custom":
        if matrix is None:
            raise ParameterError("custom transform requires a matrix")
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (size, size):
            raise ShapeError(f"custom matrix must be {size}x{size}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericError("custom matrix must be finite")
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > MAX_CONDITION:
            raise NumericError(f"custom matrix is ill-conditioned (cond={cond:.3e})")
        minv = np.linalg.inv(m)
        if np.max(np.abs(m @ minv - np.eye(size))) > INVERSE_TOL:
            raise NumericError("custom matrix inverse fails the round-trip check")
        return Transform("custom", size, m, minv)
    raise ParameterError(f"unknown transform kind {kind!r}")


def _apply_mode3(arr: np.ndarray, m: np.ndarray) -> np.ndarray:
    # out[k, ...] = sum_t m[k, t] * arr[t, ...]
    return np.tensordot(m, arr, axes=(1, 0))


def mode3_product(x: Tensor3, m) -> Tensor3:
    """Multiply every tube x(i, j, :) by the square matrix ``m``."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"mode-3 matrix must be square, got {m.shape}")
    if m.shape[0] != x.data.shape[0]:
        raise ShapeError(
            f"mode-3 matrix size {m.shape[0]} does not match d3={x.data.shape[0]}"
        )
    return Tensor3(_apply_mode3(x.data, m))


def facewise_product(x, y: Tensor3) -> Tensor3:
    """Slice-by-slice matrix product: result slice t is x_t @ y_t, the
    M-product under the identity, without the identity's T x T matrices."""
    return m_product(x, y, None)


def nonzero_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR matrix of the entries of (data, indices, indptr) whose value is
    not exactly 0.

    Its products with a finite dense operand equal those of the full matrix
    bit for bit: scipy sums every output from +0, a ±0 term leaves a nonzero
    partial sum unchanged, and +0 + (-0) is +0.
    """
    keep = data != 0
    kept = np.zeros(len(keep) + 1, dtype=index_dtype(len(keep)))
    np.cumsum(keep, dtype=kept.dtype, out=kept[1:])
    return sp.csr_matrix((data[keep], indices[keep], kept[indptr]), shape=shape)


def m_product(x, y: Tensor3, tf: Transform | None) -> Tensor3:
    """Tensor product under an invertible mode-3 transform, or under the
    identity without its matrices if ``tf`` is None.

    Computes ((x mode3 M) facewise (y mode3 M)) mode3 M^-1. A ``Tensor3``
    ``x`` goes through its ``DenseOperator``, which reduces to the plain
    face-wise product under the identity. A ``SliceSparse3`` ``x`` goes
    through its ``FacewiseOperator`` under the identity; under a mixing
    transform its values are scattered onto a (T, union nnz) stack, M mixes
    the stack, and its slices, the diagonal blocks of one CSR matrix over
    the union support, multiply the matching slices of y M.
    """
    if isinstance(x, Tensor3):
        op = DenseOperator(x.data, tf)
        op.check(x.data, y.data)
        return Tensor3(op.apply(y.data)[0])
    if not isinstance(x, SliceSparse3):
        raise ShapeError(f"unsupported left operand type {type(x).__name__}")
    pattern, values = SlicePattern.from_sparse(x), x.matrix.data
    if tf is not None and tf.size != pattern.t_slots:
        raise ShapeError(f"transform size {tf.size} does not match {pattern.t_slots} slices")
    if y.data.shape[:2] != (pattern.t_slots, pattern.n_cols):
        raise ShapeError(f"node tensor shape {y.data.shape} does not match pattern {pattern.t_slots}x{pattern.n_cols}")
    if tf is None or tf.is_identity:
        return Tensor3(FacewiseOperator(pattern, values).apply(y.data)[0])
    t_slots, d1, d2 = pattern.t_slots, pattern.n_rows, pattern.n_cols
    u_indptr, u_indices, flat_to_union = pattern.union
    width = len(u_indices)
    p_hat = np.zeros((t_slots, width))
    p_hat[np.repeat(np.arange(t_slots), np.diff(pattern.offsets)), flat_to_union] = values
    # slice t's entry (i, j) at (t*d1 + i, t*d2 + j): the block product
    # sums each output in the order slice t's own product does
    slot = np.arange(t_slots)[:, None]
    cols = (u_indices + slot * d2).ravel()
    indptr = np.append((u_indptr[:-1] + slot * width).ravel(), t_slots * width)
    block = sp.csr_matrix((_apply_mode3(p_hat, tf.m).ravel(), cols, indptr), shape=(t_slots * d1, t_slots * d2))
    prod = block @ _apply_mode3(y.data, tf.m).reshape(t_slots * d2, -1)
    return Tensor3(_apply_mode3(prod.reshape(t_slots, d1, -1), tf.minv))


def sparse_matpower_sum(a: SliceSparse3, k_hops: int) -> SliceSparse3:
    """Per-slice sum of the first ``k_hops`` matrix powers of ``a``.

    On a 0/1 adjacency stack the result counts walks of length 1..k_hops,
    so entries are exact nonnegative integers.
    """
    if k_hops < 1:
        raise ParameterError(f"k_hops must be >= 1, got {k_hops}")
    d1, d2, t_slots = a.dims
    if d1 != d2:
        raise ShapeError(f"slices must be square, got {d1}x{d2}")
    # the slices as the diagonal blocks of one (T*d1, T*d1) matrix, slot t's
    # columns moved by t*d1, whose products and sums are those of the
    # slices, entry for entry
    m = a.matrix
    shift = _slot_shift(a.offsets, d1, index_dtype(m.nnz, t_slots * d1))
    block = acc = cur = sp.csr_matrix((m.data, m.indices + shift, m.indptr), shape=(t_slots * d1, t_slots * d1))
    for _ in range(k_hops - 1):
        cur = cur @ block
        # canonical terms make a canonical sum, at less cost than unsorted ones
        acc = acc + cur.sorted_indices()
    # back to the stacked (T*d1, d1) form: slot t's columns, in [t*d1,
    # (t+1)*d1), less t*d1
    return SliceSparse3(sp.csr_matrix((acc.data, acc.indices % d1, acc.indptr), shape=m.shape), t_slots)


def index_dtype(*bounds: int) -> type:
    """int32 if every bound, the largest value or length an index array
    holds, fits it, else int64, as scipy narrows its own indices. Keys built
    from indices, such as t*N*N + i*N + j, stay int64."""
    return np.int32 if max(bounds, default=0) <= np.iinfo(np.int32).max else np.int64


def _slot_shift(offsets: np.ndarray, d2: int, dtype) -> np.ndarray:
    """t*d2 for every entry of slot t of a stack whose slot entries
    ``offsets`` delimits: the column shift into diagonal block t of a
    block-diagonal matrix of (·, d2) slices."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=dtype) * int(d2), np.diff(offsets))


# entries per SDDMM block, so that both gathered (block, F) float64 operands
# stay in a core's L2 cache (256 KiB each at F = 32). With 2 MiB of L2 per
# core, one SDDMM over an L-shape pattern (73 slices) took 0.27 s at 1024,
# 0.30 s at 4096 and 0.39 s unblocked; over an M-shape union (32 slices)
# 0.38, 0.46 and 1.10 s
SDDMM_BLOCK = 1024


def _sddmm(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """Sampled dense-dense product into ``out``: ``out[e] = a[rows[e]] · b[cols[e]]``,
    one block of ``SDDMM_BLOCK`` entries at a time."""
    for lo in range(0, len(rows), SDDMM_BLOCK):
        hi = lo + SDDMM_BLOCK
        np.einsum("ef,ef->e", a.take(rows[lo:hi], axis=0), b.take(cols[lo:hi], axis=0), out=out[lo:hi])


class _PerSlot:
    """``per_slot[t]`` is ``build(stack, t)``, built on access, for a
    ``SlicePattern`` or ``SliceSparse3`` stack."""

    def __init__(self, stack, build):
        self.stack, self.build = stack, build

    def __len__(self) -> int:
        return self.stack.t_slots

    def __getitem__(self, t: int):
        return self.build(self.stack, range(self.stack.t_slots)[t])


class SlicePattern:
    """Frozen sparsity structure for a stack of T sparse (d1, d2) slices,
    held as the CSR structure of the (T*d1, d2) matrix that stacks them, row
    t*d1 + i being row i of slice t: ``row_splits`` is its indptr and
    ``cols`` its column indices, sorted within a row, both at the width
    ``index_dtype`` gives.

    Values for the pattern live in flat float arrays in the same order, so
    ``row_splits`` delimits every (slice, row) segment, and the entries of
    slice t are ``[offsets[t], offsets[t+1])``, ``offsets`` being the view
    ``row_splits[::d1]``.
    """

    def __init__(self, row_splits, cols, n_rows: int, n_cols: int):
        self.n_rows, self.n_cols = int(n_rows), int(n_cols)
        index = index_dtype(len(cols), self.n_cols)
        self.row_splits = np.asarray(row_splits).astype(index, copy=False)
        self.cols = np.asarray(cols).astype(index, copy=False)
        if self.n_rows < 1 or self.row_splits.ndim != 1 or (len(self.row_splits) - 1) % self.n_rows or self.row_splits[-1] != len(self.cols):
            raise ShapeError(f"row splits of length {len(self.row_splits)} and {len(self.cols)} columns are not a stack of {self.n_rows}-row slices")
        self.t_slots = (len(self.row_splits) - 1) // self.n_rows
        self.offsets = self.row_splits[:: self.n_rows]
        self.nnz = len(self.cols)
        self._union: tuple | None = None

    @classmethod
    def from_sparse(cls, x: SliceSparse3) -> "SlicePattern":
        return cls(x.matrix.indptr, x.matrix.indices, *x.shape2d)

    @classmethod
    def with_diagonal(cls, x: SliceSparse3) -> "SlicePattern":
        """Pattern of x with the full diagonal added to every slice: the
        structure of the stacked slices plus a stacked identity."""
        d1, d2, t_slots = x.dims
        if d1 != d2:
            raise ShapeError("diagonal augmentation needs square slices")
        m = x.matrix
        # the structure alone, on unit values of its own: a value of x could
        # cancel the diagonal's, and x's arrays are not written
        b = sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
        eye = sp.csr_matrix((np.ones(t_slots * d1), np.tile(np.arange(d1), t_slots), np.arange(t_slots * d1 + 1)), shape=b.shape)
        aug = b + eye
        return cls(aug.indptr, aug.indices, d1, d2)

    # Slot t's arrays in the per-slot CSR form, built on access from the
    # stacked ones and never stored (``indices[t]`` is a view of ``cols``);
    # only perfbench/checks.py and the test oracles read them.
    indices = property(lambda self: _PerSlot(self, lambda p, t: p.cols[p.offsets[t] : p.offsets[t + 1]]))
    indptrs = property(lambda self: _PerSlot(self, lambda p, t: p.row_splits[t * p.n_rows : (t + 1) * p.n_rows + 1] - p.offsets[t]))
    rows = property(lambda self: _PerSlot(self, lambda p, t: np.repeat(np.arange(p.n_rows), np.diff(p.indptrs[t]))))

    @property
    def union(self):
        """Union-of-slices structure: (indptr, indices, flat-to-union map).

        The map sends flat entry e of slice t to the union column position
        shared by all slices, enabling tube-wise transforms without a full
        densification.
        """
        if self._union is None:
            # each entry's key i*d2 + j, i its row within its slice
            keys = np.repeat(np.tile(np.arange(self.n_rows) * self.n_cols, self.t_slots), np.diff(self.row_splits))
            keys += self.cols
            # sorted distinct keys are the union entries in row-major CSR order
            u_keys, flat_to_union = np.unique(keys, return_inverse=True)
            counts = np.bincount(u_keys // self.n_cols, minlength=self.n_rows)
            u_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._union = (u_indptr, u_keys % self.n_cols, flat_to_union.astype(np.int64, copy=False))
        return self._union


class SparseOperator:
    """An M-product operator whose left operand is the flat values of the
    pattern's ``slots``, every slot unless windowed, times (len(slots), d2,
    F) arrays, or (d2, F) ones if ``node_axes`` is 2."""

    node_axes = 3

    def __init__(self, pattern: SlicePattern):
        self.pattern = pattern
        self.slots = range(pattern.t_slots)

    def check(self, values: np.ndarray, y: np.ndarray) -> None:
        """Raise ``ShapeError`` unless ``values`` fit the slots' pattern
        entries and ``y`` is an array it can multiply."""
        pattern, slots = self.pattern, self.slots
        nnz = int(pattern.offsets[slots.stop] - pattern.offsets[slots.start])
        if values.shape != (nnz,):
            raise ShapeError(f"values shape {values.shape} does not match pattern nnz {nnz}")
        lead = (len(slots), pattern.n_cols)[3 - self.node_axes :]
        if y.ndim != self.node_axes or y.shape[:-1] != lead:
            raise ShapeError(f"node tensor shape {y.shape} does not match pattern {'x'.join(map(str, lead))}")


class FacewiseOperator(SparseOperator):
    """The sparse M-product of flat values over a pattern under the identity:
    one block-diagonal CSR matrix of the live entries, slot t's entry (i, j)
    at (t*d1 + i, t*d2 + j), times y stacked as (T*d2, F) rows. A block
    product sums each output in the order the slice's product does, so
    the two agree bit for bit.

    The value gradient is computed on the live entries and is +0 at the
    others. Every entry is live, since at a zero value the gradient is g·y,
    not 0; built with ``live_only``, as the model builds it from softmax
    weights, only the entries with a nonzero value are, and the matrix
    leaves out the others (``nonzero_csr``), whose products are +0.

    Slot t's product reads slice t alone, so ``window`` gives the operator
    of a slot range, whose products and gradients are those slots' of the
    whole operator, bit for bit."""

    def __init__(self, pattern: SlicePattern, values: np.ndarray, live_only: bool = False):
        super().__init__(pattern)
        t_slots, d1, d2 = pattern.t_slots, pattern.n_rows, pattern.n_cols
        cols = _slot_shift(pattern.offsets, d2, index_dtype(pattern.nnz, t_slots * max(d1, d2)))
        cols += pattern.cols
        shape = (t_slots * d1, t_slots * d2)
        if live_only:
            self.matrix, self.live = nonzero_csr(values, cols, pattern.row_splits, shape), values != 0
        else:
            self.matrix, self.live = sp.csr_matrix((values, cols, pattern.row_splits), shape=shape), np.ones(pattern.nnz, dtype=bool)

    def window(self, start: int, stop: int) -> "FacewiseOperator":
        """The operator of slots [start, stop) alone, on their run of the
        flat values and (stop - start, d2, F) arrays: their diagonal blocks
        of this operator's matrix, and its live mask."""
        if not self.slots.start <= start < stop <= self.slots.stop:
            raise ParameterError(f"slot window [{start}, {stop}) is not inside [{self.slots.start}, {self.slots.stop})")
        d1, d2, first, last = self.pattern.n_rows, self.pattern.n_cols, start - self.slots.start, stop - self.slots.start
        sub = copy.copy(self)
        sub.slots = range(start, stop)
        sub.matrix = self.matrix[first * d1 : last * d1, first * d2 : last * d2]
        return sub

    def _operands(self, y: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
        """The matrix and the (rows, F) operand its product reads. For a y
        broadcast over the slots, as the identity's first layer reads the
        embedding, that is the same entries at their local columns, a
        (len(slots)*d1, d2) matrix, times y's one (d2, F) slice: the same
        terms in the same order, with no (len(slots)*d2, F) copy of y."""
        m, d2 = self.matrix, self.pattern.n_cols
        if y.strides[0] == 0:
            return sp.csr_matrix((m.data, m.indices % d2, m.indptr), shape=(m.shape[0], d2)), y[0]
        return m, y.reshape(-1, y.shape[2])

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The product with a dense (len(slots), d2, F) array, and y for
        ``grads``."""
        m, rows = self._operands(y)
        return (m @ rows).reshape(len(self.slots), self.pattern.n_rows, y.shape[2]), y

    def grads(self, g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of the flat values and of y, given the product's:
        the sampled products of g and y at the matrix's entries, and the
        transposed matrix times g."""
        m, offsets = self.matrix, self.pattern.offsets
        lo, hi = offsets[self.slots.start], offsets[self.slots.stop]
        g2 = g.reshape(-1, g.shape[2])
        live_vals = np.empty(m.nnz)
        read, rows = self._operands(y)
        _sddmm(g2, np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), rows, read.indices, live_vals)
        dvals = np.zeros(hi - lo)
        dvals[self.live[lo:hi]] = live_vals
        # a fresh C-order array even for a broadcast y, whose empty_like
        # would put the slots innermost and change how its consumers sum it
        return dvals, (m.T @ g2).reshape(y.shape)


class SlotSumOperator(SparseOperator):
    """P-bar = sum_t P_t of nonnegative flat values, such as softmax
    weights, summed in slot order into one CSR matrix on the union support,
    times (d2, F) rows: the DCT M-product with a slot-constant right operand
    (see the module docstring). Each flat entry gets its tube's value
    gradient, which is computed on the live tubes, those holding a nonzero
    value, and is +0 at the others. A sum of nonnegative terms is nonzero
    exactly when one of them is, so the live tubes are P-bar's entries."""

    node_axes = 2

    def __init__(self, pattern: SlicePattern, values: np.ndarray):
        super().__init__(pattern)
        u_indptr, u_indices, flat_to_union = pattern.union
        sums = np.bincount(flat_to_union, weights=values, minlength=len(u_indices))
        self.live = sums != 0
        self.matrix = nonzero_csr(sums, u_indices, u_indptr, (pattern.n_rows, pattern.n_cols))
        # the row of each of P-bar's entries, which its SDDMM reads
        self.rows = np.repeat(np.arange(pattern.n_rows), np.diff(self.matrix.indptr))

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.matrix @ y, y

    def grads(self, g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The value gradient, the sampled products at P-bar's entries sent
        to their tubes' flat entries, and P-bar^T g."""
        m = self.matrix
        d_sums, live_sums = np.zeros(len(self.live)), np.empty(m.nnz)
        _sddmm(g, self.rows, y, m.indices, live_sums)
        d_sums[self.live] = live_sums
        return d_sums[self.pattern.union[2]], m.T @ g


class SlotMeanOperator:
    """(d1, k) rows ``a`` times the slot mean of (T, k, d2) stacks: the DCT
    M-product of a slot-constant left operand (see the module docstring)."""

    def __init__(self, a: np.ndarray, t_slots: int):
        self.a, self.t_slots = a, t_slots

    def check(self, a: np.ndarray, y: np.ndarray) -> None:
        if a.shape != self.a.shape or y.ndim != 3 or y.shape[:2] != (self.t_slots, a.shape[1]):
            raise ShapeError(f"operands {a.shape} and {y.shape} do not fit rows {self.a.shape} over {self.t_slots} slots")

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y_mean = y.mean(axis=0)
        return self.a @ y_mean, y_mean

    def grads(self, g: np.ndarray, y_mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The matmul rule on the mean, whose gradient each slice of y gets / T."""
        dy = np.broadcast_to((self.a.T @ g) / self.t_slots, (self.t_slots,) + y_mean.shape)
        return g @ y_mean.T, dy.copy()


class DenseOperator:
    """The M-product of a dense (T, d1, k) stack ``a`` with (T, k, d2)
    arrays: ((a mode3 M) facewise (y mode3 M)) mode3 M^-1. It holds a mode3
    M, or under the identity, which ``tf`` None stands for, ``a`` itself,
    whose product is the plain stacked matmul."""

    def __init__(self, a: np.ndarray, tf: Transform | None = None):
        if a.ndim != 3 or (tf is not None and tf.size != a.shape[0]):
            raise ShapeError(f"dense operand shape {a.shape} is not a stack of {tf.size if tf else 'T'} slices, the transform size")
        self.shape = a.shape
        self.tf = None if tf is None or tf.is_identity else tf
        self.a_hat = a if self.tf is None else _apply_mode3(a, tf.m)

    def check(self, a: np.ndarray, y: np.ndarray) -> None:
        """Raise ``ShapeError`` unless ``a`` has the operand's shape and
        ``y`` is a (T, k, d2) array it can multiply."""
        if a.shape != self.shape:
            raise ShapeError(f"dense operand shape {a.shape} does not match the operator's {self.shape}")
        if y.ndim != 3 or y.shape[:2] != (self.shape[0], self.shape[2]):
            raise ShapeError(f"right operand shape {y.shape} does not match {self.shape[0]}x{self.shape[2]}")

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The product with y, and y mode3 M for ``grads``."""
        if self.tf is None:
            return self.a_hat @ y, y
        y_hat = _apply_mode3(y, self.tf.m)
        return _apply_mode3(self.a_hat @ y_hat, self.tf.minv), y_hat

    def grads(self, g: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of a and y, given the product's: the matmul rule
        on g mode3 M^-T, then M^T on both."""
        tf = self.tf
        g_hat = g if tf is None else _apply_mode3(g, tf.minv.T)
        da_hat, dy_hat = g_hat @ np.swapaxes(y_hat, -1, -2), np.swapaxes(self.a_hat, -1, -2) @ g_hat
        if tf is None:
            return da_hat, dy_hat
        del g_hat
        return _apply_mode3(da_hat, tf.m.T), _apply_mode3(dy_hat, tf.m.T)

