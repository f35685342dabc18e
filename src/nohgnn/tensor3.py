"""Third-order tensor algebra: dense tensors, per-slice sparse stacks, and
the invertible-transform tensor product (M-product).

No other module applies a transform. The model's products run through
operators of their left operand, each with ``check``, ``apply`` and
``grads``, which it records with ``Tape.m_product``: ``FacewiseOperator``
(flat values over a ``SlicePattern`` as per-slice CSR matrices, the
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
    """Stack of per-slice CSR matrices sharing one 2-d shape.

    Slices are canonicalized on construction: duplicate entries summed,
    column indices sorted within each row, explicit zeros pruned.
    """

    __slots__ = ("slices", "shape2d")

    def __init__(self, slices, shape: tuple[int, int] | None = None):
        mats = []
        for s in slices:
            m = sp.csr_matrix(s, dtype=np.float64)
            m.sum_duplicates()
            m.sort_indices()
            m.eliminate_zeros()
            if not np.all(np.isfinite(m.data)):
                raise NumericError("SliceSparse3 values must be finite")
            mats.append(m)
        shapes = {m.shape for m in mats}
        if shape is not None:
            shapes.add((int(shape[0]), int(shape[1])))
        if len(shapes) != 1:
            raise ShapeError(f"slices must share one shape, got {sorted(shapes)}")
        self.shape2d = shapes.pop()
        self.slices = mats

    @classmethod
    def from_dense(cls, x) -> "SliceSparse3":
        arr = x.data if isinstance(x, Tensor3) else np.asarray(x, dtype=np.float64)
        return cls([sp.csr_matrix(arr[t]) for t in range(arr.shape[0])], shape=arr.shape[1:])

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.shape2d[0], self.shape2d[1], len(self.slices))

    @property
    def nnz(self) -> int:
        return sum(m.nnz for m in self.slices)

    def densify(self) -> Tensor3:
        return Tensor3(np.stack([m.toarray() for m in self.slices]))

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
    M-product under the identity, through the operator of ``x`` without the
    identity's T x T matrices."""
    if isinstance(x, Tensor3):
        a, op = x.data, DenseOperator(x.data)
    elif isinstance(x, SliceSparse3):
        a = np.concatenate([np.zeros(0)] + [s.data for s in x.slices])
        op = FacewiseOperator(SlicePattern.from_sparse(x), a)
    else:
        raise ShapeError(f"unsupported left operand type {type(x).__name__}")
    op.check(a, y.data)
    return Tensor3(op.apply(y.data)[0])


def nonzero_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR matrix of the entries of (data, indices, indptr) whose value is
    not exactly 0.

    Its products with a finite dense operand equal those of the full matrix
    bit for bit: scipy sums every output from +0, a ±0 term leaves a nonzero
    partial sum unchanged, and +0 + (-0) is +0.
    """
    keep = data != 0
    kept = np.concatenate(([0], np.cumsum(keep)))
    return sp.csr_matrix((data[keep], indices[keep], kept[indptr]), shape=shape)


def m_product(x, y: Tensor3, tf: Transform) -> Tensor3:
    """Tensor product under an invertible mode-3 transform.

    Computes ((x mode3 M) facewise (y mode3 M)) mode3 M^-1. A ``Tensor3``
    ``x`` goes through its ``DenseOperator``, which reduces to the plain
    face-wise product under the identity. A ``SliceSparse3`` ``x`` goes
    through its ``FacewiseOperator`` under the identity; under a mixing
    transform its values are scattered onto a (T, union nnz) stack, M mixes
    the stack, and each of its slices multiplies the matching slice of y M
    as a CSR matrix over the union support.
    """
    if isinstance(x, Tensor3):
        op = DenseOperator(x.data, tf)
        op.check(x.data, y.data)
        return Tensor3(op.apply(y.data)[0])
    if not isinstance(x, SliceSparse3):
        raise ShapeError(f"unsupported left operand type {type(x).__name__}")
    pattern = SlicePattern.from_sparse(x)
    values = np.concatenate([s.data for s in x.slices])
    if tf.size != pattern.t_slots:
        raise ShapeError(f"transform size {tf.size} does not match {pattern.t_slots} slices")
    if y.data.shape[:2] != (pattern.t_slots, pattern.n_cols):
        raise ShapeError(f"node tensor shape {y.data.shape} does not match pattern {pattern.t_slots}x{pattern.n_cols}")
    if tf.is_identity:
        return Tensor3(FacewiseOperator(pattern, values).apply(y.data)[0])
    u_indptr, u_indices, flat_to_union = pattern.union
    p_hat = np.zeros((pattern.t_slots, len(u_indices)))
    p_hat[np.repeat(np.arange(pattern.t_slots), np.diff(pattern.offsets)), flat_to_union] = values
    p_hat = _apply_mode3(p_hat, tf.m)
    y_hat = _apply_mode3(y.data, tf.m)
    prod = np.empty((pattern.t_slots, pattern.n_rows, y.data.shape[2]))
    for t in range(pattern.t_slots):
        prod[t] = sp.csr_matrix((p_hat[t], u_indices, u_indptr), shape=(pattern.n_rows, pattern.n_cols)) @ y_hat[t]
    return Tensor3(_apply_mode3(prod, tf.minv))


def sparse_matpower_sum(a: SliceSparse3, k_hops: int) -> SliceSparse3:
    """Per-slice sum of the first ``k_hops`` matrix powers of ``a``.

    On a 0/1 adjacency stack the result counts walks of length 1..k_hops,
    so entries are exact nonnegative integers.
    """
    if k_hops < 1:
        raise ParameterError(f"k_hops must be >= 1, got {k_hops}")
    d1, d2, _ = a.dims
    if d1 != d2:
        raise ShapeError(f"slices must be square, got {d1}x{d2}")
    block = _block_diagonal(a)
    acc = cur = block
    for _ in range(k_hops - 1):
        cur = cur @ block
        # canonical terms make a canonical sum, at less cost than unsorted ones
        acc = acc + cur.sorted_indices()
    # slot t is rows and columns [t*d1, (t+1)*d1) of the block matrix
    slices = []
    for t in range(len(a.slices)):
        p = acc.indptr[t * d1 : (t + 1) * d1 + 1]
        slices.append(sp.csr_matrix((acc.data[p[0] : p[-1]], acc.indices[p[0] : p[-1]] - t * d1, p - p[0]), shape=a.shape2d))
    return SliceSparse3(slices, shape=a.shape2d)


def _block_diagonal(x: SliceSparse3) -> sp.csr_matrix:
    """The slices of ``x`` as the diagonal blocks of one (T*d1, T*d2) CSR
    matrix; its products and sums are those of the slices, entry for entry."""
    d1, d2, t_slots = x.dims
    offsets = np.cumsum([0] + [s.nnz for s in x.slices])
    # int32 where it fits, as scipy would narrow it to anyway
    index = np.int32 if max(offsets[-1], t_slots * max(d1, d2)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([np.zeros(1, index)] + [s.indptr[1:] + index(off) for s, off in zip(x.slices, offsets)])
    indices = np.concatenate([np.zeros(0, index)] + [s.indices + index(t * d2) for t, s in enumerate(x.slices)])
    data = np.concatenate([np.zeros(0)] + [s.data for s in x.slices])
    return sp.csr_matrix((data, indices, indptr), shape=(t_slots * d1, t_slots * d2))


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


class SlicePattern:
    """Frozen sparsity structure for a stack of T sparse slices.

    Values for the pattern live in flat float arrays: entries of slice t
    occupy ``[offsets[t], offsets[t+1])`` in CSR order (row-major, columns
    sorted within a row). ``row_splits`` delimits every (slice, row)
    segment of the flat layout, in slice-major row-minor order.
    """

    def __init__(self, indptrs, indices, n_rows: int, n_cols: int):
        self.indptrs = [np.asarray(p, dtype=np.int64) for p in indptrs]
        self.indices = [np.asarray(ix, dtype=np.int64) for ix in indices]
        if len(self.indptrs) != len(self.indices):
            raise ShapeError("indptrs and indices must pair up per slice")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.t_slots = len(self.indptrs)
        sizes = [len(ix) for ix in self.indices]
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.nnz = int(self.offsets[-1])
        self.rows = [
            np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(p))
            for p in self.indptrs
        ]
        starts = [self.indptrs[t][:-1] + self.offsets[t] for t in range(self.t_slots)]
        self.row_splits = np.concatenate(starts + [[self.nnz]]).astype(np.int64)
        self._union: tuple | None = None

    @classmethod
    def from_sparse(cls, x: SliceSparse3) -> "SlicePattern":
        return cls(
            [s.indptr.copy() for s in x.slices],
            [s.indices.copy() for s in x.slices],
            x.shape2d[0],
            x.shape2d[1],
        )

    @classmethod
    def with_diagonal(cls, x: SliceSparse3) -> "SlicePattern":
        """Pattern of x with the full diagonal added to every slice."""
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
        return cls(indptrs, indices, d1, d2)

    @property
    def union(self):
        """Union-of-slices structure: (indptr, indices, flat-to-union map).

        The map sends flat entry e of slice t to the union column position
        shared by all slices, enabling tube-wise transforms without a full
        densification.
        """
        if self._union is None:
            keys = np.concatenate(
                [self.rows[t] * self.n_cols + self.indices[t] for t in range(self.t_slots)]
            )
            # sorted distinct keys are the union entries in row-major CSR order
            u_keys, flat_to_union = np.unique(keys, return_inverse=True)
            counts = np.bincount(u_keys // self.n_cols, minlength=self.n_rows)
            u_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._union = (u_indptr, u_keys % self.n_cols, flat_to_union.astype(np.int64, copy=False))
        return self._union


class SparseOperator:
    """An M-product operator whose left operand is flat values over a
    pattern, times (T, d2, F) arrays, or (d2, F) ones if ``node_axes`` is 2."""

    node_axes = 3

    def check(self, values: np.ndarray, y: np.ndarray) -> None:
        """Raise ``ShapeError`` unless ``values`` fit the pattern and ``y``
        is an array it can multiply."""
        pattern = self.pattern
        if values.shape != (pattern.nnz,):
            raise ShapeError(f"values shape {values.shape} does not match pattern nnz {pattern.nnz}")
        lead = (pattern.t_slots, pattern.n_cols)[3 - self.node_axes :]
        if y.ndim != self.node_axes or y.shape[:-1] != lead:
            raise ShapeError(f"node tensor shape {y.shape} does not match pattern {'x'.join(map(str, lead))}")


class FacewiseOperator(SparseOperator):
    """The sparse M-product of flat values over a pattern under the identity:
    slice t of the stack, a CSR matrix without the values' exact zeros
    (``nonzero_csr``), times slice t of y.

    The value gradient is computed on the live entries and is +0 at the
    others. Every entry is live, since at a zero value the gradient is g·y,
    not 0; built with ``live_only``, as the model builds it from softmax
    weights, only the entries with a nonzero value are."""

    def __init__(self, pattern: SlicePattern, values: np.ndarray, live_only: bool = False):
        self.pattern = pattern
        shape = (pattern.n_rows, pattern.n_cols)
        self.slices = [
            nonzero_csr(values[pattern.offsets[t] : pattern.offsets[t + 1]], pattern.indices[t], pattern.indptrs[t], shape)
            for t in range(pattern.t_slots)
        ]
        self.live = values != 0 if live_only else np.ones(pattern.nnz, dtype=bool)

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The product with a dense (T, d2, F) array, and y for ``grads``."""
        out = np.empty((len(self.slices), self.pattern.n_rows, y.shape[2]))
        for t, s in enumerate(self.slices):
            out[t] = s @ y[t]
        return out, y

    def grads(self, g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of the flat values and of y, given the product's."""
        pattern = self.pattern
        dvals = np.zeros(pattern.nnz)
        # C order even for a broadcast y, whose empty_like would put the
        # slots innermost and change how the gradient's consumers sum it
        dy = np.empty(y.shape)
        for t, s in enumerate(self.slices):
            lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
            keep = self.live[lo:hi]
            live_vals = np.empty(np.count_nonzero(keep))
            _sddmm(g[t], pattern.rows[t][keep], y[t], pattern.indices[t][keep], live_vals)
            dvals[lo:hi][keep] = live_vals
            dy[t] = s.T @ g[t]
        return dvals, dy


class SlotSumOperator(SparseOperator):
    """P-bar = sum_t P_t of flat values, summed in slot order into one CSR
    matrix on the union support, times (d2, F) rows: the DCT M-product with
    a slot-constant right operand (see the module docstring). Each flat
    entry gets its tube's value gradient, which is computed on the live
    tubes, those holding a nonzero value, and is +0 at the others."""

    node_axes = 2

    def __init__(self, pattern: SlicePattern, values: np.ndarray):
        self.pattern = pattern
        u_indptr, u_indices, flat_to_union = pattern.union
        self.live = np.zeros(len(u_indices), dtype=bool)
        self.live[flat_to_union[values != 0]] = True
        sums = np.bincount(flat_to_union, weights=values, minlength=len(u_indices))
        self.matrix = nonzero_csr(sums, u_indices, u_indptr, (pattern.n_rows, pattern.n_cols))

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.matrix @ y, y

    def grads(self, g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The value gradient, the sampled products on the live tubes sent to
        their flat entries, and P-bar^T g."""
        u_indptr, u_indices, flat_to_union = self.pattern.union
        live = np.flatnonzero(self.live)
        rows = np.repeat(np.arange(self.pattern.n_rows), np.diff(u_indptr))
        d_sums, live_sums = np.zeros(len(u_indices)), np.empty(len(live))
        _sddmm(g, rows[live], y, u_indices[live], live_sums)
        d_sums[live] = live_sums
        return d_sums[flat_to_union], self.matrix.T @ g


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

