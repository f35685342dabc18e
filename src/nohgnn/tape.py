"""Reverse-mode automatic differentiation over a fixed primitive set.

The op set is closed on purpose: every primitive the model needs (slice
matrix multiplies, the mode-3 product, the sparse M-product, segment
softmax, activations, gathers, reductions, the BCE expression) has its own
backward rule here, so each rule can be tested against central differences
in isolation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from nohgnn import tensor3
from nohgnn.errors import NumericError, ParameterError, ShapeError
from nohgnn.tensor3 import SlicePattern, Transform

PROB_FLOOR = 1e-12
FD_DENOM_FLOOR = 1e-8
# entries per SDDMM block, so that both gathered (block, F) float64 operands
# stay in a core's L2 cache (256 KiB each at F = 32). With 2 MiB of L2 per
# core, one SDDMM over an L-shape pattern (73 slices) took 0.27 s at 1024,
# 0.30 s at 4096 and 0.39 s unblocked; over an M-shape union (32 slices)
# 0.38, 0.46 and 1.10 s
SDDMM_BLOCK = 1024


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _relu_grad(x: np.ndarray) -> np.ndarray:
    """Subgradient mask for ReLU; module-level so tests can swap it out."""
    return (x > 0).astype(np.float64)


def _sddmm(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """Sampled dense-dense product into ``out``: ``out[e] = a[rows[e]] · b[cols[e]]``,
    one block of ``SDDMM_BLOCK`` entries at a time."""
    for lo in range(0, len(rows), SDDMM_BLOCK):
        hi = lo + SDDMM_BLOCK
        np.einsum("ef,ef->e", a[rows[lo:hi]], b[cols[lo:hi]], out=out[lo:hi])


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Node:
    """A value recorded on a tape, with a gradient buffer filled by backward."""

    __slots__ = ("value", "grad", "requires_grad")

    def __init__(self, value: np.ndarray, requires_grad: bool):
        self.value = value
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.value.shape


class Tape:
    """Wengert list: entries are recorded in execution order and replayed
    in reverse by backward().  Every operand of an entry was produced by an
    earlier entry or is a leaf, so one reverse sweep suffices.
    """

    def __init__(self):
        self._entries: list[tuple[Node, tuple[Node, ...], Callable]] = []

    def leaf(self, value, requires_grad: bool = False) -> Node:
        return Node(_as_f64(value), requires_grad)

    def constant(self, value) -> Node:
        return Node(_as_f64(value), False)

    def _record(self, value: np.ndarray, parents: Sequence[Node], backward: Callable) -> Node:
        needs = any(p.requires_grad for p in parents)
        out = Node(value, needs)
        if needs:
            self._entries.append((out, tuple(parents), backward))
        return out

    # ----- elementwise and linear primitives -----

    def add(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        if va.shape != vb.shape and vb.shape != va.shape[va.ndim - vb.ndim :]:
            raise ShapeError(f"add operands {va.shape} and {vb.shape} do not align")
        lead = tuple(range(va.ndim - vb.ndim))

        def backward(g):
            gb = g.sum(axis=lead) if lead else g
            return g, gb

        return self._record(va + vb, (a, b), backward)

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul operands {a.value.shape} and {b.value.shape} differ")

        def backward(g):
            return g * b.value, g * a.value

        return self._record(a.value * b.value, (a, b), backward)

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)

        def backward(g):
            return (g * c,)

        return self._record(a.value * c, (a,), backward)

    def matmul(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        if va.ndim == vb.ndim and va.ndim in (2, 3):
            def backward(g):
                return g @ np.swapaxes(vb, -1, -2), np.swapaxes(va, -1, -2) @ g

            return self._record(va @ vb, (a, b), backward)
        raise ShapeError(f"matmul expects matching 2-D or 3-D stacks, got {va.shape} @ {vb.shape}")

    def mode3(self, a: Node, m: np.ndarray) -> Node:
        m = _as_f64(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[1] != a.value.shape[0]:
            raise ShapeError(f"mode-3 matrix {m.shape} does not match leading dim {a.value.shape}")

        def backward(g):
            return (np.tensordot(m.T, g, axes=(1, 0)),)

        return self._record(np.tensordot(m, a.value, axes=(1, 0)), (a,), backward)

    def relu(self, a: Node) -> Node:
        def backward(g):
            return (g * _relu_grad(a.value),)

        return self._record(np.maximum(a.value, 0.0), (a,), backward)

    def sigmoid(self, a: Node) -> Node:
        s = _stable_sigmoid(a.value)

        def backward(g):
            return (g * s * (1.0 - s),)

        return self._record(s, (a,), backward)

    # ----- reductions -----

    def sum(self, a: Node) -> Node:
        shape = a.value.shape

        def backward(g):
            return (np.full(shape, float(g)),)

        return self._record(np.asarray(a.value.sum()), (a,), backward)

    def mean(self, a: Node) -> Node:
        shape = a.value.shape
        n = a.value.size

        def backward(g):
            return (np.full(shape, float(g) / n),)

        return self._record(np.asarray(a.value.mean()), (a,), backward)

    def sumsq(self, a: Node) -> Node:
        def backward(g):
            return (2.0 * float(g) * a.value,)

        return self._record(np.asarray((a.value * a.value).sum()), (a,), backward)

    # ----- shape plumbing -----

    def replicate(self, a: Node, count: int) -> Node:
        if count < 1:
            raise ParameterError(f"replicate count must be >= 1, got {count}")

        def backward(g):
            return (g.sum(axis=0),)

        value = np.broadcast_to(a.value, (count,) + a.value.shape).copy()
        return self._record(value, (a,), backward)

    def gather_rows(self, a: Node, index: np.ndarray) -> Node:
        """Rows ``a[index]`` of a matrix; an index may repeat or leave rows out.

        Backward multiplies the gradient by the (rows of a) x len(index)
        matrix of ones at (index[k], k), which sums repeated rows in the same
        order, and so to the same bits, as ``np.add.at``.
        """
        index = np.asarray(index, dtype=np.int64)
        if a.value.ndim != 2 or index.ndim != 1:
            raise ShapeError(f"gather_rows expects a matrix and a flat index, got {a.value.shape}, {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= a.value.shape[0]):
            raise ParameterError("gather_rows index out of range")
        n_rows = a.value.shape[0]

        def backward(g):
            indptr = np.concatenate(([0], np.cumsum(np.bincount(index, minlength=n_rows))))
            scatter = sp.csr_matrix(
                (np.ones(len(index)), np.argsort(index, kind="stable"), indptr), shape=(n_rows, len(index))
            )
            return (scatter @ g,)

        return self._record(a.value[index], (a,), backward)

    def concat(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
            raise ShapeError(f"concat expects matrices with equal rows, got {a.value.shape}, {b.value.shape}")
        split = a.value.shape[1]

        def backward(g):
            return g[:, :split], g[:, split:]

        return self._record(np.concatenate([a.value, b.value], axis=1), (a, b), backward)

    def reshape(self, a: Node, shape: tuple) -> Node:
        old = a.value.shape

        def backward(g):
            return (g.reshape(old),)

        return self._record(a.value.reshape(shape), (a,), backward)

    # ----- sparse-structured primitives -----

    def spmm(self, pattern: SlicePattern, values: Node, h: Node) -> Node:
        """Per-slice sparse @ dense with one flat value vector over the pattern."""
        if values.value.shape != (pattern.nnz,):
            raise ShapeError(f"values shape {values.value.shape} does not match pattern nnz {pattern.nnz}")
        if h.value.ndim != 3 or h.value.shape[0] != pattern.t_slots:
            raise ShapeError(f"node tensor shape {h.value.shape} does not match pattern slices")
        t_count = h.value.shape[0]
        out = np.empty((t_count, pattern.n_rows, h.value.shape[2]))
        for t in range(t_count):
            out[t] = pattern.csr(values.value, t) @ h.value[t]

        def backward(g):
            dvals = np.empty(pattern.nnz)
            dh = np.empty_like(h.value)
            for t in range(t_count):
                lo, hi = pattern.offsets[t], pattern.offsets[t + 1]
                _sddmm(g[t], pattern.rows[t], h.value[t], pattern.indices[t], dvals[lo:hi])
                dh[t] = pattern.csr(values.value, t).T @ g[t]
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

    def segment_softmax(self, scores: Node, splits: np.ndarray) -> Node:
        """Softmax within each contiguous segment of a flat score vector."""
        v = scores.value
        splits = np.asarray(splits, dtype=np.int64)
        if v.ndim != 1 or splits[0] != 0 or splits[-1] != v.shape[0]:
            raise ShapeError("segment boundaries do not cover the score vector")
        seg_len = np.diff(splits)
        if np.any(seg_len < 1):
            raise ParameterError("segment_softmax requires every segment non-empty")
        starts = splits[:-1]
        seg_max = np.maximum.reduceat(v, starts)
        shifted = v - np.repeat(seg_max, seg_len)
        e = np.exp(shifted)
        seg_sum = np.add.reduceat(e, starts)
        w = e / np.repeat(seg_sum, seg_len)

        def backward(g):
            gw = g * w
            seg_dot = np.add.reduceat(gw, starts)
            return (gw - w * np.repeat(seg_dot, seg_len),)

        return self._record(w, (scores,), backward)

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
        out, p_hat, h_hat = tensor3.sparse_m_product(pattern, values.value, h.value, tf)
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
            return dp[pattern.entry_slots, flat_to_union], dh

        return self._record(out, (values, h), backward)

    def csr_const_matmul(self, c: sp.csr_matrix, g_node: Node) -> Node:
        """Constant sparse matrix times a dense parameterized matrix."""
        if g_node.value.ndim != 2 or c.shape[1] != g_node.value.shape[0]:
            raise ShapeError(f"operands {c.shape} @ {g_node.value.shape} do not align")

        def backward(g):
            return (c.T @ g,)

        return self._record(c @ g_node.value, (g_node,), backward)

    # ----- loss -----

    def bce_mean(self, probs: Node, labels: np.ndarray) -> Node:
        """Mean binary cross-entropy with probabilities clamped away from 0/1."""
        y = _as_f64(labels)
        p_raw = probs.value
        if p_raw.shape != y.shape:
            raise ShapeError(f"probability shape {p_raw.shape} does not match labels {y.shape}")
        if p_raw.size == 0:
            raise ParameterError("bce_mean needs at least one labeled pair")
        p = np.clip(p_raw, PROB_FLOOR, 1.0 - PROB_FLOOR)
        inside = (p_raw >= PROB_FLOOR) & (p_raw <= 1.0 - PROB_FLOOR)
        n = y.size
        loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean()

        def backward(g):
            dp = np.where(inside, (p - y) / (p * (1.0 - p)), 0.0)
            return (float(g) / n * dp,)

        return self._record(np.asarray(loss), (probs,), backward)

    # ----- reverse sweep -----

    def backward(self, loss: Node) -> None:
        """Reverse sweep from a scalar loss, filling ``grad`` on every node
        that needs one.

        The first gradient a node receives becomes its ``grad``; later ones
        are added out of place, never with ``+=``, because rules may hand
        back their input gradient or a view of it (``add``, ``reshape``,
        ``concat``), which other nodes hold too.
        """
        if loss.value.ndim != 0:
            raise ParameterError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        if not np.isfinite(loss.value):
            raise NumericError("loss is not finite")
        for out, parents, _ in self._entries:
            out.grad = None
            for p in parents:
                p.grad = None
        loss.grad = np.ones(())
        for out, parents, backward_fn in reversed(self._entries):
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            for parent, grad in zip(parents, grads):
                if grad is None or not parent.requires_grad:
                    continue
                parent.grad = grad if parent.grad is None else parent.grad + grad


class ParamStore:
    """Named parameters with matching gradient buffers, iterated in
    lexicographic name order so optimizer updates are deterministic."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._values:
            raise ParameterError(f"duplicate parameter name {name!r}")
        arr = _as_f64(value).copy()
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self) -> list[str]:
        return sorted(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_value(self, name: str, value) -> None:
        arr = _as_f64(value)
        if arr.shape != self._values[name].shape:
            raise ShapeError(f"parameter {name!r} has shape {self._values[name].shape}, got {arr.shape}")
        self._values[name] = arr.copy()

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def clone(self) -> "ParamStore":
        other = ParamStore()
        for name in self.names():
            other.add(name, self._values[name])
            other._grads[name] = self._grads[name].copy()
        return other

    def leaves(self, tape: Tape) -> dict[str, Node]:
        return {name: tape.leaf(self._values[name], requires_grad=True) for name in self.names()}

    def constants(self, tape: Tape) -> dict[str, Node]:
        """Gradient-free leaf nodes, for evaluation passes."""
        return {name: tape.constant(self._values[name]) for name in self.names()}

    def harvest(self, leaf_map: dict[str, Node]) -> None:
        """Accumulate tape gradients into the store's buffers."""
        for name, node in leaf_map.items():
            if node.grad is not None:
                self._grads[name] += node.grad

    def sumsq(self) -> float:
        return float(sum(float((v * v).sum()) for v in self._values.values()))


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple) -> np.ndarray:
    """Glorot-uniform draw with the given fan counts."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def grad_check(
    build_loss: Callable[[Tape, dict[str, Node]], Node],
    params: ParamStore,
    eps: float = 1e-5,
) -> float:
    """Compare tape gradients with central differences for every parameter
    entry and return the worst relative error."""
    if eps <= 0:
        raise ParameterError(f"finite-difference step must be positive, got {eps}")

    def run(store: ParamStore) -> tuple[float, dict[str, np.ndarray]]:
        tape = Tape()
        leaves = store.leaves(tape)
        loss = build_loss(tape, leaves)
        if loss.value.ndim != 0:
            raise ParameterError("loss function must return a scalar node")
        if not np.isfinite(loss.value):
            raise NumericError("loss is not finite")
        tape.backward(loss)
        grads = {name: (node.grad if node.grad is not None else np.zeros_like(node.value)) for name, node in leaves.items()}
        return float(loss.value), grads

    _, analytic = run(params)
    probe = params.clone()
    worst = 0.0
    for name in params.names():
        base = params.value(name)
        flat = probe.value(name).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            plus, _ = run(probe)
            flat[idx] = orig - eps
            minus, _ = run(probe)
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * eps)
            exact = float(analytic[name].reshape(-1)[idx])
            denom = max(abs(numeric), abs(exact), FD_DENOM_FLOOR)
            worst = max(worst, abs(numeric - exact) / denom)
        if not np.array_equal(probe.value(name), base):
            raise NumericError(f"probe store for {name!r} was not restored")
    return worst
