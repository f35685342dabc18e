"""Reverse-mode automatic differentiation over a fixed primitive set.

The op set is closed on purpose: every primitive the model records (the
M-product, affine layers, the decoder's pair layer, segment softmax,
activations, the penalty, the BCE expression) has its own backward rule
here, so each rule can be tested against central differences in isolation.

The M-product is one op, ``m_product``, for a sparse or a dense left
operand: it records the operator ``tensor3`` builds for that operand, and
never applies a transform itself. ``sumsq`` takes every parameter at once.

A tape entry keeps its nodes' gradient cells and its backward rule, never
the nodes themselves: a value lives only while the caller holds its node or
a rule has captured the array, and each rule captures only what it reads.
``relu`` keeps its input's boolean mask; ``affine`` and ``pair_affine``
their weight, and their input (for ``pair_affine`` the rows some pair
reads, and the int index into them) until the weight gradient is computed;
``pair_dot`` its per-class
feature rows and the context's plan of the distinct class pairs, whose
scores it computes once each; ``sigmoid`` and ``segment_softmax`` their
outputs;
``m_product`` its operator (which holds its left operand, or that operand
times M) and its right operand as the operator transformed it.
``replicate`` records a broadcast view, not copies; ``inner`` the constant
it hands back as its operand's gradient.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from nohgnn import tensor3
from nohgnn.errors import NumericError, ParameterError, ShapeError
from nohgnn.tensor3 import DenseOperator, SlicePattern, SlotMeanOperator, SparseOperator

if TYPE_CHECKING:
    from nohgnn.structural import FeatureContext

PROB_FLOOR = 1e-12
FD_DENOM_FLOOR = 1e-8


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _relu_grad(mask: np.ndarray) -> np.ndarray:
    """Subgradient of ReLU from its input's positive mask, as the boolean
    mask itself, which a product casts to 0 and 1 without a full-size
    float copy; module-level so tests can swap it out."""
    return mask


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_DROPPED = np.empty(0)


class GradCell:
    """What a tape entry keeps of a node: the gradient buffer backward
    fills, whether the node needs one, and a weak reference to its value.

    ``value`` is the node's array while something else holds it, and an
    empty array once it is freed.
    """

    __slots__ = ("grad", "requires_grad", "_ref")

    def __init__(self, value: np.ndarray, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        try:
            self._ref = weakref.ref(value)
        except TypeError:
            # numpy scalars take no weak reference; they are a few bytes
            held = np.asarray(value)
            self._ref = lambda: held

    @property
    def value(self) -> np.ndarray:
        value = self._ref()
        return _DROPPED if value is None else value


class Node:
    """A value recorded on a tape, and its gradient cell: ``grad`` and
    ``requires_grad`` read the cell, which is all the tape holds."""

    __slots__ = ("value", "cell")

    def __init__(self, value: np.ndarray, requires_grad: bool):
        self.value = value
        self.cell = GradCell(value, requires_grad)

    @property
    def grad(self) -> np.ndarray | None:
        return self.cell.grad

    @grad.setter
    def grad(self, grad: np.ndarray | None) -> None:
        self.cell.grad = grad

    @property
    def requires_grad(self) -> bool:
        return self.cell.requires_grad

    @property
    def shape(self) -> tuple:
        return self.value.shape


def row_scatter(index: np.ndarray, n_rows: int) -> sp.csr_matrix:
    """The (n_rows, index.size) CSR matrix of ones at (index.flat[k], k).

    Times a matrix with one row per index entry, it sums the rows gathered
    from each of the n_rows rows in index order, and so to the same bits as
    ``np.add.at``. It is the transpose of the (index.size, n_rows) matrix
    with one entry per row, whose conversion to CSC is a counting sort that
    keeps each column's entries in index order.
    """
    flat = np.asarray(index, dtype=np.int64).ravel()
    picks = sp.csr_matrix((np.ones(flat.size), flat, np.arange(flat.size + 1)), shape=(flat.size, n_rows))
    return picks.tocsc().T


class Tape:
    """Wengert list: entries are recorded in execution order and consumed
    in reverse by backward().  Every operand of an entry was produced by an
    earlier entry or is a leaf, so one reverse sweep suffices, and the sweep
    frees each entry once its rule has run; a swept tape records nothing
    more and cannot be swept again.

    An entry is ``(out, parents, rule)`` over gradient cells, not nodes, so
    the tape holds no value itself: only the arrays the rules captured.
    """

    def __init__(self):
        self._entries: list[tuple[GradCell, tuple[GradCell, ...], Callable]] | None = []

    def leaf(self, value, requires_grad: bool = False) -> Node:
        return Node(_as_f64(value), requires_grad)

    def constant(self, value) -> Node:
        return Node(_as_f64(value), False)

    def _record(self, value: np.ndarray, parents: Sequence[Node], backward: Callable) -> Node:
        if self._entries is None:
            raise ParameterError("tape already swept")
        cells = tuple(p.cell for p in parents)
        needs = any(c.requires_grad for c in cells)
        out = Node(value, needs)
        if needs:
            self._entries.append((out.cell, cells, backward))
        return out

    # ----- elementwise and linear primitives -----

    def add(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        if va.shape != vb.shape:
            raise ShapeError(f"add operands {va.shape} and {vb.shape} differ")

        def backward(g):
            return g, g

        return self._record(va + vb, (a, b), backward)

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)

        def backward(g):
            return (g * c,)

        return self._record(a.value * c, (a,), backward)

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """``x @ w + b`` for matrices x and w and a bias vector b, the bias
        added into the product in place.

        Backward reads ``x`` only for the gradient of ``w`` and lets it go as
        soon as that is computed, so a value that only this rule held is
        freed before the gradient of ``x`` is allocated.
        """
        vx, vw, vb = x.value, w.value, b.value
        if vx.ndim != 2 or vw.ndim != 2 or vx.shape[1] != vw.shape[0] or vb.shape != vw.shape[1:]:
            raise ShapeError(f"affine operands {vx.shape} @ {vw.shape} + {vb.shape} do not align")
        out = vx @ vw
        out += vb

        def backward(g):
            nonlocal vx
            dw = vx.T @ g
            vx = None
            return g @ vw.T, dw, g.sum(axis=0)

        return self._record(out, (x, w, b), backward)

    def pair_affine(self, a: Node, ends: np.ndarray, w: Node, b: Node) -> Node:
        """``[a_i, a_j] @ w + b`` for every row (i, j) of ``ends``, with a_i
        row i of ``a`` viewed as a matrix of F columns, as a_i @ w[:F] +
        a_j @ w[F:] + b: the L rows some pair reads (a mask, remapped by its
        ``cumsum``) are projected once by each half of w. Backward sums g
        per live row with ``row_scatter``, once per endpoint, and gives the
        rows no pair reads an exact 0; it lets the live rows go once the
        gradient of w is computed."""
        va, vw, vb = a.value, w.value, b.value
        ends = np.asarray(ends, dtype=np.int64)
        if va.ndim < 2 or ends.ndim != 2 or ends.shape[1] != 2:
            raise ShapeError(f"pair_affine expects a matrix or a stack and (pairs, 2) ends, got {va.shape}, {ends.shape}")
        shape, dim = va.shape, va.shape[-1]
        if vw.ndim != 2 or vw.shape[0] != 2 * dim or vb.shape != vw.shape[1:]:
            raise ShapeError(f"pair_affine weight {vw.shape} and bias {vb.shape} do not align with rows of {dim}")
        rows = va.reshape(-1, dim)
        if ends.size and (ends.min() < 0 or ends.max() >= rows.shape[0]):
            raise ParameterError("pair_affine index out of range")
        live = np.zeros(rows.shape[0], dtype=bool)
        live[ends] = True
        local = (np.cumsum(live) - 1)[ends]
        picked = rows[live]
        out = (picked @ vw[:dim]).take(local[:, 0], axis=0)
        # the second endpoint's rows gathered and added a block at a time,
        # as the SDDMM gathers its operands, so no second (P, F) array is made
        proj, step = picked @ vw[dim:], tensor3.SDDMM_BLOCK
        for lo in range(0, len(out), step):
            out[lo : lo + step] += proj.take(local[lo : lo + step, 1], axis=0)
        out += vb

        def backward(g):
            nonlocal picked
            first, second = (row_scatter(local[:, k], len(picked)) @ g for k in (0, 1))
            dw = np.concatenate([picked.T @ first, picked.T @ second])
            picked = None
            # each endpoint's row sums go once read, before the full-size
            # gradient of a is allocated
            da_live = first @ vw[:dim].T
            first = None
            da_live += second @ vw[dim:].T
            second = None
            da = np.zeros((len(live), dim))
            da[live] = da_live
            return da.reshape(shape), dw, g.sum(axis=0)

        return self._record(out, (a, w, b), backward)

    def relu(self, a: Node) -> Node:
        mask = a.value > 0 if a.requires_grad else None

        def backward(g):
            return (g * _relu_grad(mask),)

        return self._record(np.maximum(a.value, 0.0), (a,), backward)

    def sigmoid(self, a: Node) -> Node:
        s = _stable_sigmoid(a.value)

        def backward(g):
            return (g * s * (1.0 - s),)

        return self._record(s, (a,), backward)

    # ----- reductions -----

    def sumsq(self, *nodes: Node) -> Node:
        """Sum of every node's squared entries, the nodes' sums added in the
        order given."""
        values = tuple(a.value for a in nodes)
        total = sum((v * v).sum() for v in values)

        def backward(g):
            return tuple(2.0 * float(g) * v for v in values)

        return self._record(np.asarray(total, dtype=np.float64), nodes, backward)

    def inner(self, a: Node, c: np.ndarray) -> Node:
        """The sum of ``a * c`` over every entry, for a constant ``c`` of
        a's shape. Its gradient with respect to a is c itself, so a gradient
        computed on other tapes joins this tape's sweep through it."""
        va, vc = a.value, _as_f64(c)
        if va.shape != vc.shape:
            raise ShapeError(f"inner operands {va.shape} and {vc.shape} differ")

        def backward(g):
            return (g * vc,)

        return self._record(np.asarray(np.vdot(va, vc)), (a,), backward)

    # ----- shape plumbing -----

    def replicate(self, a: Node, count: int) -> Node:
        """``count`` copies of ``a`` stacked on a new first axis, as a
        read-only broadcast view of its value: nothing is copied."""
        if count < 1:
            raise ParameterError(f"replicate count must be >= 1, got {count}")

        def backward(g):
            return (g.sum(axis=0),)

        return self._record(np.broadcast_to(a.value, (count,) + a.value.shape), (a,), backward)

    def reshape(self, a: Node, shape: tuple) -> Node:
        old = a.value.shape

        def backward(g):
            return (g.reshape(old),)

        return self._record(a.value.reshape(shape), (a,), backward)

    # ----- sparse-structured primitives -----

    def pair_dot(self, o: Node, classes: FeatureContext, pattern: SlicePattern) -> Node:
        """Dot products o_ti · o_tj for every (t, i, j) in the pattern, flat,
        where the feature row of node i at slot t is row
        ``classes.row_class[t, i]`` of ``o``, a matrix with one row per class.

        A score depends only on the pair of classes, so the forward scores
        each distinct pair of ``classes.pair_plan(pattern)`` once and spreads
        the scores to the entries with one gather. Backward sums the
        entries' gradients per pair in entry order (``np.add.at``, which
        gives ``bincount``'s bits without an int64 copy of the int32 pair
        index), and multiplies the class rows by that (classes, classes)
        CSR matrix and by its transpose.
        """
        vo, row_class = o.value, classes.row_class
        n_classes = classes.counts.shape[0]
        if vo.ndim != 2 or vo.shape[0] != n_classes or row_class.shape != (pattern.t_slots, pattern.n_rows):
            raise ShapeError(
                f"class rows {vo.shape} and classes {row_class.shape} do not match the pattern's "
                f"{pattern.t_slots}x{pattern.n_rows} and {n_classes} classes"
            )
        plan = classes.pair_plan(pattern)
        scores = np.empty(len(plan.rows))
        tensor3._sddmm(vo, plan.rows, vo, plan.cols, scores)

        def backward(g):
            sums = np.zeros(len(plan.rows))
            np.add.at(sums, plan.pair_of, g)
            m = sp.csr_matrix((sums, plan.cols, plan.indptr), shape=(n_classes, n_classes))
            do = m @ vo
            do += m.T @ vo
            return (do,)

        return self._record(scores[plan.pair_of], (o,), backward)

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
        # subtract, exp and divide in place into the repeated segment maximum
        w = np.repeat(np.maximum.reduceat(v, starts), seg_len)
        np.subtract(v, w, out=w)
        np.exp(w, out=w)
        w /= np.repeat(np.add.reduceat(w, starts), seg_len)

        def backward(g):
            gw = g * w
            dot = np.repeat(np.add.reduceat(gw, starts), seg_len)
            dot *= w
            gw -= dot
            return (gw,)

        return self._record(w, (scores,), backward)

    def m_product(self, a: Node, b: Node, op: SparseOperator | DenseOperator | SlotMeanOperator) -> Node:
        """M-product of ``a`` with a dense ``b``: ``op`` is the operator of
        ``a``'s value (flat pattern values, a dense stack, or the dct's
        slot-constant rows; see ``tensor3``), and checks both shapes."""
        op.check(a.value, b.value)
        out, b_hat = op.apply(b.value)

        def backward(g):
            return op.grads(g, b_hat)

        return self._record(out, (a, b), backward)

    def csr_const_matmul(self, c: sp.csr_matrix, g_node: Node) -> Node:
        """Constant sparse matrix times a dense parameterized matrix."""
        if g_node.value.ndim != 2 or c.shape[1] != g_node.value.shape[0]:
            raise ShapeError(f"operands {c.shape} @ {g_node.value.shape} do not align")

        def backward(g):
            return (c.T @ g,)

        return self._record(c @ g_node.value, (g_node,), backward)

    # ----- loss -----

    def bce_mean(self, probs: Node, labels: np.ndarray, count: int | None = None) -> Node:
        """Mean binary cross-entropy with probabilities clamped away from
        0/1, over ``count`` pairs of which these are a part (these alone by
        default): the shares of the parts of a pair set sum to its mean."""
        y = _as_f64(labels)
        p_raw = probs.value
        if p_raw.shape != y.shape:
            raise ShapeError(f"probability shape {p_raw.shape} does not match labels {y.shape}")
        if p_raw.size == 0:
            raise ParameterError("bce_mean needs at least one labeled pair")
        n = y.size if count is None else count
        if n < y.size:
            raise ParameterError(f"bce_mean over {count} pairs got {y.size}")
        p = np.clip(p_raw, PROB_FLOOR, 1.0 - PROB_FLOOR)
        inside = (p_raw >= PROB_FLOOR) & (p_raw <= 1.0 - PROB_FLOOR)
        # the sum over n is the bits of a mean over all n pairs
        loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n

        def backward(g):
            dp = np.where(inside, (p - y) / (p * (1.0 - p)), 0.0)
            return (float(g) / n * dp,)

        return self._record(np.asarray(loss), (probs,), backward)

    # ----- reverse sweep -----

    def backward(self, loss: Node) -> None:
        """Reverse sweep from a scalar loss, filling ``grad`` on every node
        that needs one; the sweep consumes the tape.

        Each entry is dropped as soon as its rule has run, so its closure,
        the arrays the closure captured, and every cell that only the tape
        held (with its ``grad``) are freed while the sweep goes on. Nodes
        the caller still holds, leaves among them, keep their ``grad``.
        A second sweep, or a new record, on a swept tape raises.

        The first gradient a node receives becomes its ``grad``; later ones
        are added out of place, never with ``+=``, because rules may hand
        back their input gradient or a view of it (``add``, ``reshape``),
        which other nodes hold too.
        """
        if self._entries is None:
            raise ParameterError("tape already swept")
        if loss.value.ndim != 0:
            raise ParameterError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        if not np.isfinite(loss.value):
            raise NumericError("loss is not finite")
        entries, self._entries = self._entries, None
        for out, parents, _ in entries:
            out.grad = None
            for p in parents:
                p.grad = None
        loss.grad = np.ones(())
        while entries:
            out, parents, backward_fn = entries.pop()
            if out.grad is None:
                continue
            for parent, grad in zip(parents, backward_fn(out.grad)):
                if grad is not None and parent.requires_grad:
                    parent.grad = grad if parent.grad is None else parent.grad + grad
            # the last gradient handed out, once added into its parent's or
            # dropped, would otherwise stay alive through the next rule
            parent = grad = None


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
        self._grads[name] = np.zeros(arr.shape)

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
        """A store with copies of the values and zero gradients."""
        other = ParamStore()
        for name in self.names():
            other.add(name, self._values[name])
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


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple) -> np.ndarray:
    """Glorot-uniform draw with the given fan counts."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_dense(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """A zero bias vector, or a Xavier-uniform matrix over its own fans."""
    if len(shape) == 1:
        return np.zeros(shape)
    return xavier_uniform(rng, shape[0], shape[1], shape)


def grad_check(
    loss_of: Callable[[ParamStore], float],
    params: ParamStore,
    eps: float = 1e-5,
) -> float:
    """Compare gradients with central differences for every parameter entry
    and return the worst relative error. ``loss_of(store)`` returns the loss
    at the store's values and leaves its gradient in the store's buffers;
    it runs once on ``params``, then twice per entry on a probe copy."""
    if eps <= 0:
        raise ParameterError(f"finite-difference step must be positive, got {eps}")
    loss_of(params)
    probe = params.clone()
    worst = 0.0
    for name in params.names():
        base = params.value(name)
        analytic = params.grad(name).reshape(-1)
        flat = probe.value(name).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            plus = loss_of(probe)
            flat[idx] = orig - eps
            minus = loss_of(probe)
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * eps)
            exact = float(analytic[idx])
            denom = max(abs(numeric), abs(exact), FD_DENOM_FLOOR)
            worst = max(worst, abs(numeric - exact) / denom)
        if not np.array_equal(probe.value(name), base):
            raise NumericError(f"probe store for {name!r} was not restored")
    return worst
