"""Stacked high-order message-passing layers and the link decoder.

Each layer multiplies the sparse aggregation tensor into the node tensor and
then into a per-layer weight tensor: two M-products under the configured
mode-3 transform, each one ``Tape.m_product`` entry over an operator from
``tensor3``, which alone applies the transform. Hidden layers apply ReLU
and the final layer stays linear. Under the orthonormal DCT the replicated
embedding E is slot-constant and stays so (``tensor3``): the stack is
h = P-bar relu(P-bar E W-bar_1) W-bar_2 on (N, F) rows, with P-bar = sum_t P_t
and W-bar a layer's slot-mean weights, one sparse product per layer, not T.
Under the identity slot t's layers read slice t of the weights and of every
stack alone, so ``layer_stack`` runs on any window of slots, and training
runs it one slot chunk at a time.
The decoder maps [h_i, h_j] -> F -> 1 with a ReLU hidden layer and a
sigmoid output: its first layer is ``Tape.pair_affine``, h_i W1[:F] +
h_j W1[F:] on the embedding rows, so no (P, 2F) array is built.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from nohgnn.errors import NumericError, ParameterError
from nohgnn.tape import Node, ParamStore, Tape, init_dense, xavier_uniform
from nohgnn.tensor3 import DenseOperator, FacewiseOperator, SlicePattern, SlotMeanOperator, SlotSumOperator, SparseOperator

LAYER_NOISE_SCALE = 0.05


def model_param_shapes(n_nodes: int, dim: int, t_slots: int, n_layers: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each model parameter's name and shape, in creation order: the node
    embedding, one weight stack per layer, and the decoder. Lazy, so that a
    reader can stop at the first name a file lacks whatever the layer count."""
    if n_layers < 1:
        raise ParameterError(f"layer count must be >= 1, got {n_layers}")
    if dim < 1 or n_nodes < 1 or t_slots < 1:
        raise ParameterError(
            f"n_nodes, dim, t_slots must be >= 1, got {n_nodes}, {dim}, {t_slots}"
        )
    yield "embed.e", (n_nodes, dim)
    for layer in range(1, n_layers + 1):
        yield f"layer{layer}.w", (t_slots, dim, dim)
    yield from {"dec.w1": (2 * dim, dim), "dec.b1": (dim,), "dec.w2": (dim, 1), "dec.b2": (1,)}.items()


def init_model_params(
    store: ParamStore,
    n_nodes: int,
    dim: int,
    t_slots: int,
    n_layers: int,
    rng: np.random.Generator,
) -> None:
    """Register the parameters of ``model_param_shapes``.

    The embedding and decoder are Xavier-uniform with zero biases; each
    layer's weight stack starts at the identity plus small Xavier noise.
    Near-identity propagation weights keep early-layer outputs on the scale
    of their inputs, so the squared-norm penalty cannot shrink every layer
    toward zero faster than the data signal grows. Everything is drawn in a
    fixed creation order so a given seed always produces the same values.
    """
    for name, shape in model_param_shapes(n_nodes, dim, t_slots, n_layers):
        if name.startswith("layer"):
            noise = xavier_uniform(rng, dim, dim, shape)
            store.add(name, np.broadcast_to(np.eye(dim), shape) + LAYER_NOISE_SCALE * noise)
        else:
            store.add(name, init_dense(shape, rng))


def propagate(tape: Tape, weights: Node, h: Node, op: SparseOperator) -> Node:
    """Aggregation tensor times node tensor: one ``m_product`` tape op over
    ``op``, the operator of the flat ``weights`` built once for all layers
    (``aggregation_operator``), so the dense N x N x T tensor is never
    materialized."""
    return tape.m_product(weights, h, op)


def weight_product(tape: Tape, h: Node, w: Node, t_slots: int) -> Node:
    """Node tensor times a (T, F, F) weight stack: one ``m_product`` tape op
    over the ``DenseOperator`` of a (T, N, F) ``h``, the identity's stacked
    matmul, or over the ``SlotMeanOperator`` of the dct's slot-constant
    (N, F) rows, which takes the mean over the ``t_slots`` slices of w."""
    op = DenseOperator(h.value) if h.value.ndim == 3 else SlotMeanOperator(h.value, t_slots)
    return tape.m_product(h, w, op)


def aggregation_operator(pattern: SlicePattern, values: np.ndarray, kind: str) -> FacewiseOperator | SlotSumOperator:
    """The operator of the flat aggregation weights ``values`` under the
    transform ``kind``, built once for every layer: face-wise on T copies of
    the embedding under the identity, P-bar on the embedding under the dct.
    Both are live only, as the weights are a softmax output: the weight
    gradient is +0 at the exact zeros (the tubes of them), which the softmax
    backward multiplies by 0 anyway. It takes T from the pattern, so no
    transform matrix is built. Other kinds raise ``ParameterError``, as the
    dct reduction holds for the DCT alone."""
    if kind == "identity":
        return FacewiseOperator(pattern, values, live_only=True)
    if kind == "dct":
        return SlotSumOperator(pattern, values)
    raise ParameterError(f"the layer stack runs the identity or dct transform, not {kind!r}")


def layer_stack(tape: Tape, leaves: dict[str, Node], p_weights: Node, op: SparseOperator, n_layers: int) -> Node:
    """Run the layers over the slots of ``op``, an ``aggregation_operator``
    or a window of one, and return the embedding node. ``p_weights`` are
    the flat weights of those slots, and each layer hands its own weight
    gradient to them. Under the identity the embedding is replicated over
    the slots and the layer stacks in ``leaves`` hold those slots' slices;
    under the dct the layers run on the (N, F) rows with the whole stacks.
    Each layer records two ``m_product`` entries; hidden layers apply ReLU.
    Neither runs a mode-3 product, so no transform matrix is built."""
    if n_layers < 1:
        raise ParameterError(f"layer count must be >= 1, got {n_layers}")
    h = leaves["embed.e"]
    if op.node_axes == 3:
        h = tape.replicate(h, len(op.slots))
    for layer in range(1, n_layers + 1):
        spread = propagate(tape, p_weights, h, op)
        h = weight_product(tape, spread, leaves[f"layer{layer}.w"], op.pattern.t_slots)
        if layer < n_layers:
            h = tape.relu(h)
        if not np.all(np.isfinite(h.value)):
            raise NumericError(f"layer {layer} produced non-finite activations")
    return h


def decode(
    tape: Tape,
    leaves: dict[str, Node],
    h: Node,
    pairs: np.ndarray,
) -> Node:
    """Link probabilities for (i, j, t) rows: row (t, i) of a (T, N, F)
    embedding, or row i of a slot-constant (N, F) one, whatever t is, through
    ``pair_affine``, ``relu``, ``affine`` and ``sigmoid``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 3)
    *slots, n_nodes, _ = h.value.shape
    if len(pairs) == 0:
        raise ParameterError("decode needs at least one pair")
    if pairs.min() < 0 or pairs[:, :2].max() >= n_nodes or pairs[:, 2].max() >= (slots[0] if slots else np.inf):
        raise ParameterError("pair indices out of range")
    # row t*N + i of the embedding viewed as a (T*N, F) matrix, per endpoint
    ends = pairs[:, 2:] * n_nodes + pairs[:, :2] if slots else pairs[:, :2]
    hidden = tape.relu(tape.pair_affine(h, ends, leaves["dec.w1"], leaves["dec.b1"]))
    logits = tape.affine(hidden, leaves["dec.w2"], leaves["dec.b2"])
    return tape.sigmoid(tape.reshape(logits, (len(pairs),)))
