"""Aggregation weights from structural features.

Raw scores are dot products of feature rows over the overlap support plus the
diagonal; a per-row masked softmax turns them into a row-stochastic sparse
aggregation tensor that drives message passing.
"""

from __future__ import annotations

from nohgnn.structural import ClassFeatures
from nohgnn.tape import Node, Tape
from nohgnn.tensor3 import SlicePattern, SliceSparse3


def build_aggregation_pattern(b: SliceSparse3) -> SlicePattern:
    """Support of the aggregation tensor: supp(B_t) plus every self-loop.

    The diagonal guarantees each row a non-empty softmax support, so isolated
    nodes keep their own message.
    """
    return SlicePattern.with_diagonal(b)


def overlap_scores(tape: Tape, features: ClassFeatures, pattern: SlicePattern) -> Node:
    """Raw scores p̂ = o_it · o_jt for every (i, j, t) in the pattern, flat,
    from the per-class feature rows."""
    return tape.pair_dot(features.rows, features.ctx, pattern)


def normalize_scores(tape: Tape, scores: Node, pattern: SlicePattern) -> Node:
    """Masked softmax within every (slot, row) segment of the flat scores."""
    return tape.segment_softmax(scores, pattern.row_splits)


def aggregation_weights(tape: Tape, features: ClassFeatures, pattern: SlicePattern) -> Node:
    return normalize_scores(tape, overlap_scores(tape, features, pattern), pattern)
