"""Row-at-a-time softmax, the reference the segment-softmax and
aggregation-weight tests compare against."""

from __future__ import annotations

import numpy as np

from nohgnn.errors import ParameterError


def masked_softmax(scores: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax over the given support; weights align with support order."""
    scores = np.asarray(scores, dtype=np.float64)
    picked = scores if support is None else scores[np.asarray(support, dtype=np.int64)]
    if picked.size == 0:
        raise ParameterError("masked_softmax needs a non-empty support")
    e = np.exp(picked - picked.max())
    return e / e.sum()
