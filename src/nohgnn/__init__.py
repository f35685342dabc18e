"""Neighborhood-overlap-aware high-order graph network for temporal link prediction."""

from nohgnn.data import (
    DynamicGraph,
    EdgeEvent,
    EdgeTable,
    LabeledPairSet,
    bin_snapshots,
    load_edge_list,
    negative_sample,
    split_edges,
)
from nohgnn.errors import (
    CheckpointError,
    NohgnnError,
    NumericError,
    ParameterError,
    ParseError,
    SamplingError,
    ShapeError,
)
from nohgnn.synth import planted_partition, planted_partition_graph
from nohgnn.tape import ParamStore, Tape, grad_check
from nohgnn.tensor3 import (
    SlicePattern,
    SliceSparse3,
    Tensor3,
    Transform,
    facewise_product,
    m_product,
    make_transform,
    mode3_product,
    sparse_matpower_sum,
)
from nohgnn.training import (
    Metrics,
    TrainConfig,
    evaluate,
    evaluate_model,
    predict,
    prepare,
    run_gradient_check,
    train_loop,
)

__all__ = [
    "CheckpointError",
    "DynamicGraph",
    "EdgeEvent",
    "EdgeTable",
    "LabeledPairSet",
    "Metrics",
    "NohgnnError",
    "NumericError",
    "ParamStore",
    "ParameterError",
    "ParseError",
    "SamplingError",
    "ShapeError",
    "SlicePattern",
    "SliceSparse3",
    "Tape",
    "Tensor3",
    "TrainConfig",
    "Transform",
    "bin_snapshots",
    "evaluate",
    "evaluate_model",
    "facewise_product",
    "grad_check",
    "load_edge_list",
    "m_product",
    "make_transform",
    "mode3_product",
    "negative_sample",
    "planted_partition",
    "planted_partition_graph",
    "predict",
    "prepare",
    "run_gradient_check",
    "sparse_matpower_sum",
    "split_edges",
    "train_loop",
]

__version__ = "0.1.0"
