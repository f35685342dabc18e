"""Spans around calls into each module, recorded from outside the program.

``Tracer.install`` replaces the module attributes and methods the pipeline
looks up at call time with timed wrappers, so nothing under ``src/`` knows it
is traced. An untraced run never calls it and pays nothing. Spans stay in
memory and are written as JSON lines by ``Tracer.write``.

Names are ``<module>.<function>``; ``tape.bwd.<op>`` times the backward rule
each tape op records, keyed by the op that recorded it.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MIB = 1024.0 * 1024.0

# (module path, attribute, span name): module-level lookups the pipeline makes
PATCHED_FUNCTIONS = (
    ("nohgnn.data", "load_edge_list", "data.load_edge_list"),
    ("nohgnn.data", "bin_snapshots", "data.bin_snapshots"),
    ("nohgnn.synth", "bin_snapshots", "data.bin_snapshots"),
    ("nohgnn.data", "split_edges", "data.split_edges"),
    ("nohgnn.training", "negative_sample", "data.negative_sample"),
    ("nohgnn.structural", "sparse_matpower_sum", "tensor3.sparse_matpower_sum"),
    ("nohgnn.training", "build_feature_context", "structural.build_feature_context"),
    ("nohgnn.training", "build_aggregation_pattern", "overlap.build_aggregation_pattern"),
    ("nohgnn.training", "generate_features", "structural.generate_features"),
    ("nohgnn.training", "aggregation_weights", "overlap.aggregation_weights"),
    ("nohgnn.model", "propagate", "model.propagate"),
    ("nohgnn.model", "weight_product", "model.weight_product"),
    ("nohgnn.training", "decode", "model.decode"),
    ("nohgnn.training", "compute_loss", "training.compute_loss"),
    ("nohgnn.training", "evaluate_model", "training.validate"),
    ("nohgnn.checkpoint", "save_dataset", "checkpoint.save_dataset"),
    ("nohgnn.checkpoint", "load_dataset", "checkpoint.load_dataset"),
    ("nohgnn.checkpoint", "save_model", "checkpoint.save_model"),
    ("nohgnn.checkpoint", "load_model", "checkpoint.load_model"),
)


def _held_bytes(entries) -> int:
    """Bytes of the distinct buffers behind the tape's node values."""
    seen = {}
    for out, parents, _ in entries:
        for node in (out, *parents):
            arr = node.value
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


class Tracer:
    """Collects spans tagged with the benchmark phase they fall in."""

    def __init__(self):
        self.spans: list[tuple[str, str, int, float, float, int]] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase = "setup"
        self.round = 0
        self._depth = 0
        self._peaked: set[int] = set()

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, self.phase, self.round, start, time.perf_counter(), self._depth))
                self._depth -= 1

        return wrapper

    def install(self) -> None:
        from nohgnn import tape as tape_mod
        from nohgnn import tensor3, training

        for module_name, attr, name in PATCHED_FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.timed(name, getattr(module, attr)))

        training.Adam.step = self.timed("training.adam_step", training.Adam.step)

        record = tape_mod.Tape._record
        tracer = self

        def traced_record(tape, value, parents, backward):
            op = backward.__qualname__.split(".")[1]
            return record(tape, value, parents, tracer.timed(f"tape.bwd.{op}", backward))

        tape_mod.Tape._record = traced_record

        backward = self.timed("tape.backward", tape_mod.Tape.backward)

        def traced_backward(tape, loss):
            tracer.samples["tape.entries"].append(float(len(tape._entries)))
            tracer.samples["tape.retained_mib"].append(_held_bytes(tape._entries) / MIB)
            # every epoch's backward has the same shapes, so one per round
            # bounds the peak; tracemalloc slows each allocation it traces
            if tracer.round in tracer._peaked:
                return backward(tape, loss)
            tracer._peaked.add(tracer.round)
            tracemalloc.start()
            try:
                return backward(tape, loss)
            finally:
                tracer.samples["tape.backward_peak_mib"].append(tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()

        tape_mod.Tape.backward = traced_backward

        union = tensor3.SlicePattern.union.fget
        timed_union = self.timed("tensor3.union", union)

        def traced_union(pattern):
            return union(pattern) if pattern._union is not None else timed_union(pattern)

        tensor3.SlicePattern.union = property(traced_union, doc=tensor3.SlicePattern.union.__doc__)

    def totals(self) -> dict[tuple[str, int, str], float]:
        """Summed span seconds keyed by (name, round, phase)."""
        out: dict[tuple[str, int, str], float] = defaultdict(float)
        for name, phase, rnd, start, end, _ in self.spans:
            out[(name, rnd, phase)] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, phase, rnd, start, end, depth in self.spans:
                fh.write(json.dumps({"name": name, "phase": phase, "round": rnd,
                                     "start": start, "end": end, "depth": depth}) + "\n")
