"""Seeded end-to-end benchmark of the ingest -> train -> eval pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload m-dct --seed 3 --trace 0
    python3 perfbench/run.py --seed 3      # every workload, each in its own process

One run repeats whole rounds until ``--seconds`` have passed (at least one
round per input; the default is ``run_seconds`` of BENCHMARK.json). A
workload makes one program input from ``--seed``, or several, which the
rounds take in turn. A round sets up once (ingest, split, save_dataset,
assemble), trains for the workload's fixed epoch count, saves the model and
runs the ``eval`` path on the test split, then repeats set-up and eval
alternately up to ``setup_repeats`` and ``eval_repeats``, all through the
public functions the CLI commands call. The first round on each input is
checked against the benchmark's own computations (``checks.py``), outside
every timed section; later rounds on it must reproduce its outputs byte for
byte. An operation that raises one of the program's errors or
``MemoryError`` counts as failed, and so does every later operation of its
round.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run (``tracing.py``), whose
spans are also written under ``.perfbench/traces/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. The matrices here are small or
# thin; with two threads the idle worker spins on the second CPU, which used
# about 60% more CPU time and slowed s-dct epochs in 5 of 5 paired runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WALK_ROWS_PER_SLOT = 4
F1_BAR = 0.85
FORWARD_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    transform: str
    epochs: int
    # set-ups and evals per round; short ones are repeated more, so that
    # their medians cover seconds of a noisy host's time
    setup_repeats: int
    eval_repeats: int
    n_nodes: int = 0
    n_events: int = 0
    slots: int = 0
    # program input independent of --seed: (generator seed, run seed)
    fixed_seeds: tuple[int, int] | None = None
    # generated inputs per run, drawn from --seed; rounds cycle through them
    inputs: int = 1

    @property
    def planted(self) -> bool:
        return self.n_events == 0


M_SHAPE = dict(n_nodes=3783, n_events=24187, slots=32)
L_SHAPE = dict(n_nodes=3748, n_events=159817, slots=73)

WORKLOADS = {
    w.name: w
    for w in (
        # criterion-6 instance: planted partition, generator seed 9, run seed 1
        Workload("s-dct", "dct", epochs=300, fixed_seeds=(9, 1), setup_repeats=150, eval_repeats=150),
        # eval time depends on the input (see README, "Findings"), so each
        # run averages two inputs
        Workload("m-dct", "dct", epochs=2, setup_repeats=6, eval_repeats=6, inputs=2, **M_SHAPE),
        Workload("l-identity", "identity", epochs=2, setup_repeats=4, eval_repeats=6, **L_SHAPE),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("eval_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("dataset_bytes", "bytes"),
)

# per-epoch layers: seconds inside train_loop divided by the epochs run; the
# forward layers include the validation pass each epoch makes
PER_EPOCH_LAYERS = (
    "data.negative_sample",
    "structural.generate_features",
    "overlap.aggregation_weights",
    "model.propagate",
    "model.weight_product",
    "model.decode",
    "tape.backward",
    "training.compute_loss",
    "training.adam_step",
    "training.validate",
)
BACKWARD_OPS = (
    "spmm_shared", "mode3", "scatter_to_union", "spmm", "gather_rows",
    "pair_dot", "segment_softmax", "matmul", "csr_const_matmul", "replicate",
)
# one-time layers: seconds over one pipeline pass (set-up, training, model
# save and the first eval)
PER_PASS_LAYERS = (
    "data.load_edge_list",
    "data.bin_snapshots",
    "data.split_edges",
    "tensor3.sparse_matpower_sum",
    "tensor3.union",
    "structural.build_feature_context",
    "overlap.build_aggregation_pattern",
    "checkpoint.save_dataset",
    "checkpoint.load_dataset",
    "checkpoint.save_model",
    "checkpoint.load_model",
)
PASS_PHASES = ("setup", "train", "save", "eval")


def load_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    if not (SRC / "nohgnn" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nohgnn

    if Path(nohgnn.__file__).resolve().parent != SRC / "nohgnn":
        sys.exit(f"error: imported nohgnn from {nohgnn.__file__}, not from {SRC}")


class EpochClock:
    """Seconds of each epoch of one ``train_loop`` call.

    ``train_loop`` draws its negatives at the start of every epoch and calls
    ``negative_sample`` nowhere else, so the clock stamps that call: an
    epoch lasts from its stamp to the next one, the last until the loop
    returns. One ``perf_counter`` per epoch, in tracing-off runs too.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.end: float | None = None

    def __enter__(self):
        from nohgnn import training

        self.inner = training.negative_sample

        def stamped(*args, **kwargs):
            self.starts.append(time.perf_counter())
            return self.inner(*args, **kwargs)

        training.negative_sample = stamped
        return self

    def __exit__(self, *exc):
        from nohgnn import training

        self.end = time.perf_counter()
        training.negative_sample = self.inner

    def epochs(self) -> list[float]:
        stamps = self.starts + [self.end]
        return [b - a for a, b in zip(stamps, stamps[1:])]


class Round:
    """Timings, operation counts and outputs of one round."""

    def __init__(self):
        # timings of the steps that did not fail
        self.setup_s: list[float] = []
        self.epoch_s: list[float] = []
        self.epochs_run = 0
        self.eval_s: list[float] = []
        self.wall_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.failure: str | None = None
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}
        self.outputs: tuple | None = None
        self.inputs: Inputs | None = None

    def step(self, what: str, n_ops: int, fn):
        """Run ``fn`` as ``n_ops`` operations and return its result.

        The pipeline is a chain, so once a step has raised one of the
        program's errors or ``MemoryError``, it and every later step of the
        round count as failed and the later ones are not run. Every round
        therefore attempts the same operations.
        """
        from nohgnn.errors import NohgnnError

        self.attempted += n_ops
        if self.failure is None:
            try:
                return fn()
            except (NohgnnError, MemoryError) as exc:
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                self.failure = (f"{what}: {type(exc).__name__} in {frame.name} "
                                f"({Path(frame.filename).name}:{frame.lineno}): {exc}")
        self.failed += n_ops
        return None


def run_round(wl: Workload, seed: int, work: Path, inputs, tracer, check: bool) -> Round:
    """One round on ``inputs``; ``check`` runs the independent checks on its outputs."""
    from nohgnn import checkpoint, data, synth, training
    from nohgnn.errors import CheckpointError

    rnd = Round()
    rnd.inputs = inputs
    run_seed = inputs.run_seed
    config = training.TrainConfig(transform=wl.transform, seed=run_seed,
                                  max_epochs=wl.epochs, patience=wl.epochs)
    ds_path = work / "dataset.nohg"
    ckpt_path = work / "checkpoint.nohg"
    log_path = work / "metrics.jsonl"
    log_path.unlink(missing_ok=True)

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    def ingest():
        if wl.planted:
            graph = synth.planted_partition_graph(seed=inputs.graph_seed)
        else:
            events, id_map = data.load_edge_list(inputs.path)
            graph = data.bin_snapshots(events, wl.slots, id_map=id_map)
        train, val, test, masked = data.split_edges(graph, seed=run_seed)
        return graph, masked, {"train": train, "val": val, "test": test}

    def set_up():
        start = time.perf_counter()
        ingested = rnd.step("ingest", 1, ingest)
        rnd.step("dataset save", 1, lambda: checkpoint.save_dataset(
            str(ds_path), ingested[0], ingested[1], ingested[2], split_seed=run_seed))
        # assemble is the first half of `train`: no operation of its own, but
        # the epochs and everything after them fail with it
        prep = rnd.step("assemble", 0, lambda: training.assemble(*ingested, config))
        if rnd.failure is None:
            rnd.setup_s.append(time.perf_counter() - start)
        return ingested, prep

    def eval_path():
        loaded, eval_config, n_nodes, t_slots = checkpoint.load_model(str(ckpt_path))
        graph2, masked2, splits2, _ = checkpoint.load_dataset(str(ds_path))
        if graph2.n_nodes != n_nodes or graph2.t_slots != t_slots:
            raise CheckpointError("checkpoint/dataset mismatch")
        prep2 = training.assemble(graph2, masked2, splits2, eval_config)
        test_set = training.labeled_split(prep2, eval_config, "test")
        return loaded, prep2, test_set, training.evaluate_model(loaded, prep2, eval_config, test_set)

    def evaluate():
        start = time.perf_counter()
        evaluated = rnd.step("eval", 1, eval_path)
        if rnd.failure is None:
            rnd.eval_s.append(time.perf_counter() - start)
        return evaluated

    phase("setup")
    pass_start = time.perf_counter()
    ingested, prep = set_up()

    phase("train")
    with EpochClock() as clock:
        result = rnd.step("training", wl.epochs, lambda: training.train_loop(prep, config, log_path=str(log_path)))
    if rnd.failure is None:
        rnd.epochs_run = wl.epochs
        rnd.epoch_s = clock.epochs()

    phase("save")
    rnd.step("model save", 1, lambda: checkpoint.save_model(str(ckpt_path), result.store, config,
                                                             ingested[0].n_nodes, ingested[0].t_slots))

    phase("eval")
    evaluated = evaluate()
    if rnd.failure is None:
        rnd.wall_s = time.perf_counter() - pass_start

    # the remaining set-ups and evals alternate, so that both sample the same
    # stretch of time rather than two short bursts; they rewrite and reread
    # byte-identical files
    phase("repeat")
    for k in range(max(wl.setup_repeats, wl.eval_repeats) - 1):
        if k < wl.setup_repeats - 1:
            set_up()
        if k < wl.eval_repeats - 1:
            evaluate()

    phase("check")
    if rnd.failure is not None:
        # nothing to check: the outputs of a failed round are incomplete
        return rnd
    graph, masked, splits = ingested
    loaded, prep2, test_set, metrics = evaluated
    confusion = (metrics.tp, metrics.fp, metrics.tn, metrics.fn)
    rnd.outputs = (ds_path.read_bytes(), ckpt_path.read_bytes(), log_path.read_bytes(), confusion)
    if check:
        rnd.errors, rnd.counts = check_round(wl, inputs, config, graph, masked, splits, prep,
                                             str(log_path), loaded, result.store, prep2, test_set, metrics, seed)
    return rnd


def check_round(wl, inputs, config, graph, masked, splits, prep, log_path,
                loaded, store, prep2, test_set, metrics, seed) -> tuple[list[str], dict[str, int]]:
    """Independent checks of one round's outputs, and its work counts."""
    from nohgnn import data, overlap, structural, tape, training

    n = graph.n_nodes
    full_keys = inputs.slot_keys(graph)
    errors = checks.check_binning(graph, full_keys)
    errors += checks.check_split(graph, masked, splits, full_keys)
    train_keys = [np.sort(checks.pair_keys(splits["train"].pairs[splits["train"].pairs[:, 2] == t], n))
                  for t in range(graph.t_slots)]
    rng = np.random.default_rng([seed, 7])
    errors += checks.check_walk_counts(masked.overlap_cache[config.k_hops], prep.pattern, train_keys,
                                       WALK_ROWS_PER_SLOT, rng)
    if prep.pattern._union is not None and len(prep.pattern._union[1]) != checks.union_size(prep.pattern):
        errors.append("union: program's union support differs from the union of the slices")

    for label, pos, tag in (("val negatives", splits["val"], training.VAL_SEED_TAG),
                            ("test negatives", splits["test"], training.TEST_SEED_TAG)):
        neg = data.negative_sample(graph, pos, config.neg_ratio, seed=[config.seed, tag])
        errors += checks.check_negatives(neg, pos, full_keys, config.neg_ratio, n, label)

    for epoch in range(1, wl.epochs + 1):
        neg = data.negative_sample(graph, prep.train_pos, config.neg_ratio, seed=[config.seed, epoch])
        errors += checks.check_negatives(neg, prep.train_pos, full_keys, config.neg_ratio, n,
                                         f"epoch {epoch} negatives")
    errors += checks.check_metric_log(log_path, wl.epochs)
    errors += checks.check_params_equal(loaded, store)
    errors += checks.check_confusion(metrics, test_set.size)

    t = tape.Tape()
    scores = overlap.overlap_scores(t, structural.generate_features(t, prep2.ctx, loaded.constants(t)), prep2.pattern)
    weights = overlap.normalize_scores(t, scores, prep2.pattern)
    weight_errors, zero_weights = checks.check_aggregation_weights(weights.value, scores.value, prep2.pattern)
    errors += weight_errors

    if wl.planted:
        if metrics.f1 < F1_BAR:
            errors.append(f"s-dct: test F1 {metrics.f1:.4f} below the criterion-6 bar {F1_BAR}")
        probs = training.predict(loaded, prep2, config, test_set.pairs)
        params = {name: loaded.value(name) for name in loaded.names()}
        dense = checks.dense_forward(params, train_keys, n, config.transform, config.layers, test_set.pairs)
        gap = float(np.max(np.abs(dense - probs)))
        if gap > FORWARD_TOLERANCE:
            errors.append(f"dense forward differs from eval probabilities by {gap:.3e}")
    counts = {
        "data.events": inputs.n_events,
        "data.slot_edges": graph.edge_count,
        "data.train_pairs": splits["train"].size,
        "tensor3.pattern_nnz": prep.pattern.nnz,
        "tensor3.union_nnz": checks.union_size(prep.pattern),
        "overlap.zero_weights": zero_weights,
    }
    return errors, counts


class Inputs:
    """One generated program input and the benchmark's own record of it."""

    def __init__(self, wl: Workload, graph_seed: int, run_seed: int, work: Path):
        self.graph_seed = graph_seed
        self.run_seed = run_seed
        if wl.planted:
            from nohgnn.synth import planted_partition

            events = planted_partition(seed=graph_seed)
            self.src = np.array([e.src for e in events])
            self.dst = np.array([e.dst for e in events])
            self.ts = np.array([e.timestamp for e in events])
            self.tokens = None
            self.n_events = len(events)
            self.slots = 8
            self.path = None
        else:
            edges = gen.heavy_tailed_events(wl.n_nodes, wl.n_events, graph_seed)
            self.path = str(work / f"edges-{graph_seed}.txt")
            gen.write_edge_list(self.path, edges)
            self.src, self.dst, self.ts, self.tokens = edges.src, edges.dst, edges.ts, edges.tokens
            self.n_events = edges.n_events
            self.slots = wl.slots
        self._keys = None

    def slot_keys(self, graph):
        """Independent per-slot edge keys, in the program's dense ids."""
        if self._keys is None:
            src, dst = self.src, self.dst
            if self.tokens is not None:
                remap = np.array([graph.id_map[str(tok)] for tok in self.tokens.tolist()])
                src, dst = remap[src], remap[dst]
            self._keys = checks.slot_keys_from_events(src, dst, self.ts, self.slots, graph.n_nodes)
        return self._keys


def median(values) -> float | None:
    """Median of the samples that were taken; None if every one failed."""
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else None


def fastest(values) -> float | None:
    """Fastest of many repeats of the same work; None if every one failed.

    The shared host switches between a fast and a slow mode about 40% apart,
    for seconds at a time, and a run's median follows whichever mode held
    most of the run. The fastest repeat is the work's cost in the fast mode,
    which nearly every run reaches. For epochs it leaves out the slower
    first epoch of a round, which builds lazy state; that work shows in
    ``wall_s``.
    """
    return min(values) if values else None


def per_input(rounds: list[Round], samples, estimate) -> float | None:
    """``estimate`` of each input's samples over all its rounds, median over the inputs."""
    by_input: dict[int, list[float]] = {}
    for rnd in rounds:
        by_input.setdefault(id(rnd.inputs), []).extend(samples(rnd))
    return median([estimate(values) for values in by_input.values()])


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    if wl.fixed_seeds is not None:
        seeds = [wl.fixed_seeds]
    else:
        seeds = [(seed * wl.inputs + i,) * 2 for i in range(wl.inputs)]
    work = ROOT / ".perfbench" / "work" / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        inputs = [Inputs(wl, graph_seed, run_seed, work) for graph_seed, run_seed in seeds]
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        rounds: list[Round] = []
        start = time.perf_counter()
        while len(rounds) < len(inputs) or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.round = len(rounds)
            # later rounds on an input repeat its first exactly; byte-equal
            # outputs carry that round's check results over
            first = rounds[len(rounds) - len(inputs)] if len(rounds) >= len(inputs) else None
            rnd = run_round(wl, seed, work, inputs[len(rounds) % len(inputs)], tracer, check=first is None)
            if first is not None and rnd.outputs != first.outputs:
                rnd.errors.append(f"round {len(rounds) + 1} outputs differ from the first round on its input")
            rounds.append(rnd)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in sorted({r.failure for r in rounds if r.failure is not None}):
        print(f"{wl.name}: operation failed: {failure}")
    errors = sorted({e for r in rounds for e in r.errors})
    for e in errors:
        print(f"{wl.name}: check failed: {e}")
    counts = rounds[0].counts
    print(f"{wl.name}: seed {seed}, {len(inputs)} input(s), {len(rounds)} round(s), "
          f"{sum(len(r.setup_s) for r in rounds)} set-ups, "
          f"{len(errors)} check failure(s), {counts.get('overlap.zero_weights', '?')} of "
          f"{counts.get('tensor3.pattern_nnz', '?')} aggregation weights underflowed to 0")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if not trace:
        values = {
            "setup_s": median([s for r in rounds for s in r.setup_s]),
            "epoch_s": per_input(rounds, lambda r: r.epoch_s, fastest),
            "eval_s": per_input(rounds, lambda r: r.eval_s, fastest),
            "wall_s": median([r.wall_s for r in rounds]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dataset_bytes": median([len(r.outputs[0]) for r in rounds if r.outputs]),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return result

    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(str(traces / f"{wl.name}-seed{seed}.jsonl"))
    result["metrics"] = layer_metrics(tracer, rounds)
    return result


def layer_metrics(tracer, rounds: list[Round]) -> dict:
    totals = tracer.totals()

    def per_epoch(name):
        return median([totals.get((name, r, "train"), 0.0) / rnd.epochs_run
                       for r, rnd in enumerate(rounds) if rnd.epochs_run])

    def per_pass(name):
        return median([sum(totals.get((name, r, p), 0.0) for p in PASS_PHASES) for r in range(len(rounds))])

    out = {}
    for name in PER_EPOCH_LAYERS:
        out[f"{name}_s"] = (per_epoch(name), "s")
    for op in BACKWARD_OPS:
        out[f"tape.bwd.{op}_s"] = (per_epoch(f"tape.bwd.{op}"), "s")
    other = {n for n, _, _ in totals if n.startswith("tape.bwd.") and n[len("tape.bwd."):] not in BACKWARD_OPS}
    out["tape.bwd.other_s"] = (float(sum(per_epoch(n) or 0.0 for n in other)), "s")
    for name in PER_PASS_LAYERS:
        out[f"{name}_s"] = (per_pass(name), "s")
    for name in ("tape.entries", "tape.retained_mib", "tape.backward_peak_mib"):
        samples = tracer.samples.get(name, [])
        out[name] = (max(samples) if samples else 0.0, "count" if name == "tape.entries" else "MiB")
    for name, value in rounds[0].counts.items():
        out[name] = (float(value), "count")
    out["trace.epoch_s"] = (per_input(rounds, lambda r: r.epoch_s, fastest), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced then traced."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} blas={blas['name']} {blas['version']} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    status = 0
    for name in WORKLOADS:
        lines = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                break
            lines[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        if len(lines) < 2:
            continue
        untraced = lines[0]["metrics"]["epoch_s"]["value"]
        traced = lines[1]["metrics"]["trace.epoch_s"]["value"]
        if untraced and traced:  # None when every training failed
            print(f"{name}: tracing overhead {traced - untraced:+.4f} s/epoch "
                  f"({(traced - untraced) / untraced:+.1%} of {untraced:.4f} s/epoch untraced)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
