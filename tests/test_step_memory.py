"""What one training step holds, and that holding less changed no bit.

The memory contracts: scoring keeps its features per class, the dct layer
stack keeps no array with a row per slot and node, the decoder
keeps only the pair rows and hidden activations its affine layers read, an
affine layer lets its input go once the weight gradient is computed, and
the replicated embedding is a view. The differential tests compare the
step with the earlier code in ``score_decode_oracle.py``.
"""

import weakref

import numpy as np
import pytest

import score_decode_oracle as oracle
from nohgnn import model, training
from nohgnn.overlap import aggregation_weights
from nohgnn.structural import generate_features
from nohgnn.synth import planted_partition_graph
from nohgnn.tape import Tape
from nohgnn.tensor3 import FacewiseOperator, SlicePattern, SliceSparse3
from tape_helpers import mul


def criterion_6(transform="identity"):
    config = training.TrainConfig(dim=32, transform=transform, seed=1)
    prep = training.prepare(planted_partition_graph(seed=9), config)
    return config, prep, training.init_params(config, prep.n_nodes, prep.t_slots)


def train_pairs(prep, config):
    return training.labeled_split(prep, config, "train")


def captured_arrays(rule):
    """The arrays a backward rule's closure holds right now."""
    cells = rule.__closure__ or ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


def decoder_leaves(tape, dim, seed):
    rng = np.random.default_rng(seed)
    shapes = {"dec.w1": (2 * dim, dim), "dec.b1": (dim,), "dec.w2": (dim, 1), "dec.b2": (1,)}
    return {name: tape.leaf(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()}


# (i, j, t) rows: repeated endpoints and pairs, node 2 at slot 1 on both
# sides of pairs and of one pair, and a single pair
PAIR_CASES = {
    "repeated": [[0, 1, 0], [0, 1, 0], [0, 3, 0], [4, 1, 1], [0, 1, 1], [3, 0, 0]],
    "both_sides": [[2, 4, 1], [0, 2, 1], [2, 2, 1], [4, 2, 1], [2, 0, 0]],
    "single": [[3, 1, 1]],
}


class TestAgainstOracle:
    @pytest.mark.parametrize("case", sorted(PAIR_CASES))
    def test_decode_bit_equals_oracle(self, case):
        rng = np.random.default_rng(len(case))
        h0 = rng.normal(size=(2, 5, 3))
        pairs = np.array(PAIR_CASES[case])
        r = rng.normal(size=len(pairs))
        results = []
        for tape, decode in ((Tape(), model.decode), (oracle.OracleTape(), oracle.decode)):
            leaves = decoder_leaves(tape, 3, seed=7)
            h = tape.leaf(h0, requires_grad=True)
            probs = decode(tape, leaves, h, pairs)
            tape.backward(tape.sum(mul(tape, probs, tape.constant(r))))
            results.append([probs.value, h.grad] + [leaves[name].grad for name in sorted(leaves)])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("zeros", [0.0, 0.5, 1.0])
    def test_scores_bit_equal_oracle(self, zeros):
        # class rows scored per slot against the rows gathered to (T, N, F)
        config, prep, _ = criterion_6()
        ctx, pattern = prep.ctx, prep.pattern
        rng = np.random.default_rng(int(zeros * 10))
        o0 = rng.normal(size=(ctx.counts.shape[0], 4))
        r = rng.normal(size=pattern.nnz)
        r[rng.random(pattern.nnz) < zeros] = 0.0
        results = []
        for tape in (Tape(), oracle.OracleTape()):
            o = tape.leaf(o0, requires_grad=True)
            if isinstance(tape, oracle.OracleTape):
                scores = tape.pair_dot(tape.gather_rows(o, ctx.row_class, ctx.row_scatter), pattern)
            else:
                scores = tape.pair_dot(o, ctx, pattern)
            tape.backward(tape.sum(mul(tape, scores, tape.constant(r))))
            results.append((scores.value, o.grad))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_training_step_bit_equals_oracle(self, transform):
        config, prep, store = criterion_6(transform)
        pairs = train_pairs(prep, config)
        results = []
        for tape in (Tape(), oracle.OracleTape()):
            leaves = store.leaves(tape)
            if isinstance(tape, oracle.OracleTape):
                feats = oracle.generate_features(tape, prep.ctx, leaves)
                weights = tape.segment_softmax(tape.pair_dot(feats, prep.pattern), prep.pattern.row_splits)
                h = model.forward(tape, leaves, prep.pattern, weights, transform, config.layers)
                rows = pairs.pairs
                if h.value.ndim == 2:
                    # the dct's slot-constant rows, read as the one slot of a stack
                    h = tape.reshape(h, (1,) + h.value.shape)
                    rows = rows * [1, 1, 0]
                probs = oracle.decode(tape, leaves, h, rows)
            else:
                probs = training.decode(tape, leaves, training.embed(tape, leaves, prep, config), pairs.pairs)
            loss = training.compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg)
            tape.backward(loss)
            results.append([loss.value, probs.value] + [leaves[name].grad for name in store.names()])
        assert len(results[0]) == 2 + len(store.names())
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("live_only", [False, True])
    def test_facewise_grads_of_a_broadcast_y_equal_a_contiguous_one(self, live_only):
        rng = np.random.default_rng(5)
        dense = (rng.random((4, 9, 9)) < 0.3) * rng.normal(size=(4, 9, 9))
        pattern = SlicePattern.from_sparse(SliceSparse3.from_dense(dense))
        values = np.concatenate([s.data for s in SliceSparse3.from_dense(dense).slices])
        values[::3] = 0.0
        op = FacewiseOperator(pattern, values, live_only)
        e = rng.normal(size=(9, 5))
        g = rng.normal(size=(4, 9, 5))
        got = op.grads(g, np.broadcast_to(e, (4, 9, 5)))
        want = op.grads(g, np.ascontiguousarray(np.broadcast_to(e, (4, 9, 5))))
        assert got[1].flags.c_contiguous
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        # the replicate backward's sum over the slots
        assert got[1].sum(axis=0).tobytes() == want[1].sum(axis=0).tobytes()


def rows_over_last_axis(arr):
    return arr.size // arr.shape[-1] if arr.ndim >= 2 and arr.shape[-1] else 0


class TestMemoryContract:
    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_no_scoring_value_or_capture_has_a_row_per_slot_and_node(self, monkeypatch, transform):
        config, prep, store = criterion_6(transform)
        tall = prep.t_slots * prep.n_nodes
        seen = []
        record = Tape._record

        def watched(tape, value, parents, backward):
            for arr in [value] + captured_arrays(backward):
                seen.append((backward.__qualname__.split(".")[1], arr.shape, rows_over_last_axis(arr)))
            return record(tape, value, parents, backward)

        monkeypatch.setattr(Tape, "_record", watched)
        tape = Tape()
        leaves = store.leaves(tape)
        aggregation_weights(tape, generate_features(tape, prep.ctx, leaves), prep.pattern)
        assert "pair_dot" in {op for op, _, _ in seen}
        assert [item for item in seen if item[2] == tall] == []

    def test_no_layer_value_capture_or_gradient_has_a_row_per_slot_and_node(self, monkeypatch):
        # the dct stack runs on the (N, F) rows every slot shares
        config, prep, store = criterion_6("dct")
        tall = prep.t_slots * prep.n_nodes
        seen = []

        def note(op, arrays):
            seen.extend((op, arr.shape, rows_over_last_axis(arr)) for arr in arrays if isinstance(arr, np.ndarray))

        record = Tape._record

        def watched(tape, value, parents, backward):
            op = backward.__qualname__.split(".")[1]
            held = captured_arrays(backward)
            for cell in backward.__closure__ or ():
                if hasattr(cell.cell_contents, "check"):
                    held += list(vars(cell.cell_contents).values())
            note(op, [value] + held)

            def rule(g):
                grads = backward(g)
                note(op, grads)
                return grads

            rule.__qualname__ = backward.__qualname__
            return record(tape, value, parents, rule)

        tape = Tape()
        leaves = store.leaves(tape)
        weights = aggregation_weights(tape, generate_features(tape, prep.ctx, leaves), prep.pattern)
        monkeypatch.setattr(Tape, "_record", watched)
        h = model.forward(tape, leaves, prep.pattern, weights, "dct", config.layers)
        assert h.value.shape == (prep.n_nodes, config.dim)
        tape.backward(tape.sum(h))
        assert {op for op, _, _ in seen} == {"m_product", "relu", "sum"}
        assert len(seen) > 4 * config.layers
        assert [item for item in seen if item[2] == tall] == []

    def test_after_decode_only_the_affine_inputs_of_pair_rows_are_alive(self, monkeypatch):
        config, prep, store = criterion_6()
        pairs = train_pairs(prep, config).pairs
        n_pairs = len(pairs)
        tape = Tape()
        leaves = store.leaves(tape)
        h = training.embed(tape, leaves, prep, config)
        made = []
        record = Tape._record

        def watched(tape, value, parents, backward):
            for arr in [value] + captured_arrays(backward):
                if arr.ndim >= 2 and arr.shape[0] == n_pairs and arr.dtype == np.float64:
                    made.append(weakref.ref(arr))
            return record(tape, value, parents, backward)

        monkeypatch.setattr(Tape, "_record", watched)
        start = len(tape._entries)
        probs = model.decode(tape, leaves, h, pairs)
        monkeypatch.undo()
        del h
        alive = [ref() for ref in made if ref() is not None]
        affines = [rule for _, _, rule in tape._entries[start:] if "affine" in rule.__qualname__]
        assert len(affines) == 2
        # the first affine reads the (P, 2F) view of the gathered (P, 2, F)
        # rows, the second the (P, F) hidden activations
        rows, hidden = (rule.__closure__[[*rule.__code__.co_freevars].index("vx")].cell_contents for rule in affines)
        assert rows.shape == (n_pairs, 2 * config.dim) and rows.base.shape == (n_pairs, 2, config.dim)
        assert hidden.shape == (n_pairs, config.dim)
        assert {id(a) for a in alive} <= {id(rows), id(rows.base), id(hidden)}
        assert probs.value.shape == (n_pairs,)

    def test_an_affine_input_is_freed_when_its_rule_returns(self, monkeypatch):
        config, prep, store = criterion_6()
        pairs = train_pairs(prep, config)
        inputs = []
        affine = Tape.affine

        def watched_affine(tape, x, w, b):
            out = affine(tape, x, w, b)
            ref = weakref.ref(x.value)
            base = weakref.ref(x.value.base) if isinstance(x.value.base, np.ndarray) else ref
            out_cell, parents, rule = tape._entries[-1]

            def checked(g):
                grads = rule(g)
                inputs.append((ref() is None, base() is None))
                return grads

            tape._entries[-1] = (out_cell, parents, checked)
            return out

        monkeypatch.setattr(Tape, "affine", watched_affine)
        tape = Tape()
        leaves = store.leaves(tape)
        probs = training.decode(tape, leaves, training.embed(tape, leaves, prep, config), pairs.pairs)
        loss = training.compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg)
        del probs
        tape.backward(loss)
        # two per perceptron, swept from the decoder's last; the decoder's
        # first reads a view of the gathered pair rows, which go with it
        assert [freed for freed, _ in inputs] == [True] * 6
        assert inputs[1] == (True, True)

    def test_replicate_is_a_read_only_view_of_the_embedding(self, monkeypatch):
        config, prep, store = criterion_6()
        values = []
        replicate = Tape.replicate

        def watched(tape, a, count):
            out = replicate(tape, a, count)
            values.append((out.value, a.value))
            return out

        monkeypatch.setattr(Tape, "replicate", watched)
        tape = Tape()
        leaves = store.leaves(tape)
        training.embed(tape, leaves, prep, config)
        ((value, embedding),) = values
        assert embedding is store.value("embed.e")
        assert value.shape == (prep.t_slots,) + embedding.shape
        assert np.shares_memory(value, embedding) and not value.flags.writeable
