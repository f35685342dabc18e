"""What one training step holds, and what holding less changed.

The memory contracts: scoring keeps its features per class, the dct layer
stack keeps no array with a row per slot and node, the decoder builds no
(P, 2F) array and keeps only the live embedding rows, the int index of the
pairs and the hidden activations its layers read, an affine layer lets its
input go once the weight gradient is computed, and the replicated embedding
is a view. The differential tests compare the step with the earlier code in
``score_decode_oracle.py``: every value up to the embedding keeps its bits;
the decoder's outputs and every gradient move within a named tolerance,
as the decoder's first layer and the class-pair score backward sum in
another order.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import score_decode_oracle as oracle
from nohgnn import model, training
from nohgnn.overlap import aggregation_weights, normalize_scores, overlap_scores
from nohgnn.structural import ClassFeatures, generate_features
from nohgnn.synth import planted_partition_graph
from nohgnn.tape import Tape
from nohgnn.tensor3 import FacewiseOperator, SlicePattern, SliceSparse3
from tape_helpers import mul, total


# Tolerances relative to a value's largest entry. The class-pair score
# backward sums each class's terms in another order than the per-slot
# oracle: the class rows' gradient may differ by ROW_GRAD_RTOL (measured
# worst 5.4e-16). The decoder's per-row projections h_i W1[:F] + h_j W1[F:]
# sum its first layer in another order than one product of the gathered
# (P, 2F) rows: its probabilities, and every gradient behind them, may
# differ from the gather oracle's by DECODE_RTOL (measured worst 2.0e-16 on
# the probabilities, 4.7e-14 on the decoder cases and 1.3e-13 on dec.b1 in
# the identity step, a sum of hidden gradients that cancels). The gen.*
# gradients carry both orders: GEN_GRAD_RTOL (measured worst 6.9e-13 under
# the identity and 3.2e-11 under the dct, on gen.theta.b2).
ROW_GRAD_RTOL = 1e-14
GEN_GRAD_RTOL = 1e-10
DECODE_RTOL = 1e-12


def assert_within(got, want, rtol):
    assert got.shape == want.shape
    scale = max(np.abs(want).max(), np.finfo(float).tiny)
    assert np.abs(got - want).max() <= rtol * scale


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


def op_name(rule):
    """The tape op, or test-side op, that recorded a backward rule."""
    return rule.__qualname__.split(".<locals>")[0].split(".")[-1]


def captured(rule, name):
    """The value a backward rule's closure holds under ``name``."""
    return rule.__closure__[rule.__code__.co_freevars.index(name)].cell_contents


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
        # per-row projections sum the first layer in another order than the
        # gathered (P, 2F) rows: every probability and gradient within
        # DECODE_RTOL, for a (T, N, F) stack and for the dct's (N, F) rows
        rng = np.random.default_rng(len(case))
        h0 = rng.normal(size=(2, 5, 3))
        pairs = np.array(PAIR_CASES[case])
        r = rng.normal(size=len(pairs))
        for value in (h0, h0[1]):
            results = []
            for decode in (model.decode, oracle.gather_decode):
                tape = Tape()
                leaves = decoder_leaves(tape, 3, seed=7)
                h = tape.leaf(value, requires_grad=True)
                probs = decode(tape, leaves, h, pairs)
                tape.backward(total(tape, mul(tape, probs, tape.constant(r))))
                results.append([probs.value, h.grad] + [leaves[name].grad for name in sorted(leaves)])
            for got, want in zip(*results):
                assert_within(got, want, DECODE_RTOL)

    @pytest.mark.parametrize("zeros", [0.0, 0.5, 1.0])
    def test_scores_bit_equal_oracle(self, zeros):
        # the class pairs scored once against the class rows scored per
        # slot, and those against the rows gathered to (T, N, F): the scores
        # and their softmax weights keep every bit, and only the class rows'
        # gradient, summed per pair and not per slot, moves
        config, prep, _ = criterion_6()
        ctx, pattern = prep.ctx, prep.pattern
        rng = np.random.default_rng(int(zeros * 10))
        o0 = rng.normal(size=(ctx.counts.shape[0], 4))
        r = rng.normal(size=pattern.nnz)
        r[rng.random(pattern.nnz) < zeros] = 0.0
        results = []
        for tape, score in (
            (Tape(), lambda tape, o: overlap_scores(tape, ClassFeatures(o, ctx), pattern)),
            (oracle.OracleTape(), lambda tape, o: tape.slot_pair_dot(o, ctx, pattern)),
            (oracle.OracleTape(), lambda tape, o: tape.pair_dot(tape.gather_rows(o, ctx.row_class), pattern)),
        ):
            o = tape.leaf(o0, requires_grad=True)
            scores = score(tape, o)
            weights = normalize_scores(tape, scores, pattern)
            tape.backward(total(tape, mul(tape, scores, tape.constant(r))))
            results.append((scores.value, weights.value, o.grad))
        (got, slot, gathered) = results
        for a, b, c in zip(got[:2], slot[:2], gathered[:2]):
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert slot[2].tobytes() == gathered[2].tobytes()
        assert_within(got[2], slot[2], ROW_GRAD_RTOL)

    @pytest.mark.parametrize("transform", ["identity", "dct"])
    def test_training_step_bit_equals_oracle(self, transform):
        # every value up to the embedding keeps its bits; the probabilities,
        # the loss and every gradient move within DECODE_RTOL, which the
        # decoder's per-row projections sum in another order, and the
        # generator gradients within GEN_GRAD_RTOL, which the class-pair
        # score backward sums in another order too
        config, prep, store = criterion_6(transform)
        pairs = train_pairs(prep, config)
        results = []
        for tape in (Tape(), oracle.OracleTape()):
            leaves = store.leaves(tape)
            if isinstance(tape, oracle.OracleTape):
                feats = oracle.generate_features(tape, prep.ctx, leaves)
                weights = tape.segment_softmax(tape.pair_dot(feats, prep.pattern), prep.pattern.row_splits)
                h = model.forward(tape, leaves, prep.pattern, weights, transform, config.layers)
                probs = oracle.gather_decode(tape, leaves, h, pairs.pairs)
            else:
                h = training.embed(tape, leaves, prep, config)
                probs = training.decode(tape, leaves, h, pairs.pairs)
            loss = training.compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg)
            tape.backward(loss)
            results.append([h.value, loss.value, probs.value] + [leaves[name].grad for name in store.names()])
        assert len(results[0]) == 3 + len(store.names())
        names = ["embedding", "loss", "probs"] + store.names()
        assert sum(name.startswith("gen.") for name in names) == 8
        assert results[0][0].tobytes() == results[1][0].tobytes()
        for name, got, want in zip(names[1:], *(r[1:] for r in results)):
            assert_within(got, want, GEN_GRAD_RTOL if name.startswith("gen.") else DECODE_RTOL)

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
                seen.append((op_name(backward), arr.shape, rows_over_last_axis(arr)))
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
            op = op_name(backward)
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
        tape.backward(total(tape, h))
        assert {op for op, _, _ in seen} == {"m_product", "relu", "total"}
        assert len(seen) > 4 * config.layers
        assert [item for item in seen if item[2] == tall] == []

    def test_after_decode_only_the_affine_inputs_of_pair_rows_are_alive(self, monkeypatch):
        # no value or capture of the decoder holds P * 2F floats: the first
        # layer's rule keeps the embedding rows some pair reads, its weight
        # and the int index of the pairs into those rows; the second layer's
        # rule the (P, F) hidden activations
        config, prep, store = criterion_6()
        pairs = train_pairs(prep, config).pairs
        n_pairs, dim = len(pairs), config.dim
        tape = Tape()
        leaves = store.leaves(tape)
        h = training.embed(tape, leaves, prep, config)
        n_live = len(np.unique(pairs[:, 2:] * prep.n_nodes + pairs[:, :2]))
        made = []
        record = Tape._record

        def watched(tape, value, parents, backward):
            for arr in [value] + captured_arrays(backward):
                if arr.dtype == np.float64:
                    made.append(weakref.ref(arr))
            return record(tape, value, parents, backward)

        monkeypatch.setattr(Tape, "_record", watched)
        start = len(tape._entries)
        probs = model.decode(tape, leaves, h, pairs)
        monkeypatch.undo()
        del h
        alive = [ref() for ref in made if ref() is not None]
        rules = {op_name(rule): rule for _, _, rule in tape._entries[start:]}
        assert list(rules) == ["pair_affine", "relu", "affine", "reshape", "sigmoid"]
        first = {name: captured(rules["pair_affine"], name) for name in ("picked", "local", "vw")}
        hidden = captured(rules["affine"], "vx")
        assert first["picked"].shape == (n_live, dim)
        assert first["local"].shape == (n_pairs, 2) and first["local"].dtype == np.int64
        assert first["vw"] is store.value("dec.w1")
        assert hidden.shape == (n_pairs, dim)
        assert all(arr.size != n_pairs * 2 * dim for arr in alive)
        kept = {id(first["picked"]), id(hidden), id(probs.value), id(store.value("dec.w1")), id(store.value("dec.w2"))}
        assert {id(a) for a in alive} <= kept
        assert probs.value.shape == (n_pairs,)

    def test_an_affine_input_is_freed_when_its_rule_returns(self, monkeypatch):
        config, prep, store = criterion_6()
        pairs = train_pairs(prep, config)
        n_pairs = len(pairs.pairs)
        swept = []

        def watch(op, held):
            def watched(tape, *args):
                out = op(tape, *args)
                out_cell, parents, rule = tape._entries[-1]
                ref = weakref.ref(held(rule, args))

                def checked(g):
                    grads = rule(g)
                    swept.append((op.__name__, ref() is None, [grad.size for grad in grads]))
                    return grads

                tape._entries[-1] = (out_cell, parents, checked)
                return out

            return watched

        monkeypatch.setattr(Tape, "affine", watch(Tape.affine, lambda rule, args: args[0].value))
        monkeypatch.setattr(Tape, "pair_affine", watch(Tape.pair_affine, lambda rule, args: captured(rule, "picked")))
        tape = Tape()
        leaves = store.leaves(tape)
        probs = training.decode(tape, leaves, training.embed(tape, leaves, prep, config), pairs.pairs)
        loss = training.compute_loss(tape, probs, pairs.labels, leaves, config.beta_reg)
        del probs
        tape.backward(loss)
        # the decoder's two layers swept first, then two per perceptron; the
        # first layer's live rows go once its weight gradient is computed,
        # and no gradient has a row of 2F per pair
        assert [(op, freed) for op, freed, _ in swept] == [("affine", True), ("pair_affine", True)] + [("affine", True)] * 4
        assert all(size != n_pairs * 2 * config.dim for _, _, sizes in swept for size in sizes)

    def test_facewise_operator_makes_no_copy_of_a_broadcast_y(self):
        # the identity's first layer reads the embedding broadcast over the
        # slots: its product and its gradients allocate their outputs and
        # no (W*N, F) copy of the embedding, and keep the bits of a
        # contiguous copy's
        rng = np.random.default_rng(8)
        w, n, f = 6, 300, 64
        dense = (rng.random((w, n, n)) < 0.01) * rng.random((w, n, n))
        stack = SliceSparse3.from_dense(dense)
        op = FacewiseOperator(SlicePattern.from_sparse(stack), stack.matrix.data, live_only=True)
        y = np.broadcast_to(rng.normal(size=(n, f)), (w, n, f))
        g = rng.normal(size=(w, n, f))
        tracemalloc.start()
        try:
            out, b_hat = op.apply(y)
            apply_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = op.grads(g, b_hat)
            grads_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert apply_peak < 1.5 * g.nbytes and grads_peak < 1.5 * g.nbytes
        copy = np.ascontiguousarray(y)
        assert out.tobytes() == op.apply(copy)[0].tobytes()
        for got, want in zip(grads, op.grads(g, copy)):
            assert got.tobytes() == want.tobytes()

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
