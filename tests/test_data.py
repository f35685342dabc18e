import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sampler_oracle
from graph_helpers import has_edge
from nohgnn.data import (
    DynamicGraph,
    EdgeEvent,
    EdgeTable,
    LabeledPairSet,
    _apportion,
    bin_snapshots,
    load_edge_list,
    merge_pair_sets,
    negative_sample,
    split_edges,
)
from nohgnn.errors import ParameterError, ParseError, SamplingError
from nohgnn.tensor3 import SliceSparse3
from pattern_helpers import slice_stack


def write_edges(tmp_path, text, name="edges.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadEdgeList:
    def test_two_line_file(self, tmp_path):
        path = write_edges(tmp_path, "0 1 5\n1 2 9\n")
        events, id_map = load_edge_list(path)
        assert len(events) == 2
        assert len(id_map) == 3
        assert events.src.tolist() == [0, 1]
        assert events.dst.tolist() == [1, 2]
        assert events.ts.tolist() == [5, 9]
        assert events.ts.dtype == np.int64

    def test_first_appearance_remap(self, tmp_path):
        path = write_edges(tmp_path, "42 7 0\n7 99 1\n")
        events, id_map = load_edge_list(path)
        assert id_map == {"42": 0, "7": 1, "99": 2}
        assert (events.src[0], events.dst[0]) == (0, 1)
        assert (events.src[1], events.dst[1]) == (1, 2)

    def test_id_map_is_bijection_onto_range(self, tmp_path):
        path = write_edges(tmp_path, "5 3 0\n3 5 1\n9 5 2\n")
        _, id_map = load_edge_list(path)
        assert sorted(id_map.values()) == list(range(len(id_map)))

    def test_commas_comments_weights(self, tmp_path):
        path = write_edges(tmp_path, "# header\n0,1,5,2.5\n\n1, 2, 9\n")
        events, _ = load_edge_list(path)
        assert len(events) == 2
        assert events.ts.tolist() == [5, 9]

    def test_float_timestamps_truncate(self, tmp_path):
        path = write_edges(tmp_path, "0 1 1453438800.0\n")
        events, _ = load_edge_list(path)
        assert events.ts.tolist() == [1453438800]

    def test_nanosecond_timestamps_stay_exact(self, tmp_path):
        # float64 values near 1.7e18 are 256 apart, so a float parse merges all three
        path = write_edges(tmp_path, "0 1 1700000000000000000\n1 2 1700000000000000001\n2 3 1700000000000000002\n")
        events, _ = load_edge_list(path)
        assert events.ts.tolist() == [1700000000000000000, 1700000000000000001, 1700000000000000002]
        g = bin_snapshots(events, 3)
        assert [len(edges) for edges in g.slot_edges] == [1, 1, 1]
        assert has_edge(g, 2, 1, 1) and has_edge(g, 3, 2, 2)

    def test_infinite_timestamp_reports_line(self, tmp_path):
        path = write_edges(tmp_path, "0 1 5\n0 1 inf\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_edges(tmp_path, "0 1 5\n0 1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(path)

    def test_non_numeric_timestamp(self, tmp_path):
        path = write_edges(tmp_path, "0 1 abc\n")
        with pytest.raises(ParseError, match=":1:"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = write_edges(tmp_path, "# nothing\n")
        with pytest.raises(ParseError, match="no edge events"):
            load_edge_list(path)


class TestBinSnapshots:
    def test_uniform_binning_over_ten_ticks(self):
        events = [EdgeEvent(0, i % 3 + 1, ts) for i, ts in enumerate(range(10))]
        g = bin_snapshots(events, 2)
        for e, ts in zip(events, range(10)):
            t = 0 if ts < 5 else 1
            assert has_edge(g, e.src, e.dst, t)
        assert g.t_slots == 2

    def test_duplicate_edge_binarizes_to_unit(self):
        events = [EdgeEvent(0, 1, 0), EdgeEvent(0, 1, 0)]
        g = bin_snapshots(events, 1)
        assert g.adjacency.slices[0][0, 1] == 1.0
        assert len(g.slot_edges[0]) == 1

    def test_self_loops_dropped(self):
        events = [EdgeEvent(0, 0, 0), EdgeEvent(0, 1, 0)]
        g = bin_snapshots(events, 1)
        assert g.adjacency.slices[0][0, 0] == 0.0
        assert g.edge_count == 1

    def test_symmetrized_and_canonical(self):
        events = [EdgeEvent(2, 0, 0)]
        g = bin_snapshots(events, 1)
        assert g.adjacency.slices[0][0, 2] == 1.0
        assert g.adjacency.slices[0][2, 0] == 1.0
        np.testing.assert_array_equal(g.slot_edges[0], [[0, 2]])

    def test_equal_timestamps_warn_and_land_in_slot_zero(self, caplog):
        events = [EdgeEvent(0, 1, 7), EdgeEvent(1, 2, 7)]
        with caplog.at_level(logging.WARNING, logger="nohgnn.data"):
            g = bin_snapshots(events, 4)
        assert "slot 0" in caplog.text
        assert len(g.slot_edges[0]) == 2
        assert all(len(g.slot_edges[t]) == 0 for t in range(1, 4))

    def test_directed_graph_keeps_order(self):
        events = [EdgeEvent(1, 0, 0)]
        g = bin_snapshots(events, 1, undirected=False)
        assert g.adjacency.slices[0][1, 0] == 1.0
        assert g.adjacency.slices[0][0, 1] == 0.0
        np.testing.assert_array_equal(g.slot_edges[0], [[1, 0]])

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            bin_snapshots([EdgeEvent(0, 1, 0)], 0)
        with pytest.raises(ParameterError):
            bin_snapshots([], 3)

    @pytest.mark.parametrize("as_table", [False, True], ids=["events", "table"])
    @pytest.mark.parametrize(
        "events, named",
        [([EdgeEvent(-1, 0, 0)], r"event 0 \(-1, 0, 0\)"),
         ([EdgeEvent(0, 1, 0), EdgeEvent(2, -1, 5), EdgeEvent(-3, 0, 6)], r"event 1 \(2, -1, 5\)")],
        ids=["only", "second"],
    )
    def test_negative_endpoint_named(self, events, named, as_table):
        given = EdgeTable.from_events(events) if as_table else events
        with pytest.raises(ParameterError, match=f"^{named} has a negative endpoint id$"):
            bin_snapshots(given, 2)

    def test_rerun_is_bit_identical(self):
        rng = np.random.default_rng(30)
        events = [
            EdgeEvent(int(a), int(b), int(ts))
            for a, b, ts in zip(rng.integers(0, 12, 60), rng.integers(0, 12, 60), rng.integers(0, 100, 60))
        ]
        g1 = bin_snapshots(events, 5)
        g2 = bin_snapshots(events, 5)
        for s1, s2 in zip(g1.adjacency.slices, g2.adjacency.slices):
            assert np.array_equal(s1.indptr, s2.indptr)
            assert np.array_equal(s1.indices, s2.indices)
            assert np.array_equal(s1.data, s2.data)


def random_graph(seed, n=14, t_slots=4, density=0.25):
    rng = np.random.default_rng(seed)
    events = []
    for t in range(t_slots):
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    events.append(EdgeEvent(i, j, t))
    events.append(EdgeEvent(0, 1, 0))  # keep node ids anchored
    return bin_snapshots(events, t_slots)


class TestSplitEdges:
    def test_ten_edges_split_seven_two_one(self):
        events = [EdgeEvent(0, j, 0) for j in range(1, 11)]
        g = bin_snapshots(events, 1)
        train, val, test, _ = split_edges(g, seed=1)
        assert (train.size, val.size, test.size) == (7, 2, 1)

    def test_apportionment_within_one_of_exact(self):
        for n in range(3, 60):
            counts = _apportion(n, (0.7, 0.2, 0.1))
            assert sum(counts) == n
            for c, f in zip(counts, (0.7, 0.2, 0.1)):
                assert abs(c - n * f) < 1.0 + 1e-12

    def test_roles_partition_the_edges(self):
        g = random_graph(31)
        train, val, test, _ = split_edges(g, seed=2)
        for t in range(g.t_slots):
            original = {tuple(e) for e in g.slot_edges[t]}
            got = []
            for ps in (train, val, test):
                rows = ps.pairs[ps.pairs[:, 2] == t]
                got.extend((int(i), int(j)) for i, j, _ in rows)
            assert len(got) == len(original)
            assert set(got) == original

    def test_masked_graph_hides_val_test(self):
        g = random_graph(32)
        train, val, test, masked = split_edges(g, seed=3)
        for ps in (val, test):
            for i, j, t in ps.pairs:
                assert not has_edge(masked, int(i), int(j), int(t))
                assert not has_edge(masked, int(j), int(i), int(t))
        for i, j, t in train.pairs:
            assert has_edge(masked, int(i), int(j), int(t))

    def test_same_seed_identical(self):
        g = random_graph(33)
        a = split_edges(g, seed=7)
        b = split_edges(g, seed=7)
        for x, y in zip(a[:3], b[:3]):
            np.testing.assert_array_equal(x.pairs, y.pairs)

    def test_small_slot_goes_to_train(self, caplog):
        events = [EdgeEvent(0, 1, 0), EdgeEvent(0, 2, 0), EdgeEvent(0, 1, 5), EdgeEvent(0, 2, 5), EdgeEvent(0, 3, 5)]
        g = bin_snapshots(events, 2)
        with caplog.at_level(logging.WARNING, logger="nohgnn.data"):
            train, val, test, _ = split_edges(g, seed=4)
        assert "assigning all to train" in caplog.text
        slot0 = train.pairs[train.pairs[:, 2] == 0]
        assert len(slot0) == 2
        # slot 1 (3 edges) apportions to (2, 1, 0); slot 0 stays whole
        assert val.size + test.size == 1

    @pytest.mark.parametrize("undirected", [True, False])
    def test_masked_graph_equals_the_constructors_without_a_symmetry_check(self, monkeypatch, undirected):
        rng = np.random.default_rng(35)
        events = [EdgeEvent(int(i), int(j), int(t)) for i, j, t in rng.integers(0, [12, 12, 4], size=(120, 3)) if i != j]
        g = bin_snapshots(events, 4, undirected=undirected)
        checked = []
        check = DynamicGraph._check_symmetric
        monkeypatch.setattr(DynamicGraph, "_check_symmetric", lambda graph: checked.append(graph) or check(graph))
        _, val, test, masked = split_edges(g, seed=5)
        assert checked == []
        # the same graph through the constructor: the full adjacency without
        # the held-out entries and, when undirected, their mirrors
        dense = g.adjacency.densify().data.copy()
        for i, j, t in np.concatenate([val.pairs, test.pairs]):
            dense[t, i, j] = 0.0
            if undirected:
                dense[t, j, i] = 0.0
        want = DynamicGraph(g.n_nodes, SliceSparse3.from_dense(dense), g.id_map, undirected)
        assert checked == ([want] if undirected else [])
        assert (masked.n_nodes, masked.t_slots, masked.undirected, masked.id_map) == (want.n_nodes, want.t_slots, undirected, g.id_map)
        for got_slice, want_slice in zip(masked.adjacency.slices, want.adjacency.slices):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got_slice, name), getattr(want_slice, name)), name
        assert masked.slot_keys().dtype == np.int64
        assert np.array_equal(masked.slot_keys(), want.slot_keys())
        for t in range(g.t_slots):
            assert np.array_equal(masked.slot_edges[t], want.slot_edges[t])

    def test_bad_fractions(self):
        g = random_graph(34)
        with pytest.raises(ParameterError):
            split_edges(g, fractions=(0.5, 0.5, 0.5))
        with pytest.raises(ParameterError):
            split_edges(g, fractions=(1.0, 0.0, 0.0))


class TestNegativeSample:
    def test_three_node_complement(self):
        g = bin_snapshots([EdgeEvent(0, 1, 0), EdgeEvent(2, 0, 5)], 2)
        positives = split_edges(g, seed=0)[0]
        slot0 = positives.pairs[positives.pairs[:, 2] == 0]
        np.testing.assert_array_equal(slot0, [[0, 1, 0]])
        neg = negative_sample(g, positives, seed=5)
        row = neg.pairs[neg.pairs[:, 2] == 0][0]
        assert (int(row[0]), int(row[1])) == (0, 2)

    def test_ratio_counts(self):
        g = random_graph(35)
        positives = split_edges(g, seed=1)[0]
        for ratio in (1, 2):
            neg = negative_sample(g, positives, ratio=ratio, seed=6)
            assert neg.size == ratio * positives.size
            assert np.all(neg.labels == 0.0)

    def test_no_collision_with_any_positive(self):
        g = random_graph(36)
        positives = split_edges(g, seed=2)[0]
        neg = negative_sample(g, positives, seed=7)
        for i, j, t in neg.pairs:
            assert not has_edge(g, int(i), int(j), int(t))
            assert not has_edge(g, int(j), int(i), int(t))
            assert i != j

    def test_no_duplicates_within_call(self):
        g = random_graph(37, n=16, density=0.25)
        positives = split_edges(g, seed=3)[0]
        neg = negative_sample(g, positives, ratio=2, seed=8)
        seen = {tuple(map(int, row)) for row in neg.pairs}
        assert len(seen) == neg.size

    def test_deterministic(self):
        g = random_graph(38)
        positives = split_edges(g, seed=4)[0]
        a = negative_sample(g, positives, seed=9)
        b = negative_sample(g, positives, seed=9)
        np.testing.assert_array_equal(a.pairs, b.pairs)

    def test_complete_slice_fails(self):
        events = [EdgeEvent(i, j, 0) for i in range(4) for j in range(i + 1, 4)]
        g = bin_snapshots(events, 1)
        positives = split_edges(g, seed=0)[0]
        with pytest.raises(SamplingError):
            negative_sample(g, positives, ratio=3, seed=10)

    def test_exhausted_anchor_falls_back(self):
        # node 0 is adjacent to everyone, so corrupt-tail has no room and the
        # sampler must fall back to some other non-edge of the slot
        events = [EdgeEvent(0, j, 0) for j in range(1, 5)]
        g = bin_snapshots(events, 1)
        positives = split_edges(g, seed=0)[0]
        neg = negative_sample(g, positives, ratio=1, seed=11)
        assert neg.size == positives.size
        for i, j, t in neg.pairs:
            assert not has_edge(g, int(i), int(j), int(t))

    @settings(max_examples=15)
    @given(st.integers(0, 2**32 - 1))
    def test_property_negatives_disjoint_from_edges(self, seed):
        g = random_graph(seed % 1000, n=10, t_slots=3, density=0.3)
        positives = split_edges(g, seed=seed % 97)[0]
        if positives.size == 0:
            return
        neg = negative_sample(g, positives, seed=seed % 89)
        for i, j, t in neg.pairs:
            assert not has_edge(g, int(i), int(j), int(t))


def matrix_graph(rng, n, densities, undirected):
    """A graph with one independent Bernoulli adjacency per slot density."""
    slices = []
    for p in densities:
        dense = rng.random((n, n)) < p
        np.fill_diagonal(dense, False)
        if undirected:
            dense = np.triu(dense, 1)
            dense = dense | dense.T
        slices.append(sp.csr_matrix(dense.astype(np.float64)))
    return DynamicGraph(n, slice_stack(slices, shape=(n, n)), {}, undirected)


def oracle_outcome(sampler, g, positives, ratio, seed):
    try:
        return sampler(g, positives, ratio=ratio, seed=seed).pairs
    except SamplingError as exc:
        return str(exc)


class TestNegativeSampleOracle:
    """The vectorised sampler against the per-candidate loop it replaced."""

    @settings(max_examples=150)
    @given(
        n=st.integers(2, 10),
        densities=st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]), min_size=1, max_size=4),
        undirected=st.booleans(),
        ratio=st.integers(1, 3),
        n_pos=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_loop(self, n, densities, undirected, ratio, n_pos, seed):
        rng = np.random.default_rng(seed)
        g = matrix_graph(rng, n, densities, undirected)
        # anchors need not be edges: slots without edges and full slots both occur
        positives = LabeledPairSet(
            np.column_stack([rng.integers(0, n, n_pos), rng.integers(0, n, n_pos), rng.integers(0, len(densities), n_pos)]),
            np.ones(n_pos),
            "train",
        )
        got = oracle_outcome(negative_sample, g, positives, ratio, [seed, 1])
        want = oracle_outcome(sampler_oracle.negative_sample, g, positives, ratio, [seed, 1])
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("undirected", [True, False])
    def test_exhausted_rounds_use_both_fallbacks(self, undirected):
        # hub 0 misses only nodes 198 and 199 among 200, so 32 rounds of
        # uniform tails often do not find them and the anchor fallback takes
        # them; the third negative has to come from the whole-slot fallback
        rng = np.random.default_rng(4)
        g = matrix_graph(rng, 200, [0.05], undirected)
        s = g.adjacency.slices[0].tolil()
        s[0, 1:198] = 1.0
        s[0, 198:] = 0.0
        if undirected:
            s[1:198, 0] = 1.0
            s[198:, 0] = 0.0
        s = s.tocsr()
        g = DynamicGraph(200, slice_stack([s], shape=(200, 200)), {}, undirected)
        positives = LabeledPairSet(np.zeros((3, 3), dtype=np.int64), np.ones(3), "train")
        for seed in range(4):
            got = negative_sample(g, positives, ratio=1, seed=seed).pairs
            np.testing.assert_array_equal(got, sampler_oracle.negative_sample(g, positives, ratio=1, seed=seed).pairs)
            assert np.sum((got[:, 0] == 0) & (got[:, 1] >= 198)) == 2

    @pytest.mark.parametrize("undirected", [True, False])
    def test_larger_graph_bit_equal(self, undirected):
        rng = np.random.default_rng(5)
        g = matrix_graph(rng, 120, [0.02, 0.1, 0.3], undirected)
        for ratio, seed in ((1, 0), (3, [7, 2])):
            positives = split_edges(g, seed=ratio)[0]
            np.testing.assert_array_equal(
                negative_sample(g, positives, ratio=ratio, seed=seed).pairs,
                sampler_oracle.negative_sample(g, positives, ratio=ratio, seed=seed).pairs,
            )


class TestPairSets:
    def test_merge(self):
        a = split_edges(random_graph(39), seed=0)[0]
        b = negative_sample(random_graph(39), a, seed=1)
        merged = merge_pair_sets(a, b)
        assert merged.size == a.size + b.size
        assert merged.labels[: a.size].sum() == a.size
        assert merged.labels[a.size :].sum() == 0
