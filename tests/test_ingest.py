"""The columnar ingest and the sort-based assemble against the per-event and
per-slice code they replaced (``ingest_oracle.py``), bit for bit: the id
map, the binned CSR arrays, the slot edges, the split pair sets and masked
graph, the overlap tensor and the feature counts, or the same
``ParseError`` message."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from nohgnn import checkpoint, data, structural, tensor3, training
from nohgnn.errors import ParseError
from nohgnn.synth import planted_partition

NODES = ["0", "1", "2", "3", "17", "a", "b", "007", "é", "n-9"]
STAMPS = st.one_of(
    st.integers(-50, 50).map(str),
    st.integers(0, 40).map(lambda k: f"{1_700_000_000_000_000_000 + k}"),
    st.integers(0, 400).map(lambda k: f"{k / 4}"),
    st.integers(-20, 20).map(lambda k: f"{k / 8}e2"),
    st.sampled_from(["1_000", "+5", "-0.0", "3.9", "9e0"]),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", ",", ", ", " ,"])


@st.composite
def data_line(draw):
    fields = [draw(st.sampled_from(NODES)), draw(st.sampled_from(NODES)), draw(STAMPS)]
    if draw(st.booleans()):
        fields.append(draw(st.sampled_from(["1", "2.5", "-1e3", "nan"])))
    line = draw(SEPARATORS).join(fields)
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", ","]))


bad_line = st.sampled_from(
    ["0 1", "0 1 2 3 4", "0 1 abc", "0 1 nan", "0 1 inf", "0 1 2 x", ",,", ", # x", "0 1 0x10"]
)
other_line = st.sampled_from(["", "   ", "# comment", "  # indented, comment", "#"])


@st.composite
def edge_text(draw):
    lines = draw(st.lists(st.one_of(data_line(), data_line(), other_line), min_size=0, max_size=30))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_line))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "edges.txt"


def _load(load, path):
    try:
        return load(str(path)), None
    except ParseError as exc:
        return None, str(exc)


def assert_slices_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), name
        assert g.data.dtype == w.data.dtype


def assert_same_pipeline(events, old_events, id_map, t_slots, undirected, seed):
    """Bin, split and assemble the new way and the old way; every array agrees."""
    graph = data.bin_snapshots(events, t_slots, undirected=undirected, id_map=id_map)
    old_graph = oracle.bin_snapshots(old_events, t_slots, undirected=undirected, id_map=id_map)
    assert graph.n_nodes == old_graph.n_nodes and graph.id_map == old_graph.id_map
    assert_slices_equal(graph.adjacency.slices, old_graph.adjacency.slices)
    for got, s in zip(graph.slot_edges, old_graph.adjacency.slices):
        want = oracle.edges_of_slice(s, undirected)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    *roles, masked = data.split_edges(graph, seed=seed)
    *old_roles, old_masked = oracle.split_edges(old_graph, seed=seed)
    for got, want in zip(roles, old_roles):
        assert got.role == want.role
        assert got.pairs.dtype == want.pairs.dtype and np.array_equal(got.pairs, want.pairs)
        assert np.array_equal(got.labels, want.labels)
    assert_slices_equal(masked.adjacency.slices, old_masked.adjacency.slices)

    for k_hops in (1, 2, 3):
        b = tensor3.sparse_matpower_sum(masked.adjacency, k_hops)
        old_b = oracle.sparse_matpower_sum(old_masked.adjacency, k_hops)
        assert_slices_equal(b.slices, old_b.slices)
        ctx, old_ctx = structural.build_feature_context(b), oracle.build_feature_context(old_b)
        assert np.array_equal(ctx.unique_values, old_ctx.unique_values)
        assert ctx.row_class.shape == (old_ctx.t_slots, old_ctx.n_nodes)
        full = ctx.counts[ctx.row_class.ravel()]
        assert_slices_equal([full], [old_ctx.counts])
        assert full.shape == old_ctx.counts.shape


@settings(max_examples=150)
@given(text=edge_text(), t_slots=st.integers(1, 6), undirected=st.booleans(), seed=st.integers(0, 3))
def test_matches_oracle(scratch_file, text, t_slots, undirected, seed):
    scratch_file.write_bytes(text.encode("utf-8"))
    loaded, error = _load(data.load_edge_list, scratch_file)
    old_loaded, old_error = _load(oracle.load_edge_list, scratch_file)
    assert error == old_error
    if error is not None:
        return
    (events, id_map), (old_events, old_id_map) = loaded, old_loaded
    assert list(id_map.items()) == list(old_id_map.items())
    assert events.src.tolist() == [e.src for e in old_events]
    assert events.dst.tolist() == [e.dst for e in old_events]
    assert events.ts.tolist() == [e.timestamp for e in old_events]
    assert all(col.dtype == np.int64 for col in (events.src, events.dst, events.ts))
    assert_same_pipeline(events, old_events, id_map, t_slots, undirected, seed)


@settings(max_examples=50)
@given(
    rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-30, 30)), min_size=1, max_size=40),
    t_slots=st.integers(1, 5),
    undirected=st.booleans(),
)
def test_event_records_take_the_table_path(rows, t_slots, undirected):
    """A list of ``EdgeEvent`` records bins like the table of its columns."""
    records = [data.EdgeEvent(*row) for row in rows]
    table = data.EdgeTable.from_events(records)
    assert table.ts.tolist() == [row[2] for row in rows]
    assert_same_pipeline(records, [oracle.EdgeEvent(*row) for row in rows], {}, t_slots, undirected, 0)
    assert_slices_equal(data.bin_snapshots(records, t_slots, undirected).adjacency.slices,
                        data.bin_snapshots(table, t_slots, undirected).adjacency.slices)


def test_slot_product_past_int64_bins_exactly(tmp_path):
    # 73 * 9e18 overflows int64; the slot of every stamp must still be exact
    stamps = [0, 1, 123_456_789_012_345_678, 4_500_000_000_000_000_000, 8_999_999_999_999_999_999,
              9_000_000_000_000_000_000]
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{k} {k + 1} {ts}\n" for k, ts in enumerate(stamps)))
    events, id_map = data.load_edge_list(str(path))
    old_events, _ = oracle.load_edge_list(str(path))
    assert events.ts.tolist() == stamps
    graph = data.bin_snapshots(events, 73, id_map=id_map)
    assert [t for t in range(73) for _ in graph.slot_edges[t]] == [0, 0, 1, 36, 72, 72]
    assert_same_pipeline(events, old_events, id_map, 73, True, 0)


@pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809", "1e19"])
def test_stamp_outside_int64_names_line(tmp_path, token):
    path = tmp_path / "edges.txt"
    path.write_text(f"0 1 5\n# note\n0 1 {token}\n")
    with pytest.raises(ParseError, match=rf"edges.txt:3: timestamp '{token}' lies outside the int64 range"):
        data.load_edge_list(str(path))


def test_earlier_bad_line_wins_over_int64_range(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 99999999999999999999 x\n0 1 99999999999999999999\n")
    _, old_error = _load(oracle.load_edge_list, path)
    assert _load(data.load_edge_list, path)[1] == old_error
    assert old_error.endswith(":1: could not convert string to float: 'x'")


def test_pipeline_builds_as_many_scipy_matrices_at_8_as_at_80_slots(tmp_path, monkeypatch):
    """Binning, splitting, assembling, saving and loading the same events
    construct the same number of scipy sparse matrices at 8 slots as at 80:
    no stage builds one per slot."""
    events = planted_partition(t_slots=80, seed=3)
    built = []
    init = sp._compressed._cs_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp._compressed._cs_matrix, "__init__", counted)
    counts = []
    for t_slots in (8, 80):
        built.clear()
        graph = data.bin_snapshots(events, t_slots)
        train, val, test, masked = data.split_edges(graph, seed=0)
        splits = {"train": train, "val": val, "test": test}
        training.assemble(graph, masked, splits, training.TrainConfig())
        path = str(tmp_path / f"{t_slots}.nohg")
        checkpoint.save_dataset(path, graph, masked, splits, 0)
        checkpoint.load_dataset(path)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0
