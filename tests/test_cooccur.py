import io
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import gap_from_scratch
from synth import random_corpus
from claimgraph.cooccurrence import (
    PairCountTable,
    gap_filling_prop,
    load_pair_table,
    save_pair_table,
    score_corpus,
    update_pair_counts,
)
from claimgraph.errors import SchemaError, YearOrderError
from claimgraph.graphs import PaperGraph, build_graph


def make_graph(edges, paper_id="g", year=2000, nodes=()):
    node_set = {u for u, _ in edges} | {v for _, v in edges} | set(nodes)
    return PaperGraph(paper_id=paper_id, year=year, view="full",
                      nodes=node_set, edges=set(edges),
                      n_claims=len(edges), n_selfloop_claims=0)


def test_update_adds_one_per_paper_per_pair():
    table = PairCountTable()
    # triangle: three unordered pairs, once each regardless of direction
    g = make_graph([("A1", "B2"), ("B2", "C3"), ("C3", "A1")], year=1999)
    update_pair_counts(table, [g])
    assert table.counts == {("A1", "B2"): 1, ("A1", "C3"): 1, ("B2", "C3"): 1}
    assert table.through_year == 1999


def test_pair_counts_unordered_and_deduplicated():
    table = PairCountTable()
    # both directions between the same two codes: still one pair, one count
    g = make_graph([("A1", "B2"), ("B2", "A1")], year=1999)
    update_pair_counts(table, [g])
    assert table.counts == {("A1", "B2"): 1}


def test_counts_accumulate_across_years():
    table = PairCountTable()
    update_pair_counts(table, [make_graph([("A1", "B2")], year=1990)])
    update_pair_counts(table, [make_graph([("A1", "B2")], year=1991),
                               make_graph([("B2", "A1")], paper_id="h", year=1991)])
    assert table.counts[("A1", "B2")] == 3


def test_update_rejects_stale_or_mixed_years():
    table = PairCountTable()
    update_pair_counts(table, [make_graph([("A1", "B2")], year=1995)])
    with pytest.raises(YearOrderError):
        update_pair_counts(table, [make_graph([("A1", "B2")], year=1995)])
    with pytest.raises(YearOrderError):
        update_pair_counts(table, [make_graph([("A1", "B2")], year=1994)])
    with pytest.raises(YearOrderError):
        update_pair_counts(table, [make_graph([("A1", "B2")], year=1996),
                                   make_graph([("A1", "B2")], paper_id="h", year=1997)])


def test_gap_prop_counts_node_pairs_not_edges():
    table = PairCountTable()
    # pairs drawn from all nodes, including never-connected ones
    g = make_graph([("A1", "B2")], nodes=["C3"])
    assert gap_filling_prop(g, table, tau=1) == 1.0  # 3 pairs, all unseen
    table.counts[("A1", "B2")] = 5
    assert gap_filling_prop(g, table, tau=5) == pytest.approx(2 / 3)
    assert gap_filling_prop(g, table, tau=6) == 1.0


def test_gap_prop_missing_below_two_nodes():
    assert gap_filling_prop(make_graph([], nodes=["A1"]), PairCountTable(), 5) is None
    assert gap_filling_prop(make_graph([], nodes=[]), PairCountTable(), 5) is None


def test_planted_hot_and_cold_pairs():
    table = PairCountTable()
    hot = make_graph([("A1", "B2"), ("B2", "C3"), ("A1", "C3")])
    for year in range(1980, 1990):
        update_pair_counts(
            table, [make_graph(hot.edges, paper_id=f"w{year}", year=year)])
    # paper mixing the 3 hot pairs with 3 cold ones (via fresh node Z9)
    probe = make_graph([("A1", "B2"), ("Z9", "C3")], nodes=["B2"])
    # nodes: A1, B2, C3, Z9 -> 6 pairs; hot: (A1,B2),(A1,C3),(B2,C3)
    assert gap_filling_prop(probe, table, tau=5) == pytest.approx(3 / 6)
    assert gap_filling_prop(probe, table, tau=11) == 1.0


def test_score_corpus_first_year_all_ones():
    records = random_corpus(31, n_papers=20, year_lo=2000, year_hi=2002,
                            pool_size=12, max_claims=5)
    graphs = [build_graph(r) for r in records]
    first_year = min(g.year for g in graphs)
    scores, table = score_corpus(graphs, tau=5)
    for g in graphs:
        if g.year == first_year and len(g.nodes) >= 2:
            assert scores[g.paper_id] == 1.0
    assert table.through_year == max(g.year for g in graphs)


def test_score_corpus_matches_recount_oracle():
    records = random_corpus(77, n_papers=50, year_lo=1996, year_hi=1999,
                            pool_size=10, max_claims=6)
    graphs = [build_graph(r) for r in records]
    scores, _ = score_corpus(graphs, tau=3)
    want = gap_from_scratch(
        [(g.paper_id, g.year, g.nodes, g.edges) for g in graphs], tau=3)
    assert set(scores) == set(want)
    for pid in want:
        if want[pid] is None:
            assert scores[pid] is None
        else:
            assert scores[pid] == pytest.approx(want[pid])


PROBE_NODES = ["A1", "B2", "C3", "D4", "E5"]
PROBE_PAIRS = list(combinations(PROBE_NODES, 2))


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 12), min_size=len(PROBE_PAIRS),
                    max_size=len(PROBE_PAIRS)),
    tau_lo=st.integers(1, 10),
    bump=st.integers(1, 6),
)
def test_gap_prop_monotone_in_tau(counts, tau_lo, bump):
    # raising tau can only widen the "rarely seen" set
    table = PairCountTable()
    for pair, count in zip(PROBE_PAIRS, counts):
        if count:
            table.counts[pair] = count
    g = make_graph([], nodes=PROBE_NODES)
    lo = gap_filling_prop(g, table, tau=tau_lo)
    hi = gap_filling_prop(g, table, tau=tau_lo + bump)
    assert lo is not None and hi is not None
    assert hi >= lo


def test_table_roundtrip(tmp_path):
    table = PairCountTable()
    for year in (1999, 2000):
        update_pair_counts(table, [
            make_graph([("A1", "B2"), ("C3", "D4")], paper_id=f"p{year}",
                       year=year)])
    buf = io.StringIO()
    save_pair_table(table, buf)
    buf.seek(0)
    restored = load_pair_table(buf)
    assert restored == table
    # and a fresh update behaves the same on both
    g = make_graph([("A1", "B2")], paper_id="n", year=2001)
    update_pair_counts(table, [g])
    update_pair_counts(restored, [make_graph([("A1", "B2")], paper_id="n",
                                             year=2001)])
    assert restored == table


@pytest.mark.parametrize("text", [
    "#claimgraph-pairs v1\nthrough_year=2000\ncode1,code2,count\nA1,B2\n",
    "#claimgraph-pairs v1\nthrough_year=2000\ncode1,code2,count\nA1,B2,many\n",
    "#claimgraph-pairs v1\nthrough_year=soon\ncode1,code2,count\n",
    "#claimgraph-pairs v1\nthrough_year=2000\ncode1,code2,count\nB2,A1,1\n",
])
def test_malformed_table_file_is_a_schema_error(tmp_path, text):
    from claimgraph.cooccurrence import load_pair_table_file

    path = tmp_path / "pairs.txt"
    path.write_text(text)
    with pytest.raises(SchemaError, match="pairs.txt"):
        load_pair_table_file(str(path))


def test_failed_save_leaves_previous_table(tmp_path, monkeypatch):
    import claimgraph.cooccurrence as cooccur_mod

    path = tmp_path / "pairs.txt"
    table = PairCountTable()
    update_pair_counts(table, [make_graph([("A1", "B2")], year=1999)])
    cooccur_mod.save_pair_table_file(table, str(path))
    before = path.read_bytes()

    def fail_midway(state, fh):
        fh.write("#claimgraph-pairs v1\nthrough_year=")
        raise OSError("disk full")

    monkeypatch.setattr(cooccur_mod, "save_pair_table", fail_midway)
    with pytest.raises(OSError):
        cooccur_mod.save_pair_table_file(table, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.txt"]
