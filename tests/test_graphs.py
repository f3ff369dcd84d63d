import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_paths, induced_subgraphs
from synth import records_to_jsonl
from claimgraph.centrality import paper_centrality_stats
from claimgraph.cooccurrence import PairCountTable, gap_filling_prop, update_pair_counts
from claimgraph.errors import PathBudgetExceeded
from claimgraph.graphs import (
    PaperGraph,
    build_graph,
    count_paths,
    iter_simple_paths,
    source_sink_ratio,
)
from claimgraph.model import ClaimEdge, PaperRecord
from claimgraph.novelty import canonical_signature, iter_subgraph_signatures
from claimgraph.pipeline import PipelineConfig, complexity_table, run_pipeline


def graph_from_edges(edges, paper_id="g", year=2000, view="full"):
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    return PaperGraph(paper_id=paper_id, year=year, view=view,
                      nodes=nodes, edges=set(edges))


def measures_of(record):
    """The record's `measures` row, by column."""
    return {col: values[0] for col, values in complexity_table([record]).items()}


# --- collapsing and views ----------------------------------------------


def test_duplicate_claims_collapse_but_still_count():
    rec = PaperRecord("p", 2000, edges=(
        ClaimEdge("A1", "B2", source_text="one", methods=("OLS",)),
        ClaimEdge("A1", "B2", source_text="two", methods=("IV",)),
        ClaimEdge("B2", "C3", methods=("OLS",)),
    ))
    g = build_graph(rec)
    assert rec.claim_counts()[0] == 3
    assert g.edges == (("A1", "B2"), ("B2", "C3"))


def test_self_loops_dropped_and_counted(tmp_path):
    rec = PaperRecord("p", 2000, edges=(
        ClaimEdge("A1", "A1", methods=("OLS",)),
        ClaimEdge("A1", "B2", methods=("OLS",)),
    ))
    g = build_graph(rec)
    assert rec.claim_counts()[0] == 2
    assert g.edges == (("A1", "B2"),)
    assert g.nodes == ("A1", "B2")
    corpus = tmp_path / "loop.jsonl"
    corpus.write_text(records_to_jsonl([rec]))
    run_pipeline(PipelineConfig(corpus=str(corpus)), str(tmp_path / "out"))
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "selfloop_claims_dropped=1" in manifest


def test_views_filter_claims_before_collapse():
    rec = PaperRecord("p", 2000, edges=(
        ClaimEdge("A1", "B2", source_text="causal route", methods=("IV",)),
        ClaimEdge("A1", "B2", source_text="descriptive route", methods=("OLS",)),
        ClaimEdge("B2", "C3", methods=("OLS",)),
    ))
    full = build_graph(rec, "full")
    causal = build_graph(rec, "causal")
    noncausal = build_graph(rec, "noncausal")
    assert full.edges == (("A1", "B2"), ("B2", "C3"))
    # the mixed-evidence pair shows up on both sides
    assert causal.edges == (("A1", "B2"),)
    assert noncausal.edges == (("A1", "B2"), ("B2", "C3"))
    assert rec.claim_counts()[:2] == (3, 1)


def test_view_nodes_come_from_view_claims_only():
    rec = PaperRecord("p", 2000, edges=(
        ClaimEdge("A1", "B2", methods=("RCT",)),
        ClaimEdge("C3", "D4", methods=("OLS",)),
    ))
    causal = build_graph(rec, "causal")
    assert causal.nodes == ("A1", "B2")


def test_paper_graph_stores_sorted_tuples():
    g = PaperGraph("p", 2000, "full", nodes={"C3", "A1", "B2"},
                   edges={("B2", "C3"), ("A1", "C3"), ("A1", "B2")})
    assert g.nodes == ("A1", "B2", "C3")
    assert g.edges == (("A1", "B2"), ("A1", "C3"), ("B2", "C3"))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=16), st.data())
def test_consumers_match_the_oracles_whatever_the_claim_order(int_pairs, data):
    """Paths, subgraph signatures, gap scores and centrality stats of a graph
    built from claims in a shuffled order equal what the oracles and the
    sorted-set formulas give from the raw claims."""
    claims = data.draw(st.permutations(
        [ClaimEdge(f"C{u}", f"C{v}", methods=("OLS",)) for u, v in int_pairs]))
    graph = build_graph(PaperRecord("p", 2000, edges=tuple(claims)))
    edges = {(c.source, c.sink) for c in claims if c.source != c.sink}
    nodes = {node for edge in edges for node in edge}
    assert graph.edges == tuple(sorted(edges))
    assert graph.nodes == tuple(sorted(nodes))
    assert sorted(iter_simple_paths(graph)) == sorted(brute_force_paths(nodes, edges))
    for size in (2, 3, 4):
        assert list(iter_subgraph_signatures(graph, size)) == [
            canonical_signature(combo, sub)
            for combo, sub in induced_subgraphs(nodes, edges, size)]
    prior = build_graph(PaperRecord("q", 1999, edges=tuple(claims[::2])))
    table = update_pair_counts(PairCountTable(), [prior])
    pairs = list(combinations(sorted(nodes), 2))
    for tau in (1, 2):
        rare = sum(table.counts.get(pair, 0) < tau for pair in pairs)
        assert gap_filling_prop(graph, table, tau) == (rare / len(pairs) if pairs else None)
    eigen = {f"C{i}": (i + 1) / 7 for i in range(0, 7, 2)}
    ranks = {f"C{i}": 1 / (i + 3) for i in range(7)}
    stats = paper_centrality_stats(graph, eigen, ranks)
    for scores, mean, var in ((eigen, stats.mean_eigen, stats.var_eigen),
                              (ranks, stats.mean_pagerank, stats.var_pagerank)):
        values = [scores.get(node, 0.0) for node in nodes]
        if not values:
            assert mean is None and var is None
            continue
        assert mean == math.fsum(values) / len(values)
        assert var == math.fsum((v - mean) ** 2 for v in values) / len(values)


def test_build_graph_rejects_unknown_view():
    with pytest.raises(ValueError):
        build_graph(PaperRecord("p", 2000), "directed")


# --- path enumeration ---------------------------------------------------


def test_chain_path_count_closed_form():
    # a directed chain on n nodes has n(n-1)/2 simple paths
    for n in range(2, 9):
        edges = [(f"A{i}", f"A{i+1}") for i in range(1, n)]
        g = graph_from_edges(edges)
        n_paths, longest = count_paths(g)
        assert n_paths == n * (n - 1) // 2
        assert longest == n - 1


def test_two_cycle_paths():
    g = graph_from_edges([("A1", "B2"), ("B2", "A1")])
    paths = sorted(iter_simple_paths(g))
    assert paths == [("A1", "B2"), ("B2", "A1")]


def test_max_len_truncates_enumeration():
    edges = [(f"A{i}", f"A{i+1}") for i in range(1, 6)]
    g = graph_from_edges(edges)
    paths = list(iter_simple_paths(g, max_len=2))
    assert all(len(p) - 1 <= 2 for p in paths)
    assert len(paths) == 5 + 4


def test_path_budget_raises_with_paper_id():
    # complete digraph on 8 nodes has far more than 50 simple paths
    nodes = [f"A{i}" for i in range(1, 9)]
    edges = [(u, v) for u in nodes for v in nodes if u != v]
    g = graph_from_edges(edges, paper_id="boom")
    with pytest.raises(PathBudgetExceeded) as err:
        count_paths(g, cap=50)
    assert "boom" in str(err.value)


def test_paths_match_brute_force_on_random_graphs():
    rng = random.Random(20260817)
    for trial in range(60):
        n = rng.randint(2, 7)
        nodes = [f"A{i}" for i in range(1, n + 1)]
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < 0.35}
        g = graph_from_edges(edges or {(nodes[0], nodes[-1])})
        got = sorted(iter_simple_paths(g))
        want = sorted(brute_force_paths(g.nodes, g.edges))
        assert got == want, f"trial {trial}"


@settings(max_examples=120, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20))
def test_path_enumeration_properties(int_edges):
    edges = {(f"N{u}", f"N{v}") for u, v in int_edges if u != v}
    if not edges:
        return
    g = graph_from_edges(edges)
    paths = list(iter_simple_paths(g))
    assert len(paths) == len(set(paths))          # no duplicates
    for p in paths:
        assert len(p) == len(set(p))              # simple
        assert all((p[i], p[i + 1]) in edges for i in range(len(p) - 1))
    assert sorted(brute_force_paths(g.nodes, edges)) == sorted(paths)


def test_path_count_invariant_under_relabeling():
    rng = random.Random(7)
    nodes = [f"A{i}" for i in range(1, 7)]
    edges = {(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.4}
    relabel = dict(zip(nodes, [f"Z{i}" for i in range(9, 3, -1)]))
    g1 = graph_from_edges(edges)
    g2 = graph_from_edges({(relabel[u], relabel[v]) for u, v in edges})
    assert count_paths(g1) == count_paths(g2)


# --- ratios and measure bundles ------------------------------------------


def test_source_sink_ratio_epsilon_and_empty():
    g = graph_from_edges([("A1", "B2")])
    assert source_sink_ratio(g) == pytest.approx(1.0, abs=1e-8)
    empty = PaperGraph("p", 2000, "full", set(), set())
    assert source_sink_ratio(empty) == 0.0


def test_pure_source_heavy_ratio():
    g = graph_from_edges([("A1", "Z9"), ("B2", "Z9"), ("C3", "Z9")])
    assert source_sink_ratio(g) == pytest.approx(3.0, abs=1e-6)


def test_zero_edge_record_measures_missing():
    cm = measures_of(PaperRecord("p", 2000))
    assert cm["num_edges"] == 0 and cm["num_causal_edges"] == 0
    assert cm["prop_causal_edges"] is None
    assert cm["num_unique_paths_full"] is None and cm["longest_path_full"] is None
    assert cm["source_sink_full"] is None


def test_view_with_no_claims_scores_empty_not_missing():
    # paper has edges, but none are causal: causal view exists and is empty
    rec = PaperRecord("p", 2000, edges=(ClaimEdge("A1", "B2", methods=("OLS",)),))
    cm = measures_of(rec)
    assert cm["num_unique_paths_causal"] == 0
    assert cm["longest_path_causal"] == 0
    assert cm["source_sink_causal"] == 0.0
    assert cm["prop_causal_edges"] == 0.0


# --- landmark fixtures ---------------------------------------------------


def test_mobility_fixture(landmark_records):
    cm = measures_of(landmark_records["mobility14"])
    assert cm["num_edges"] == 7
    assert cm["num_unique_paths_full"] == 6
    assert cm["longest_path_full"] == 1
    assert cm["source_sink_full"] == pytest.approx(2.5, abs=0.01)
    assert cm["prop_causal_edges"] == 0.0


def test_credit_fixture(landmark_records):
    cm = measures_of(landmark_records["credit15"])
    assert cm["num_edges"] == 8
    assert cm["num_causal_edges"] == 8
    assert cm["num_unique_paths_causal"] == 12
    assert cm["longest_path_causal"] == 3
    assert cm["source_sink_causal"] == pytest.approx(0.71, abs=0.01)
    assert cm["prop_causal_edges"] == 1.0


def test_firmshocks_fixture(landmark_records):
    cm = measures_of(landmark_records["firmshocks11"])
    assert cm["num_edges"] == 6
    assert cm["num_unique_paths_full"] == 11
    assert cm["longest_path_full"] == 3
    assert cm["source_sink_full"] == pytest.approx(0.8, abs=0.05)
    assert cm["prop_causal_edges"] == 0.0


def test_tariffs_fixture(landmark_records):
    cm = measures_of(landmark_records["tariffs10"])
    assert cm["num_edges"] == 5
    assert cm["num_causal_edges"] == 3
    assert cm["num_unique_paths_full"] == 5
    assert cm["longest_path_full"] == 2
    assert cm["source_sink_full"] == pytest.approx(1.33, abs=0.01)
    assert cm["source_sink_causal"] == pytest.approx(2.0, abs=0.01)
