import math
import random

import numpy as np
import pytest

from oracles import eigen_dense_oracle, pagerank_solve_oracle
from synth import random_corpus, random_digraph
from claimgraph.centrality import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    CumulativeGraph,
    eigenvector_centrality,
    node_centrality_series,
    pagerank,
    paper_centrality_stats,
    score_corpus,
    standardize,
)
from claimgraph.errors import ConvergenceError, DegenerateSeriesError
from claimgraph.graphs import PaperGraph, build_graph


def cumulative(edges, nodes=()):
    node_set = {u for u, _ in edges} | {v for _, v in edges} | set(nodes)
    return CumulativeGraph(nodes=node_set, edges=set(edges))


def make_graph(edges, paper_id="g", year=2000, nodes=()):
    node_set = {u for u, _ in edges} | {v for _, v in edges} | set(nodes)
    return PaperGraph(paper_id=paper_id, year=year, view="full",
                      nodes=node_set, edges=set(edges))


# --- eigenvector --------------------------------------------------------


def test_star_hub_and_leaves():
    g = cumulative([("H1", f"L{i}") for i in range(1, 5)])
    scores = eigenvector_centrality(g)
    assert scores["H1"] == pytest.approx(1.0)
    for i in range(1, 5):
        assert scores[f"L{i}"] == pytest.approx(0.5, abs=1e-9)


def test_direction_is_ignored_for_eigenvector():
    out_star = eigenvector_centrality(cumulative([("H1", "L1"), ("H1", "L2")]))
    in_star = eigenvector_centrality(cumulative([("L1", "H1"), ("L2", "H1")]))
    assert out_star == pytest.approx(in_star)


def test_isolated_nodes_score_zero():
    g = cumulative([("A1", "B2")], nodes=["Z9"])
    scores = eigenvector_centrality(g)
    assert scores["Z9"] == 0.0
    assert scores["A1"] == pytest.approx(1.0)


def test_edgeless_graph_all_zero():
    g = cumulative([], nodes=["A1", "B2"])
    assert eigenvector_centrality(g) == {"A1": 0.0, "B2": 0.0}
    assert eigenvector_centrality(CumulativeGraph()) == {}


def test_bipartite_chain_converges():
    # plain power iteration oscillates on bipartite graphs; ours must not
    g = cumulative([("A1", "B2"), ("B2", "C3"), ("C3", "D4")])
    scores = eigenvector_centrality(g)
    want = eigen_dense_oracle(g.nodes, g.edges)
    for node in want:
        assert scores[node] == pytest.approx(want[node], abs=1e-8)


def test_eigen_matches_dense_oracle_on_random_graphs():
    rng = random.Random(555)
    for trial in range(25):
        nodes, edges = random_digraph(rng, 18, 0.15)
        g = CumulativeGraph(nodes=nodes, edges=edges)
        scores = eigenvector_centrality(g)
        want = eigen_dense_oracle(nodes, edges)
        for node in nodes:
            assert scores[node] == pytest.approx(want[node], abs=1e-6), trial


def test_eigen_convergence_error_carries_residual():
    g = cumulative([("H1", "L1"), ("H1", "L2")])
    with pytest.raises(ConvergenceError) as err:
        eigenvector_centrality(g, max_iter=1)
    assert err.value.residual > 0


# --- pagerank -----------------------------------------------------------


def test_pagerank_two_node_closed_form():
    # A -> B with B dangling: x_A = 20/57, x_B = 37/57 at damping 0.85
    g = cumulative([("A1", "B2")])
    scores = pagerank(g)
    assert scores["A1"] == pytest.approx(20 / 57, abs=1e-9)
    assert scores["B2"] == pytest.approx(37 / 57, abs=1e-9)


def test_pagerank_mass_sums_to_one_with_dangling():
    rng = random.Random(808)
    for trial in range(20):
        nodes, edges = random_digraph(rng, 15, 0.12)
        # force some dangling nodes by stripping out-edges of a few nodes
        victims = rng.sample(sorted(nodes), 3)
        edges = {(u, v) for u, v in edges if u not in victims}
        scores = pagerank(CumulativeGraph(nodes=nodes, edges=edges))
        assert math.fsum(scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_matches_linear_solve():
    rng = random.Random(606)
    for trial in range(25):
        nodes, edges = random_digraph(rng, 20, 0.12)
        scores = pagerank(CumulativeGraph(nodes=nodes, edges=edges))
        want = pagerank_solve_oracle(nodes, edges)
        for node in nodes:
            assert scores[node] == pytest.approx(want[node], abs=1e-8), trial


def test_pagerank_uniform_on_cycle():
    nodes = [f"A{i}" for i in range(1, 6)]
    edges = [(nodes[i], nodes[(i + 1) % 5]) for i in range(5)]
    scores = pagerank(cumulative(edges))
    for node in nodes:
        assert scores[node] == pytest.approx(0.2, abs=1e-10)


# --- per-paper stats ------------------------------------------------------


def test_paper_stats_mean_and_population_variance():
    eigen = {"A1": 0.5, "B2": 1.0}
    ranks = {"A1": 0.25, "B2": 0.75}
    g = make_graph([("A1", "B2")])
    st = paper_centrality_stats(g, eigen, ranks)
    assert st.mean_eigen == pytest.approx(0.75)
    assert st.var_eigen == pytest.approx(0.0625)    # ((0.25)^2 + (0.25)^2) / 2
    assert st.mean_pagerank == pytest.approx(0.5)


def test_paper_stats_unseen_codes_count_as_zero():
    g = make_graph([("A1", "B2")])
    st = paper_centrality_stats(g, {}, {})
    assert st.mean_eigen == 0.0 and st.var_eigen == 0.0


def test_paper_stats_missing_for_empty_view():
    g = make_graph([], paper_id="hollow")
    st = paper_centrality_stats(g, {"A1": 1.0}, {"A1": 1.0})
    assert st.mean_eigen is None and st.var_pagerank is None


def test_score_corpus_uses_strictly_prior_years():
    graphs = [
        make_graph([("A1", "B2")], paper_id="first", year=2000),
        make_graph([("A1", "B2")], paper_id="second", year=2001),
        make_graph([("C3", "D4")], paper_id="offside", year=2001),
    ]
    stats = score_corpus(graphs)
    # nothing precedes 2000
    assert stats["first"].mean_eigen == 0.0
    # 2001 papers see only the 2000 graph
    assert stats["second"].mean_eigen == pytest.approx(1.0)
    assert stats["offside"].mean_eigen == 0.0


def test_score_corpus_same_year_papers_do_not_interact():
    twin_a = make_graph([("A1", "B2")], paper_id="a", year=2000)
    twin_b = make_graph([("A1", "B2")], paper_id="b", year=2000)
    stats = score_corpus([twin_a, twin_b])
    assert stats["a"].mean_eigen == 0.0
    assert stats["b"].mean_eigen == 0.0


# --- standardization -------------------------------------------------------


def test_standardize_hand_computed():
    z = standardize([1.0, 2.0, 3.0])
    assert z == pytest.approx([-1.0, 0.0, 1.0])  # sample sd of (1,2,3) is 1


def test_standardize_keeps_missing_positions():
    z = standardize([1.0, None, 3.0, None])
    assert z[1] is None and z[3] is None
    # mean 2, sample sd sqrt(2): z = (+-1)/sqrt(2)
    assert z[0] == pytest.approx(-1 / math.sqrt(2))
    assert z[2] == pytest.approx(1 / math.sqrt(2))


def test_standardize_degenerate_goes_missing():
    assert standardize([5.0, 5.0, 5.0]) == [None, None, None]
    assert standardize([1.0]) == [None]
    assert standardize([None, 2.0]) == [None, None]
    assert standardize([]) == []


# --- per-code yearly series -------------------------------------------------


def test_node_series_tracks_leaf_decline():
    graphs = [
        make_graph([("H1", "L1")], paper_id="p1", year=2000),
        make_graph([("H1", "L2")], paper_id="p2", year=2001),
        make_graph([("H1", "L3")], paper_id="p3", year=2002),
    ]
    rows = node_centrality_series(graphs, "L1")
    years = [y for y, _, _ in rows]
    raw = [r for _, r, _ in rows]
    scaled = [s for _, _, s in rows]
    assert years == [2000, 2001, 2002]
    assert raw == pytest.approx([1.0, 1 / math.sqrt(2), 1 / math.sqrt(3)],
                                abs=1e-8)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(0.0)


def test_node_series_includes_scoring_year():
    graphs = [make_graph([("A1", "B2")], paper_id="p1", year=2000),
              make_graph([("A1", "C3")], paper_id="p2", year=2001)]
    rows = node_centrality_series(graphs, "B2")
    # B2 is scored in its debut year, not a year later
    assert rows[0][0] == 2000
    assert rows[0][1] == pytest.approx(1.0)
    # once A1 becomes the hub, B2 drops to a leaf share
    assert rows[1][1] == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_node_series_unknown_code():
    graphs = [make_graph([("A1", "B2")], paper_id="p1", year=2000)]
    with pytest.raises(ValueError):
        node_centrality_series(graphs, "Q9")


def test_node_series_constant_raises_degenerate():
    graphs = [make_graph([("A1", "B2")], paper_id="p1", year=2000),
              make_graph([("C3", "D4")], paper_id="p2", year=2001)]
    with pytest.raises(DegenerateSeriesError):
        node_centrality_series(graphs, "A1")


# --- cumulative view interaction -------------------------------------------


def test_causal_view_prior_graph_only_sees_causal_edges():
    records = random_corpus(17, n_papers=30, year_lo=2000, year_hi=2004,
                            pool_size=10, max_claims=6, p_causal=0.5)
    full_graphs = [build_graph(r, "full") for r in records]
    causal_graphs = [build_graph(r, "causal") for r in records]
    full_stats = score_corpus(full_graphs)
    causal_stats = score_corpus(causal_graphs)
    assert set(full_stats) == set(causal_stats)
    # causal cumulative graphs are subgraphs, so means cannot be identical
    # across the board unless every claim is causal (vanishingly unlikely)
    diffs = [
        abs((full_stats[p].mean_eigen or 0) - (causal_stats[p].mean_eigen or 0))
        for p in full_stats
    ]
    assert max(diffs) > 0


# --- bit-identity with the loop-based kernels ---------------------------------
#
# The two references below are the kernels as they were before the index-array
# rewrite: a per-edge adjacency build and a per-node PageRank loop. The rewrite
# must reproduce them to the last bit, so these tests compare with ==.


def _reference_eigenvector(graph, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    if not graph.nodes:
        return {}
    index = {node: idx for idx, node in enumerate(sorted(graph.nodes))}
    n = len(index)
    a = np.zeros((n, n))
    for u, v in graph.edges:
        a[index[u], index[v]] = 1.0
        a[index[v], index[u]] = 1.0
    if not graph.edges:
        return {node: 0.0 for node in graph.nodes}
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = a @ x + x
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - x).sum() / np.abs(nxt).sum())
        x = nxt
        if residual < tol:
            break
    else:
        raise ConvergenceError("eigenvector centrality did not converge", residual)
    isolated = a.sum(axis=1) == 0
    x[isolated] = 0.0
    peak = x.max()
    if peak > 0:
        x = x / peak
    return {node: float(x[idx]) for node, idx in index.items()}


def _reference_pagerank(graph, damping=DEFAULT_DAMPING, tol=DEFAULT_TOL,
                        max_iter=DEFAULT_MAX_ITER):
    if not graph.nodes:
        return {}
    index = {node: idx for idx, node in enumerate(sorted(graph.nodes))}
    n = len(index)
    out_neighbors = [[] for _ in range(n)]
    for u, v in graph.edges:
        out_neighbors[index[u]].append(index[v])
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        nxt = np.full(n, base)
        dangling = 0.0
        for i, neighbors in enumerate(out_neighbors):
            if neighbors:
                share = damping * x[i] / len(neighbors)
                for j in neighbors:
                    nxt[j] += share
            else:
                dangling += x[i]
        nxt += damping * dangling / n
        residual = float(np.abs(nxt - x).sum() / np.abs(nxt).sum())
        x = nxt
        if residual < tol:
            break
    else:
        raise ConvergenceError("pagerank did not converge", residual)
    return {node: float(x[idx]) for node, idx in index.items()}


def _outcome(kernel, graph, **kwargs):
    """A kernel's scores, or the residual of its ConvergenceError."""
    try:
        return kernel(graph, **kwargs)
    except ConvergenceError as exc:
        return ("no convergence", exc.residual)


def _hub_graph(rng, n_nodes, n_edges):
    """Random digraph whose targets are skewed towards a few hubs, so nodes
    take many in-shares. Roughly a third of the nodes keep no out-edge and
    a few stay isolated."""
    nodes = [f"H{i:03d}" for i in range(n_nodes)]
    senders = nodes[: 2 * n_nodes // 3]
    weights = [1.0 / (rank + 1) for rank in range(n_nodes)]
    edges = set()
    for _ in range(n_edges):
        u = rng.choice(senders)
        v = rng.choices(nodes, weights)[0]
        if u != v:
            edges.add((u, v))
    return set(nodes) | {f"Z{i}" for i in range(3)}, edges


def _special_graphs():
    cycle = [f"C{i}" for i in range(7)]
    return {
        "single-node": ({"A1"}, set()),
        "edgeless": ({"A1", "B2", "C3"}, set()),
        "cycle": (set(cycle), {(cycle[i], cycle[(i + 1) % 7]) for i in range(7)}),
        "dangling-and-isolated": ({"A1", "B2", "C3", "D4", "Z9"},
                                  {("A1", "B2"), ("A1", "C3"), ("B2", "C3"),
                                   ("D4", "C3")}),
        "two-stars": ({"H1", "H2", *(f"L{i}" for i in range(8))},
                      {*(("H1", f"L{i}") for i in range(5)),
                       *((f"L{i}", "H2") for i in range(5, 8))}),
    }


def _random_graphs():
    rng = random.Random(4242)
    graphs = [random_digraph(rng, rng.randint(2, 40), rng.uniform(0.02, 0.3))
              for _ in range(30)]
    graphs += [_hub_graph(rng, n, 6 * n) for n in (20, 60, 150, 400)]
    return graphs


@pytest.mark.parametrize("name", sorted(_special_graphs()))
def test_kernels_bit_identical_on_special_graphs(name):
    nodes, edges = _special_graphs()[name]
    g = CumulativeGraph(nodes=set(nodes), edges=set(edges))
    assert _outcome(pagerank, g) == _outcome(_reference_pagerank, g)
    assert _outcome(eigenvector_centrality, g) == \
        _outcome(_reference_eigenvector, g)


@pytest.mark.parametrize("damping", [DEFAULT_DAMPING, 0.5])
def test_pagerank_bit_identical_on_random_graphs(damping):
    for trial, (nodes, edges) in enumerate(_random_graphs()):
        g = CumulativeGraph(nodes=nodes, edges=edges)
        want = _outcome(_reference_pagerank, g, damping=damping)
        assert isinstance(want, dict), trial
        assert _outcome(pagerank, g, damping=damping) == want, trial


def test_eigenvector_bit_identical_on_random_graphs():
    for trial, (nodes, edges) in enumerate(_random_graphs()):
        g = CumulativeGraph(nodes=nodes, edges=edges)
        # Disconnected graphs may not converge; then both must fail alike.
        assert _outcome(eigenvector_centrality, g) == \
            _outcome(_reference_eigenvector, g), trial


def test_kernels_bit_identical_on_corpus_years():
    records = random_corpus(29, n_papers=300, year_lo=2000, year_hi=2009,
                            pool_size=40, max_claims=6)
    cumulative = CumulativeGraph()
    for year in range(2000, 2010):
        cumulative.add_papers(build_graph(r, "full") for r in records
                              if r.year == year)
        assert pagerank(cumulative) == _reference_pagerank(cumulative), year
        assert _outcome(eigenvector_centrality, cumulative) == \
            _outcome(_reference_eigenvector, cumulative), year


def _rebuilt_index_arrays(graph):
    """Index arrays built from scratch out of the node and edge sets."""
    names = sorted(graph.nodes)
    index = {node: idx for idx, node in enumerate(names)}
    n = len(names)
    keys = np.array(sorted(index[u] * n + index[v] for u, v in graph.edges),
                    dtype=np.int64)
    src, dst = np.divmod(keys, n)
    return names, src, dst


def _assert_same_arrays(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_index_arrays_grow_like_a_rebuild_every_year():
    # 44 years over a pool that keeps adding codes, so new codes land
    # between old ones in sort order and every earlier key must move.
    records = random_corpus(31, n_papers=440, year_lo=1980, year_hi=2023,
                            pool_size=150, max_claims=6)
    graphs = [build_graph(r, "full") for r in records]
    cumulative = CumulativeGraph()
    _assert_same_arrays(cumulative.index_arrays(),
                        _rebuilt_index_arrays(cumulative))
    for year in range(1980, 2024):
        cumulative.add_papers(g for g in graphs if g.year == year)
        want = _rebuilt_index_arrays(cumulative)
        _assert_same_arrays(cumulative.index_arrays(), want)
        fresh = CumulativeGraph(nodes=set(cumulative.nodes),
                                edges=set(cumulative.edges))
        _assert_same_arrays(fresh.index_arrays(), want)
    assert len(cumulative.nodes) > 100


@pytest.mark.parametrize("kernel", [eigenvector_centrality, pagerank])
def test_zero_iterations_raise_convergence_error(kernel):
    g = cumulative([("A1", "B2"), ("B2", "C3")])
    with pytest.raises(ConvergenceError) as info:
        kernel(g, max_iter=0)
    assert info.value.residual == math.inf


def test_scores_after_add_papers_match_a_fresh_graph():
    early = make_graph([("A1", "B2"), ("B2", "C3")], paper_id="p1", year=2000)
    late = make_graph([("C3", "A1"), ("D4", "A1"), ("A1", "E5")],
                      paper_id="p2", year=2001)
    cumulative = CumulativeGraph()
    cumulative.add_papers([early])
    first = (eigenvector_centrality(cumulative), pagerank(cumulative))
    cumulative.add_papers([late])
    again = (eigenvector_centrality(cumulative), pagerank(cumulative))
    fresh = CumulativeGraph(nodes=set(cumulative.nodes),
                            edges=set(cumulative.edges))
    assert again == (eigenvector_centrality(fresh), pagerank(fresh))
    assert set(first[1]) == {"A1", "B2", "C3"}
    assert set(again[1]) == {"A1", "B2", "C3", "D4", "E5"}
