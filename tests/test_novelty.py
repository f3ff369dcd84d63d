import io
import itertools
import random

import pytest

from oracles import IsoClassifier, digraphs_isomorphic, novelty_from_scratch
from synth import random_corpus
from claimgraph.errors import SchemaError, SubsetBudgetExceeded, YearOrderError
from claimgraph.graphs import PaperGraph, build_graph
from claimgraph.novelty import (
    LedgerState,
    advance_year,
    canonical_signature,
    iter_subgraph_signatures,
    load_ledger,
    save_ledger,
    score_corpus,
)


def make_graph(edges, paper_id="g", year=2000, nodes=()):
    node_set = {u for u, _ in edges} | {v for _, v in edges} | set(nodes)
    return PaperGraph(paper_id=paper_id, year=year, view="full",
                      nodes=node_set, edges=set(edges))


# --- canonical signatures -------------------------------------------------


def test_signature_ignores_labels():
    a = canonical_signature(["A1", "B2", "C3"], {("A1", "B2"), ("B2", "C3")})
    b = canonical_signature(["X9", "Y8", "Z7"], {("Z7", "X9"), ("X9", "Y8")})
    assert a == b


def test_signature_direction_sensitive():
    chain = canonical_signature(["A1", "B2", "C3"], {("A1", "B2"), ("B2", "C3")})
    fork = canonical_signature(["A1", "B2", "C3"], {("B2", "A1"), ("B2", "C3")})
    assert chain != fork


def test_signature_size_prefix():
    pair = canonical_signature(["A1", "B2"], {("A1", "B2")})
    assert pair.startswith("2:")
    triple = canonical_signature(["A1", "B2", "C3"], {("A1", "B2")})
    assert triple.startswith("3:")
    assert pair.split(":", 1)[1] != triple.split(":", 1)[1]


def all_3node_digraphs():
    """All 64 labeled digraphs on nodes 0,1,2 (no self loops)."""
    slots = [(u, v) for u in range(3) for v in range(3) if u != v]
    for mask in range(64):
        yield {slots[i] for i in range(6) if mask >> i & 1}


def test_signatures_agree_with_isomorphism_on_all_3node_digraphs():
    graphs = list(all_3node_digraphs())
    sigs = [canonical_signature([0, 1, 2], g) for g in graphs]
    classifier = IsoClassifier()
    classes = [classifier.classify([0, 1, 2], g) for g in graphs]
    for i, j in itertools.combinations(range(64), 2):
        same_sig = sigs[i] == sigs[j]
        same_class = classes[i] == classes[j]
        assert same_sig == same_class, (graphs[i], graphs[j])
    # a known census: 16 isomorphism classes of loopless 3-node digraphs
    assert len(set(sigs)) == 16
    assert len(classifier.reps) == 16


def test_signatures_agree_with_isomorphism_on_sampled_4node_digraphs():
    rng = random.Random(4242)
    slots = [(u, v) for u in range(4) for v in range(4) if u != v]
    sample = []
    for _ in range(80):
        sample.append({s for s in slots if rng.random() < 0.4})
    for ga, gb in itertools.combinations(sample, 2):
        same_sig = (canonical_signature(range(4), ga)
                    == canonical_signature(range(4), gb))
        assert same_sig == digraphs_isomorphic(range(4), ga, range(4), gb)


def test_subgraph_census_counts_instances():
    # square of edges: 4 nodes, C(4,3)=4 subsets, all with >= 1 edge
    g = make_graph([("A1", "B2"), ("B2", "C3"), ("C3", "D4"), ("D4", "A1")])
    sigs = list(iter_subgraph_signatures(g, 3))
    assert len(sigs) == 4
    # every such subset induces a 2-edge chain; all four agree
    assert len(set(sigs)) == 1


def test_subgraph_census_skips_empty_subsets():
    g = make_graph([("A1", "B2")], nodes=["C3", "D4", "E5"])
    sigs = list(iter_subgraph_signatures(g, 3))
    # only subsets containing both A1 and B2 have an edge: C(3,1)=3 of them
    assert len(sigs) == 3


def test_subset_budget_guard():
    g = make_graph([(f"A{i}", f"B{i}") for i in range(1, 13)], paper_id="wide")
    with pytest.raises(SubsetBudgetExceeded):
        list(iter_subgraph_signatures(g, 3, subset_cap=100))


def test_size_bounds_enforced():
    g = make_graph([("A1", "B2")])
    with pytest.raises(ValueError):
        list(iter_subgraph_signatures(g, 5))
    with pytest.raises(ValueError):
        list(iter_subgraph_signatures(g, 1))


def _reference_signature(nodes, edges):
    """Minimal row-major adjacency bitstring over all orderings, built from
    label pairs: the census' definition, written as a plain loop."""
    k = len(nodes)
    order = {node: idx for idx, node in enumerate(sorted(nodes))}
    bits = [(order[u], order[v]) for u, v in edges if u in order and v in order]
    best = None
    for perm in itertools.permutations(range(k)):
        pos = {orig: idx for idx, orig in enumerate(perm)}
        cells = ["0"] * (k * k)
        for i, j in bits:
            cells[pos[i] * k + pos[j]] = "1"
        candidate = "".join(cells)
        if best is None or candidate < best:
            best = candidate
    return f"{k}:{best}"


def _reference_census(graph, size):
    """Induced-subgraph signatures by set membership over sorted labels."""
    nodes = sorted(graph.nodes)
    out = []
    for combo in itertools.combinations(nodes, size):
        sub = {(u, v) for u, v in graph.edges if u in combo and v in combo}
        if sub:
            out.append(_reference_signature(combo, sub))
    return out


def _masks(k, rng=None, n=None):
    """Every k-node adjacency mask (self loops included), or n seeded ones."""
    if rng is None:
        return range(1 << (k * k))
    return [rng.randrange(1 << (k * k)) for _ in range(n)]


@pytest.mark.parametrize("k, masks", [
    (2, _masks(2)),
    (3, _masks(3)),
    (4, _masks(4, random.Random(77), 2500)),
], ids=["2-all", "3-all", "4-sampled"])
def test_bitmask_census_matches_signature_on_every_mask(k, masks):
    rng = random.Random(k)
    for mask in masks:
        # Labels drawn at random, so sorted order is not draw order.
        labels = rng.sample([f"{c}{d}" for c in "ABCDEFGH" for d in range(10)], k)
        edges = {(labels[i], labels[j]) for i in range(k) for j in range(k)
                 if mask >> (i * k + j) & 1}
        graph = make_graph(edges, nodes=labels)
        census = list(iter_subgraph_signatures(graph, k))
        want = _reference_signature(labels, edges)
        assert canonical_signature(labels, edges) == want, mask
        assert census == ([want] if edges else []), mask


@pytest.mark.parametrize("size", [2, 3, 4])
def test_subgraph_census_matches_loop_reference(size):
    rng = random.Random(900 + size)
    for trial in range(40):
        n = rng.randint(size, 9)
        labels = rng.sample([f"{c}{d}" for c in "JKLMN" for d in range(20)], n)
        edges = {(u, v) for u in labels for v in labels
                 if u != v and rng.random() < rng.uniform(0.05, 0.5)}
        graph = make_graph(edges, nodes=labels)
        got = sorted(iter_subgraph_signatures(graph, size))
        assert got == sorted(_reference_census(graph, size)), trial


# --- frontier ledger -------------------------------------------------------


def test_first_year_is_fully_novel():
    ledger = LedgerState()
    g = make_graph([("A1", "B2"), ("B2", "C3")], paper_id="p0", year=1995)
    (m,) = advance_year(ledger, [g])
    assert m.num_novel_edges == 2 and m.prop_novel_edges == 1.0
    assert m.prop_novel_paths == 1.0
    assert m.prop_novel_subgraphs == 1.0


def test_exact_repeat_is_not_novel():
    ledger = LedgerState()
    edges = [("A1", "B2"), ("B2", "C3")]
    advance_year(ledger, [make_graph(edges, paper_id="p0", year=1995)])
    (m,) = advance_year(ledger, [make_graph(edges, paper_id="p1", year=1996)])
    assert m.num_novel_edges == 0 and m.prop_novel_edges == 0.0
    assert m.num_novel_paths == 0 and m.prop_novel_paths == 0.0
    assert m.num_novel_subgraphs == 0 and m.prop_novel_subgraphs == 0.0


def test_same_year_papers_do_not_see_each_other():
    ledger = LedgerState()
    edges = [("A1", "B2"), ("B2", "C3")]
    twins = [make_graph(edges, paper_id="p0", year=1995),
             make_graph(edges, paper_id="p1", year=1995)]
    for m in advance_year(ledger, twins):
        assert m.prop_novel_edges == 1.0
        assert m.prop_novel_subgraphs == 1.0


def test_zero_structure_paper_scores_missing():
    ledger = LedgerState()
    g = make_graph([], paper_id="empty", year=1995, nodes=["A1"])
    (m,) = advance_year(ledger, [g])
    assert m.num_novel_edges == 0
    assert m.prop_novel_edges is None
    assert m.prop_novel_paths is None
    assert m.prop_novel_subgraphs is None


def test_novel_subgraphs_counted_per_instance():
    ledger = LedgerState(subgraph_size=2)
    g = make_graph([("A1", "B2"), ("C3", "D4")], paper_id="p0", year=1995)
    (m,) = advance_year(ledger, [g])
    # both 2-node instances share one shape, yet each instance counts
    assert m.num_novel_subgraphs == 2
    assert m.prop_novel_subgraphs == 1.0
    # while the ledger itself dedupes
    assert len(ledger.seen_signatures) == 1
    g2 = make_graph([("E5", "F6"), ("G7", "H8")], paper_id="p1", year=1996)
    (m2,) = advance_year(ledger, [g2])
    assert m2.num_novel_subgraphs == 0
    assert m2.prop_novel_subgraphs == 0.0


def test_isolated_member_changes_subset_shape():
    ledger = LedgerState()
    advance_year(ledger, [make_graph([("A1", "B2")], paper_id="p0", year=1995)])
    # p0 has only 2 nodes, so it contributed no 3-node subsets at all;
    # p1's single subset {C3,D4,E5} (edge plus isolated node) is new.
    g = make_graph([("C3", "D4")], nodes=["E5"], paper_id="p1", year=1996)
    (m,) = advance_year(ledger, [g])
    assert m.num_novel_subgraphs == 1
    assert m.prop_novel_subgraphs == 1.0


def test_year_must_strictly_increase():
    ledger = LedgerState()
    advance_year(ledger, [make_graph([("A1", "B2")], paper_id="p0", year=2000)])
    with pytest.raises(YearOrderError):
        advance_year(ledger, [make_graph([("B2", "C3")], paper_id="p1", year=2000)])
    with pytest.raises(YearOrderError):
        advance_year(ledger, [make_graph([("B2", "C3")], paper_id="p2", year=1999)])


def test_mixed_year_batch_rejected():
    ledger = LedgerState()
    batch = [make_graph([("A1", "B2")], paper_id="p0", year=2000),
             make_graph([("B2", "C3")], paper_id="p1", year=2001)]
    with pytest.raises(YearOrderError):
        advance_year(ledger, batch)


def test_paths_up_to_length_cutoff_only():
    ledger = LedgerState(path_len=2)
    chain = [("A1", "B2"), ("B2", "C3"), ("C3", "D4")]
    advance_year(ledger, [make_graph(chain, paper_id="p0", year=1990)])
    # length-3 chains are invisible to the ledger at path_len=2
    assert all(key.count("->") <= 2 for key in ledger.seen_paths)
    longer = make_graph(chain + [("D4", "E5")], paper_id="p1", year=1991)
    (m,) = advance_year(ledger, [longer])
    # novel: D4->E5, C3->D4->E5, B2->C3? no (seen); of 4+3 structures 2 new
    assert m.num_novel_edges == 1
    assert m.num_novel_paths == 2


# --- corpus scoring vs oracle ---------------------------------------------


def corpus_graphs(records, view="full"):
    return [build_graph(r, view) for r in records]


def as_tuples(graphs):
    return [(g.paper_id, g.year, g.nodes, g.edges) for g in graphs]


def test_score_corpus_takes_its_parameters_from_the_ledger_only():
    graphs = corpus_graphs(random_corpus(11, n_papers=10, year_lo=1991,
                                         year_hi=1992, pool_size=8, max_claims=4))
    with pytest.raises(TypeError):
        score_corpus(graphs, path_len=5, ledger=LedgerState())


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_score_corpus_matches_from_scratch_oracle(seed):
    records = random_corpus(seed, n_papers=40, year_lo=1991, year_hi=1993,
                            pool_size=14, max_claims=6)
    graphs = corpus_graphs(records)
    got, _ = score_corpus(graphs, ledger=LedgerState(path_len=3, subgraph_size=3))
    want = novelty_from_scratch(as_tuples(graphs), path_len=3, subgraph_size=3)
    assert set(got) == set(want)
    for pid, (n_e, n_p, n_s, d_e, d_p, d_s) in want.items():
        m = got[pid]
        assert m.num_novel_edges == n_e, pid
        assert m.num_novel_paths == n_p, pid
        assert m.num_novel_subgraphs == n_s, pid
        assert m.prop_novel_edges == (pytest.approx(n_e / d_e) if d_e else None)
        assert m.prop_novel_paths == (pytest.approx(n_p / d_p) if d_p else None)
        assert m.prop_novel_subgraphs == (
            pytest.approx(n_s / d_s) if d_s else None)


def test_within_year_order_is_irrelevant():
    records = random_corpus(99, n_papers=30, year_lo=2001, year_hi=2003,
                            pool_size=12, max_claims=5)
    graphs = corpus_graphs(records)
    base, _ = score_corpus(graphs)
    rng = random.Random(1)
    for _ in range(3):
        shuffled = graphs[:]
        rng.shuffle(shuffled)
        again, _ = score_corpus(shuffled)
        assert again == base


def test_ledger_roundtrip_preserves_scoring():
    records = random_corpus(5, n_papers=25, year_lo=1995, year_hi=1997,
                            pool_size=10, max_claims=5)
    early = [g for g in corpus_graphs(records) if g.year < 1997]
    late = [g for g in corpus_graphs(records) if g.year == 1997]
    _, ledger = score_corpus(early)
    buf = io.StringIO()
    save_ledger(ledger, buf)
    buf.seek(0)
    restored = load_ledger(buf)
    assert restored == ledger
    direct = advance_year(ledger, late)
    resumed = advance_year(restored, late)
    assert direct == resumed


def test_loaded_ledger_rejects_stale_years():
    ledger = LedgerState()
    advance_year(ledger, [make_graph([("A1", "B2")], paper_id="p", year=2005)])
    buf = io.StringIO()
    save_ledger(ledger, buf)
    buf.seek(0)
    restored = load_ledger(buf)
    with pytest.raises(YearOrderError):
        advance_year(restored, [make_graph([("C3", "D4")], paper_id="q", year=2004)])


@pytest.mark.parametrize("text", [
    "#claimgraph-frontier v1\nyear=2000\ncolour=blue\n",
    "#claimgraph-frontier v1\nyear=2000\npath_len=three\n",
    "#claimgraph-frontier v1\nyear=2000\n[motifs]\n",
    "#claimgraph-paths v1\n",
])
def test_malformed_ledger_file_is_a_schema_error(tmp_path, text):
    from claimgraph.novelty import load_ledger_file

    path = tmp_path / "frontier.txt"
    path.write_text(text)
    with pytest.raises(SchemaError, match="frontier.txt"):
        load_ledger_file(str(path))


def test_failed_save_leaves_previous_ledger(tmp_path, monkeypatch):
    import claimgraph.novelty as novelty_mod

    path = tmp_path / "frontier.txt"
    ledger = LedgerState()
    advance_year(ledger, [make_graph([("A1", "B2")], paper_id="p", year=2005)])
    novelty_mod.save_ledger_file(ledger, str(path))
    before = path.read_bytes()

    def fail_midway(state, fh):
        fh.write("#claimgraph-frontier v1\nyear=")
        raise OSError("disk full")

    monkeypatch.setattr(novelty_mod, "save_ledger", fail_midway)
    with pytest.raises(OSError):
        novelty_mod.save_ledger_file(ledger, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["frontier.txt"]
