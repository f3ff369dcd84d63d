"""End-to-end acceptance checks.

Each test covers one gate and prints a PASS/FAIL line (visible under
`pytest -s`), so a run doubles as a checklist. Tolerances are pinned in the
assertions; timed gates assert their wall-clock budget too.
"""

import contextlib
import filecmp
import math
import random
import statistics
import time
from itertools import combinations

import numpy as np
import pytest

from claimgraph.centrality import CumulativeGraph, eigenvector_centrality, pagerank
from claimgraph.cooccurrence import (
    PairCountTable,
    gap_filling_prop,
    update_pair_counts,
)
from claimgraph.graphs import PaperGraph, build_graph, complexity_measures
from claimgraph.novelty import canonical_signature
from claimgraph.novelty import score_corpus as novelty_scores
from claimgraph.pipeline import PipelineConfig, run_pipeline
from claimgraph.regression import RegressionSpec, ols_fit, run_spec
from claimgraph.trends import aggregate_trends

from oracles import (
    IsoClassifier,
    eigen_dense_oracle,
    full_sandwich_oracle,
    dummy_ols_oracle,
    novelty_from_scratch,
    pagerank_solve_oracle,
)
from synth import (
    random_corpus,
    records_to_jsonl,
    regression_corpus,
    rows_to_columns,
    trend_corpus,
)


@contextlib.contextmanager
def gate(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_landmark_fixture_measures(landmark_records):
    with gate("landmark fixture measures"):
        t0 = time.perf_counter()
        cm = {pid: complexity_measures(rec)
              for pid, rec in landmark_records.items()}

        m = cm["mobility14"]
        assert m.num_edges == 7
        assert m.num_unique_paths == 6
        assert m.longest_path == 1
        assert m.source_sink_full == pytest.approx(2.5, abs=0.01)

        c = cm["credit15"]
        assert c.num_edges == 8
        assert c.num_causal_edges == 8
        assert c.num_unique_paths_causal == 12
        assert c.longest_path_causal == 3
        assert c.source_sink_causal == pytest.approx(0.71, abs=0.01)

        f = cm["firmshocks11"]
        assert f.num_edges == 6
        assert f.num_unique_paths == 11
        assert f.longest_path == 3
        assert f.source_sink_full == pytest.approx(0.8, abs=0.05)

        g = cm["tariffs10"]
        assert g.num_edges == 5
        assert g.num_causal_edges == 3
        assert g.num_unique_paths == 5
        assert g.longest_path == 2
        assert g.source_sink_full == pytest.approx(1.33, abs=0.01)
        assert g.source_sink_causal == pytest.approx(2.0, abs=0.01)

        assert time.perf_counter() - t0 < 1.0


def _log_cites_rows(records):
    rows = []
    for rec in records:
        m = complexity_measures(rec)
        rows.append({"paper_id": m.paper_id, "year": m.year,
                     "pub_tier": rec.pub_tier, "citations": rec.citations,
                     "prop_causal_edges": m.prop_causal_edges})
    return rows


def test_regression_estimator_recovery():
    with gate("regression estimator recovery"):
        # planted effect recovered across Monte Carlo replications
        spec = RegressionSpec("LogCitesPlus1", "prop_causal_edges",
                              fixed_effects=True, cluster="by_year")
        betas = []
        for rep in range(12):
            records = regression_corpus(seed=1000 + rep, n_papers=5000,
                                        beta=0.3)
            res = run_spec(rows_to_columns(_log_cites_rows(records)), spec)
            assert res.n == 5000
            betas.append(res.beta)
        mc_se = statistics.stdev(betas) / math.sqrt(len(betas))
        assert abs(statistics.fmean(betas) - 0.3) <= 2.0 * mc_se

        # within-year demeaning agrees with the explicit dummy design
        rows = _log_cites_rows(regression_corpus(seed=2024, n_papers=2000))
        y = np.array([math.log1p(r["citations"]) for r in rows])
        x = np.array([r["prop_causal_edges"] for r in rows])
        years = np.array([r["year"] for r in rows])
        fit = ols_fit(y, x, years, fixed_effects=True, cluster="none")
        beta_dummy, _, _, _ = dummy_ols_oracle(y, x, years)
        assert abs(fit.beta - beta_dummy) <= 1e-8

        # clustered SE equals the full-design sandwich on a 50-row fixture
        rng = random.Random(50)
        years_f = np.array([2000 + i % 6 for i in range(50)])
        x_f = np.array([rng.gauss(0.0, 1.0) for _ in range(50)])
        y_f = np.array([0.5 * x_f[i] + 0.1 * (years_f[i] - 2000)
                        + rng.gauss(0.0, 0.4) for i in range(50)])
        fit_f = ols_fit(y_f, x_f, years_f, fixed_effects=True,
                        cluster="by_year")
        oracle_se = full_sandwich_oracle(y_f, x_f, years_f, years_f)
        assert abs(fit_f.se_beta - oracle_se) <= 1e-10


def test_novelty_matches_recomputed_frontier():
    with gate("novelty frontier equivalence"):
        t0 = time.perf_counter()
        for seed in (301, 302, 303):
            records = random_corpus(seed, n_papers=200, year_lo=2001,
                                    year_hi=2003, pool_size=12,
                                    max_claims=6, node_cap=8)
            graphs = [build_graph(r, "full") for r in records]
            scores, _ = novelty_scores(graphs)
            oracle = novelty_from_scratch(
                [(g.paper_id, g.year, g.nodes, g.edges) for g in graphs],
                path_len=3, subgraph_size=3)
            assert set(scores) == set(oracle)
            for pid, m in scores.items():
                n_e, n_p, n_s, d_e, d_p, d_s = oracle[pid]
                assert m.num_novel_edges == n_e
                assert m.num_novel_paths == n_p
                assert m.num_novel_subgraphs == n_s
                assert m.prop_novel_edges == (n_e / d_e if d_e else None)
                assert m.prop_novel_paths == (n_p / d_p if d_p else None)
                assert m.prop_novel_subgraphs == (n_s / d_s if d_s else None)

            # scores must not depend on within-year input order
            shuffled = list(graphs)
            random.Random(seed + 9).shuffle(shuffled)
            rescored, _ = novelty_scores(shuffled)
            assert rescored == scores
        assert time.perf_counter() - t0 < 30.0


def test_signature_equality_is_isomorphism():
    with gate("signature isomorphism census"):
        nodes = ("x", "y", "z")
        slots = [(u, v) for u in nodes for v in nodes if u != v]
        digraphs = []
        for mask in range(64):
            edges = {slots[i] for i in range(6) if mask >> i & 1}
            digraphs.append(edges)

        signatures = [canonical_signature(nodes, e) for e in digraphs]
        classifier = IsoClassifier()
        classes = [classifier.classify(nodes, e) for e in digraphs]

        disagreements = 0
        for i, j in combinations(range(64), 2):
            if (signatures[i] == signatures[j]) != (classes[i] == classes[j]):
                disagreements += 1
        assert disagreements == 0
        assert len(set(signatures)) == 16
        assert len(set(classes)) == 16


def test_centrality_matches_dense_oracles():
    with gate("centrality oracle agreement"):
        n_dangling_graphs = 0
        for i in range(100):
            rng = random.Random(500 + i)
            nodes = {f"N{j:02d}" for j in range(30)}
            edges = {(u, v) for u in sorted(nodes) for v in sorted(nodes)
                     if u != v and rng.random() < 0.12}
            if i % 10 == 0:
                # strip some out-edges so dangling nodes are guaranteed
                drop = sorted(nodes)[:3]
                edges = {(u, v) for u, v in edges if u not in drop}
            graph = CumulativeGraph(nodes=set(nodes), edges=edges)

            eig = eigenvector_centrality(graph)
            want = eigen_dense_oracle(nodes, edges)
            assert max(abs(eig[n] - want[n]) for n in nodes) <= 1e-6

            pr = pagerank(graph)
            solved = pagerank_solve_oracle(nodes, edges)
            assert max(abs(pr[n] - solved[n]) for n in nodes) <= 1e-8
            assert abs(sum(pr.values()) - 1.0) <= 1e-9

            if any(all(e[0] != n for e in edges) for n in nodes):
                n_dangling_graphs += 1
        assert n_dangling_graphs > 0


def test_gap_scores_monotone_in_threshold():
    with gate("gap threshold monotonicity"):
        pool = [f"C{d}" for d in range(10)]
        rng = random.Random(600)
        for i in range(1000):
            node_set = set(rng.sample(pool, rng.randint(2, 6)))
            counts = {}
            for a, b in combinations(sorted(pool), 2):
                if rng.random() < 0.6:
                    counts[(a, b)] = rng.randint(0, 12)
            table = PairCountTable(through_year=1999, counts=counts)
            paper = PaperGraph(paper_id=f"g{i}", year=2000, nodes=node_set)
            tau = rng.randint(1, 10)
            lo = gap_filling_prop(paper, table, tau)
            hi = gap_filling_prop(paper, table, tau + rng.randint(1, 6))
            assert lo is not None and hi is not None
            assert lo <= hi

        # nothing published before: every pair is rare
        fresh = PaperGraph(paper_id="first", year=1990,
                           nodes={"A1", "B2", "C3"})
        assert gap_filling_prop(fresh, PairCountTable(), tau=1) == 1.0

        # planted hot triangle vs cold newcomer, exact scores
        table = PairCountTable()
        for year in range(1990, 2000):
            update_pair_counts(table, [PaperGraph(
                paper_id=f"t{year}", year=year, nodes={"A1", "B2", "C3"})])
        probe = PaperGraph(paper_id="probe", year=2005,
                           nodes={"A1", "B2", "C3", "Z9"})
        assert gap_filling_prop(probe, table, tau=5) == 0.5
        assert gap_filling_prop(probe, table, tau=11) == 1.0


def test_pipeline_reruns_byte_identical_at_scale(tmp_path):
    with gate("pipeline determinism at scale"):
        t0 = time.perf_counter()
        records = random_corpus(7777, n_papers=10_000, year_lo=1990,
                                year_hi=2010, pool_size=60, max_claims=8,
                                node_cap=10)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(records_to_jsonl(records))
        config = PipelineConfig(corpus=str(corpus))

        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        run_a = run_pipeline(config, str(out_a))
        run_b = run_pipeline(config, str(out_b))
        assert run_a.n_records == 10_000
        assert run_b.n_records == 10_000

        for name in ("measures.csv", "novelty.csv", "gaps.csv",
                     "centrality.csv", "regressions.csv", "trends_year.csv",
                     "diagnostics.txt", "manifest.txt"):
            assert filecmp.cmp(out_a / name, out_b / name,
                               shallow=False), name
        assert time.perf_counter() - t0 < 300.0


def test_trend_ramp_recovered_exactly():
    with gate("trend ramp recovery"):
        records, planted = trend_corpus()
        rows = aggregate_trends(records, group_by="year")
        got = {row.group: row.value for row in rows
               if row.metric == "mean_prop_causal"}
        assert set(got) == {str(year) for year in planted}
        for year, want in planted.items():
            value = got[str(year)]
            assert abs(value - want) <= 1e-12
            assert value == want

        years = sorted(planted)
        assert planted[years[0]] == pytest.approx(0.04, abs=5e-4)
        assert planted[years[-1]] == pytest.approx(0.28, abs=5e-4)
        series = [planted[y] for y in years]
        assert all(a < b for a, b in zip(series, series[1:]))
