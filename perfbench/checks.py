"""Correctness checks on one round's outputs, outside the timed section.

Each check recomputes what it can from the generated inputs, apart from the
program: view graphs come from the raw JSON and the generator's causal tag
list, never from claimgraph's tag normalisation. The dense and brute-force
references come from tests/oracles.py. The one exception is `yearly`, whose
property is that resumed increments equal claimgraph's own one-shot scoring.

Every check function returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
import random
import sys
from itertools import combinations, permutations

import numpy as np

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
from oracles import (  # noqa: E402
    brute_force_paths,
    dummy_ols_oracle,
    eigen_dense_oracle,
    full_sandwich_oracle,
    pagerank_solve_oracle,
)

CAUSAL = set(gen.CAUSAL_TAGS)
VIEWS = ("full", "causal", "noncausal")
NOVELTY_VIEWS = ("full", "causal")
CENTRALITY_STATS = ("mean_eigen", "var_eigen", "mean_pagerank", "var_pagerank")
PATH_LEN = 3
TAU = 5
# Tolerances, fixed before the checks ran. Power iteration stops at an L1
# residual of 1e-10, so its scores sit within about 1e-9 of the dense answer.
EIGEN_TOL = 1e-7
PAGERANK_TOL = 1e-9
REGRESSION_RTOL = 1e-7
# A regressor that varies within one year only has a cluster-robust SE of
# exactly zero; both sides then report rounding noise near 1e-15 * beta.
SE_ATOL = 1e-10
SAMPLE_SEED = 20250112


def read_table(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_papers(paths: list[str]) -> list[dict]:
    papers = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            papers += [json.loads(line) for line in fh if line.strip()]
    return papers


def view_graph(paper: dict, view: str) -> tuple[set[str], set[tuple[str, str]]]:
    edges = set()
    for e in paper["edges"]:
        causal = any(m in CAUSAL for m in e["methods"])
        if (view == "causal" and not causal) or (view == "noncausal" and causal):
            continue
        if e["source_code"] != e["sink_code"]:
            edges.add((e["source_code"], e["sink_code"]))
    return {n for edge in edges for n in edge}, edges


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _close(got: float | None, want: float | None, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


# 3-node digraph classes: the smallest sorted edge list over relabelings.
_PAIRS3 = [(i, j) for i in range(3) for j in range(3) if i != j]
_CLASS3 = {}
for _mask in range(1, 64):
    _edges = [_PAIRS3[b] for b in range(6) if _mask >> b & 1]
    _CLASS3[_mask] = min(tuple(sorted((p[i], p[j]) for i, j in _edges))
                         for p in permutations(range(3)))


def triad_classes(nodes, edges) -> list[tuple]:
    """Class of every induced 3-node subgraph carrying an edge, per instance."""
    out = []
    for combo in combinations(sorted(nodes), 3):
        mask = 0
        for bit, (i, j) in enumerate(_PAIRS3):
            if (combo[i], combo[j]) in edges:
                mask |= 1 << bit
        if mask:
            out.append(_CLASS3[mask])
    return out


class Corpus:
    """The input corpus with per-view graphs and indexes for frontier checks."""

    def __init__(self, papers: list[dict]):
        self.papers = papers
        self.years = [p["year"] for p in papers]
        self.graphs = {v: [view_graph(p, v) for p in papers] for v in VIEWS}
        self.order = sorted(range(len(papers)), key=lambda i: self.years[i])
        self._edge_papers: dict[str, dict] = {}
        self._node_papers: dict[str, dict] = {}
        self._triads: dict[tuple[str, int], set] = {}

    def edge_papers(self, view: str) -> dict:
        if view not in self._edge_papers:
            index: dict[tuple[str, str], list[int]] = {}
            for i, (_, edges) in enumerate(self.graphs[view]):
                for e in edges:
                    index.setdefault(e, []).append(i)
            self._edge_papers[view] = index
        return self._edge_papers[view]

    def node_papers(self, view: str) -> dict:
        if view not in self._node_papers:
            index: dict[str, set[int]] = {}
            for i, (nodes, _) in enumerate(self.graphs[view]):
                for n in nodes:
                    index.setdefault(n, set()).add(i)
            self._node_papers[view] = index
        return self._node_papers[view]

    def triads(self, view: str, i: int) -> set:
        key = (view, i)
        if key not in self._triads:
            self._triads[key] = set(triad_classes(*self.graphs[view][i]))
        return self._triads[key]

    def earlier(self, year: int):
        for i in self.order:
            if self.years[i] >= year:
                return
            yield i


def expected_outcomes(inputs: str, papers: list[dict]) -> list[tuple]:
    """(pub_tier, citations, outcome_source) per paper. Without outcome
    tables the corpus fields stand; with them, each field comes from the
    highest-priority table holding it, looked up by id, then by title."""
    cfg = {}
    with open(os.path.join(inputs, "run.cfg"), encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    if "outcomes" not in cfg:
        return [(p.get("pub_tier", "Unknown"), p.get("citations"), None)
                for p in papers]
    ranks = {row["journal"].casefold(): row["tier"]
             for row in read_table(os.path.join(inputs, cfg["ranks"]))}
    tables = []
    for name in (n.strip() for n in cfg["outcomes"].split(",")):
        by_id, by_title = {}, {}
        for row in read_table(os.path.join(inputs, name)):
            if row.get("paper_id"):
                by_id[row["paper_id"]] = row
            elif row.get("title"):
                by_title[row["title"].casefold()] = row
        tables.append((name, by_id, by_title))
    out = []
    for p in papers:
        tier = source = cites = None
        for name, by_id, by_title in tables:
            row = by_id.get(p["paper_id"]) or by_title.get(p["title"].casefold())
            if row is None:
                continue
            if row["journal"] and tier is None:
                tier, source = ranks.get(row["journal"].casefold(), "Other"), name
            if row["citations"] and cites is None:
                cites = int(row["citations"])
        out.append((tier or "Unpublished", cites, source))
    return out


def _check_paths(corpus: Corpus, rows, rng) -> list[str]:
    fails = []
    for view in VIEWS:
        small = [i for i, (nodes, _) in enumerate(corpus.graphs[view])
                 if len(nodes) <= 7]
        for i in rng.sample(small, min(20, len(small))):
            nodes, edges = corpus.graphs[view][i]
            paths = brute_force_paths(nodes, edges)
            want = (len(paths), max((len(p) - 1 for p in paths), default=0))
            got = (_num(rows[i][f"num_unique_paths_{view}"]),
                   _num(rows[i][f"longest_path_{view}"]))
            if got != want:
                fails.append(f"paths {view} {corpus.papers[i]['paper_id']}: {got} != {want}")
    return fails


def _novelty_want(corpus: Corpus, view: str, i: int) -> tuple:
    """(num, prop) for edges, paths and subgraphs of paper i, from a frontier
    rebuilt out of strictly earlier papers."""
    year = corpus.years[i]
    nodes, edges = corpus.graphs[view][i]
    index = corpus.edge_papers(view)

    def seen_before(path) -> bool:
        steps = list(zip(path, path[1:]))
        return any(corpus.years[j] < year
                   and all(s in corpus.graphs[view][j][1] for s in steps)
                   for j in index.get(steps[0], ()))

    paths = brute_force_paths(nodes, edges, max_len=PATH_LEN)
    triads = triad_classes(nodes, edges)
    missing = set(triads)
    for j in corpus.earlier(year):
        if not missing:
            break
        missing -= corpus.triads(view, j)
    out = []
    for found, novel in ((edges, sum(not seen_before(e) for e in edges)),
                         (paths, sum(not seen_before(p) for p in paths)),
                         (triads, sum(t in missing for t in triads))):
        out += [novel, novel / len(found) if found else None]
    return tuple(out)


def _gap_want(corpus: Corpus, view: str, i: int) -> float | None:
    nodes = sorted(corpus.graphs[view][i][0])
    if len(nodes) < 2:
        return None
    index = corpus.node_papers(view)
    year = corpus.years[i]
    pairs = list(combinations(nodes, 2))
    rare = sum(1 for a, b in pairs
               if sum(1 for j in index[a] & index[b] if corpus.years[j] < year) < TAU)
    return rare / len(pairs)


def _check_novelty_gaps(corpus: Corpus, rows, rng) -> list[str]:
    fails = []
    first = min(corpus.years)
    cols = ("num_novel_edges", "prop_novel_edges", "num_novel_paths",
            "prop_novel_paths", "num_novel_subgraphs", "prop_novel_subgraphs")
    for view in NOVELTY_VIEWS:
        for i, year in enumerate(corpus.years):
            if year != first:
                continue
            nodes, edges = corpus.graphs[view][i]
            want = (1.0 if edges else None, 1.0 if len(nodes) >= 2 else None)
            got = (_num(rows[i][f"prop_novel_edges_{view}"]),
                   _num(rows[i][f"gap_prop_{view}"]))
            if got != want:
                fails.append(f"first-year {view} {corpus.papers[i]['paper_id']}: {got} != {want}")
        later = [i for i, y in enumerate(corpus.years) if y != first]
        for i in rng.sample(later, 8):
            want = _novelty_want(corpus, view, i)
            got = tuple(_num(rows[i][f"{c}_{view}"]) for c in cols)
            if got != want:
                fails.append(f"novelty {view} {corpus.papers[i]['paper_id']}: {got} != {want}")
        for i in rng.sample(later, 20):
            want = _gap_want(corpus, view, i)
            got = _num(rows[i][f"gap_prop_{view}"])
            if got != want:
                fails.append(f"gaps {view} {corpus.papers[i]['paper_id']}: {got} != {want}")
    return fails


def _mean_var(values: list[float]) -> tuple[float, float]:
    arr = np.array(values)
    return float(arr.mean()), float(arr.var())


def _check_centrality(corpus: Corpus, rows, rng) -> tuple[list[str], dict]:
    fails = []
    err = {"eigen": 0.0, "pagerank": 0.0, "skipped_eigen": 0}
    years = sorted(set(corpus.years))
    for year in (years[1], years[len(years) // 2], years[-1]):
        members = [i for i, y in enumerate(corpus.years) if y == year]
        sample = rng.sample(members, min(40, len(members)))
        for view in VIEWS:
            nodes, edges = set(), set()
            for j in corpus.earlier(year):
                nodes |= corpus.graphs[view][j][0]
                edges |= corpus.graphs[view][j][1]
            if not edges:
                continue
            ranks = pagerank_solve_oracle(nodes, edges)
            order = sorted(nodes)
            pos = {n: k for k, n in enumerate(order)}
            adj = np.zeros((len(order), len(order)))
            for u, v in edges:
                adj[pos[u], pos[v]] = adj[pos[v], pos[u]] = 1.0
            top = np.linalg.eigvalsh(adj)[-2:]
            simple = len(order) < 2 or top[1] - top[0] > 1e-8 * max(1.0, top[1])
            eigen = eigen_dense_oracle(nodes, edges) if simple else None
            err["skipped_eigen"] += not simple
            for i in sample:
                own = sorted(corpus.graphs[view][i][0])
                if not own:
                    continue
                checks = [("pagerank", ranks, PAGERANK_TOL)]
                if eigen is not None:
                    checks.append(("eigen", eigen, EIGEN_TOL))
                for stat, scores, tol in checks:
                    want = _mean_var([scores.get(n, 0.0) for n in own])
                    got = (_num(rows[i][f"mean_{stat}_{view}"]),
                           _num(rows[i][f"var_{stat}_{view}"]))
                    diff = max(abs(g - w) for g, w in zip(got, want))
                    err[stat] = max(err[stat], diff)
                    if diff > tol:
                        fails.append(f"{stat} {view} {year} "
                                     f"{corpus.papers[i]['paper_id']}: {got} != {want}")
    for view in VIEWS:
        for stat in CENTRALITY_STATS:
            col = [_num(r[f"{stat}_{view}"]) for r in rows]
            present = np.array([v for v in col if v is not None])
            sd = float(present.std(ddof=1)) if present.size >= 2 else 0.0
            mean = float(present.mean()) if present.size else 0.0
            for r, v in zip(rows, col):
                z = _num(r[f"z_{stat}_{view}"])
                want = None if v is None or sd == 0.0 else (v - mean) / sd
                if not _close(z, want, 1e-9):
                    fails.append(f"z_{stat}_{view} {r['paper_id']}: {z} != {want}")
                    break
    return fails, err


def _check_trends(corpus: Corpus, trend_rows) -> list[str]:
    shares: dict[int, list[float]] = {}
    for p in corpus.papers:
        if p["edges"]:
            causal = sum(any(m in CAUSAL for m in e["methods"]) for e in p["edges"])
            shares.setdefault(p["year"], []).append(causal / len(p["edges"]))
    got = {int(r["group"]): (float(r["value"]), int(r["n"])) for r in trend_rows
           if r["metric"] == "mean_prop_causal"}
    want = {y: (math.fsum(v) / len(v), len(v)) for y, v in shares.items()}
    if set(got) != set(want):
        return [f"trend years {sorted(got)} != {sorted(want)}"]
    return [f"mean_prop_causal {y}: {got[y]} != {want[y]}" for y in sorted(want)
            if got[y][1] != want[y][1] or abs(got[y][0] - want[y][0]) > 1e-12]


def _check_regressions(rows, outcomes, reg_rows) -> list[str]:
    fails = []
    cells = [r for r in reg_rows if r["fe"] == "1" and r["cluster"] == "by_year"]
    for cell in cells[::6]:
        y, x, years = [], [], []
        for row, (tier, cites, _) in zip(rows, outcomes):
            if cell["outcome"] == "LogCitesPlus1":
                yv = None if cites is None else math.log(cites + 1.0)
            else:
                yv = 1.0 if tier == cell["outcome"] else 0.0
            xv = _num(row[cell["measure"]])
            if yv is not None and xv is not None:
                y.append(yv)
                x.append(xv)
                years.append(int(row["year"]))
        if cell["error"]:
            # The one inestimable case here: no variation left within years.
            by_year: dict[int, set[float]] = {}
            for xv, year in zip(x, years):
                by_year.setdefault(year, set()).add(xv)
            if any(len(values) > 1 for values in by_year.values()):
                fails.append(f"regression {cell['outcome']}~{cell['measure']}: {cell['error']}")
            continue
        beta = dummy_ols_oracle(y, x, years)[0]
        se = full_sandwich_oracle(y, x, years, years)
        got = (float(cell["beta"]), float(cell["se_beta"]), int(cell["n"]))
        if (got[2] != len(y)
                or abs(got[0] - beta) > REGRESSION_RTOL * max(abs(beta), 1e-3)
                or abs(got[1] - se) > REGRESSION_RTOL * se + SE_ATOL * max(abs(beta), 1.0)):
            fails.append(f"regression {cell['outcome']}~{cell['measure']}: "
                         f"{got} != {(beta, se, len(y))}")
    return fails


def check_pipeline(inputs: str, out: str) -> tuple[list[str], dict]:
    """narrow and wide: one `claimgraph run` output directory."""
    papers = read_papers([os.path.join(inputs, "corpus.jsonl")])
    rows = read_table(os.path.join(out, "measures.csv"))
    if [r["paper_id"] for r in rows] != [p["paper_id"] for p in papers]:
        return ["measures.csv rows differ from the corpus papers"], {}
    corpus = Corpus(papers)
    rng = random.Random(SAMPLE_SEED)
    outcomes = expected_outcomes(inputs, papers)
    fails = [f"outcomes {r['paper_id']}: {(r['pub_tier'], r['citations'], r['outcome_source'])}"
             f" != {want}" for r, want in zip(rows, outcomes)
             if (r["pub_tier"], _num(r["citations"]), r["outcome_source"] or None) != want][:5]
    fails += _check_paths(corpus, rows, rng)
    fails += _check_novelty_gaps(corpus, rows, rng)
    central_fails, errors = _check_centrality(corpus, rows, rng)
    fails += central_fails
    fails += _check_trends(corpus, read_table(os.path.join(out, "trends_year.csv")))
    fails += _check_regressions(rows, outcomes,
                                read_table(os.path.join(out, "regressions.csv")))
    paths = sum(int(r[f"num_unique_paths_{v}"] or 0) for r in rows for v in VIEWS)
    return fails, {"graphs.paths": paths, "max_error": errors}


def check_yearly(inputs: str, out: str) -> tuple[list[str], dict]:
    """Year-by-year increments resumed through saved state equal one-shot
    scoring of the whole corpus by claimgraph itself."""
    from claimgraph import cooccurrence, novelty
    from claimgraph.graphs import build_graph
    from claimgraph.ingest import parse_corpus_file
    from claimgraph.tableio import format_cell

    files = sorted(glob.glob(os.path.join(inputs, "corpus_*.jsonl")))
    records = [r for path in files for r in parse_corpus_file(path)[0]]
    first = records[0].year if records else None
    fails = []
    cols = ("num_novel_edges", "prop_novel_edges", "num_novel_paths",
            "prop_novel_paths", "num_novel_subgraphs", "prop_novel_subgraphs")
    for view in NOVELTY_VIEWS:
        resumed_n: dict[str, dict] = {}
        resumed_g: dict[str, dict] = {}
        for path in files:
            year = os.path.basename(path)[len("corpus_"):-len(".jsonl")]
            for r in read_table(os.path.join(out, f"novelty_{view}_{year}.csv")):
                resumed_n[r["paper_id"]] = r
            for r in read_table(os.path.join(out, f"gaps_{view}_{year}.csv")):
                resumed_g[r["paper_id"]] = r
        graphs = [build_graph(r, view) for r in records]
        scores, _ = novelty.score_corpus(graphs)
        gaps, _ = cooccurrence.score_corpus(graphs, tau=TAU)
        if set(resumed_n) != set(scores) or set(resumed_g) != set(gaps):
            fails.append(f"{view}: resumed papers differ from one-shot papers")
            continue
        for pid, m in scores.items():
            want = tuple(format_cell(getattr(m, c)) for c in cols)
            if tuple(resumed_n[pid][c] for c in cols) != want:
                fails.append(f"novelty {view} {pid}: resumed != one-shot {want}")
            if resumed_g[pid]["gap_prop"] != format_cell(gaps[pid]):
                fails.append(f"gaps {view} {pid}: resumed != one-shot")
            if m.year == first and m.prop_novel_edges not in (None, 1.0):
                fails.append(f"first-year {view} {pid}: prop_novel_edges {m.prop_novel_edges}")
    return fails[:20], {}


def _read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                parts = line.rstrip("\n").split(",")
                ids.append(parts[0])
                rows.append([float(v) for v in parts[1:]])
    return ids, np.array(rows)


def check_match(inputs: str, out: str, threshold: float) -> tuple[list[str], dict]:
    """Best match equals a numpy cosine argmax with the smaller-code
    tie-break and is the planted code; threshold mode returns exactly the
    codes at or above the cutoff, best first."""
    codes, index = _read_vectors(os.path.join(inputs, "index.csv"))
    qids, queries = _read_vectors(os.path.join(inputs, "queries.csv"))
    planted = {r["query_id"]: r["code"]
               for r in read_table(os.path.join(inputs, "planted.csv"))}
    twin = {}
    for k, code in enumerate(codes):
        same = [codes[j] for j in range(len(codes)) if np.array_equal(index[j], index[k])]
        twin[code] = min(same)
    scores = (queries @ index.T) / np.outer(np.linalg.norm(queries, axis=1),
                                            np.linalg.norm(index, axis=1))
    best = {r["query_id"]: r for r in read_table(os.path.join(out, "best.csv"))}
    thresh: dict[str, list[dict]] = {}
    for r in read_table(os.path.join(out, "threshold.csv")):
        thresh.setdefault(r["query_id"], []).append(r)
    fails = []
    if set(best) != set(qids):
        return ["best.csv query ids differ from the queries"], {}
    for q, qid in enumerate(qids):
        row = scores[q]
        top = row.max()
        want = min(codes[k] for k in range(len(codes)) if row[k] >= top - 1e-12)
        got = best[qid]
        if got["code"] != want or got["code"] != twin[planted[qid]] \
                or abs(float(got["similarity"]) - top) > 1e-12:
            fails.append(f"best {qid}: {got['code']} {got['similarity']} "
                         f"!= {want} {top!r} (planted {planted[qid]})")
        listed = thresh.get(qid, [])
        keys = [(-float(r["similarity"]), r["code"]) for r in listed]
        if keys != sorted(keys) or [r["rank"] for r in listed] != \
                [str(k) for k in range(1, len(listed) + 1)]:
            fails.append(f"threshold {qid}: rows not ranked best first")
        near = {codes[k] for k in range(len(codes)) if abs(row[k] - threshold) < 1e-9}
        got_set = {r["code"] for r in listed} - near
        want_set = {codes[k] for k in range(len(codes)) if row[k] >= threshold} - near
        if got_set != want_set:
            fails.append(f"threshold {qid}: {sorted(got_set ^ want_set)} differ")
    return fails[:20], {}
