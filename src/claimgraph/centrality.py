"""Concept centrality on cumulative corpus graphs.

For each view, the corpus accumulates one directed graph per year. A paper
published in year t is scored against the graph of all strictly earlier
years, so its centrality measures can never leak information from its own
or later years. Eigenvector centrality runs on the undirected projection
and is scaled so the best-connected node scores 1; PageRank runs on the
directed graph and sums to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateSeriesError
from .graphs import PaperGraph, year_batches

DEFAULT_DAMPING = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


@dataclass
class CumulativeGraph:
    """Directed graph unioned over all papers processed so far.

    Grow it through `add_papers`: the index arrays the centrality kernels
    share are built once per state and dropped there.
    """

    view: str = "full"
    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    _arrays: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def add_papers(self, papers: Iterable[PaperGraph]) -> None:
        for graph in papers:
            self.nodes |= graph.nodes
            self.edges |= graph.edges
        self._arrays = None

    def index_arrays(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Sorted node names and the (src, dst) index arrays of the edges,
        sorted by source, then target."""
        if self._arrays is None:
            names = sorted(self.nodes)
            index = {node: idx for idx, node in enumerate(names)}
            n = len(names)
            keys = np.fromiter((index[u] * n + index[v] for u, v in self.edges),
                               dtype=np.int64, count=len(self.edges))
            keys.sort()
            src, dst = np.divmod(keys, n)
            self._arrays = (names, src, dst)
        return self._arrays


def eigenvector_centrality(graph: CumulativeGraph, tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> dict[str, float]:
    """Max-normalized eigenvector centrality of the undirected projection.

    Power iteration on A + I: the shift keeps the eigenvectors of A while
    breaking the +/- eigenvalue symmetry that makes plain iteration
    oscillate on bipartite graphs (stars, chains). Isolated nodes score 0.
    """
    if not graph.nodes:
        return {}
    if not graph.edges:
        return {node: 0.0 for node in graph.nodes}
    names, src, dst = graph.index_arrays()
    n = len(names)
    a = np.zeros((n, n))
    a[src, dst] = 1.0
    a[dst, src] = 1.0
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
    return dict(zip(names, x.tolist()))


def pagerank(graph: CumulativeGraph, damping: float = DEFAULT_DAMPING,
             tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
             ) -> dict[str, float]:
    """PageRank on the directed graph; scores sum to 1.

    Teleportation is uniform and dangling-node mass is spread uniformly, so
    probability mass is conserved every iteration.

    Each iteration is one `np.bincount`, which adds its weights in input
    order: every node takes the base first, then its in-shares in ascending
    source order (edges are sorted by source). The dangling mass is a
    running sum in node order. Both orders fix the result to the last bit.
    """
    if not graph.nodes:
        return {}
    names, src, dst = graph.index_arrays()
    n = len(names)
    outdeg = np.bincount(src, minlength=n)
    linked = np.flatnonzero(outdeg)
    dangling_nodes = np.flatnonzero(outdeg == 0)
    targets = np.concatenate([np.arange(n), dst])
    weights = np.empty(n + src.size)
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    weights[:n] = base
    share = np.zeros(n)
    for _ in range(max_iter):
        share[linked] = damping * x[linked] / outdeg[linked]
        weights[n:] = share[src]
        nxt = np.bincount(targets, weights=weights)
        dangling = np.cumsum(x[dangling_nodes])[-1] if dangling_nodes.size else 0.0
        nxt += damping * dangling / n
        residual = float(np.abs(nxt - x).sum() / np.abs(nxt).sum())
        x = nxt
        if residual < tol:
            break
    else:
        raise ConvergenceError("pagerank did not converge", residual)
    return dict(zip(names, x.tolist()))


@dataclass(frozen=True)
class CentralityStats:
    paper_id: str
    year: int
    view: str
    mean_eigen: float | None
    var_eigen: float | None
    mean_pagerank: float | None
    var_pagerank: float | None


def _mean_var(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, var


def paper_centrality_stats(graph: PaperGraph,
                           eigen: dict[str, float],
                           ranks: dict[str, float]) -> CentralityStats:
    """Mean and population variance of prior-year scores over the paper's
    nodes. Codes unseen before the paper's year score 0. Papers with no
    nodes in the view get missing stats."""
    nodes = sorted(graph.nodes)
    if not nodes:
        return CentralityStats(graph.paper_id, graph.year, graph.view,
                               None, None, None, None)
    e_vals = [eigen.get(node, 0.0) for node in nodes]
    p_vals = [ranks.get(node, 0.0) for node in nodes]
    mean_e, var_e = _mean_var(e_vals)
    mean_p, var_p = _mean_var(p_vals)
    return CentralityStats(graph.paper_id, graph.year, graph.view,
                           mean_e, var_e, mean_p, var_p)


def score_corpus(graphs: Sequence[PaperGraph], view: str = "full",
                 damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> list[CentralityStats]:
    """Centrality stats for every paper, each scored against the cumulative
    graph of strictly earlier years."""
    cumulative = CumulativeGraph(view=view)
    stats: list[CentralityStats] = []
    for _, batch in year_batches(graphs):
        eigen = eigenvector_centrality(cumulative, tol=tol, max_iter=max_iter)
        ranks = pagerank(cumulative, damping=damping, tol=tol, max_iter=max_iter)
        for graph in batch:
            stats.append(paper_centrality_stats(graph, eigen, ranks))
        cumulative.add_papers(batch)
    return stats


def standardize(values: Sequence[float | None]) -> list[float | None]:
    """Z-score non-missing entries to sample mean 0 and sample sd 1.

    Missing entries stay missing. A column with fewer than two distinct
    non-missing values cannot be standardized and comes back all-missing.
    """
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return [None for _ in values]
    mean = math.fsum(present) / len(present)
    var = math.fsum((v - mean) ** 2 for v in present) / (len(present) - 1)
    if var == 0.0:
        return [None for _ in values]
    sd = math.sqrt(var)
    return [None if v is None else (v - mean) / sd for v in values]


def node_centrality_series(graphs: Sequence[PaperGraph], node: str,
                           tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER,
                           ) -> list[tuple[int, float, float]]:
    """Yearly eigenvector centrality of one code on the growing corpus graph.

    Each year's score uses the cumulative graph through that year inclusive
    (the state of the literature at that point). Returns (year, raw,
    min-max normalized) rows. Raises if the code never appears or if the
    series is constant, since min-max normalization is then degenerate.
    """
    if not any(node in g.nodes for g in graphs):
        raise ValueError(f"code {node!r} never appears in the corpus")
    cumulative = CumulativeGraph()
    raw: list[tuple[int, float]] = []
    for year, batch in year_batches(graphs):
        cumulative.add_papers(batch)
        eigen = eigenvector_centrality(cumulative, tol=tol, max_iter=max_iter)
        raw.append((year, eigen.get(node, 0.0)))
    lo = min(v for _, v in raw)
    hi = max(v for _, v in raw)
    if hi == lo:
        raise DegenerateSeriesError(
            f"centrality of {node!r} is constant ({lo!r}) across years")
    return [(year, value, (value - lo) / (hi - lo)) for year, value in raw]
