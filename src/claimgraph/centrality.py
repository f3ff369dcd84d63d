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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import ConvergenceError, DegenerateSeriesError, SchemaError
from .graphs import PaperGraph, year_batches

# numpy is imported by the functions that compute with it, so the commands
# that score no centrality start without loading it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_DAMPING = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


def check_damping(name: str, damping: float, line_no: int | None = None) -> None:
    """Raise SchemaError unless 0 <= damping < 1 (not NaN): PageRank's range."""
    if not 0.0 <= damping < 1.0:
        raise SchemaError(f"{name} must be in [0, 1), got {damping}", line_no=line_no)


@dataclass
class CumulativeGraph:
    """Directed graph unioned over all papers processed so far.

    Grow it through `add_papers`. Alongside the node and edge sets it keeps
    the sorted node names and a sorted int64 key `src * n + dst` per edge,
    over positions in that name order, so a year's growth costs work on its
    new nodes and edges only.
    """

    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    _names: list[str] = field(default_factory=list, init=False, repr=False,
                              compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        import numpy as np
        self._keys = np.empty(0, np.int64)
        self._index(self.nodes, self.edges)

    def add_papers(self, papers: Iterable[PaperGraph]) -> None:
        nodes: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for graph in papers:
            nodes |= graph.nodes
            edges |= graph.edges
        nodes -= self.nodes
        edges -= self.edges
        self.nodes |= nodes
        self.edges |= edges
        self._index(nodes, edges)

    def _index(self, new_nodes: set[str], new_edges: set[tuple[str, str]]) -> None:
        """Fold nodes and edges not yet indexed into the names and keys."""
        import numpy as np
        names = sorted([*self._names, *new_nodes])
        position = {node: idx for idx, node in enumerate(names)}
        n = len(names)
        # Old positions map to new ones in increasing order, so the
        # remapped old keys stay sorted.
        moved = np.array([position[node] for node in self._names], dtype=np.int64)
        src, dst = np.divmod(self._keys, max(len(self._names), 1))
        new = np.fromiter((position[u] * n + position[v] for u, v in new_edges),
                          dtype=np.int64, count=len(new_edges))
        # The new keys are distinct from the old ones, so a stable sort (a
        # merge of two sorted runs) gives what np.union1d would, faster.
        keys = np.concatenate([moved[src] * n + moved[dst], np.sort(new)])
        keys.sort(kind="stable")
        self._names, self._keys = names, keys

    def index_arrays(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Sorted node names and the (src, dst) index arrays of the edges,
        sorted by source, then target."""
        import numpy as np
        src, dst = np.divmod(self._keys, max(len(self._names), 1))
        return self._names, src, dst


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
    import numpy as np
    names, src, dst = graph.index_arrays()
    n = len(names)
    a = np.zeros((n, n))
    a[src, dst] = 1.0
    a[dst, src] = 1.0
    x = np.full(n, 1.0 / n)
    residual = math.inf  # reported as is when max_iter allows no iteration
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
    import numpy as np
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
    residual = math.inf
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


class CentralityStats(NamedTuple):
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


def score_corpus(graphs: Sequence[PaperGraph], damping: float = DEFAULT_DAMPING,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> dict[str, CentralityStats]:
    """Centrality stats keyed by paper_id, each paper scored against the
    cumulative graph of strictly earlier years."""
    cumulative = CumulativeGraph()
    stats: dict[str, CentralityStats] = {}
    for _, batch in year_batches(graphs):
        eigen = eigenvector_centrality(cumulative, tol=tol, max_iter=max_iter)
        ranks = pagerank(cumulative, damping=damping, tol=tol, max_iter=max_iter)
        for graph in batch:
            stats[graph.paper_id] = paper_centrality_stats(graph, eigen, ranks)
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
