"""Per-paper knowledge graphs and structural complexity measures.

Each paper's claims form a directed graph on concept codes. Claims are
counted before deduplication; path and ratio measures run on the collapsed
graph (one edge per distinct ordered code pair, self-loops dropped).

Views filter at the claim level before collapsing: `full` keeps everything,
`causal` keeps claims whose methods whitelist as causal, `noncausal` keeps
the rest. A code pair claimed both ways therefore appears in both filtered
views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import PathBudgetExceeded, YearOrderError
from .model import PaperRecord

VIEWS = ("full", "causal", "noncausal")

DEFAULT_PATH_CAP = 1_000_000
DEFAULT_EPSILON = 1e-9


@dataclass(slots=True)
class PaperGraph:
    """Deduplicated directed graph of one paper's claims under one view."""

    paper_id: str
    year: int
    view: str = "full"
    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)


def build_graph(record: PaperRecord, view: str = "full") -> PaperGraph:
    """Collapse a record's claims (filtered to `view`) into a PaperGraph.

    Self-loop claims are dropped from the graph; a run's manifest counts
    them from the records.
    """
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}")
    graph = PaperGraph(paper_id=record.paper_id, year=record.year, view=view)
    for edge in record.edges:
        if view == "causal" and not edge.is_causal:
            continue
        if view == "noncausal" and edge.is_causal:
            continue
        if edge.source == edge.sink:
            continue
        graph.nodes.add(edge.source)
        graph.nodes.add(edge.sink)
        graph.edges.add((edge.source, edge.sink))
    return graph


def year_batches(graphs: Iterable[PaperGraph]) -> list[tuple[int, list[PaperGraph]]]:
    """(year, graphs) batches in ascending year order; input order is kept
    within a year."""
    by_year: dict[int, list[PaperGraph]] = {}
    for graph in graphs:
        by_year.setdefault(graph.year, []).append(graph)
    return sorted(by_year.items())


def batch_year(papers: Sequence[PaperGraph], after: int | None, state: str) -> int:
    """The one year a batch shares. It must be strictly after `after`, the
    last year `state` absorbed, or the state would no longer stand for
    strictly earlier work."""
    years = {g.year for g in papers}
    if len(years) > 1:
        raise YearOrderError(f"{state} got a batch of mixed years {sorted(years)}")
    year = years.pop()
    if after is not None and year <= after:
        raise YearOrderError(f"year {year} not after {state} year {after}")
    return year


def iter_simple_paths(graph: PaperGraph, max_len: int | None = None,
                      cap: int | None = None) -> Iterator[tuple[str, ...]]:
    """Yield every simple directed path (>= 1 edge) as a node tuple.

    Paths are node sequences without repeats, so the walk terminates even on
    cyclic graphs. Deterministic order: depth-first from each start node in
    code order. `cap` bounds the number of paths yielded.
    """
    # Built per walk rather than cached on the graph, which would keep one
    # more dict alive per graph for a whole view.
    adj: dict[str, list[str]] = {node: [] for node in graph.nodes}
    for u, v in sorted(graph.edges):
        adj[u].append(v)
    count = 0
    for start in sorted(graph.nodes):
        # Stack of (node, path-so-far); neighbors pushed in reverse so the
        # smallest code is explored first.
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in reversed(adj[node]):
                if nxt in path:
                    continue
                new_path = path + (nxt,)
                count += 1
                if cap is not None and count > cap:
                    raise PathBudgetExceeded(graph.paper_id, cap)
                yield new_path
                if max_len is None or len(new_path) - 1 < max_len:
                    stack.append((nxt, new_path))


def count_paths(graph: PaperGraph, cap: int = DEFAULT_PATH_CAP) -> tuple[int, int]:
    """(number of distinct simple paths, longest simple path length in edges)."""
    n_paths = 0
    longest = 0
    for path in iter_simple_paths(graph, cap=cap):
        n_paths += 1
        longest = max(longest, len(path) - 1)
    return n_paths, longest


def source_sink_ratio(graph: PaperGraph, epsilon: float = DEFAULT_EPSILON) -> float:
    """Nodes with out-edges over nodes with in-edges, denominator padded by
    epsilon. An edgeless graph scores 0."""
    sources = {u for u, _ in graph.edges}
    sinks = {v for _, v in graph.edges}
    return len(sources) / (len(sinks) + epsilon)


def complexity_measures(graphs: Sequence[PaperGraph], claims: Sequence[int],
                        path_cap: int = DEFAULT_PATH_CAP,
                        epsilon: float = DEFAULT_EPSILON,
                        ) -> list[tuple[int | None, int | None, float | None]]:
    """(number of simple paths, longest path in edges, source/sink ratio) of
    each of one view's graphs, in order.

    `claims` holds each graph's paper's claim count over all views. A paper
    without claims scores (None, None, None) in every view, so it stays
    distinguishable from a view whose graph truly has zero paths.
    """
    return [(*count_paths(graph, cap=path_cap), source_sink_ratio(graph, epsilon))
            if n_claims else (None, None, None)
            for graph, n_claims in zip(graphs, claims, strict=True)]
