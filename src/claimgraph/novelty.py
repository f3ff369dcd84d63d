"""Year-granular novelty scoring against a cumulative structure ledger.

The ledger accumulates three kinds of structure from all papers strictly
before the year being scored: directed edges, canonical path strings up to a
length bound, and canonical signatures of small induced subgraphs. Papers
published in the same year cannot see each other; the year's structures join
the ledger only after every paper in that year is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Sequence, TextIO

from .errors import SchemaError, SubsetBudgetExceeded
from .graphs import PaperGraph, batch_year, iter_simple_paths, year_batches
from .tableio import replace_on_success

DEFAULT_PATH_LEN = 3
DEFAULT_SUBGRAPH_SIZE = 3
DEFAULT_SUBSET_CAP = 1_000_000
SUBGRAPH_SIZES = range(2, 5)

LEDGER_MAGIC = "#claimgraph-frontier v1"


def path_key(path: tuple[str, ...]) -> str:
    """Canonical string for a node sequence, e.g. 'D31->J62->J13'."""
    return "->".join(path)


def edge_key(edge: tuple[str, str]) -> str:
    return f"{edge[0]}->{edge[1]}"


@lru_cache(maxsize=65536)
def _signature_from_bits(k: int, edge_bits: frozenset[tuple[int, int]]) -> str:
    best: str | None = None
    for perm in permutations(range(k)):
        pos = {orig: idx for idx, orig in enumerate(perm)}
        bits = ["0"] * (k * k)
        for i, j in edge_bits:
            bits[pos[i] * k + pos[j]] = "1"
        candidate = "".join(bits)
        if best is None or candidate < best:
            best = candidate
    return f"{k}:{best}"


def canonical_signature(nodes: Sequence[str], edges: set[tuple[str, str]]) -> str:
    """Label-independent signature of a small directed graph.

    The signature is the lexicographically minimal row-major adjacency
    bitstring over all node orderings, prefixed by the node count. Two
    graphs share a signature exactly when they are isomorphic.
    """
    k = len(nodes)
    order = {node: idx for idx, node in enumerate(sorted(nodes))}
    edge_bits = frozenset((order[u], order[v]) for u, v in edges
                          if u in order and v in order)
    return _signature_from_bits(k, edge_bits)


def iter_subgraph_signatures(graph: PaperGraph, size: int,
                             subset_cap: int = DEFAULT_SUBSET_CAP):
    """Signatures of all induced `size`-node subgraphs carrying >= 1 edge."""
    if size not in SUBGRAPH_SIZES:
        raise ValueError(f"subgraph size must be 2..4, got {size}")
    nodes = sorted(graph.nodes)
    if len(nodes) >= size:
        n_subsets = comb(len(nodes), size)
        if n_subsets > subset_cap:
            raise SubsetBudgetExceeded(graph.paper_id, n_subsets, subset_cap)
    adj = graph.adjacency
    for combo in combinations(nodes, size):
        members = set(combo)
        sub_edges = {(u, v) for u in combo for v in adj[u] if v in members}
        if sub_edges:
            yield canonical_signature(combo, sub_edges)


@dataclass(frozen=True)
class NoveltyMeasures:
    paper_id: str
    year: int
    num_novel_edges: int
    prop_novel_edges: float | None
    num_novel_paths: int
    prop_novel_paths: float | None
    num_novel_subgraphs: int
    prop_novel_subgraphs: float | None


@dataclass
class LedgerState:
    """Cumulative frontier of structures seen in all processed years."""

    path_len: int = DEFAULT_PATH_LEN
    subgraph_size: int = DEFAULT_SUBGRAPH_SIZE
    subset_cap: int = DEFAULT_SUBSET_CAP
    current_year: int | None = None
    seen_edges: set[str] = field(default_factory=set)
    seen_paths: set[str] = field(default_factory=set)
    seen_signatures: set[str] = field(default_factory=set)


def _paper_structures(graph: PaperGraph, ledger: LedgerState):
    edges = {edge_key(e) for e in graph.edges}
    paths = {path_key(p) for p in iter_simple_paths(graph, max_len=ledger.path_len)}
    # Signatures stay a list: every induced subgraph instance is scored, even
    # when two subsets of one paper share a signature.
    signatures = list(iter_subgraph_signatures(graph, ledger.subgraph_size,
                                               ledger.subset_cap))
    return edges, paths, signatures


def _score(seen: set[str], found) -> tuple[int, float | None]:
    if not found:
        return 0, None
    novel = sum(1 for s in found if s not in seen)
    return novel, novel / len(found)


def advance_year(ledger: LedgerState,
                 papers: Sequence[PaperGraph]) -> list[NoveltyMeasures]:
    """Score one year's papers against the frontier, then absorb them.

    All papers must share a single year strictly greater than the last
    processed year; feeding a year twice or out of order raises, because the
    frontier can no longer honestly represent "strictly earlier work".
    Scores are independent of the order of papers within the year.
    """
    measures: list[NoveltyMeasures] = []
    if not papers:
        return measures
    year = batch_year(papers, ledger.current_year, "ledger")
    batch: list[tuple[set[str], set[str], list[str]]] = []
    for graph in papers:
        edges, paths, signatures = _paper_structures(graph, ledger)
        n_e, p_e = _score(ledger.seen_edges, edges)
        n_p, p_p = _score(ledger.seen_paths, paths)
        n_s, p_s = _score(ledger.seen_signatures, signatures)
        measures.append(NoveltyMeasures(
            paper_id=graph.paper_id, year=year,
            num_novel_edges=n_e, prop_novel_edges=p_e,
            num_novel_paths=n_p, prop_novel_paths=p_p,
            num_novel_subgraphs=n_s, prop_novel_subgraphs=p_s,
        ))
        batch.append((edges, paths, signatures))
    for edges, paths, signatures in batch:
        ledger.seen_edges |= edges
        ledger.seen_paths |= paths
        ledger.seen_signatures.update(signatures)
    ledger.current_year = year
    return measures


def score_corpus(graphs: Sequence[PaperGraph], path_len: int = DEFAULT_PATH_LEN,
                 subgraph_size: int = DEFAULT_SUBGRAPH_SIZE,
                 subset_cap: int = DEFAULT_SUBSET_CAP,
                 ledger: LedgerState | None = None,
                 ) -> tuple[dict[str, NoveltyMeasures], LedgerState]:
    """Score a whole corpus of one view's graphs in year order.

    Within-year input order does not affect the result. Returns measures
    keyed by paper_id plus the final ledger.
    """
    if ledger is None:
        ledger = LedgerState(path_len=path_len, subgraph_size=subgraph_size,
                             subset_cap=subset_cap)
    out: dict[str, NoveltyMeasures] = {}
    for _, batch in year_batches(graphs):
        for m in advance_year(ledger, batch):
            out[m.paper_id] = m
    return out, ledger


def save_ledger(ledger: LedgerState, fh: TextIO) -> None:
    """Persist a ledger as sorted canonical strings under section tags."""
    fh.write(f"{LEDGER_MAGIC}\n")
    fh.write(f"year={'' if ledger.current_year is None else ledger.current_year}\n")
    fh.write(f"path_len={ledger.path_len}\n")
    fh.write(f"subgraph_size={ledger.subgraph_size}\n")
    for tag, items in (("edges", ledger.seen_edges),
                       ("paths", ledger.seen_paths),
                       ("signatures", ledger.seen_signatures)):
        fh.write(f"[{tag}]\n")
        for item in sorted(items):
            fh.write(f"{item}\n")


def save_ledger_file(ledger: LedgerState, path: str) -> None:
    with replace_on_success(path) as fh:
        save_ledger(ledger, fh)


def load_ledger(fh: TextIO) -> LedgerState:
    lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != LEDGER_MAGIC:
        raise ValueError("not a frontier ledger file")
    ledger = LedgerState()
    section: str | None = None
    buckets = {"edges": ledger.seen_edges, "paths": ledger.seen_paths,
               "signatures": ledger.seen_signatures}
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in buckets:
                raise ValueError(f"unknown ledger section {section!r}")
            continue
        if section is None:
            key, _, value = line.partition("=")
            if key == "year":
                ledger.current_year = int(value) if value else None
            elif key == "path_len":
                ledger.path_len = int(value)
            elif key == "subgraph_size":
                ledger.subgraph_size = int(value)
                if ledger.subgraph_size not in SUBGRAPH_SIZES:
                    raise ValueError(f"subgraph_size must be 2..4, got {value}")
            else:
                raise ValueError(f"unknown ledger header {key!r}")
        else:
            buckets[section].add(line)
    return ledger


def load_ledger_file(path: str) -> LedgerState:
    with open(path, encoding="utf-8") as fh:
        try:
            return load_ledger(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None
