"""Year-granular novelty scoring against a cumulative structure ledger.

The ledger accumulates three kinds of structure from all papers strictly
before the year being scored: directed edges, canonical path strings up to a
length bound, and canonical signatures of small induced subgraphs. Papers
published in the same year cannot see each other; the year's structures join
the ledger only after every paper in that year is scored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import NamedTuple, Sequence, TextIO

from .errors import SchemaError, SubsetBudgetExceeded, check_range
from .graphs import PaperGraph, batch_year, iter_simple_paths, year_batches
from .tableio import open_text, replace_on_success

DEFAULT_PATH_LEN = 3
DEFAULT_SUBGRAPH_SIZE = 3
DEFAULT_SUBSET_CAP = 1_000_000
SUBGRAPH_SIZES = range(2, 5)
# Accepted (low, high) of each ledger parameter; None is no upper bound.
# A path_len below 1 would be read as 1, since 1-edge paths always count.
LEDGER_RANGES = {"path_len": (1, None),
                 "subgraph_size": (SUBGRAPH_SIZES[0], SUBGRAPH_SIZES[-1])}

LEDGER_MAGIC = "#claimgraph-frontier v1"


def path_key(path: tuple[str, ...]) -> str:
    """Canonical string for a node sequence, e.g. 'D31->J62->J13'; an edge
    is a 2-node sequence."""
    return "->".join(path)


@lru_cache(maxsize=65536)
def _signature_from_mask(k: int, mask: int) -> str:
    """Signature of the k-node digraph with edge (i, j) at bit i * k + j."""
    edges = [(i, j) for i in range(k) for j in range(k) if mask >> (i * k + j) & 1]
    best: str | None = None
    for perm in permutations(range(k)):
        pos = {orig: idx for idx, orig in enumerate(perm)}
        bits = ["0"] * (k * k)
        for i, j in edges:
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
    mask = 0
    for u, v in edges:
        if u in order and v in order:
            mask |= 1 << (order[u] * k + order[v])
    return _signature_from_mask(k, mask)


def iter_subgraph_signatures(graph: PaperGraph, size: int,
                             subset_cap: int = DEFAULT_SUBSET_CAP):
    """Signatures of all induced `size`-node subgraphs carrying >= 1 edge.

    Nodes are positions in sorted order. Each node pair's edges are coded
    once as two bits, from which each subset's adjacency mask is assembled
    in the layout `canonical_signature` uses.
    """
    if size not in SUBGRAPH_SIZES:
        raise ValueError(f"subgraph size must be 2..4, got {size}")
    nodes = graph.nodes
    if len(nodes) >= size:
        n_subsets = comb(len(nodes), size)
        if n_subsets > subset_cap:
            raise SubsetBudgetExceeded(graph.paper_id, n_subsets, subset_cap)
    position = {node: idx for idx, node in enumerate(nodes)}
    # pair[i][j]: bit 0 for the edge i->j, bit 1 for j->i.
    pair = [[0] * len(nodes) for _ in nodes]
    loops = 0
    for u, v in graph.edges:
        i, j = position[u], position[v]
        if i == j:
            loops |= 1 << i
        else:
            pair[i][j] |= 1
            pair[j][i] |= 2
    # For each slot pair a < b of a subset, the mask bits of each pair code.
    slots = []
    for a, b in combinations(range(size), 2):
        ab, ba = 1 << (a * size + b), 1 << (b * size + a)
        slots.append((a, b, (0, ab, ba, ab | ba)))
    for combo in combinations(range(len(nodes)), size):
        mask = 0
        for a, b, bits in slots:
            mask |= bits[pair[combo[a]][combo[b]]]
        if loops:
            for a, i in enumerate(combo):
                if loops >> i & 1:
                    mask |= 1 << (a * size + a)
        if mask:
            yield _signature_from_mask(size, mask)


class NoveltyMeasures(NamedTuple):
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
    edges = {path_key(e) for e in graph.edges}
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


def _sections(ledger: LedgerState) -> dict[str, set[str]]:
    return {"edges": ledger.seen_edges, "paths": ledger.seen_paths,
            "signatures": ledger.seen_signatures}


def save_ledger(ledger: LedgerState, fh: TextIO) -> None:
    """Persist a ledger as sorted canonical strings under section tags."""
    fh.write(f"{LEDGER_MAGIC}\n")
    fh.write(f"year={'' if ledger.current_year is None else ledger.current_year}\n")
    fh.write(f"path_len={ledger.path_len}\n")
    fh.write(f"subgraph_size={ledger.subgraph_size}\n")
    for tag, items in _sections(ledger).items():
        fh.write(f"[{tag}]\n")
        if items:
            fh.write("\n".join(sorted(items)))
            fh.write("\n")


def save_ledger_file(ledger: LedgerState, path: str) -> None:
    with replace_on_success(path) as fh:
        save_ledger(ledger, fh)


# A section tag: a whole line that opens with '[' and closes with ']'.
_SECTION_RE = re.compile(r"^\[(.*)\]$", re.MULTILINE)


def load_ledger(fh: TextIO) -> LedgerState:
    """Header lines come before the first section; blank lines are skipped."""
    head, *sections = _SECTION_RE.split(fh.read())
    magic, *headers = head.split("\n")
    if magic != LEDGER_MAGIC:
        raise ValueError("not a frontier ledger file")
    ledger = LedgerState()
    for line in filter(None, headers):
        key, _, value = line.partition("=")
        if key == "year":
            ledger.current_year = int(value) if value else None
        elif key in LEDGER_RANGES:
            setattr(ledger, key, int(value))
            check_range(key, getattr(ledger, key), LEDGER_RANGES[key])
        else:
            raise ValueError(f"unknown ledger header {key!r}")
    buckets = _sections(ledger)
    for tag, body in zip(sections[::2], sections[1::2]):
        if tag not in buckets:
            raise ValueError(f"unknown ledger section {tag!r}")
        buckets[tag].update(body.split("\n"))
    for bucket in buckets.values():
        bucket.discard("")
    if ledger.current_year is None and any(buckets.values()):
        raise ValueError("ledger has entries but no year")
    return ledger


def load_ledger_file(path: str) -> LedgerState:
    with open_text(path) as fh:
        try:
            return load_ledger(fh)
        except UnicodeDecodeError:  # a ValueError that open_text words
            raise
        except (ValueError, SchemaError) as exc:
            raise SchemaError(f"{path}: {exc}") from None
