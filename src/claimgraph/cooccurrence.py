"""Concept co-occurrence counts and gap-filling scores.

The pair table counts, per unordered code pair, how many prior papers used
both codes anywhere in their graph. A paper's gap-filling score is the share
of its own code pairs that are still rare (count below a threshold) in work
published strictly before its year.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence, TextIO

from .errors import SchemaError
from .graphs import PaperGraph, batch_year, year_batches
from .tableio import open_text, replace_on_success

DEFAULT_TAU = 5

TABLE_MAGIC = "#claimgraph-pairs v1"


@dataclass
class PairCountTable:
    """Cumulative unordered co-occurrence counts through `through_year`,
    keyed by sorted code pairs."""

    through_year: int | None = None
    counts: dict[tuple[str, str], int] = field(default_factory=dict)


def update_pair_counts(table: PairCountTable,
                       papers: Sequence[PaperGraph]) -> PairCountTable:
    """Add one year's papers to the table: +1 per paper per distinct pair.

    Papers must share one year strictly after the table's horizon, keeping
    the table a function of strictly earlier work during scoring.
    """
    if not papers:
        return table
    year = batch_year(papers, table.through_year, "pair table")
    for graph in papers:
        for pair in combinations(sorted(graph.nodes), 2):
            table.counts[pair] = table.counts.get(pair, 0) + 1
    table.through_year = year
    return table


def gap_filling_prop(graph: PaperGraph, table: PairCountTable,
                     tau: int = DEFAULT_TAU) -> float | None:
    """Share of the paper's unordered code pairs with prior count < tau.

    Graphs with fewer than two nodes have no pairs and score missing. The
    score is monotone non-decreasing in tau.
    """
    pairs = list(combinations(sorted(graph.nodes), 2))
    if not pairs:
        return None
    rare = sum(1 for pair in pairs if table.counts.get(pair, 0) < tau)
    return rare / len(pairs)


def score_corpus(graphs: Sequence[PaperGraph], tau: int = DEFAULT_TAU,
                 table: PairCountTable | None = None,
                 ) -> tuple[dict[str, float | None], PairCountTable]:
    """Gap scores for one view's graphs, processed in year order."""
    if table is None:
        table = PairCountTable()
    out: dict[str, float | None] = {}
    for _, batch in year_batches(graphs):
        for graph in batch:
            out[graph.paper_id] = gap_filling_prop(graph, table, tau)
        update_pair_counts(table, batch)
    return out, table


def save_pair_table(table: PairCountTable, fh: TextIO) -> None:
    fh.write(f"{TABLE_MAGIC}\n")
    fh.write(f"through_year={'' if table.through_year is None else table.through_year}\n")
    fh.write("code1,code2,count\n")
    if table.counts:
        fh.write("\n".join([f"{a},{b},{count}"
                            for (a, b), count in sorted(table.counts.items())]))
        fh.write("\n")


def save_pair_table_file(table: PairCountTable, path: str) -> None:
    with replace_on_success(path) as fh:
        save_pair_table(table, fh)


def load_pair_table(fh: TextIO) -> PairCountTable:
    lines = fh.read().split("\n")
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
    if not lines or lines[0] != TABLE_MAGIC:
        raise ValueError("not a pair-count table file")
    if len(lines) < 3 or not lines[1].startswith("through_year="):
        raise ValueError("pair-count table missing header")
    value = lines[1].partition("=")[2]
    table = PairCountTable(through_year=int(value) if value else None)
    if lines[2] != "code1,code2,count":
        raise ValueError("pair-count table missing column header")
    counts = table.counts
    for line in filter(None, lines[3:]):
        a, b, raw = line.split(",")
        if b < a:
            raise ValueError(f"pair {a},{b} not sorted")
        counts[a, b] = int(raw)
    return table


def load_pair_table_file(path: str) -> PairCountTable:
    with open_text(path) as fh:
        try:
            return load_pair_table(fh)
        except UnicodeDecodeError:  # a ValueError that open_text words
            raise
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None
