"""Corpus ingestion and outcome merging.

The corpus wire format is UTF-8 line-delimited JSON, one paper per line:

    {"paper_id": "p1", "year": 2014, "fields": ["Labour"],
     "title": "...",                      # optional
     "pub_tier": "Top5",                  # optional
     "citations": 12,                     # optional
     "outcome_source": "src",             # optional
     "edges": [{"source_code": "D31", "sink_code": "J62",
                "source_text": "...", "sink_text": "...",
                "methods": ["OLS"], "relationship": "correlation"}]}

Malformed lines are reported with their line number and skipped unless
strict mode is on, in which case the first problem aborts the parse.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import dataclass, replace, field
from functools import lru_cache
from typing import Iterable, Sequence, TextIO

from .errors import DuplicatePaperError, SchemaError
from .model import (
    PUB_TIERS,
    RELATIONSHIPS,
    ClaimEdge,
    PaperRecord,
    normalize_code,
    normalize_title,
    unknown_method_tags,
)
from .tableio import open_text, read_table

log = logging.getLogger(__name__)

DEFAULT_MIN_YEAR = 1980
DEFAULT_MAX_YEAR = 2023


@dataclass(frozen=True)
class Diagnostic:
    line_no: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: [{self.kind}] {self.message}"


_BAD_METHODS = "edge methods must be a list of strings"
# Each accepted value maps to its model constant, which every record shares.
_RELATIONSHIPS = {r: r for r in RELATIONSHIPS}
_PUB_TIERS = {t: t for t in PUB_TIERS}


@lru_cache(maxsize=4096)
def _sorted_methods(methods: tuple) -> tuple[str, ...]:
    """An edge's tags in stored order, once per distinct tag list. A list
    holding a non-string raises on every call: errors are not cached."""
    if not all(isinstance(m, str) for m in methods):
        raise ValueError(_BAD_METHODS)
    return tuple(sorted(methods))


def _parse_edge(obj: dict) -> ClaimEdge:
    if not isinstance(obj, dict):
        raise ValueError("edge must be an object")
    try:
        source = normalize_code(str(obj["source_code"]))
        sink = normalize_code(str(obj["sink_code"]))
    except KeyError as exc:
        raise ValueError(f"edge missing {exc.args[0]!r}") from None
    methods = obj.get("methods", [])
    if not isinstance(methods, list):
        raise ValueError(_BAD_METHODS)
    try:
        methods = _sorted_methods(tuple(methods))
    except TypeError:  # an unhashable element, such as a list
        raise ValueError(_BAD_METHODS) from None
    relationship = _RELATIONSHIPS.get(raw := str(obj.get("relationship", "correlation")))
    if relationship is None:
        raise ValueError(f"unknown relationship {raw!r}")
    source_text = obj.get("source_text", "")
    if not isinstance(source_text, str):
        source_text = _absent_text("source_text", source_text)
    sink_text = obj.get("sink_text", "")
    if not isinstance(sink_text, str):
        sink_text = _absent_text("sink_text", sink_text)
    return ClaimEdge(source, sink, source_text, sink_text, methods, relationship)


def _absent_text(name: str, value) -> str:
    """An edge text that is not a string: `null` reads as absent."""
    if value is None:
        return ""
    raise ValueError(f"{name} must be a string, got {value!r}")


def _csv_text(name: str, value) -> str:
    # `str()` of a bool or a float would make `true` a paper and `1.0` a
    # different one from `1`.
    if isinstance(value, str):
        text = value
    elif isinstance(value, int) and not isinstance(value, bool):
        text = str(value)
    else:
        raise ValueError(f"{name} must be a string or an integer, got {value!r}")
    # `measures.csv` carries the text, and `csv` quotes only cells holding a
    # line feed, so a lone carriage return would split the row read back.
    if "\r" in text and "\n" not in text:
        raise ValueError(f"{name} must hold no lone \\r: {value!r}")
    return text


def _parse_record(obj: dict, min_year: int, max_year: int) -> PaperRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be an object")
    try:
        paper_id = _csv_text("paper_id", obj["paper_id"])
        year = obj["year"]
    except KeyError as exc:
        raise ValueError(f"record missing {exc.args[0]!r}") from None
    if not paper_id:
        raise ValueError("paper_id must be non-empty")
    if not isinstance(year, int) or isinstance(year, bool):
        raise ValueError(f"year must be an integer, got {year!r}")
    if not min_year <= year <= max_year:
        raise ValueError(f"year {year} outside [{min_year}, {max_year}]")
    fields = obj.get("fields", [])
    if not isinstance(fields, list) or not all(isinstance(f, str) for f in fields):
        raise ValueError("fields must be a list of strings")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise ValueError("edges must be a list")
    pub_tier = _PUB_TIERS.get(raw := str(obj.get("pub_tier", "Unknown")))
    if pub_tier is None:
        raise ValueError(f"unknown pub_tier {raw!r}")
    citations = obj.get("citations")
    if citations is not None:
        if not isinstance(citations, int) or isinstance(citations, bool) or citations < 0:
            raise ValueError(f"citations must be a non-negative integer, got {citations!r}")
    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        raise ValueError(f"title must be a string, got {title!r}")
    return PaperRecord(
        paper_id=paper_id,
        year=year,
        fields=tuple(sorted(set(map(sys.intern, fields)))),
        edges=tuple([_parse_edge(e) for e in edges]),
        title=title,
        pub_tier=pub_tier,
        citations=citations,
        outcome_source=_csv_text("outcome_source", obj.get("outcome_source", "")),
    )


def parse_corpus(lines: Iterable[str] | TextIO, strict: bool = False,
                 min_year: int = DEFAULT_MIN_YEAR,
                 max_year: int = DEFAULT_MAX_YEAR,
                 ) -> tuple[list[PaperRecord], list[Diagnostic]]:
    """Parse line-delimited records, in input order.

    Returns (records, diagnostics). Diagnostics cover malformed lines,
    duplicate paper ids, and unrecognized method tags. In strict mode the
    first malformed line or duplicate id raises instead.
    """
    records: list[PaperRecord] = []
    diagnostics: list[Diagnostic] = []
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            record = _parse_record(obj, min_year, max_year)
        except (ValueError, TypeError, RecursionError) as exc:  # deep nesting recurses
            if strict:
                raise SchemaError(str(exc), line_no=line_no) from None
            diagnostics.append(Diagnostic(line_no, "schema", str(exc)))
            continue
        if record.paper_id in seen:
            msg = (f"duplicate paper_id {record.paper_id!r} "
                   f"(first seen on line {seen[record.paper_id]})")
            if strict:
                raise DuplicatePaperError(msg, line_no=line_no)
            diagnostics.append(Diagnostic(line_no, "duplicate", msg))
            continue
        seen[record.paper_id] = line_no
        for edge in record.edges:
            for tag in unknown_method_tags(edge.methods):
                diagnostics.append(Diagnostic(
                    line_no, "unknown-method",
                    f"paper {record.paper_id!r}: unrecognized method tag {tag!r}"))
        records.append(record)
    return records, diagnostics


def parse_corpus_file(path: str, strict: bool = False,
                      min_year: int = DEFAULT_MIN_YEAR,
                      max_year: int = DEFAULT_MAX_YEAR,
                      ) -> tuple[list[PaperRecord], list[Diagnostic]]:
    with open_text(path) as fh:
        return parse_corpus(fh, strict=strict, min_year=min_year, max_year=max_year)


def record_to_dict(record: PaperRecord) -> dict:
    obj: dict = {
        "paper_id": record.paper_id,
        "year": record.year,
        "fields": list(record.fields),
        "edges": [
            {
                "source_code": e.source,
                "sink_code": e.sink,
                "source_text": e.source_text,
                "sink_text": e.sink_text,
                "methods": list(e.methods),
                "relationship": e.relationship,
            }
            for e in record.edges
        ],
    }
    if record.title is not None:
        obj["title"] = record.title
    if record.pub_tier != "Unknown":
        obj["pub_tier"] = record.pub_tier
    if record.citations is not None:
        obj["citations"] = record.citations
    if record.outcome_source:
        obj["outcome_source"] = record.outcome_source
    return obj


def serialize_corpus(records: Sequence[PaperRecord], fh: TextIO) -> None:
    """Write records as line-delimited JSON; parse(serialize(x)) == x."""
    for record in records:
        fh.write(json.dumps(record_to_dict(record), sort_keys=True))
        fh.write("\n")


@dataclass
class OutcomeTable:
    """One prioritized outcome source: paper_id (or title) -> journal/citations."""

    name: str
    by_id: dict[str, dict] = field(default_factory=dict)
    by_title: dict[str, dict] = field(default_factory=dict)


def load_outcome_table(path: str, name: str | None = None) -> OutcomeTable:
    """Load a delimited outcome table with header (paper_id, journal, citations).

    An optional title column enables exact normalized-title matching for rows
    whose paper_id is empty.
    """
    table = OutcomeTable(name=name or path)
    header, rows = read_table(path)
    if not header:
        raise SchemaError(f"{path}: empty outcome table")
    if "paper_id" not in header and "title" not in header:
        raise SchemaError(f"{path}: outcome table needs a paper_id or title column")
    for line_no, row in rows:
        cites_raw = row.get("citations", "").strip()
        citations: int | None = None
        if cites_raw:
            try:
                citations = int(cites_raw)
            except ValueError:
                raise SchemaError(f"{path}: bad citations {cites_raw!r}", line_no=line_no)
            if citations < 0:
                raise SchemaError(f"{path}: negative citations", line_no=line_no)
        entry = {"journal": row.get("journal", "").strip() or None,
                 "citations": citations}
        if pid := row.get("paper_id", "").strip():
            table.by_id[pid] = entry
        elif title := row.get("title", "").strip():
            table.by_title[normalize_title(title)] = entry
    return table


def load_rank_table(path: str) -> dict[str, str]:
    """Load (journal, tier) rows mapping normalized journal names to tiers."""
    header, rows = read_table(path)
    if not {"journal", "tier"} <= set(header):
        raise SchemaError(f"{path}: rank table needs journal and tier columns")
    ranks: dict[str, str] = {}
    for line_no, row in rows:
        tier = row["tier"].strip()
        if tier not in PUB_TIERS:
            raise SchemaError(f"{path}: unknown tier {tier!r}", line_no=line_no)
        ranks[row["journal"].strip().casefold()] = tier
    return ranks


def journal_tier(journal: str | None, ranks: dict[str, str]) -> str:
    """Rank-table tier for a journal. Journals missing from the table map
    to Other; no journal at all means the paper is unpublished."""
    if not journal:
        return "Unpublished"
    return ranks.get(journal.strip().casefold(), "Other")


def merge_outcomes(records: Sequence[PaperRecord],
                   sources: Sequence[OutcomeTable],
                   ranks: dict[str, str],
                   default_tier: str = "Unpublished") -> list[PaperRecord]:
    """Attach publication tier and citation counts from prioritized sources.

    Field-wise hierarchical merge: the tier comes from the highest-priority
    source holding a journal for the paper, citations from the highest-
    priority source holding a citation count. Lower-priority conflicts are
    logged and discarded. Papers absent everywhere get `default_tier`.
    Applying the merge twice with the same sources is a no-op.
    """
    if default_tier not in PUB_TIERS:
        raise ValueError(f"unknown default tier {default_tier!r}")
    merged: list[PaperRecord] = []
    for record in records:
        tier: str | None = None
        tier_source = ""
        citations: int | None = None
        title = None  # normalised on the first lookup by title
        for source in sources:
            row = source.by_id.get(record.paper_id)
            if row is None and source.by_title and record.title is not None:
                if title is None:
                    title = normalize_title(record.title)
                row = source.by_title.get(title)
            if row is None:
                continue
            if row["journal"] is not None:
                t = journal_tier(row["journal"], ranks)
                if tier is None:
                    tier, tier_source = t, source.name
                elif t != tier:
                    log.info("outcome conflict for %s: %s says %s, keeping %s from %s",
                             record.paper_id, source.name, t, tier, tier_source)
            if row["citations"] is not None and citations is None:
                citations = row["citations"]
        merged.append(replace(
            record,
            pub_tier=tier if tier is not None else default_tier,
            citations=citations,
            outcome_source=tier_source,
        ))
    return merged


def split_paths(value: str) -> list[str]:
    """A comma-separated list of paths, each stripped, empty entries dropped."""
    return [p.strip() for p in value.split(",") if p.strip()]


def merge_outcome_files(records: Sequence[PaperRecord], outcome_paths: Sequence[str],
                        ranks_path: str = "",
                        default_tier: str = "Unpublished") -> list[PaperRecord]:
    """`merge_outcomes` from outcome tables on disk, highest priority first
    and each named by its basename, with an optional rank table."""
    sources = [load_outcome_table(p, name=os.path.basename(p)) for p in outcome_paths]
    ranks = load_rank_table(ranks_path) if ranks_path else {}
    return merge_outcomes(records, sources, ranks, default_tier=default_tier)
