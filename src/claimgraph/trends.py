"""Corpus-level causal-share and method-usage trends."""

from __future__ import annotations

import logging
import math
from typing import NamedTuple, Sequence

from .model import PaperRecord

log = logging.getLogger(__name__)

GROUPINGS = ("year", "field", "year_field", "method")


class TrendRow(NamedTuple):
    group: str
    metric: str
    value: float
    n: int
    ci95: float | None


def _mean_ci(values: list[float]) -> tuple[float, float | None]:
    """Mean with a 95% normal-approximation half-width (needs n >= 2)."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, None
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def _share_ci(hits: int, n: int) -> tuple[float, float | None]:
    share = hits / n
    if n < 2:
        return share, None
    return share, 1.96 * math.sqrt(share * (1.0 - share) / n)


def _groups(record: PaperRecord, group_by: str) -> list[str]:
    if group_by == "year":
        return [str(record.year)]
    if group_by == "field":
        return list(record.fields)
    if group_by == "year_field":
        return [f"{record.year}|{f}" for f in record.fields]
    if group_by == "method":
        return sorted(record.method_tags())
    raise ValueError(f"unknown grouping {group_by!r}")


def aggregate_trends(records: Sequence[PaperRecord],
                     group_by: str = "year") -> list[TrendRow]:
    """Per-group mean causal share and per-group method-usage shares.

    The causal share averages each paper's own proportion of causal claims;
    zero-edge papers have no proportion and drop out. Method usage counts a
    paper once per normalized tag appearing on any of its edges. Groups are
    sorted; groups with no usable papers are omitted with a log note.

    Aggregating shards of a partition and combining the per-group sums gives
    identical means, because membership and sums are exact.
    """
    members: dict[str, list[PaperRecord]] = {}
    for record in records:
        for group in _groups(record, group_by):
            members.setdefault(group, []).append(record)
    rows: list[TrendRow] = []
    for group in sorted(members):
        papers = members[group]
        props = [p for p in (r.prop_causal() for r in papers) if p is not None]
        if not props:
            log.info("group %r has no papers with edges; omitted", group)
            continue
        mean, ci = _mean_ci(props)
        rows.append(TrendRow(group, "mean_prop_causal", mean, len(props), ci))
        tags: dict[str, int] = {}
        for record in papers:
            for tag in record.method_tags():
                tags[tag] = tags.get(tag, 0) + 1
        for tag in sorted(tags):
            share, ci = _share_ci(tags[tag], len(papers))
            rows.append(TrendRow(group, f"method_share:{tag}", share,
                                 len(papers), ci))
    return rows
