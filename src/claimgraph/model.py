"""Domain types: concept codes, method tags, claim edges, paper records.

A corpus is a sequence of paper records. Each record carries claim edges
between concept codes (an uppercase letter followed by one or two digits,
e.g. "D31"). Whether a claim is causal is decided by its method tags
alone, never by the relationship label.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

PUB_TIERS = ("Top5", "Top6to20", "Top21to100", "Other", "Unpublished", "Unknown")

RELATIONSHIPS = (
    "direct-causal",
    "indirect-causal",
    "mediation",
    "confounding",
    "theorized",
    "correlation",
)

_CODE_RE = re.compile(r"^[A-Z][0-9]{1,2}$")


@lru_cache(maxsize=4096)
def normalize_code(code: str) -> str:
    """Uppercase and validate a concept code. Raises ValueError when malformed.

    Cached: a corpus repeats few codes. A malformed code raises on every
    call, since `lru_cache` does not keep exceptions."""
    code = code.strip().upper()
    if not _CODE_RE.match(code):
        raise ValueError(f"malformed concept code {code!r}")
    return code


# Canonical names for causal identification methods. Matching an edge's
# normalized tags against this set is the only causality test.
CAUSAL_METHODS = frozenset(
    {
        "DID",
        "IV/2SLS",
        "RCT/EXPERIMENT",
        "RDD",
        "EVENT STUDY",
        "SYNTHETIC CONTROL",
    }
)

# Spelling variants folded into canonical names before the whitelist test.
METHOD_ALIASES = {
    "DIFFERENCE-IN-DIFFERENCES": "DID",
    "DIFFERENCES-IN-DIFFERENCES": "DID",
    "DIFF-IN-DIFF": "DID",
    "DIFF IN DIFF": "DID",
    "DD": "DID",
    "IV": "IV/2SLS",
    "2SLS": "IV/2SLS",
    "INSTRUMENTAL VARIABLE": "IV/2SLS",
    "INSTRUMENTAL VARIABLES": "IV/2SLS",
    "RCT": "RCT/EXPERIMENT",
    "RCTS": "RCT/EXPERIMENT",
    "EXPERIMENT": "RCT/EXPERIMENT",
    "EXPERIMENTS": "RCT/EXPERIMENT",
    "RANDOMIZED CONTROLLED TRIAL": "RCT/EXPERIMENT",
    "RANDOMISED CONTROLLED TRIAL": "RCT/EXPERIMENT",
    "RANDOMIZED EXPERIMENT": "RCT/EXPERIMENT",
    "RANDOMISED EXPERIMENT": "RCT/EXPERIMENT",
    "FIELD EXPERIMENT": "RCT/EXPERIMENT",
    "LAB EXPERIMENT": "RCT/EXPERIMENT",
    "RD": "RDD",
    "REGRESSION DISCONTINUITY": "RDD",
    "EVENT STUDIES": "EVENT STUDY",
    "SYNTHETIC CONTROLS": "SYNTHETIC CONTROL",
}

# Tags we expect to see but that never confer causality. Anything outside
# CAUSAL_METHODS and this set lands in the unknown-tags report.
KNOWN_NONCAUSAL_METHODS = frozenset(
    {
        "OLS",
        "TWFE",
        "PANEL",
        "CORRELATION",
        "DESCRIPTIVE",
        "STRUCTURAL ESTIMATION",
        "SIMULATIONS",
        "SIMULATION",
        "CALIBRATION",
        "THEORETICAL",
        "NON-EMPIRICAL",
        "THEORY",
        "MATCHING",
        "SURVEY",
    }
)


def normalize_method_tag(tag: str) -> str:
    """Trim, uppercase, collapse inner whitespace, and resolve aliases."""
    tag = re.sub(r"\s+", " ", tag.strip().upper())
    return METHOD_ALIASES.get(tag, tag)


@lru_cache(maxsize=4096)
def _normalized_tags(methods: tuple[str, ...]) -> tuple[str, ...]:
    """Each tag normalized. A corpus repeats few tag tuples, so this runs
    once per distinct tuple."""
    return tuple(normalize_method_tag(t) for t in methods)


@lru_cache(maxsize=4096)
def _causal_decision(methods: tuple[str, ...]) -> bool:
    return any(t in CAUSAL_METHODS for t in _normalized_tags(methods))


def is_causal_methods(methods: tuple[str, ...] | list[str]) -> bool:
    """True when any normalized tag sits on the causal whitelist."""
    return _causal_decision(tuple(methods))


@lru_cache(maxsize=4096)
def _unknown_tags(methods: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(t for t in _normalized_tags(methods)
                 if t not in CAUSAL_METHODS and t not in KNOWN_NONCAUSAL_METHODS)


def unknown_method_tags(methods: tuple[str, ...] | list[str]) -> list[str]:
    """Normalized tags outside both the causal and the known non-causal sets."""
    return list(_unknown_tags(tuple(methods)))


class ClaimEdge(NamedTuple):
    """One directed claim between two concept codes.

    `methods` keeps the raw tags as given (sorted for stable round-trips).
    `is_causal` is derived from them and cannot be set independently; it is
    neither a field nor part of equality.
    """

    source: str
    sink: str
    source_text: str = ""
    sink_text: str = ""
    methods: tuple[str, ...] = ()
    relationship: str = "correlation"

    @property
    def is_causal(self) -> bool:
        return _causal_decision(tuple(self.methods))


@dataclass(slots=True)
class PaperRecord:
    paper_id: str
    year: int
    fields: tuple[str, ...] = ()
    edges: tuple[ClaimEdge, ...] = ()
    title: str | None = None
    pub_tier: str = "Unknown"
    citations: int | None = None
    outcome_source: str = ""

    def method_tags(self) -> set[str]:
        """Normalized method tags used anywhere in the paper."""
        tags: set[str] = set()
        for e in self.edges:
            tags.update(_normalized_tags(tuple(e.methods)))
        return tags

    def claim_counts(self) -> tuple[int, int, float | None]:
        """(claims, causal claims, causal share or None for zero claims)."""
        n_claims = len(self.edges)
        n_causal = sum(1 for e in self.edges if e.is_causal)
        return n_claims, n_causal, n_causal / n_claims if n_claims else None


def normalize_title(title: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace. Used for exact
    title matching against outcome tables; no fuzzy matching is attempted."""
    title = title.casefold()
    title = re.sub(r"[^a-z0-9 ]+", " ", title)
    return re.sub(r"\s+", " ", title).strip()
