"""Concept matching by cosine similarity over supplied embedding vectors.

Vectors arrive from a local delimited table (id, v1, ..., vD) or, when
configured through environment variables, from a remote HTTP provider. No
embedding model ships with the package and the pipeline never requires the
remote mode.
"""

from __future__ import annotations

import json
import math
import os
import urllib.request
from dataclasses import dataclass

from .errors import SchemaError

ENV_REMOTE_URL = "CLAIMGRAPH_EMBED_URL"
ENV_REMOTE_TOKEN = "CLAIMGRAPH_EMBED_TOKEN"


@dataclass
class EmbeddingIndex:
    """Embedding vectors for candidate concept codes, fixed dimension."""

    dim: int
    ids: list[str]
    vectors: list[list[float]]

    @classmethod
    def from_rows(cls, rows: list[tuple[str, list[float]]]) -> "EmbeddingIndex":
        if not rows:
            raise SchemaError("embedding index is empty")
        dim = len(rows[0][1])
        if dim == 0:
            raise SchemaError("embedding vectors must be non-empty")
        seen: set[str] = set()
        ids: list[str] = []
        vectors: list[list[float]] = []
        for entry_id, vec in rows:
            if entry_id in seen:
                raise SchemaError(f"duplicate embedding id {entry_id!r}")
            if len(vec) != dim:
                raise SchemaError(
                    f"dimension mismatch for {entry_id!r}: {len(vec)} != {dim}")
            seen.add(entry_id)
            ids.append(entry_id)
            vectors.append([float(v) for v in vec])
        return cls(dim=dim, ids=ids, vectors=vectors)


def load_embedding_table(path: str, delimiter: str = ",") -> EmbeddingIndex:
    """Load an id,v1,...,vD table; every row must share one dimension."""
    rows: list[tuple[str, list[float]]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(delimiter)
            if len(parts) < 2:
                raise SchemaError("embedding row needs id and values", line_no=line_no)
            try:
                vec = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise SchemaError(str(exc), line_no=line_no) from None
            rows.append((parts[0].strip(), vec))
    return EmbeddingIndex.from_rows(rows)


def _dot(a: list[float], b: list[float]) -> float:
    # fsum keeps the accumulation exact, so near-ties rank stably across
    # platforms and input orderings.
    return math.fsum(x * y for x, y in zip(a, b))


def _norm(a: list[float]) -> float:
    return math.sqrt(math.fsum(x * x for x in a))


def cosine_similarity(a: list[float], b: list[float]) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    Invariant under positive rescaling of either argument. Zero vectors are
    rejected rather than given an arbitrary score.
    """
    if len(a) != len(b):
        raise SchemaError(f"dimension mismatch: {len(a)} != {len(b)}")
    norm_a = _norm(a)
    norm_b = _norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return max(-1.0, min(1.0, _dot(a, b) / (norm_a * norm_b)))


@dataclass(frozen=True)
class Match:
    query_id: str
    code: str
    score: float


def match_concept(query: list[float], index: EmbeddingIndex,
                  query_id: str = "") -> Match:
    """Best-matching index entry for a query vector.

    Exact score ties break to the lexicographically smallest id, so results
    are insensitive to index row order.
    """
    best: tuple[float, str] | None = None
    for entry_id, vec in zip(index.ids, index.vectors):
        score = cosine_similarity(query, vec)
        key = (-score, entry_id)
        if best is None or key < (-best[0], best[1]):
            best = (score, entry_id)
    assert best is not None
    return Match(query_id=query_id, code=best[1], score=best[0])


def match_concept_all(query: list[float], index: EmbeddingIndex,
                      threshold: float, query_id: str = "") -> list[Match]:
    """All index entries scoring at least `threshold`, best first; one-to-many
    mapping behind an explicit opt-in."""
    matches = [Match(query_id=query_id, code=entry_id,
                     score=cosine_similarity(query, vec))
               for entry_id, vec in zip(index.ids, index.vectors)]
    kept = [m for m in matches if m.score >= threshold]
    kept.sort(key=lambda m: (-m.score, m.code))
    return kept


def remote_provider_configured() -> bool:
    return bool(os.environ.get(ENV_REMOTE_URL))


def fetch_remote_embeddings(texts: list[str], url: str | None = None,
                            token: str | None = None,
                            timeout: float = 30.0) -> list[list[float]]:
    """POST texts to the configured provider and return one vector per text.

    The endpoint receives {"texts": [...]} and must answer
    {"vectors": [[...], ...]} with matching length. HTTP and connection
    failures raise OSError subclasses (urllib.error.URLError).
    """
    url = url or os.environ.get(ENV_REMOTE_URL)
    if not url:
        raise ValueError(f"remote provider not configured ({ENV_REMOTE_URL} unset)")
    token = token or os.environ.get(ENV_REMOTE_TOKEN)
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url, data=json.dumps({"texts": texts}).encode("utf-8"),
        headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        body = response.read()
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise SchemaError(f"remote provider returned invalid JSON: {exc}") from None
    vectors = payload.get("vectors") if isinstance(payload, dict) else None
    if not isinstance(vectors, list) or len(vectors) != len(texts):
        raise SchemaError("remote provider returned a malformed response")
    out: list[list[float]] = []
    for vec in vectors:
        if not isinstance(vec, list):
            raise SchemaError("remote provider vector is not a list")
        try:
            out.append([float(v) for v in vec])
        except (TypeError, ValueError):
            raise SchemaError("remote provider vector is not numeric") from None
    return out
