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
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SchemaError
from .tableio import open_text

# numpy is imported by the functions that compute with it, so the commands
# that match no concepts start without loading it.
if TYPE_CHECKING:
    import numpy as np

ENV_REMOTE_URL = "CLAIMGRAPH_EMBED_URL"
ENV_REMOTE_TOKEN = "CLAIMGRAPH_EMBED_TOKEN"


@dataclass
class EmbeddingIndex:
    """Embedding vectors for candidate concept codes: one n x d matrix of
    `_scale`d float64 rows and each row's norm as `cosine_similarity` has it."""

    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_rows(cls, rows: list[tuple[str, list[float]]],
                  source: str = "embeddings") -> "EmbeddingIndex":
        """Index of (id, vector) rows; errors name `source` and the id."""
        return _build(((entry_id, vec, None) for entry_id, vec in rows), source)


def _scale(vec: np.ndarray) -> np.ndarray:
    """Scale `vec` in place by the power of two that puts its largest |entry|
    in [0.5, 1), which changes no cosine; returns `vec`."""
    import numpy as np
    _, exponent = np.frexp(np.abs(vec).max())
    return np.ldexp(vec, -exponent, out=vec)


def _vector_norm(vec: np.ndarray) -> float:
    """Norm of a scaled vector, as `cosine_similarity` computes it."""
    return math.sqrt(math.fsum((vec * vec).tolist()))


def _defect(vec: np.ndarray, norm: float) -> str | None:
    """Why `vec` has no cosine similarity, or None."""
    import numpy as np
    if not np.isfinite(vec).all():
        return "non-finite value"
    if norm == 0.0:
        return "zero vector"
    return None


def _build(rows: Iterable[tuple[str, Iterable[float], int | None]],
           source: str) -> EmbeddingIndex:
    """Parse (id, values, line number) rows straight into one matrix."""
    import numpy as np
    ids: list[str] = []
    line_nos: list[int | None] = []
    seen: set[str] = set()
    values = array("d")
    dim = 0
    for entry_id, vec, line_no in rows:
        start = len(values)
        values.extend(vec)
        width = len(values) - start
        if not ids:
            dim = width
            if dim == 0:
                raise SchemaError(f"{source}: embedding vectors must be non-empty",
                                  line_no=line_no)
        elif width != dim:
            raise SchemaError(f"{source}: dimension mismatch for {entry_id!r}: "
                              f"{width} != {dim}", line_no=line_no)
        if entry_id in seen:
            raise SchemaError(f"{source}: duplicate embedding id {entry_id!r}",
                              line_no=line_no)
        seen.add(entry_id)
        ids.append(entry_id)
        line_nos.append(line_no)
    if not ids:
        raise SchemaError(f"{source}: no embedding vectors")
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), dim)
    norms = np.empty(len(ids))
    for k, row in enumerate(matrix):
        norms[k] = _vector_norm(_scale(row))
        problem = _defect(row, norms[k])
        if problem is not None:
            raise SchemaError(f"{source}: {problem} for {ids[k]!r}",
                              line_no=line_nos[k])
    return EmbeddingIndex(ids=ids, matrix=matrix, norms=norms)


def load_embedding_table(path: str) -> EmbeddingIndex:
    """Load an id,v1,...,vD table; every row must share one dimension and be
    finite and non-zero."""
    with open_text(path) as fh:
        return _build(_table_rows(fh, path), path)


def _table_rows(lines: Iterable[str], path: str):
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise SchemaError(f"{path}: embedding row needs id and values",
                              line_no=line_no)
        try:
            vec = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}", line_no=line_no) from None
        yield parts[0].strip(), vec, line_no


def _dot(a: list[float], b: list[float]) -> float:
    # fsum keeps the accumulation exact, so near-ties rank stably across
    # platforms and input orderings.
    return math.fsum(x * y for x, y in zip(a, b))


def _norm(a: list[float]) -> float:
    return math.sqrt(math.fsum(x * x for x in a))


def _cosine(dot: float, norm_a: float, norm_b: float) -> float:
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


def cosine_similarity(a: list[float], b: list[float]) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    Invariant under positive rescaling of either argument. Zero and
    non-finite vectors are rejected rather than given an arbitrary score.
    This is the reference the matchers below reproduce bit for bit.
    """
    import numpy as np
    if len(a) != len(b):
        raise SchemaError(f"dimension mismatch: {len(a)} != {len(b)}")
    a, b = (_scale(np.array(v, dtype=np.float64)).tolist() for v in (a, b))
    norm_a = _norm(a)
    norm_b = _norm(b)
    if not 0.0 < norm_a * norm_b < math.inf:  # NaN and inf carry into norms
        raise ValueError("cosine similarity undefined for zero or non-finite vectors")
    return _cosine(_dot(a, b), norm_a, norm_b)


@dataclass(frozen=True)
class Match:
    query_id: str
    code: str
    score: float


class _Scorer:
    """One query against an index. Every score it returns is the exact
    `cosine_similarity` of the pair; the BLAS pass only picks which rows to
    score.

    Margin on |approximate - exact| cosine, for finite non-zero rows and
    query scaled by `_scale`, u = 2**-53 (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., section 3.1):
    - Scaled entries lie below 1, each vector's largest at least 1/2, so
      nothing overflows and |x||y| >= 1/4; an underflow errs by <= 2**-1075.
    - `matrix @ q` sums d products in any order, with or without FMA, within
      gamma_d * sum|x_i y_i| <= gamma_d * |x||y| of the true dot product,
      gamma_d = d*u / (1 - d*u).
    - The exact score's fsum of the rounded products is within 2u * |x||y|.
    - Both divide by the same rounded norm product, within (1 + 5u) of
      |x||y|, and each division rounds once more, by u at most.
    So the two cosines differ by at most (d + 4)*u plus smaller terms; four
    times that covers those. Clamping to [-1, 1] only narrows the gap.
    """

    def __init__(self, query, index: EmbeddingIndex, query_id: str):
        import numpy as np
        q = np.array(query, dtype=np.float64)
        if q.shape != (index.dim,):
            raise SchemaError(f"query {query_id!r}: dimension mismatch: "
                              f"{q.size} != {index.dim}")
        norm = _vector_norm(_scale(q))
        problem = _defect(q, norm)
        if problem is not None:
            raise SchemaError(f"query {query_id!r}: {problem}")
        self.q, self.norm, self.index = q, norm, index
        self.margin = 4 * (index.dim + 4) * 2.0 ** -53
        self.approx = np.clip(index.matrix @ q / (index.norms * norm), -1.0, 1.0)

    def rows_at_least(self, floor: float) -> np.ndarray:
        """Every row whose exact score may reach `floor`."""
        import numpy as np
        return np.flatnonzero(self.approx >= floor - self.margin)

    def exact(self, k: int) -> float:
        dot = math.fsum((self.index.matrix[k] * self.q).tolist())
        return _cosine(dot, self.norm, float(self.index.norms[k]))


def match_concept(query: list[float], index: EmbeddingIndex,
                  query_id: str = "") -> Match:
    """Best-matching index entry for a query vector.

    Exact score ties break to the lexicographically smallest id, so results
    are insensitive to index row order.
    """
    scorer = _Scorer(query, index, query_id)
    # The row with the top approximate score scores at least that minus the
    # margin exactly, so no row more than two margins below it can be best.
    top = scorer.approx.max()
    neg_score, code = min((-scorer.exact(k), index.ids[k])
                          for k in scorer.rows_at_least(top - scorer.margin))
    return Match(query_id=query_id, code=code, score=-neg_score)


def match_concept_all(query: list[float], index: EmbeddingIndex,
                      threshold: float, query_id: str = "") -> list[Match]:
    """All index entries scoring at least `threshold`, best first; one-to-many
    mapping behind an explicit opt-in."""
    scorer = _Scorer(query, index, query_id)
    matches = [Match(query_id=query_id, code=index.ids[k], score=scorer.exact(k))
               for k in scorer.rows_at_least(threshold)]
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
    import urllib.request  # slow to import, and only this call needs it
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
    except (ValueError, RecursionError) as exc:  # deep nesting recurses
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
