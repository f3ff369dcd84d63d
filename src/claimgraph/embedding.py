"""Concept matching by cosine similarity over supplied embedding vectors.

Vectors arrive from a local delimited table (id, v1, ..., vD) or, when
configured through environment variables, from a remote HTTP provider. No
embedding model ships with the package.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

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
    """Vectors of concept codes: one n x d matrix of `_scale_rows`d float64
    rows, and their `_norms`."""

    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self) -> Iterable[tuple[str, "CheckedVector"]]:
        """(id, row) pairs; a query row is scored as stored."""
        return zip(self.ids, map(CheckedVector, self.matrix, self.norms.tolist()))

    @classmethod
    def from_rows(cls, rows: list[tuple[str, list[float]]],
                  source: str = "embeddings") -> "EmbeddingIndex":
        """Index of (id, vector) rows; errors name `source` and the id."""
        return _build(((entry_id, list(vec), None) for entry_id, vec in rows),
                      source)


class CheckedVector(NamedTuple):
    """A finite non-zero vector, `_scale_rows`d, and its norm."""

    values: np.ndarray
    norm: float


def _scale_rows(matrix: np.ndarray) -> tuple[int, str] | None:
    """Scale each row in place by the power of two that puts its largest
    |entry| in [0.5, 1), which changes no cosine. If a row has no cosine,
    scale nothing and return the first such row and why."""
    import numpy as np
    peaks = np.maximum(matrix.max(axis=1), -matrix.min(axis=1))  # NaN carries
    bad = np.flatnonzero(~((peaks > 0.0) & (peaks < math.inf)))
    if bad.size:
        k = int(bad[0])
        return k, "zero vector" if peaks[k] == 0.0 else "non-finite value"
    np.ldexp(matrix, -np.frexp(peaks)[1][:, None], out=matrix)
    return None


def _norms(matrix: np.ndarray) -> list[float]:
    """Each scaled row's norm. Rows are squared one at a time, so no
    temporary grows with the matrix."""
    return [math.sqrt(math.fsum((row * row).tolist())) for row in matrix]


def _build(rows: Iterable[tuple[str, list[float], int | None]],
           source: str) -> EmbeddingIndex:
    """Parse (id, values, line number) rows into one matrix, then check,
    scale and norm it."""
    import numpy as np
    line_nos: dict[str, int | None] = {}  # id -> line, row order
    values = array("d")
    dim = 0
    for entry_id, vec, line_no in rows:
        values.fromlist(vec)
        if not line_nos:
            dim = len(vec)
            if dim == 0:
                raise SchemaError(f"{source}: embedding vectors must be non-empty",
                                  line_no=line_no)
        elif len(vec) != dim:
            raise SchemaError(f"{source}: dimension mismatch for {entry_id!r}: "
                              f"{len(vec)} != {dim}", line_no=line_no)
        if entry_id in line_nos:
            raise SchemaError(f"{source}: duplicate embedding id {entry_id!r}",
                              line_no=line_no)
        line_nos[entry_id] = line_no
    if not line_nos:
        raise SchemaError(f"{source}: no embedding vectors")
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(line_nos), dim)
    return _index(line_nos, matrix, source)


def _index(line_nos: dict[str, int | None], matrix: np.ndarray,
           source: str) -> EmbeddingIndex:
    """Check, scale and norm `matrix`, whose rows are `line_nos`'s ids."""
    import numpy as np
    ids = list(line_nos)
    if defect := _scale_rows(matrix):
        k, problem = defect
        raise SchemaError(f"{source}: {problem} for {ids[k]!r}",
                          line_no=line_nos[ids[k]])
    return EmbeddingIndex(ids=ids, matrix=matrix, norms=np.array(_norms(matrix)))


def load_embedding_table(path: str) -> EmbeddingIndex:
    """Load an id,v1,...,vD table; every row must share one dimension and be
    finite and non-zero. numpy's text reader converts the cells: it reads
    no cell `float()` refuses, and each cell it reads to `float()`'s value.
    A table it or `_value_texts` refuses is read again by `_table_rows`."""
    import numpy as np
    line_nos: dict[str, int | None] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            matrix = np.loadtxt(_value_texts(fh, line_nos), delimiter=",",
                                dtype=np.float64, ndmin=2, comments=None)
    except ValueError:  # UnicodeDecodeError is one too
        with open_text(path) as fh:
            return _build(_table_rows(fh, path), path)
    return _index(line_nos, matrix, path)


def _value_texts(lines: Iterable[str], line_nos: dict[str, int | None]):
    """The text after each row's id, recording the id's line in `line_nos`.
    Raises ValueError at a row with no values or a repeated id, and at the
    end of a table with no rows, on which `loadtxt` would warn. Each text is
    non-blank and holds no line break, so `loadtxt` reads it as one row."""
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry_id, _, values = line.partition(",")
        entry_id = entry_id.strip()
        if not values or entry_id in line_nos:
            raise ValueError
        line_nos[entry_id] = line_no
        yield values
    if not line_nos:
        raise ValueError


def _table_rows(lines: Iterable[str], path: str):
    """Each row through `float()`: the reader that words a table's errors."""
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise SchemaError(f"{path}: embedding row needs id and values",
                              line_no=line_no)
        try:
            vec = list(map(float, parts[1:]))
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}", line_no=line_no) from None
        yield parts[0].strip(), vec, line_no


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
    pair = np.array([a, b], dtype=np.float64)
    if _scale_rows(pair):
        raise ValueError("cosine similarity undefined for zero or non-finite vectors")
    # fsum keeps the accumulation exact, so near-ties rank stably across
    # platforms and input orderings.
    dot = math.fsum(x * y for x, y in zip(*pair.tolist()))
    return _cosine(dot, *_norms(pair))


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
    query scaled by `_scale_rows`, u = 2**-53 (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., section 3.1):
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
        q, norm = query if isinstance(query, CheckedVector) else (
            np.array(query, dtype=np.float64), None)
        if q.shape != (index.dim,):
            raise SchemaError(f"query {query_id!r}: dimension mismatch: "
                              f"{q.size} != {index.dim}")
        if norm is None:
            if defect := _scale_rows(q[None]):
                raise SchemaError(f"query {query_id!r}: {defect[1]}")
            norm, = _norms(q[None])
        self.q, self.norm, self.index = q, norm, index
        self.margin = 4 * (index.dim + 4) * 2.0 ** -53
        self.approx = np.clip(index.matrix @ q / (index.norms * norm), -1.0, 1.0)

    def rows_at_least(self, floor: float) -> np.ndarray:
        """Every row whose exact score may reach `floor`."""
        return (self.approx >= floor - self.margin).nonzero()[0]

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
    return sorted((m for m in matches if m.score >= threshold),
                  key=lambda m: (-m.score, m.code))


def remote_provider_configured() -> bool:
    return bool(os.environ.get(ENV_REMOTE_URL))


def fetch_remote_embeddings(texts: list[str], url: str | None = None,
                            token: str | None = None,
                            timeout: float = 30.0) -> list[list[float]]:
    """POST texts to the configured provider and return one vector per text.

    The endpoint receives {"texts": [...]} and must answer
    {"vectors": [[...], ...]} with matching length. HTTP and connection
    failures raise OSError subclasses.
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
    out = []
    for vec in vectors:
        if not isinstance(vec, list):
            raise SchemaError("remote provider vector is not a list")
        try:
            out.append([float(v) for v in vec])
        except (TypeError, ValueError):
            raise SchemaError("remote provider vector is not numeric") from None
    return out
