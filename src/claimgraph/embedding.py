"""Concept matching by cosine similarity over supplied embedding vectors.

Vectors arrive from a local delimited table (id, v1, ..., vD). No embedding
model ships with the package.
"""

from __future__ import annotations

import math
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


# Rows per `_exact_sums` call; its temporaries hold twice the block.
_BLOCK = 16
# Queries whose approximate scores `match_table` holds at once.
_QUERY_CHUNK = 32


def _exact_sums(rows: np.ndarray) -> np.ndarray:
    """`math.fsum(row.tolist())` of each row of a 2-d float64 array, bit for
    bit. Entries must be finite and sum far below overflow; callers pass
    products of `_scale_rows`d entries, each below 1 in magnitude.

    Why, for d < 2**50 columns and u = 2**-53 (Ogita, Rump and Oishi,
    "Accurate Sum and Dot Product", SIAM J. Sci. Comput. 26(6), 2005):
    - Knuth's TwoSum gives t = fl(a + b) and e with t + e = a + b exactly
      unless it overflows; an addition that underflows is exact. Adding
      column halves level by level leaves a column `hi` and d - 1 errors
      that sum with it to the exact row sum S.
    - numpy sums the errors into `lo` in an order its SIMD build picks. Any
      order errs by at most gamma * sum|e|, gamma = (d-2)u / (1 - (d-2)u)
      (Higham, 2nd ed., section 4.2), and the computed sum of |e| is at
      least (1 - gamma) * sum|e|. 2*d*u times it is at least twice that
      error bound, so after rounding, by u of it or by 2**-1075 if it
      underflows, `bound` still covers lo's error. Where that 2**-1075
      matters, gamma * sum|e| < 2**-1074, lo is exact: either d = 2 and lo
      is the one error, or sum|e| < 2**-1021, where every addition is exact.
    - r = hi + lo; TwoSum gives its residual t, so |S - r| <= |t| + bound.
      Rounding is monotonic: if |t| + bound rounds below half the smaller
      gap from |r| to a neighbour, S lies strictly inside r's rounding
      interval, and fsum, which rounds S correctly, returns r. At r = 0
      that gap is 0, so a zero sum, whose sign depends on its order, is
      never taken. Other rows, near-ties and cancellations, go to fsum.
    """
    import numpy as np
    work = rows.T.copy()  # row k is column k; each half level is contiguous
    d = len(work)
    sums, scratch = np.empty((2, d // 2, work.shape[1]))
    start = 0
    while d - start > 1:  # TwoSum the halves of work[start:]; an odd last
        h = (d - start) // 2  # column carries to the next level in place
        a, b = work[start:start + h], work[start + h:start + 2 * h]
        t, z = sums[:h], scratch[:h]
        np.add(a, b, out=t)
        np.subtract(t, a, out=z)
        np.subtract(b, z, out=b)
        np.subtract(t, z, out=z)
        np.subtract(a, z, out=a)
        a += b  # a's columns now hold the errors, b's the level's sums
        b[...] = t
        start += h
    hi, errors = work[d - 1], work[:d - 1]
    lo = errors.sum(axis=0)
    bound = np.abs(errors, out=errors).sum(axis=0) * (2 * d * 2.0 ** -53)
    r = hi + lo
    z = r - hi
    bound += np.abs((hi - (r - z)) + (lo - z))
    size = np.abs(r)
    certain = bound < (size - np.nextafter(size, 0.0)) * 0.5
    for k in np.flatnonzero(~certain).tolist():
        r[k] = math.fsum(rows[k].tolist())
    return r


def _norms(matrix: np.ndarray) -> np.ndarray:
    """Each scaled row's norm: the square root of the exact sum of its
    squares. Rows are squared `_BLOCK` at a time, so no temporary grows with
    the matrix."""
    import numpy as np
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), _BLOCK):
        block = matrix[start:start + _BLOCK]
        norms[start:start + _BLOCK] = _exact_sums(block * block)
    return np.sqrt(norms, out=norms)


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
    return EmbeddingIndex(ids=ids, matrix=matrix, norms=_norms(matrix))


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
    x, y = pair.tolist()
    dot = math.fsum(p * q for p, q in zip(x, y))
    norm_x, norm_y = (math.sqrt(math.fsum(v * v for v in row)) for row in (x, y))
    return max(-1.0, min(1.0, dot / (norm_x * norm_y)))


@dataclass(frozen=True)
class Match:
    query_id: str
    code: str
    score: float


def match_table(table: EmbeddingIndex, index: EmbeddingIndex,
                threshold: float | None = None) -> list[list[Match]]:
    """Each row of the query `table` against `index`: its best match, or with
    a `threshold` every match scoring at least it, best first. Exact score
    ties break to the lexicographically smallest id, so results are
    insensitive to index row order.

    Every score is the exact `cosine_similarity` of the pair, its dot
    product summed by `_exact_sums`; one BLAS matrix-vector product per
    query only picks which rows to score.

    Margin on |approximate - exact| cosine, for finite non-zero rows and
    query scaled by `_scale_rows`, u = 2**-53 (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., section 3.1):
    - Scaled entries lie below 1, each vector's largest at least 1/2, so
      nothing overflows and |x||y| >= 1/4; an underflow errs by <= 2**-1075.
    - `matrix @ q` sums d products in any order, with or without FMA, within
      gamma_d * sum|x_i y_i| <= gamma_d * |x||y| of the true dot product,
      gamma_d = d*u / (1 - d*u).
    - The exact score's correctly rounded sum of the rounded products is
      within 2u * |x||y|.
    - Both divide by the same rounded norm product, within (1 + 5u) of
      |x||y|, and each division rounds once more, by u at most.
    So the two cosines differ by at most (d + 4)*u plus smaller terms; four
    times that covers those. Clamping to [-1, 1] only narrows the gap.
    """
    import numpy as np
    if table.dim != index.dim:
        raise SchemaError(f"query {table.ids[0]!r}: dimension mismatch: "
                          f"{table.dim} != {index.dim}")
    found: list[list[Match]] = []
    for start in range(0, len(table.ids), _QUERY_CHUNK):
        stop = min(start + _QUERY_CHUNK, len(table.ids))
        queries, rows = _candidates(table, index, start, stop, threshold)
        dots = np.empty(len(rows))
        for first in range(0, len(rows), _BLOCK):
            pairs = slice(first, first + _BLOCK)
            dots[pairs] = _exact_sums(table.matrix[queries[pairs]]
                                      * index.matrix[rows[pairs]])
        scores = np.clip(dots / (table.norms[queries] * index.norms[rows]),
                         -1.0, 1.0)
        chunk: list[list[Match]] = [[] for _ in range(start, stop)]
        for j, k, score in zip(queries.tolist(), rows.tolist(), scores.tolist()):
            chunk[j - start].append(Match(table.ids[j], index.ids[k], score))
        for matches in chunk:
            matches.sort(key=lambda m: (-m.score, m.code))
            found.append(matches[:1] if threshold is None else
                         [m for m in matches if m.score >= threshold])
    return found


def _candidates(table: EmbeddingIndex, index: EmbeddingIndex, start: int,
                stop: int, threshold: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(query row, index row) pairs, query by query, that `match_table`
    must score exactly for table rows start..stop-1."""
    import numpy as np
    margin = 4 * (index.dim + 4) * 2.0 ** -53
    approx = np.empty((stop - start, len(index.ids)))
    for j, row in zip(range(start, stop), approx):
        np.matmul(index.matrix, table.matrix[j], out=row)
    approx /= np.multiply.outer(table.norms[start:stop], index.norms)
    np.clip(approx, -1.0, 1.0, out=approx)
    # The row with the top approximate score scores at least that minus the
    # margin exactly, so no row more than two margins below it can be best.
    floor = (approx.max(axis=1, keepdims=True) - margin if threshold is None
             else threshold)
    queries, rows = np.nonzero(approx >= floor - margin)
    return queries + start, rows


def _query_row(query, query_id: str, index: EmbeddingIndex) -> EmbeddingIndex:
    """A query, a table row or raw values, as a one-row table."""
    import numpy as np
    if isinstance(query, CheckedVector):
        return EmbeddingIndex([query_id], query.values[None],
                              np.array([query.norm]))
    q = np.array(query, dtype=np.float64)
    if q.shape != (index.dim,):
        raise SchemaError(f"query {query_id!r}: dimension mismatch: "
                          f"{q.size} != {index.dim}")
    q = q[None]
    if defect := _scale_rows(q):
        raise SchemaError(f"query {query_id!r}: {defect[1]}")
    return EmbeddingIndex([query_id], q, _norms(q))


def match_concept(query: list[float], index: EmbeddingIndex,
                  query_id: str = "") -> Match:
    """Best-matching index entry for a query vector (see `match_table`)."""
    return match_table(_query_row(query, query_id, index), index)[0][0]


def match_concept_all(query: list[float], index: EmbeddingIndex,
                      threshold: float, query_id: str = "") -> list[Match]:
    """All index entries scoring at least `threshold`, best first; one-to-many
    mapping behind an explicit opt-in."""
    return match_table(_query_row(query, query_id, index), index, threshold)[0]
