import contextlib
import hashlib
import io
import math
import random
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimgraph import cli, embedding
from claimgraph.embedding import (
    EmbeddingIndex,
    _build,
    _exact_sums,
    Match,
    cosine_similarity,
    load_embedding_table,
    match_concept,
    match_concept_all,
)
from claimgraph.errors import SchemaError
from claimgraph.tableio import open_text


def test_cosine_basics():
    assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0


def test_cosine_clamps_rounding_overshoot():
    v = [0.1] * 47
    assert cosine_similarity(v, v) <= 1.0


def test_cosine_rejects_zero_vector_and_dim_mismatch():
    for bad in ([0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(ValueError):
            cosine_similarity(bad, [1.0, 0.0])
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 0.0], bad)
    with pytest.raises(SchemaError):
        cosine_similarity([1.0], [1.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(
    vec=st.lists(st.floats(-10, 10), min_size=3, max_size=8),
    scale=st.floats(0.01, 100),
)
def test_cosine_scale_invariant(vec, scale):
    if all(abs(x) < 1e-12 for x in vec):
        return
    other = [1.0] + [0.5] * (len(vec) - 1)
    base = cosine_similarity(vec, other)
    scaled = cosine_similarity([scale * x for x in vec], other)
    assert scaled == pytest.approx(base, abs=1e-9)


def unit(angle):
    return [math.cos(angle), math.sin(angle)]


def build_index():
    codes = ["A1", "B2", "C3", "D4"]
    vectors = [unit(0.0), unit(1.0), unit(2.0), unit(3.0)]
    return EmbeddingIndex.from_rows(list(zip(codes, vectors)))


def test_match_concept_picks_nearest():
    index = build_index()
    m = match_concept(unit(0.9), index, query_id="q")
    assert m.code == "B2"
    assert m.query_id == "q"
    assert m.score == pytest.approx(math.cos(0.1), abs=1e-12)


def test_match_tie_breaks_lexicographically():
    index = EmbeddingIndex.from_rows([
        ("Z9", [1.0, 0.0]),
        ("A1", [1.0, 0.0]),     # same vector: tie on score
        ("M5", [0.0, 1.0]),
    ])
    m = match_concept([2.0, 0.0], index)
    assert m.code == "A1"


def test_match_concept_all_threshold():
    index = build_index()
    matches = match_concept_all(unit(0.5), index, threshold=0.8)
    codes = [m.code for m in matches]
    # angles 0.5, 0.5, 1.5, 2.5 from the probe: cos >= 0.8 keeps two
    assert codes == ["A1", "B2"] or codes == ["B2", "A1"]
    assert all(m.score >= 0.8 for m in matches)
    scores = [m.score for m in matches]
    assert scores == sorted(scores, reverse=True)


def test_match_against_brute_force_on_random_index():
    rng = random.Random(1234)
    dim = 16
    rows = [(f"C{i:02d}", [rng.gauss(0, 1) for _ in range(dim)])
            for i in range(40)]
    index = EmbeddingIndex.from_rows(rows)
    mat = np.array([v for _, v in rows], dtype=np.longdouble)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    for q in range(50):
        query = [rng.gauss(0, 1) for _ in range(dim)]
        qv = np.array(query, dtype=np.longdouble)
        sims = mat @ (qv / np.linalg.norm(qv))
        best = int(np.argmax(sims))
        got = match_concept(query, index)
        assert got.code == rows[best][0], q


def test_index_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        EmbeddingIndex.from_rows([])
    with pytest.raises(SchemaError):
        EmbeddingIndex.from_rows([("A1", [1.0]), ("B2", [1.0, 2.0])])
    with pytest.raises(SchemaError):
        EmbeddingIndex.from_rows([("A1", [1.0]), ("A1", [2.0])])


def test_load_embedding_table(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("# comment line\nA1,1.0,0.0\nB2,0.0,1.0\n\n")
    index = load_embedding_table(str(path))
    assert index.dim == 2
    assert match_concept([0.9, 0.1], index).code == "A1"


# --- pruned matching equals the exhaustive exact reference ----------------


def reference_best(query, rows, query_id=""):
    """The exhaustive pair loop over `cosine_similarity`."""
    best = None
    for entry_id, vec in rows:
        score = cosine_similarity(query, vec)
        if best is None or (-score, entry_id) < (-best[0], best[1]):
            best = (score, entry_id)
    return Match(query_id=query_id, code=best[1], score=best[0])


def reference_all(query, rows, threshold, query_id=""):
    matches = [Match(query_id, entry_id, cosine_similarity(query, vec))
               for entry_id, vec in rows]
    kept = [m for m in matches if m.score >= threshold]
    kept.sort(key=lambda m: (-m.score, m.code))
    return kept


def bits(matches):
    """Matches with each score as its exact bit pattern."""
    return [(m.query_id, m.code, m.score.hex()) for m in matches]


def assert_matches_reference(query, rows):
    index = EmbeddingIndex.from_rows(rows)
    assert bits([match_concept(query, index, "q")]) == \
        bits([reference_best(query, rows, "q")])
    scores = sorted({cosine_similarity(query, vec) for _, vec in rows})
    cuts = {-1.0, 1.0, *scores}
    for s in scores:
        cuts.update((math.nextafter(s, -2.0), math.nextafter(s, 2.0)))
    for t in sorted(cuts):
        assert bits(match_concept_all(query, index, t, "q")) == \
            bits(reference_all(query, rows, t, "q")), t


# Powers of two from norms whose squares underflow to norms whose squares
# overflow: every vector is scaled to the same range before it is scored.
NORM_EXPONENTS = [-1000, -600, -500, -450, 0, 0, 0, 450, 500, 600, 1000]


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 384),
    n_base=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    variants=st.lists(st.tuples(
        st.integers(0, 5),
        st.sampled_from([1.0, 3.0, 1 + 2.0 ** -52, 1 - 2.0 ** -52]),
        st.sampled_from(NORM_EXPONENTS)), max_size=8),
    query_from=st.integers(-1, 5),
    query_exponent=st.sampled_from(NORM_EXPONENTS),
)
def test_pruned_matching_equals_exhaustive_reference(
        dim, n_base, seed, variants, query_from, query_exponent):
    """Duplicates and rows scaled by 3 or by 1 +- 2**-52 make exact and
    one-ulp ties; the thresholds sit at each exact score and one ulp either
    side; norms run from about 2**-1000 to 2**1000."""
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal(dim) for _ in range(n_base)]
    vectors = list(base)
    for source, factor, exponent in variants:
        vectors.append(base[source % n_base] * factor * 2.0 ** exponent)
    rows = [(f"C{k:02d}", v.tolist()) for k, v in enumerate(vectors)]
    rng.shuffle(rows)
    if query_from < 0:
        query = rng.standard_normal(dim)
    else:
        query = base[query_from % n_base] + 1e-9 * rng.standard_normal(dim)
    assert_matches_reference((query * 2.0 ** query_exponent).tolist(), rows)


def test_pruned_matching_on_near_duplicate_index():
    """Many rows within a few ulps of each other and of the query: the
    approximate scores straddle the exact ones, so a margin too small
    drops true matches."""
    rng = np.random.default_rng(8)
    for dim in (3, 16, 64, 384):
        anchor = rng.standard_normal(dim)
        rows = []
        for k in range(30):
            nudge = 1 + rng.integers(-4, 5, size=dim) * 2.0 ** -52
            rows.append((f"N{k:02d}", (anchor * nudge).tolist()))
        for _ in range(5):
            query = anchor * (1 + rng.integers(-4, 5, size=dim) * 2.0 ** -52)
            assert_matches_reference(query.tolist(), rows)


@pytest.mark.parametrize("a, b, true", [
    ([3e-162, 1e-162], [1e-162, 2e-162], 1 / math.sqrt(2)),
    ([1e-170, 0.0], [1.0, 1.0], 1 / math.sqrt(2)),
    ([1e200, 1e200], [1.0, 1.0], 1.0),
], ids=["squares-underflow", "square-underflows-to-zero", "squares-overflow"])
def test_extreme_norms_get_their_true_cosine(a, b, true):
    """Squaring these vectors unscaled underflows or overflows; as rows and
    as queries they are accepted and score their true cosine."""
    assert cosine_similarity(a, b) == pytest.approx(true, rel=1e-15)
    assert_matches_reference(a, [("A1", b), ("B2", [0.0, 1.0])])
    assert_matches_reference(b, [("A1", a), ("B2", [0.0, 1.0])])


@pytest.mark.parametrize("vec, problem", [
    ([0.0, 0.0], "zero vector for 'B2'"),
    ([math.nan, 1.0], "non-finite value for 'B2'"),
    ([1.0, math.inf], "non-finite value for 'B2'"),
])
def test_index_rejects_vectors_without_a_cosine(vec, problem):
    with pytest.raises(SchemaError, match=problem):
        EmbeddingIndex.from_rows([("A1", [1.0, 0.0]), ("B2", vec)])


def test_load_embedding_table_names_file_and_line(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("# header\nA1,1.0,0.0\nB2,nan,0.0\n")
    with pytest.raises(SchemaError, match=r"^line 3: .*emb\.csv: non-finite"):
        load_embedding_table(str(path))


@pytest.mark.parametrize("query, problem", [
    ([0.0, 0.0], "query 'q': zero vector"),
    ([math.nan, 0.0], "query 'q': non-finite value"),
    ([1.0, 0.0, 0.0], "query 'q': dimension mismatch: 3 != 2"),
    ([[1.0, 0.0]], "query 'q': dimension mismatch: 2 != 2"),  # not 1-d
])
def test_match_rejects_query_without_a_cosine(query, problem):
    index = build_index()
    with pytest.raises(SchemaError, match=problem):
        match_concept(query, index, "q")
    with pytest.raises(SchemaError, match=problem):
        match_concept_all(query, index, 0.5, "q")


# --- `claimgraph match` errors are one line -----------------------------------


def _match_cli(tmp_path, capsys, index_text, query_text, *flags):
    index = tmp_path / "index.csv"
    index.write_text(index_text)
    queries = tmp_path / "q.csv"
    queries.write_text(query_text)
    code = cli.main(["match", "--index", str(index), "--queries", str(queries),
                     *flags])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("index_text, query_text, flags, message", [
    ("A1,1.0,0.0\n", "q1,0.0,0.0\n", [], r"line 1: .*q\.csv: zero vector for 'q1'"),
    ("A1,1.0,0.0\nB2,0.0,0.0\n", "q1,1.0,0.0\n", [],
     r"line 2: .*index\.csv: zero vector for 'B2'"),
    ("A1,1.0,0.0\n", "q1,nan,0.0\n", [], r"line 1: .*q\.csv: non-finite value"),
    ("A1,inf,0.0\n", "q1,1.0,0.0\n", [], r"line 1: .*index\.csv: non-finite value"),
    ("A1,1.0,0.0\n", "# no rows\n", [], r"q\.csv: no embedding vectors"),
    ("A1,1.0,0.0\n", "q1,1.0,0.0\n", ["--threshold", "nan"],
     "--threshold must be finite, got nan"),
    ("A1,1.0,0.0\n", "q1,1.0,0.0,1.0\n", [],
     "^claimgraph: query 'q1': dimension mismatch: 3 != 2$"),
], ids=["zero-query", "zero-index-row", "nan-query", "inf-index", "empty-queries",
        "nan-threshold", "query-dimension"])
def test_cli_match_rejects_bad_vectors(tmp_path, capsys, index_text, query_text,
                                       flags, message):
    code, err = _match_cli(tmp_path, capsys, index_text, query_text, *flags)
    assert code == 1
    assert err.startswith("claimgraph: ") and err.count("\n") == 1
    assert re.search(message, err), err


def test_cli_remote_texts_is_a_usage_error(tmp_path, capsys):
    """The remote embedding provider is gone; its flag is unknown."""
    with pytest.raises(SystemExit) as exc:
        _match_cli(tmp_path, capsys, "A1,1.0,0.0\n", "some text\n",
                   "--remote-texts")
    assert exc.value.code == 2
    assert "unrecognized arguments: --remote-texts" in capsys.readouterr().err


# --- each vector is checked, scaled and normed once, when its table loads ----


def reference_build(rows, source):
    """The row-by-row loader `_build` replaced: (ids, matrix, norms), each
    row checked, scaled and normed on its own. Unlike it, this checks a row
    for non-finite values before its norm, whose `fsum` could overflow."""
    ids, line_nos, vectors, norms = [], [], [], []
    for entry_id, vec, line_no in rows:
        if not ids and not vec:
            raise SchemaError(f"{source}: embedding vectors must be non-empty",
                              line_no=line_no)
        if ids and len(vec) != len(vectors[0]):
            raise SchemaError(f"{source}: dimension mismatch for {entry_id!r}: "
                              f"{len(vec)} != {len(vectors[0])}", line_no=line_no)
        if entry_id in ids:
            raise SchemaError(f"{source}: duplicate embedding id {entry_id!r}",
                              line_no=line_no)
        ids.append(entry_id)
        line_nos.append(line_no)
        vectors.append(vec)
    if not ids:
        raise SchemaError(f"{source}: no embedding vectors")
    matrix = np.array(vectors, dtype=np.float64)
    for entry_id, line_no, row in zip(ids, line_nos, matrix):
        if not np.isfinite(row).all():
            raise SchemaError(f"{source}: non-finite value for {entry_id!r}",
                              line_no=line_no)
        _, exponent = np.frexp(np.abs(row).max())
        np.ldexp(row, -exponent, out=row)
        norms.append(math.sqrt(math.fsum((row * row).tolist())))
        if norms[-1] == 0.0:
            raise SchemaError(f"{source}: zero vector for {entry_id!r}",
                              line_no=line_no)
    return ids, matrix, norms


def _outcome(build, *args):
    """What `build` gives: the index as bytes, or its error's text and line."""
    try:
        ids, matrix, norms = build(*args)
    except SchemaError as exc:
        return "error", str(exc), exc.line_no
    return ids, matrix.tobytes(), np.array(norms, dtype=np.float64).tobytes()


def _built(rows, source):
    index = _build(rows, source)
    return index.ids, index.matrix, index.norms


ROW_KINDS = ["plain"] * 8 + ["nan", "inf", "-inf", "zero", "wider", "narrower",
                             "repeat-id"]


@st.composite
def tables(draw):
    """Random (id, values, line) rows; some are non-finite, zero, of another
    width or repeat an id, and their norms run from 2**-1000 to 2**1000."""
    dim = draw(st.integers(1, 6))
    rows = []
    for k in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(ROW_KINDS))
        scale = 2.0 ** draw(st.sampled_from(NORM_EXPONENTS))
        vec = [x * scale for x in draw(st.lists(st.floats(-4, 4), min_size=dim,
                                                max_size=dim))]
        spot = draw(st.integers(0, dim - 1))
        if kind in ("nan", "inf", "-inf"):
            vec[spot] = float(kind)
        elif kind == "zero":
            vec = [draw(st.sampled_from([0.0, -0.0])) for _ in vec]
        elif kind == "wider":
            vec.append(1.0)
        elif kind == "narrower":
            vec.pop()
        entry_id = f"C{k}"
        if kind == "repeat-id" and rows:
            entry_id = draw(st.sampled_from(rows))[0]
        rows.append((entry_id, vec, 2 * k + 3))
    return rows


@settings(max_examples=400, deadline=None)
@given(rows=tables())
def test_bulk_build_equals_row_by_row_reference(rows):
    """The same matrix and norm bits, or the same first error and line."""
    assert _outcome(_built, rows, "t.csv") == _outcome(reference_build, rows, "t.csv")


def test_a_non_finite_row_is_reported_before_its_norm_is_summed():
    """The squares of 1e154 are finite but their sum is not, so `fsum` raised
    OverflowError when a row's norm came before its finiteness check."""
    row = [math.inf, 1e154, 1e154]
    with pytest.raises(SchemaError, match="non-finite value for 'B2'"):
        EmbeddingIndex.from_rows([("A1", [1.0, 0.0, 0.0]), ("B2", row)])
    with pytest.raises(ValueError, match="undefined"):
        cosine_similarity(row, [1.0, 1.0, 1.0])


def test_query_rows_are_scored_with_their_stored_norm():
    """A table row passed as a query scores as its raw values do."""
    rng = np.random.default_rng(3)
    codes = [(f"C{k}", (rng.standard_normal(24) * 2.0 ** k).tolist())
             for k in range(-40, 40, 7)]
    queries = [(f"q{k}", rng.standard_normal(24).tolist()) for k in range(20)]
    index = EmbeddingIndex.from_rows(codes)
    table = EmbeddingIndex.from_rows(queries, source="queries")
    for (query_id, row), (_, raw) in zip(table.rows(), queries):
        assert bits([match_concept(row, index, query_id)]) == \
            bits([match_concept(raw, index, query_id)])
        assert bits(match_concept_all(row, index, 0.1, query_id)) == \
            bits(match_concept_all(raw, index, 0.1, query_id))


def test_loading_a_table_holds_little_beyond_its_matrix(tmp_path):
    """The traced peak of loading a 200 x 384 table stays under 1.5 times
    its matrix. Collecting the rows as lists of floats, or squaring the
    whole matrix into one list, would take about four times it."""
    rng = random.Random(5)
    path = tmp_path / "emb.csv"
    path.write_text("".join(
        f"C{k}," + ",".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(384))
        + "\n" for k in range(200)))
    load_embedding_table(str(path))  # numpy's first-use allocations
    tracemalloc.start()
    try:
        index = load_embedding_table(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * index.matrix.nbytes


def test_cli_match_output_bytes_are_pinned(tmp_path):
    """Every score is an exact `fsum` cosine, so the bytes do not depend on
    the BLAS build. Six index rows repeat another's vector, making ties."""
    rng = random.Random(11)
    codes = [f"{letter}{digit}" for letter in "ABCDEFGH" for digit in range(1, 9)]
    vectors = {code: [rng.gauss(0.0, 1.0) for _ in range(48)] for code in codes}
    for _ in range(6):
        lo, hi = sorted(rng.sample(range(len(codes)), 2))
        vectors[codes[hi]] = vectors[codes[lo]]

    def line(name, vec):
        return name + "," + ",".join(f"{v:.6f}" for v in vec) + "\n"

    index, queries = tmp_path / "index.csv", tmp_path / "queries.csv"
    index.write_text("".join(line(code, vectors[code]) for code in codes))
    queries.write_text("".join(
        line(f"q{i:03d}", [v + rng.gauss(0.0, 0.35)
                           for v in vectors[rng.choice(codes)]])
        for i in range(50)))
    digests = []
    for name, flags in (("best.csv", []),
                        ("threshold.csv", ["--threshold", "0.2"])):
        out = tmp_path / name
        assert cli.main(["match", "--index", str(index), "--queries", str(queries),
                         *flags, "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [
        "5f153a7a1fbfe514616595eb7c465cde623fcc3d8ae439e9fa6055d36d16810b",
        "0fd6ae32002221ed7912ad4a2f6f4d9f84bfb4aafd2bbd9df58c08da7ba52720"]


# --- numpy's text reader reads what the row reader reads ---------------------


def reference_table_rows(lines, path):
    """The row reader that converted every cell before numpy's text reader
    took over: each cell through `float()`, each error at its line."""
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


def reference_load(path):
    with open_text(path) as fh:
        return reference_build(reference_table_rows(fh, path), path)


def _loaded(path):
    index = load_embedding_table(path)
    return index.ids, index.matrix, index.norms


# Cells `float()` reads and numpy's reader does not, cells both read, and
# cells both refuse.
ODD_CELLS = [" 1.5 ", "1_0", "\u0661.\u0665", "nan", "-inf", "Infinity", "1e400",
             "1e-400", "0x1p3", "", "\x00", "0.5#x", "\u2003-2\x0c", "+.5E+2"]
ODD_ROWS = ["odd-cell"] * 4 + ["id-only", "repeat-id", "wider", "narrower",
                              "trailing-comma"]


@st.composite
def table_texts(draw):
    """The bytes of a table: rows of plain cells, or with one cell in an odd
    spelling; comment, blank, id-only, repeated-id and ragged rows; LF or
    CRLF line ends; now and then a byte that is not UTF-8. Half the tables
    draw only plain, comment and blank rows, so most of those load."""
    clean = draw(st.booleans())
    plain = st.floats(-1e3, 1e3)
    cell = plain.map(repr) | plain.map("{:.6f}".format)
    kinds = ["plain"] * 6 + ["comment", "blank"] + ([] if clean else ODD_ROWS)
    dim = draw(st.integers(1, 4))
    lines, ids = [], []
    for k in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# codes", "  #C9,1", "#"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        entry_id = draw(st.sampled_from(["C{}", " C{}\t"])).format(k)
        if kind == "repeat-id" and ids:
            entry_id = " " + draw(st.sampled_from(ids))
        ids.append(entry_id.strip())
        width = {"id-only": 0, "wider": dim + 1, "narrower": dim - 1}.get(kind, dim)
        cells = [draw(cell) for _ in range(width)]
        if kind == "odd-cell":
            cells[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(ODD_CELLS))
        line = ",".join([entry_id, *cells])
        lines.append(line + ("," if kind == "trailing-comma" else ""))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()
    if not clean and draw(st.integers(0, 9)) == 0:
        spot = draw(st.integers(0, len(data)))
        data = data[:spot] + b"\xff" + data[spot:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=table_texts())
def test_table_reader_equals_row_reader_reference(tmp_path_factory, data):
    """The same ids, matrix and norm bits, or the same first error, line and
    text, with no warning."""
    path = str(tmp_path_factory.getbasetemp() / "table.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_loaded, path) == _outcome(reference_load, path)


@pytest.mark.parametrize("cell", ODD_CELLS)
def test_each_odd_cell_reads_as_the_row_reader_reads_it(tmp_path, cell):
    """Each odd cell first in a row, last in a CRLF row, and alone in a
    table's last row, which has no line end."""
    path = tmp_path / "t.csv"
    for text in (f"A1,{cell},1.0\nB2,2.0,3.0\n", f"A1,1.0,{cell}\r\nB2,2.0,3.0\r\n",
                 f"A1,2.0\nB2,{cell}"):
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(_loaded, str(path)) == _outcome(reference_load, str(path))


SEED_INDEX = b"# codes\nA1,1.0,0.0,0.5\nB2,0.0,1.0,-2e3\r\nC3,1e-3,1.5,0.25\n"
SEED_QUERIES = b"q1,0.9,0.1,0.0\n\nq2,-0.2,0.8,1e2\nq3,0.25,0.5,0.75"
MUTATION_BYTES = [b",", b"#", b"\n", b"\r", b" ", b"\x00", b"\xff", b"e", b"-",
                  b"1", b"n", b".", b"_", "\u0661".encode()]


@st.composite
def mutated(draw, seed):
    """`seed` with one to three bytes, lines or tails inserted, deleted,
    replaced, repeated or cut."""
    data = seed
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "repeat-line",
                                   "cut"]))
        spot = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(MUTATION_BYTES))
        if op == "insert":
            data = data[:spot] + piece + data[spot:]
        elif op == "delete":
            data = data[:spot] + data[spot + 1:]
        elif op == "replace":
            data = data[:spot] + piece + data[spot + 1:]
        elif op == "repeat-line":
            lines = data.split(b"\n")
            line = lines[spot % len(lines)]
            data = data + b"\n" + line
        else:
            data = data[:spot]
    return data


@settings(max_examples=200, deadline=None)
@given(index=mutated(SEED_INDEX) | st.just(SEED_INDEX),
       queries=mutated(SEED_QUERIES) | st.just(SEED_QUERIES),
       flags=st.sampled_from([[], ["--threshold", "0.5"]]))
def test_mutated_match_inputs_give_a_result_or_one_error_line(
        tmp_path_factory, index, queries, flags):
    base = tmp_path_factory.getbasetemp()
    paths = {}
    for name, data in (("index", index), ("queries", queries)):
        paths[name] = str(base / f"mutated-{name}.csv")
        with open(paths[name], "wb") as fh:
            fh.write(data)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["match", "--index", paths["index"], "--queries",
                         paths["queries"], *flags, "--out", str(base / "m.csv")])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1)
    if code == 1:
        assert re.fullmatch(r"claimgraph: [^\n]*\n", err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""


# --- the exact-sum kernel gives fsum's bits ------------------------------------

SUM_PIECES = ["normal", "cancel", "subnormal", "power", "ulp-apart"]


@st.composite
def sum_rows(draw):
    """One to four rows of 1-400 cells below 1 in magnitude: scaled normals,
    exact cancellations x, -x, subnormals, powers of two, and values one ulp
    apart (both signs, so they nearly cancel or nearly double)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 400))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        cells = []
        while len(cells) < width:
            piece = draw(st.sampled_from(SUM_PIECES))
            x = float(rng.standard_normal()) * 2.0 ** int(rng.integers(-60, -3))
            if piece == "normal":
                cells.append(x)
            elif piece == "cancel":
                cells += [x, -x]
            elif piece == "subnormal":
                cells.append(float(rng.integers(-2**20, 2**20)) * 2.0 ** -1074)
            elif piece == "power":
                cells.append(float(rng.choice([-1.0, 1.0]))
                             * 2.0 ** int(rng.integers(-1074, 0)))
            else:
                cells += [x, float(rng.choice([-1.0, 1.0])) * math.nextafter(x, 2.0)]
        rng.shuffle(cells)
        rows.append(cells[:width])
    return rows


def fsum_bits(rows):
    return np.array([math.fsum(row) for row in rows]).tobytes()


@settings(max_examples=300, deadline=None)
@given(rows=sum_rows())
def test_exact_sums_equal_fsum_bit_for_bit(rows):
    assert _exact_sums(np.array(rows)).tobytes() == fsum_bits(rows)


@pytest.mark.parametrize("row", [
    [1.0, 2.0 ** -53],
    [1.0, 2.0 ** -53, 2.0 ** -106],
    [1.0, -2.0 ** -54],
    [-0.0, -0.0],
    [0.375, -0.25, 2.0 ** -30, -0.125, -2.0 ** -30],
], ids=["tie-to-even", "just-above-a-tie", "just-below-a-power-of-two",
        "negative-zeros", "cancels-to-zero"])
def test_rows_the_kernel_cannot_certify_go_to_fsum(monkeypatch, row):
    """A tie, a sum a hair past one, a sum just below a power of two and zero
    sums are not certified; fsum sums them, with fsum's bits. The row beside
    each is certified."""
    certain = [0.5, 0.25] + [0.0] * (len(row) - 2)
    expected = fsum_bits([row, certain])
    calls = []

    def counting_fsum(values):
        calls.append(values)
        return math.fsum(values)

    monkeypatch.setattr(embedding, "math", SimpleNamespace(fsum=counting_fsum))
    assert _exact_sums(np.array([row, certain])).tobytes() == expected
    assert calls == [row]


@pytest.mark.parametrize("row", [
    [6.367546880008935e-17, 6.154349399082011e-17, -7.373042258868117e-17,
     2.648991727858942e-18, 1.0000000001034863, 5.688477053242842e-17],
    [1.0000000000235145, 2.5452326006297307e-18, 6.869750843870318e-17,
     4.429590125563535e-17, -4.516339832452603e-18],
])
def test_a_near_tie_decided_by_the_rounding_of_the_errors_sum(row):
    """The row's TwoSum errors sum to just past half an ulp of its rounded
    sum, and their own rounded sum falls just short of it: a rounding test
    that left out the bound on that sum's error takes the wrong neighbour."""
    certain = [0.5, 0.25] + [0.0] * (len(row) - 2)
    assert _exact_sums(np.array([row, certain])).tobytes() == \
        fsum_bits([row, certain])


def test_typical_rows_are_certified_without_fsum(monkeypatch):
    """Dot products and squares of scaled vectors never fall back."""
    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((3, 16, 384)) * 2.0 ** -3
    products = [vectors[0] * vectors[1], vectors[2] * vectors[2]]
    expected = [fsum_bits(p.tolist()) for p in products]
    monkeypatch.setattr(embedding, "math", None)  # a fallback would raise
    assert [_exact_sums(p).tobytes() for p in products] == expected


def test_cli_match_prints_an_orthogonal_pair_s_zero_as_fsum_does(tmp_path, capsys):
    """Both of q1's products with A1 are -0.0, and the zero fsum makes of
    them depends on the Python version; the CSV prints 0.0 and -0.0
    differently. A zero sum is never taken from the TwoSum cascade."""
    out = tmp_path / "m.csv"
    code, _ = _match_cli(tmp_path, capsys, "A1,-0.0,1.0\nB2,1.0,1.0\n",
                         "q1,1.0,-0.0\nq2,1.0,0.0\n", "--threshold", "-1",
                         "--out", str(out))
    assert code == 0
    assert out.read_text() == ("query_id,code,similarity,rank\n"
                               "q1,B2,0.7071067811865475,1\n"
                               f"q1,A1,{math.fsum([-0.0, -0.0])!r},2\n"
                               "q2,B2,0.7071067811865475,1\n"
                               "q2,A1,0.0,2\n")
