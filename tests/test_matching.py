import http.server
import json
import math
import random
import re
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimgraph import cli
from claimgraph.embedding import (
    EmbeddingIndex,
    Match,
    cosine_similarity,
    fetch_remote_embeddings,
    load_embedding_table,
    match_concept,
    match_concept_all,
    remote_provider_configured,
)
from claimgraph.errors import SchemaError


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
])
def test_match_rejects_query_without_a_cosine(query, problem):
    index = build_index()
    with pytest.raises(SchemaError, match=problem):
        match_concept(query, index, "q")
    with pytest.raises(SchemaError, match=problem):
        match_concept_all(query, index, 0.5, "q")


# --- optional remote provider ----------------------------------------------


class _StubHandler(http.server.BaseHTTPRequestHandler):
    seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append((self.path, dict(self.headers), body))
        vectors = [[float(len(t)), 1.0] for t in body["texts"]]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/embed"
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def test_remote_disabled_without_env(monkeypatch):
    monkeypatch.delenv("CLAIMGRAPH_EMBED_URL", raising=False)
    assert not remote_provider_configured()
    with pytest.raises(ValueError):
        fetch_remote_embeddings(["x"])


def test_remote_fetch_round_trip(stub_server, monkeypatch):
    monkeypatch.setenv("CLAIMGRAPH_EMBED_URL", stub_server)
    monkeypatch.setenv("CLAIMGRAPH_EMBED_TOKEN", "sesame")
    assert remote_provider_configured()
    _StubHandler.seen.clear()
    vectors = fetch_remote_embeddings(["alpha", "be"])
    assert vectors == [[5.0, 1.0], [2.0, 1.0]]
    (path, headers, body), = _StubHandler.seen
    assert body == {"texts": ["alpha", "be"]}
    assert headers.get("Authorization") == "Bearer sesame"


class _BrokenHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.dumps({"wrong": []}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_remote_fetch_rejects_bad_payload():
    server = http.server.HTTPServer(("127.0.0.1", 0), _BrokenHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/embed"
        with pytest.raises(SchemaError):
            fetch_remote_embeddings(["x"], url=url)
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _serve(status, body):
    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return http.server.HTTPServer(("127.0.0.1", 0), Handler)


@pytest.mark.parametrize("status, body, error", [
    (200, b"not json", SchemaError),
    (200, b"[1, 2]", SchemaError),
    (200, b'{"vectors": [["x"]]}', SchemaError),
    (500, b"{}", OSError),
    (200, b"[" * 100_000 + b"]" * 100_000, SchemaError),
], ids=["invalid-json", "not-an-object", "not-numeric", "http-500", "deeply-nested"])
def test_remote_fetch_errors(status, body, error):
    server = _serve(status, body)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with pytest.raises(error):
            fetch_remote_embeddings(
                ["x"], url=f"http://127.0.0.1:{server.server_port}/embed")
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()


def test_remote_fetch_connection_refused_is_oserror():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(OSError):
        fetch_remote_embeddings(["x"], url=f"http://127.0.0.1:{port}/embed",
                                timeout=5)


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
], ids=["zero-query", "zero-index-row", "nan-query", "inf-index", "empty-queries",
        "nan-threshold"])
def test_cli_match_rejects_bad_vectors(tmp_path, capsys, index_text, query_text,
                                       flags, message):
    code, err = _match_cli(tmp_path, capsys, index_text, query_text, *flags)
    assert code == 1
    assert err.startswith("claimgraph: ") and err.count("\n") == 1
    assert re.search(message, err), err


def test_cli_remote_texts_needs_provider(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CLAIMGRAPH_EMBED_URL", raising=False)
    code, err = _match_cli(tmp_path, capsys, "A1,1.0,0.0\n", "some text\n",
                           "--remote-texts")
    assert code == 1
    assert err == "claimgraph: --remote-texts needs CLAIMGRAPH_EMBED_URL set\n"


def test_cli_remote_texts_rejects_empty_text_file(tmp_path, capsys, monkeypatch):
    # Rejected before any request is made, so the address is never contacted.
    monkeypatch.setenv("CLAIMGRAPH_EMBED_URL", "http://127.0.0.1:9/embed")
    code, err = _match_cli(tmp_path, capsys, "A1,1.0,0.0\n", "\n\n",
                           "--remote-texts")
    assert code == 1
    assert re.fullmatch(r"claimgraph: .*q\.csv: no query texts\n", err), err


@pytest.mark.parametrize("body, message", [
    (b'{"vectors": [[NaN, 1.0]]}', "remote provider: non-finite value for 'q1'"),
    (b'{"vectors": [[0.0, 0.0]]}', "remote provider: zero vector for 'q1'"),
    (b'{"vectors": [[1.0, 0.0, 1.0]]}', "query 'q1': dimension mismatch: 3 != 2"),
], ids=["nan", "zero", "dimension"])
def test_cli_remote_vectors_are_validated(tmp_path, capsys, monkeypatch, body,
                                          message):
    server = _serve(200, body)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("CLAIMGRAPH_EMBED_URL",
                           f"http://127.0.0.1:{server.server_port}/embed")
        code, err = _match_cli(tmp_path, capsys, "A1,1.0,0.0\n", "some text\n",
                               "--remote-texts")
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()
    assert code == 1
    assert err == f"claimgraph: {message}\n"
