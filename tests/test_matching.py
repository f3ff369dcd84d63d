import http.server
import json
import math
import random
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimgraph.embedding import (
    EmbeddingIndex,
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
    with pytest.raises(ValueError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
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
], ids=["invalid-json", "not-an-object", "not-numeric", "http-500"])
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
    assert not thread.is_alive()


def test_remote_fetch_connection_refused_is_oserror():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(OSError):
        fetch_remote_embeddings(["x"], url=f"http://127.0.0.1:{port}/embed",
                                timeout=5)
