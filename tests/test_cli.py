"""The command line's output contract: `main` writes each table command's
rows, a failed command leaves no `--out` file, and undecodable input bytes
give the one-line error."""

import os
import subprocess
import sys

import pytest

import claimgraph
from claimgraph import cli

MEASURES = ("paper_id,year,pub_tier,citations,prop_causal_edges\n"
            "p1,2001,Top5,3,0.5\np2,2002,Other,0,0.25\np3,2002,Top5,8,1.0\n")
SPECS = "outcome,measure,view,fe,cluster\nTop5,prop_causal_edges,,0,none\n"
INDEX = "A1,1.0,0.0\nB2,0.0,1.0\n"
QUERIES = "q1,0.9,0.1\nq2,0.2,0.8\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- main writes the table once the command has succeeded ------------------


def _table_argvs(tmp_path, corpus):
    measures = _write(tmp_path, "m.csv", MEASURES)
    specs = _write(tmp_path, "s.csv", SPECS)
    index = _write(tmp_path, "index.csv", INDEX)
    queries = _write(tmp_path, "q.csv", QUERIES)
    return {
        "measures": ["measures", "--corpus", corpus],
        "novelty": ["novelty", "--corpus", corpus],
        "gaps": ["gaps", "--corpus", corpus],
        "centrality": ["centrality", "--corpus", corpus],
        "node-series": ["node-series", "--corpus", corpus, "--code", "D31"],
        "regress": ["regress", "--measures", measures, "--specs", specs],
        "trends": ["trends", "--corpus", corpus, "--group-by", "method"],
        "match": ["match", "--index", index, "--queries", queries,
                  "--threshold", "0.1"],
    }


# The subprocess imports the same claimgraph as the tests.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(claimgraph.__file__)),
                os.environ.get("PYTHONPATH")) if p)}


@pytest.mark.parametrize("command", ["measures", "novelty", "gaps", "centrality",
                                     "node-series", "regress", "trends", "match"])
def test_out_file_and_stdout_get_the_same_bytes(tmp_path, landmark_path, command):
    argv = _table_argvs(tmp_path, landmark_path)[command]
    out = tmp_path / "out.csv"
    runs = [subprocess.run([sys.executable, "-m", "claimgraph", *args],
                           capture_output=True, timeout=300, env=CLI_ENV)
            for args in (argv, [*argv, "--out", str(out)])]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout.count(b"\n") > 1
    assert runs[1].stdout == b""
    assert out.read_bytes() == runs[0].stdout


@pytest.mark.parametrize("make_argv, message", [
    (lambda tmp_path, corpus: ["measures", "--corpus", corpus, "--path-cap", "1"],
     "claimgraph: path enumeration exceeded cap 1 for paper 'mobility14'\n"),
    (lambda tmp_path, corpus: [
        "regress", "--measures", _write(tmp_path, "m.csv", MEASURES),
        "--specs", _write(tmp_path, "s.csv", SPECS.replace(
            "prop_causal_edges", "no_such_column"))],
     "claimgraph: no usable rows for Top5 ~ no_such_column\n"),
], ids=["measures-path-cap", "regress-missing-column"])
def test_failed_command_leaves_no_out_file(tmp_path, landmark_path, capsys,
                                          make_argv, message):
    out = tmp_path / "out.csv"
    code, stdout, err = _main([*make_argv(tmp_path, landmark_path),
                               "--out", str(out)], capsys)
    assert (code, stdout, err) == (1, "", message)
    assert not out.exists()


# --- a byte that is not UTF-8 is a one-line error naming the file ----------


def _bad(tmp_path, name, text):
    """`text` written to `name` with a 0xff byte, never valid UTF-8, in
    place of each '?'."""
    path = tmp_path / name
    path.write_bytes(text.encode().replace(b"?", b"\xff"))
    return str(path)


def _corpus(tmp_path, corpus):
    bad = _bad(tmp_path, "c.jsonl", '{"paper_id": "p?", "year": 2001}\n')
    return ["measures", "--corpus", bad], bad


def _config(tmp_path, corpus):
    bad = _bad(tmp_path, "run.cfg", f"# caf?\ncorpus={corpus}\n")
    return ["run", "--config", bad, "--out", str(tmp_path / "run")], bad


def _outcomes(tmp_path, corpus):
    bad = _bad(tmp_path, "o.csv", "paper_id,journal,citations\nmobility14,?,1\n")
    return ["ingest", "--corpus", corpus, "--outcomes", bad], bad


def _ranks(tmp_path, corpus):
    outcomes = _write(tmp_path, "o.csv",
                      "paper_id,journal,citations\nmobility14,aer,1\n")
    bad = _bad(tmp_path, "r.csv", "journal,tier\na?r,Top5\n")
    return ["ingest", "--corpus", corpus, "--outcomes", outcomes,
            "--ranks", bad], bad


def _specs(tmp_path, corpus):
    bad = _bad(tmp_path, "s.csv", SPECS.replace("none", "n?ne"))
    return ["regress", "--measures", _write(tmp_path, "m.csv", MEASURES),
            "--specs", bad], bad


def _measures(tmp_path, corpus):
    bad = _bad(tmp_path, "m.csv", MEASURES.replace("Other", "Oth?r"))
    return ["regress", "--measures", bad,
            "--specs", _write(tmp_path, "s.csv", SPECS)], bad


def _index(tmp_path, corpus):
    bad = _bad(tmp_path, "index.csv", INDEX.replace("B2", "B?"))
    return ["match", "--index", bad,
            "--queries", _write(tmp_path, "q.csv", QUERIES)], bad


def _query_texts(tmp_path, corpus):
    bad = _bad(tmp_path, "q.txt", "r?sum?\n")
    return ["match", "--index", _write(tmp_path, "index.csv", INDEX),
            "--queries", bad, "--remote-texts"], bad


def _ledger(tmp_path, corpus):
    # The bad byte sits past the decoder's first chunk, whose position the
    # message must not report.
    bad = _bad(tmp_path, "ledger.txt", "#claimgraph-frontier v1\nyear=1999\n"
               "[edges]\n" + "A1->B2\n" * 3_000 + "B?->C3\n")
    return ["novelty", "--corpus", corpus, "--ledger-in", bad], bad


def _pair_table(tmp_path, corpus):
    bad = _bad(tmp_path, "pairs.txt", "#claimgraph-pairs v1\nthrough_year=1999\n"
               "code1,code2,count\n" + "A1,B2,1\n" * 3_000 + "B?,C3,1\n")
    return ["gaps", "--corpus", corpus, "--table-in", bad], bad


@pytest.mark.parametrize("make_argv", [
    _corpus, _config, _outcomes, _ranks, _specs, _measures, _index, _query_texts,
    _ledger, _pair_table,
], ids=["corpus", "config", "outcome-table", "rank-table", "spec-file",
        "measures-table", "embedding-table", "query-texts", "ledger", "pair-table"])
def test_non_utf8_input_is_a_one_line_error(tmp_path, landmark_path, capsys,
                                            monkeypatch, make_argv):
    # The texts are rejected before any request; the port is never contacted.
    monkeypatch.setenv("CLAIMGRAPH_EMBED_URL", "http://127.0.0.1:9/embed")
    argv, bad = make_argv(tmp_path, landmark_path)
    code, stdout, err = _main(argv, capsys)
    assert (code, stdout) == (1, "")
    assert err == f"claimgraph: {bad}: not UTF-8 text (invalid start byte)\n"
