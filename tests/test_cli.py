"""The command line's output contract: `main` writes each table command's
rows, a failed command leaves no `--out` file, and undecodable input bytes
give the one-line error."""

import subprocess
import sys

import pytest

from claimgraph import cli
from conftest import CLI_ENV

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
    (lambda tmp_path, corpus: [
        "regress", "--measures", _write(tmp_path, "m.csv", MEASURES),
        "--specs", _write(tmp_path, "s.csv", SPECS.replace(",,0,none", ""))],
     "claimgraph: line 2: {tmp}/s.csv: bad fe flag ''\n"),
    (lambda tmp_path, corpus: [
        "ingest", "--corpus", corpus, "--outcomes", _write(
            tmp_path, "o.csv", "paper_id,journal,citations\nmobility14,aer,1,x\n")],
     "claimgraph: {tmp}/o.csv: row 'mobility14' has more cells than the header\n"),
], ids=["measures-path-cap", "regress-missing-column", "regress-short-spec-row",
        "ingest-long-outcome-row"])
def test_failed_command_leaves_no_out_file(tmp_path, landmark_path, capsys,
                                          make_argv, message):
    out = tmp_path / "out.csv"
    code, stdout, err = _main([*make_argv(tmp_path, landmark_path),
                               "--out", str(out)], capsys)
    assert (code, stdout, err) == (1, "", message.format(tmp=tmp_path))
    assert not out.exists()


def test_node_series_code_is_normalised_like_corpus_codes(landmark_path, capsys):
    runs = [_main(["node-series", "--corpus", landmark_path, "--code", code], capsys)
            for code in ("D31", "d31", " D31")]
    assert runs[0][0] == 0 and runs[0][1].count("\n") > 1
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert _main(["node-series", "--corpus", landmark_path, "--code", "zz"],
                 capsys) == (1, "", "claimgraph: malformed concept code 'ZZ'\n")


def test_regress_reads_the_columns_a_short_first_row_lacks(tmp_path, capsys):
    specs = _write(tmp_path, "s.csv", SPECS)
    short = MEASURES.replace("\n", "\np0,2000\n", 1)
    runs = [_main(["regress", "--measures", _write(tmp_path, name, text),
                   "--specs", specs], capsys)
            for name, text in (("m.csv", MEASURES), ("short.csv", short))]
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_regress_takes_its_columns_from_the_header(tmp_path, capsys):
    # The header has `year`; the first row is too short to hold one.
    measures = _write(tmp_path, "m.csv", MEASURES.replace("\n", "\np0\n", 1))
    code, stdout, err = _main(["regress", "--measures", measures,
                               "--specs", _write(tmp_path, "s.csv", SPECS)], capsys)
    assert (code, stdout, err) == (
        1, "", f"claimgraph: {measures}: paper 'p0': missing year\n")


def test_regress_rejects_a_row_longer_than_the_header(tmp_path, capsys):
    measures = _write(tmp_path, "m.csv", MEASURES.replace("0.25", "0.25,9"))
    code, stdout, err = _main(["regress", "--measures", measures,
                               "--specs", _write(tmp_path, "s.csv", SPECS)], capsys)
    assert (code, stdout, err) == (
        1, "", f"claimgraph: {measures}: row 'p2' has more cells than the header\n")


@pytest.mark.parametrize("column", ["paper_id", "pub_tier", "outcome_source"])
def test_regress_rejects_a_spec_naming_a_text_column(tmp_path, capsys, column):
    measures = _write(tmp_path, "m.csv", (
        "paper_id,year,pub_tier,citations,outcome_source,prop_causal_edges\n"
        "p1,2001,Top5,3,o.csv,0.5\np2,2002,Other,0,o.csv,0.25\n"))
    specs = _write(tmp_path, "s.csv", SPECS + f"Top5,{column},,0,none\n")
    code, stdout, err = _main(["regress", "--measures", measures,
                               "--specs", specs], capsys)
    assert (code, stdout, err) == (
        1, "", f"claimgraph: line 3: {specs}: measure column {column!r} holds text\n")


# --- PageRank's damping lies in [0, 1), checked before any work ------------


@pytest.mark.parametrize("value", ["1.5", "1.0", "nan", "-0.1"])
def test_damping_outside_its_range_is_rejected_before_any_work(
        tmp_path, landmark_path, capsys, value):
    config = _write(tmp_path, "run.cfg", f"corpus={landmark_path}\ndamping = {value}\n")
    out = tmp_path / "run"
    shown = float(value)
    assert _main(["run", "--config", config, "--out", str(out)], capsys) == (
        1, "", f"claimgraph: line 2: damping must be in [0, 1), got {shown}\n")
    assert not out.exists()
    assert _main(["centrality", "--corpus", landmark_path, "--damping", value],
                 capsys) == (
        1, "", f"claimgraph: --damping must be in [0, 1), got {shown}\n")


def test_damping_zero_is_valid(tmp_path, landmark_path, capsys):
    config = _write(tmp_path, "run.cfg", f"corpus={landmark_path}\ndamping = 0\n")
    code, _, err = _main(["run", "--config", config, "--out", str(tmp_path / "run")],
                         capsys)
    assert code == 0, err
    code, stdout, err = _main(["centrality", "--corpus", landmark_path,
                               "--damping", "0"], capsys)
    assert (code, err) == (0, "")
    assert stdout.count("\n") == 5


# --- epsilon and tol must be finite and above 0, checked before any input --


@pytest.mark.parametrize("key", ["epsilon", "tol"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_epsilon_and_tol_outside_their_range_are_rejected_before_any_input(
        tmp_path, capsys, key, value):
    """epsilon 0 or -1 ended `run` in ZeroDivisionError, nan and inf wrote
    meaningless source/sink cells, and tol <= 0 or nan failed as a
    misleading non-convergence. The corpus named does not exist, so the
    message shows that no input was read."""
    config = _write(tmp_path, "run.cfg", f"corpus = missing.jsonl\n{key} = {value}\n")
    out = tmp_path / "run"
    assert _main(["run", "--config", config, "--out", str(out)], capsys) == (
        1, "", f"claimgraph: line 2: {key} must be finite and > 0, "
               f"got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_regress_rejects_a_non_finite_measure_cell(tmp_path, capsys, cell):
    """Such a cell gave a row of nan, exit 0 and numpy warnings."""
    measures = _write(tmp_path, "m.csv", MEASURES.replace("0.25", cell))
    code, stdout, err = _main(["regress", "--measures", measures,
                               "--specs", _write(tmp_path, "s.csv", SPECS)], capsys)
    assert (code, stdout, err) == (
        1, "", f"claimgraph: {measures}: paper 'p2': column 'prop_causal_edges' "
               f"holds {float(cell)}, not a finite number\n")


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


def _queries(tmp_path, corpus):
    bad = _bad(tmp_path, "q.csv", QUERIES.replace("q2", "q?"))
    return ["match", "--index", _write(tmp_path, "index.csv", INDEX),
            "--queries", bad], bad


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
    _corpus, _config, _outcomes, _ranks, _specs, _measures, _index, _queries,
    _ledger, _pair_table,
], ids=["corpus", "config", "outcome-table", "rank-table", "spec-file",
        "measures-table", "embedding-table", "query-table", "ledger", "pair-table"])
def test_non_utf8_input_is_a_one_line_error(tmp_path, landmark_path, capsys,
                                            make_argv):
    argv, bad = make_argv(tmp_path, landmark_path)
    code, stdout, err = _main(argv, capsys)
    assert (code, stdout) == (1, "")
    assert err == f"claimgraph: {bad}: not UTF-8 text (invalid start byte)\n"


# --- numpy loads only with the commands that compute with it ---------------

NUMPY_CHECK = """
import os, runpy, sys

corpus, out = sys.argv[1:]
sys.argv = ["claimgraph", "--help"]
try:
    runpy.run_module("claimgraph", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
from claimgraph import cli, pipeline

for argv in (
        ["ingest", "--corpus", corpus],
        ["measures", "--corpus", corpus],
        ["novelty", "--corpus", corpus, "--ledger-out", os.path.join(out, "ledger")],
        ["gaps", "--corpus", corpus, "--table-out", os.path.join(out, "pairs")],
        ["trends", "--corpus", corpus]):
    assert cli.main([*argv, "--out", os.path.join(out, argv[0])]) == 0, argv
print("numpy after start-up commands:", "numpy" in sys.modules)
print("centrality exit:", cli.main(["centrality", "--corpus", corpus,
                                     "--out", os.path.join(out, "centrality")]))
print("numpy after centrality:", "numpy" in sys.modules)
"""


def test_only_numeric_commands_load_numpy(fresh_python, landmark_path, tmp_path):
    # The test process has numpy loaded already, so a new interpreter checks.
    code, output = fresh_python(NUMPY_CHECK, landmark_path, str(tmp_path))
    assert code == 0, output
    assert output.splitlines()[-3:] == ["numpy after start-up commands: False",
                                        "centrality exit: 0",
                                        "numpy after centrality: True"], output
