import filecmp
import hashlib
import json
import subprocess
import sys
import weakref

import pytest

from claimgraph import cli
from conftest import CLI_ENV, read_csv_dicts
from synth import random_corpus, records_to_jsonl, rows_to_columns
from claimgraph.errors import SchemaError
from claimgraph.ingest import parse_corpus_file
from claimgraph.graphs import build_graph
from claimgraph.novelty import score_corpus as novelty_scores
from claimgraph.pipeline import (
    CENTRALITY_VIEWS,
    MEASURE_COLUMNS,
    PipelineConfig,
    PipelineStageError,
    compute_measure_table,
    default_battery,
    parse_config_text,
    run_pipeline,
    run_regressions,
)
from claimgraph.tableio import parse_float

EXPECTED_FILES = [
    "measures.csv", "novelty.csv", "gaps.csv", "centrality.csv",
    "regressions.csv", "trends_year.csv", "diagnostics.txt", "manifest.txt",
]


# --- config parsing ---------------------------------------------------------


def test_config_parses_values_and_comments(tmp_path):
    text = """\
# pipeline settings
corpus = papers.jsonl
outcomes = a.csv, b.csv
ranks = ranks.csv
tau = 7          # threshold
damping = 0.9
strict = true
"""
    config = parse_config_text(text, base_dir=str(tmp_path))
    assert config.corpus == str(tmp_path / "papers.jsonl")
    assert config.outcomes == [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    assert config.tau == 7
    assert config.damping == 0.9
    assert config.strict is True


@pytest.mark.parametrize("value, want", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False),
    ("NO", False)])
def test_config_strict_takes_six_spellings_in_any_case(value, want):
    assert parse_config_text(f"corpus=x\nstrict = {value}\n").strict is want


def test_config_rejects_unknown_keys():
    with pytest.raises(SchemaError) as err:
        parse_config_text("corpus=x\nbogus_knob=3\n")
    assert err.value.line_no == 2


def test_config_requires_corpus():
    with pytest.raises(SchemaError):
        parse_config_text("tau=3\n")


@pytest.mark.parametrize("line", ["corpus =\0 c.jsonl", "specs = s\0.csv",
                                  "outcomes = a.csv, b\0.csv"])
def test_config_rejects_a_path_holding_a_null_byte(line):
    with pytest.raises(SchemaError) as err:
        parse_config_text(f"corpus = c.jsonl\n{line}\n")
    assert str(err.value) == f"line 2: bad config line {line!r}"


# --- measure assembly --------------------------------------------------------


def test_measure_rows_agree_with_modules(landmark_records, landmark_path):
    records = list(landmark_records.values())
    config = PipelineConfig(corpus=landmark_path)
    table = compute_measure_table(records, config)
    rows = {pid: {col: values[i] for col, values in table.items()}
            for i, pid in enumerate(table["paper_id"])}

    credit = rows["credit15"]
    assert credit["num_edges"] == 8
    assert credit["num_unique_paths_causal"] == 12
    assert credit["prop_causal_edges"] == 1.0

    graphs = [build_graph(r, "causal") for r in records]
    want, _ = novelty_scores(graphs)
    for pid, row in rows.items():
        assert row["num_novel_edges_causal"] == want[pid].num_novel_edges
        assert row["prop_novel_paths_causal"] == want[pid].prop_novel_paths

    # every declared column is populated or explicitly missing
    for row in rows.values():
        assert set(MEASURE_COLUMNS) <= set(row)


def test_zero_edge_paper_rows_have_missing_everywhere(tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"paper_id": "hollow", "year": 2000}) + "\n")
    config = PipelineConfig(corpus=str(corpus))
    records, _ = parse_corpus_file(str(corpus))
    row = {col: value for col, (value,) in
           compute_measure_table(records, config).items()}
    assert row["num_edges"] == 0
    assert row["prop_causal_edges"] is None
    assert row["gap_prop_full"] is None
    assert row["mean_eigen_full"] is None


# --- full pipeline -----------------------------------------------------------


def test_pipeline_writes_all_outputs(tmp_path, landmark_path):
    out = tmp_path / "out"
    config = PipelineConfig(corpus=landmark_path)
    run = run_pipeline(config, str(out))
    assert run.n_records == 4
    for name in EXPECTED_FILES:
        assert (out / name).exists(), name

    measures = read_csv_dicts(str(out / "measures.csv"))
    assert len(measures) == 4
    by_id = {r["paper_id"]: r for r in measures}
    assert parse_float(by_id["mobility14"]["source_sink_full"]) == \
        pytest.approx(2.5, abs=0.01)

    regressions = read_csv_dicts(str(out / "regressions.csv"))
    assert len(regressions) == len(default_battery())
    assert any(r["error"] for r in regressions)
    assert any(not r["error"] and r["beta"] for r in regressions)

    trend_rows = read_csv_dicts(str(out / "trends_year.csv"))
    assert {r["group"] for r in trend_rows} == {"2010", "2011", "2014", "2015"}


def test_manifest_is_deterministic_and_digested(tmp_path, landmark_path):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(corpus=landmark_path), str(out))
    text = (out / "manifest.txt").read_text()
    with open(landmark_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert f"sha256={digest}" in text
    assert "tool=claimgraph" in text
    lowered = text.lower()
    for stamp in ("date", "time", "clock"):
        assert stamp not in lowered


def test_pipeline_reruns_byte_identical(tmp_path, landmark_path):
    config = PipelineConfig(corpus=landmark_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_pipeline(config, str(out_a))
    run_pipeline(config, str(out_b))
    for name in EXPECTED_FILES:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_pipeline_stage_error_names_stage(tmp_path):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("{broken\n")
    config = PipelineConfig(corpus=str(corpus), strict=True)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(config, str(tmp_path / "out"))
    assert err.value.stage == "ingest"


def test_pipeline_merges_outcomes(tmp_path, landmark_path):
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text(
        "paper_id,journal,citations\nmobility14,aer,210\ncredit15,obscure,9\n")
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("journal,tier\naer,Top5\n")
    config = PipelineConfig(corpus=landmark_path,
                            outcomes=[str(outcomes)], ranks=str(ranks))
    out = tmp_path / "out"
    run_pipeline(config, str(out))
    by_id = {r["paper_id"]: r for r in read_csv_dicts(str(out / "measures.csv"))}
    assert by_id["mobility14"]["pub_tier"] == "Top5"
    assert by_id["mobility14"]["citations"] == "210"
    assert by_id["credit15"]["pub_tier"] == "Other"
    assert by_id["firmshocks11"]["pub_tier"] == "Unpublished"


def test_run_regressions_keep_errors_collects_notes():
    # regressor constant within each year: fine plain, collinear under FE
    rows = [
        {"paper_id": "a", "year": 2000, "pub_tier": "Top5",
         "citations": 5, "prop_causal_edges": 1.0},
        {"paper_id": "b", "year": 2000, "pub_tier": "Other",
         "citations": 2, "prop_causal_edges": 1.0},
        {"paper_id": "c", "year": 2001, "pub_tier": "Top5",
         "citations": 4, "prop_causal_edges": 0.0},
        {"paper_id": "d", "year": 2001, "pub_tier": "Other",
         "citations": 1, "prop_causal_edges": 0.0},
    ]
    from claimgraph.regression import RegressionSpec
    specs = [RegressionSpec("Top5", "prop_causal_edges",
                            fixed_effects=False, cluster="none"),
             RegressionSpec("Top5", "prop_causal_edges",
                            fixed_effects=True, cluster="by_year")]
    table = rows_to_columns(rows)
    results = run_regressions(table, specs, keep_errors=True)
    assert results[0]["error"] is None
    assert results[1]["error"]
    with pytest.raises(Exception):
        run_regressions(table, specs, keep_errors=False)


# --- synthetic corpus stability ---------------------------------------------


def test_run_regressions_builds_each_outcome_once(monkeypatch):
    import claimgraph.regression as regression_mod
    from claimgraph.regression import _outcome_values, run_spec

    records = random_corpus(5, n_papers=120, year_lo=2000, year_hi=2005,
                            pool_size=15, max_claims=5)
    for i, record in enumerate(records):
        record.pub_tier = ("Top5", "Top6to20", "Other")[i % 3]
        record.citations = i % 7
    table = compute_measure_table(records, PipelineConfig())
    built = []

    def counting(table, outcome):
        built.append(outcome)
        return _outcome_values(table, outcome)

    monkeypatch.setattr(regression_mod, "_outcome_values", counting)
    specs = default_battery()
    got = run_regressions(table, specs)
    assert sorted(built) == sorted({spec.outcome for spec in specs})
    for spec, row in zip(specs, got):
        if row["error"] is None:
            res = run_spec(table, spec)
            assert (row["alpha"], row["beta"], row["se_beta"], row["n"],
                    row["r_squared"]) == (res.alpha, res.beta, res.se_beta,
                                          res.n, res.r_squared)
    assert sum(row["error"] is None for row in got) > len(specs) // 2


def test_pipeline_on_synthetic_corpus_is_stable(tmp_path):
    records = random_corpus(404, n_papers=120, year_lo=1995, year_hi=2005,
                            pool_size=25, max_claims=6)
    corpus = tmp_path / "synth.jsonl"
    corpus.write_text(records_to_jsonl(records))
    config = PipelineConfig(corpus=str(corpus))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_pipeline(config, str(out_a))
    run_pipeline(config, str(out_b))
    for name in EXPECTED_FILES:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    measures = read_csv_dicts(str(out_a / "measures.csv"))
    assert len(measures) == 120


# --- the column table and its writers ---------------------------------------


def test_measure_table_has_one_full_list_per_column():
    records = random_corpus(9, n_papers=40, year_lo=2000, year_hi=2003,
                            pool_size=12, max_claims=5)
    table = compute_measure_table(records, PipelineConfig())
    assert list(table) == MEASURE_COLUMNS
    assert all(len(values) == len(records) for values in table.values())


# sha256 prefixes of an empty corpus's tables: a header line each, and one
# error row per default battery spec in regressions.csv.
EMPTY_RUN_DIGESTS = {
    "measures.csv": "306c694e05bb44cb",
    "novelty.csv": "39f592dd174256db",
    "gaps.csv": "6fe36b27d5327be4",
    "centrality.csv": "0ee49d7ef29120eb",
    "regressions.csv": "bdb6cda4490d397a",
    "trends_year.csv": "96951dd8e55142ee",
}


def test_run_on_an_empty_corpus_writes_headers_and_error_rows(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(corpus=str(corpus)), str(out))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in EMPTY_RUN_DIGESTS}
    assert digests == EMPTY_RUN_DIGESTS
    regressions = read_csv_dicts(str(out / "regressions.csv"))
    assert len(regressions) == len(default_battery())
    assert all(row["error"] for row in regressions)


def test_run_reads_back_ids_with_commas_quotes_and_newlines(tmp_path):
    records = random_corpus(12, n_papers=15, year_lo=2000, year_hi=2002,
                            pool_size=10, max_claims=5)
    for record, paper_id in zip(records, ["a,b", 'q"x', "n\ny", ',"\n']):
        record.paper_id = paper_id
    corpus = tmp_path / "odd.jsonl"
    corpus.write_text(records_to_jsonl(records))
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(corpus=str(corpus)), str(out))
    ids = [r.paper_id for r in records]
    for name in ("measures.csv", "novelty.csv", "gaps.csv"):
        assert [row["paper_id"] for row in read_csv_dicts(str(out / name))] == ids
    centrality = read_csv_dicts(str(out / "centrality.csv"))
    assert [row["paper_id"] for row in centrality] == [
        paper_id for paper_id in ids for _ in CENTRALITY_VIEWS]


def test_regress_on_run_measures_fits_every_paper_run_fits(tmp_path):
    records = random_corpus(13, n_papers=12, year_lo=2000, year_hi=2002,
                            pool_size=10, max_claims=5)
    for record, paper_id in zip(records, ["#p1", "x\n#y", "a\r\nb"]):
        record.paper_id = paper_id
    for i, record in enumerate(records):
        record.citations = i
    corpus = tmp_path / "odd.jsonl"
    corpus.write_text(records_to_jsonl(records))
    specs = tmp_path / "specs.csv"
    specs.write_text("outcome,measure,view,fe,cluster\n"
                     "LogCitesPlus1,prop_causal_edges,,0,none\n"
                     "LogCitesPlus1,num_unique_paths,full,1,by_year\n")
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(corpus=str(corpus), specs=str(specs)), str(out))
    measures = read_csv_dicts(str(out / "measures.csv"))
    assert [row["paper_id"] for row in measures] == [r.paper_id for r in records]
    refit = tmp_path / "refit.csv"
    assert cli.main(["regress", "--measures", str(out / "measures.csv"),
                     "--specs", str(specs), "--out", str(refit)]) == 0
    fitted = read_csv_dicts(str(out / "regressions.csv"))
    assert [row.pop("error") for row in fitted] == ["", ""]
    assert read_csv_dicts(str(refit)) == fitted
    assert [row["n"] for row in fitted] == ["12", "12"]


# --- command line -------------------------------------------------------------


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "claimgraph", *args],
                          capture_output=True, text=True, timeout=300,
                          env=CLI_ENV)
    assert proc.returncode == expect, proc.stderr
    return proc


def test_cli_measures_stdout(landmark_path):
    proc = run_cli("measures", "--corpus", landmark_path)
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("paper_id,year,num_edges")
    assert len(lines) == 5


def test_cli_run_pipeline(tmp_path, landmark_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus={landmark_path}\ntau=5\n")
    out = tmp_path / "out"
    run_cli("run", "--config", str(cfg), "--out", str(out))
    for name in EXPECTED_FILES:
        assert (out / name).exists(), name


def test_cli_novelty_ledger_roundtrip(tmp_path):
    early = random_corpus(7, n_papers=30, year_lo=2000, year_hi=2002,
                          pool_size=12, max_claims=5)
    late = random_corpus(8, n_papers=10, year_lo=2003, year_hi=2004,
                         pool_size=12, max_claims=5)
    (tmp_path / "early.jsonl").write_text(records_to_jsonl(early))
    (tmp_path / "late.jsonl").write_text(records_to_jsonl(late))
    ledger = tmp_path / "frontier.txt"
    run_cli("novelty", "--corpus", str(tmp_path / "early.jsonl"),
            "--ledger-out", str(ledger), "--out", str(tmp_path / "e.csv"))
    assert ledger.exists()
    proc = run_cli("novelty", "--corpus", str(tmp_path / "late.jsonl"),
                   "--ledger-in", str(ledger))
    assert "paper_id" in proc.stdout

    # stale ledger (late years already absorbed) must fail loudly
    run_cli("novelty", "--corpus", str(tmp_path / "early.jsonl"),
            "--ledger-in", str(ledger), expect=1)


def test_cli_gaps_table_roundtrip(tmp_path):
    corpus = random_corpus(9, n_papers=25, year_lo=2000, year_hi=2003,
                           pool_size=10, max_claims=5)
    (tmp_path / "c.jsonl").write_text(records_to_jsonl(corpus))
    table = tmp_path / "pairs.txt"
    proc = run_cli("gaps", "--corpus", str(tmp_path / "c.jsonl"),
                   "--table-out", str(table))
    assert table.exists()
    assert proc.stdout.startswith("paper_id,year,gap_prop")


def test_cli_trends_and_centrality(tmp_path, landmark_path):
    proc = run_cli("trends", "--corpus", landmark_path, "--group-by", "year")
    assert "mean_prop_causal" in proc.stdout
    proc = run_cli("centrality", "--corpus", landmark_path,
                   "--view", "non-causal")
    assert proc.stdout.startswith("paper_id,year,view")


def test_cli_regress_from_files(tmp_path, landmark_path):
    measures = tmp_path / "m.csv"
    run_cli("measures", "--corpus", landmark_path, "--out", str(measures))
    # measures output lacks pub_tier; regress against a tier outcome would
    # fail, so fit citations-free LPM via Top5 on a synthetic table instead
    rows = read_csv_dicts(str(measures))
    full = tmp_path / "full.csv"
    with open(full, "w") as fh:
        fh.write("paper_id,year,pub_tier,citations,prop_causal_edges\n")
        for i, row in enumerate(rows):
            tier = "Top5" if i % 2 else "Other"
            fh.write(f"{row['paper_id']},{row['year']},{tier},"
                     f"{3 + i},{row['prop_causal_edges']}\n")
    specs = tmp_path / "specs.csv"
    specs.write_text("outcome,measure,view,fe,cluster\n"
                     "LogCitesPlus1,prop_causal_edges,,0,none\n")
    proc = run_cli("regress", "--measures", str(full), "--specs", str(specs))
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("outcome,measure")
    assert len(lines) == 2


def test_cli_match(tmp_path):
    index = tmp_path / "index.csv"
    index.write_text("A1,1.0,0.0\nB2,0.0,1.0\n")
    queries = tmp_path / "q.csv"
    queries.write_text("q1,0.9,0.1\nq2,0.2,0.8\n")
    proc = run_cli("match", "--index", str(index), "--queries", str(queries))
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "query_id,code,similarity,rank"
    assert lines[1].startswith("q1,A1,")
    assert lines[2].startswith("q2,B2,")


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{nope\n")
    proc = run_cli("measures", "--corpus", str(bad), "--strict", expect=1)
    assert "claimgraph:" in proc.stderr


def test_cli_missing_file_is_a_clean_error(tmp_path):
    proc = run_cli("measures", "--corpus", str(tmp_path / "absent.jsonl"),
                   expect=1)
    assert "claimgraph:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_ingest_merges_and_serializes(tmp_path, landmark_path):
    outcomes = tmp_path / "o.csv"
    outcomes.write_text("paper_id,journal,citations\nmobility14,aer,11\n")
    ranks = tmp_path / "r.csv"
    ranks.write_text("journal,tier\naer,Top5\n")
    proc = run_cli("ingest", "--corpus", landmark_path,
                   "--outcomes", str(outcomes), "--ranks", str(ranks))
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 4
    merged = {d["paper_id"]: d for d in lines}
    assert merged["mobility14"]["pub_tier"] == "Top5"
    assert merged["mobility14"]["citations"] == 11


def test_cli_ingest_splits_outcomes_like_the_config(tmp_path, landmark_path):
    # The README's config example puts a space after the comma.
    first = tmp_path / "a.csv"
    first.write_text("paper_id,journal,citations\nmobility14,aer,11\n")
    second = tmp_path / "b.csv"
    second.write_text("paper_id,journal,citations\ncredit15,qje,4\n")
    ranks = tmp_path / "r.csv"
    ranks.write_text("journal,tier\naer,Top5\nqje,Top5\n")
    proc = run_cli("ingest", "--corpus", landmark_path,
                   "--outcomes", f"{first}, {second}", "--ranks", str(ranks))
    merged = {d["paper_id"]: d for d in map(json.loads, proc.stdout.splitlines())}
    assert merged["mobility14"]["outcome_source"] == "a.csv"
    assert merged["credit15"]["outcome_source"] == "b.csv"
    config = parse_config_text(f"corpus=c.jsonl\noutcomes = {first}, {second}\n")
    assert config.outcomes == [str(first), str(second)]


# --- one build per view, one z-scoring, one column registry ------------------


@pytest.fixture()
def synth_run(tmp_path):
    """`run` over a synthetic corpus with an outcome table and ranks."""
    records = random_corpus(61, n_papers=80, year_lo=2000, year_hi=2005,
                            pool_size=20, max_claims=6)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(records_to_jsonl(records))
    outcomes = tmp_path / "outcomes.csv"
    with open(outcomes, "w") as fh:
        fh.write("paper_id,journal,citations\n")
        for i, record in enumerate(records[::2]):
            fh.write(f"{record.paper_id},{('aer', 'jpe', 'other')[i % 3]},{i}\n")
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("journal,tier\naer,Top5\njpe,Top6to20\n")
    config = PipelineConfig(corpus=str(corpus), outcomes=[str(outcomes)],
                            ranks=str(ranks))
    return records, config, tmp_path


def test_run_builds_each_view_graph_once(synth_run, monkeypatch):
    import claimgraph.graphs as graphs_mod
    import claimgraph.pipeline as pipeline_mod

    records, config, tmp_path = synth_run
    calls = []

    def counting_build(record, view="full"):
        calls.append(view)
        return build_graph(record, view)

    path_passes = []

    def counting_paths(graphs, *args):
        path_passes.append(len(graphs))
        return graphs_mod.complexity_measures(graphs, *args)

    monkeypatch.setattr(graphs_mod, "build_graph", counting_build)
    monkeypatch.setattr(pipeline_mod, "build_graph", counting_build)
    monkeypatch.setattr(pipeline_mod, "complexity_measures", counting_paths)
    run_pipeline(config, str(tmp_path / "out"))
    assert len(calls) == 3 * len(records)
    assert {calls.count(v) for v in ("full", "causal", "noncausal")} == {len(records)}
    # One path pass per view, for `run` and for `measures` alike.
    assert path_passes == [len(records)] * 3
    path_passes.clear()
    assert cli.main(["measures", "--corpus", config.corpus,
                     "--out", str(tmp_path / "measures.csv")]) == 0
    assert path_passes == [len(records)] * 3


def test_run_keeps_no_frontier_past_its_scorer(synth_run, monkeypatch):
    """Each view's novelty ledger is freed before gap scoring starts, and its
    pair table before centrality scoring starts."""
    import claimgraph.centrality as centrality_mod
    import claimgraph.cooccurrence as cooccur_mod
    import claimgraph.novelty as novelty_mod

    _, config, tmp_path = synth_run
    ledgers, tables, starts = [], [], []

    def keeping_a_weakref(real, refs):
        def score(*args, **kwargs):
            result = real(*args, **kwargs)
            refs.append(weakref.ref(result[1]))
            return result
        return score

    def checked(real, label):
        def score(*args, **kwargs):
            starts.append(label)
            assert all(ref() is None for ref in ledgers), f"a ledger outlived {label}"
            if label == "centrality":
                assert all(ref() is None for ref in tables), "a pair table outlived gaps"
            return real(*args, **kwargs)
        return score

    monkeypatch.setattr(novelty_mod, "score_corpus",
                        keeping_a_weakref(novelty_mod.score_corpus, ledgers))
    monkeypatch.setattr(cooccur_mod, "score_corpus", checked(
        keeping_a_weakref(cooccur_mod.score_corpus, tables), "gaps"))
    monkeypatch.setattr(centrality_mod, "score_corpus",
                        checked(centrality_mod.score_corpus, "centrality"))
    run_pipeline(config, str(tmp_path / "out"))
    assert (len(ledgers), len(tables)) == (2, 2)
    assert starts == ["gaps", "centrality"] * 2 + ["centrality"]


# Writes to argv[3], as JSON, the traced size of the corpus decoded by
# `json.loads` and, per view, the traced peak of that view's scoring above
# what was held when it started: its graphs and every frontier alive with
# them. It runs in a fresh interpreter with numpy already loaded.
_VIEW_MEMORY_PROBE = """
import json, sys, tracemalloc
import numpy
from claimgraph import pipeline
corpus, out, result = sys.argv[1:4]
tracemalloc.start()
with open(corpus) as fh:
    decoded = [json.loads(line) for line in fh]
sizes = {"decoded": tracemalloc.get_traced_memory()[0]}
del decoded
score_view = pipeline._score_view
def measured(records, table, view, config):
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    score_view(records, table, view, config)
    sizes[view] = tracemalloc.get_traced_memory()[1] - start
pipeline._score_view = measured
pipeline.run_pipeline(pipeline.PipelineConfig(corpus=corpus), out)
with open(result, "w") as fh:
    json.dump(sizes, fh)
"""


def test_view_scoring_memory_stays_in_budget(tmp_path, fresh_python):
    """A view's scoring may hold at most 0.38 times the traced size of the
    corpus decoded by `json.loads`. Both sides are measured in the same
    interpreter, so a Python version with other object sizes scales both.
    Python 3.11.7 read 0.484 for the full view (6.82 MB over 14.09 MB) when
    each graph held two hash sets, a view's ledger lived through its gap
    scoring and its pair table through its centrality scoring, and 0.283
    (3.99 MB) with sorted-tuple graphs and each frontier freed with its
    scorer. The whole run's peak is no gate: once the views shrink, it sits
    in the regressions and in numpy's first-use allocations."""
    records = random_corpus(7777, n_papers=3000, year_lo=1990, year_hi=2010,
                            pool_size=60, max_claims=8, node_cap=10)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(records_to_jsonl(records))
    result = tmp_path / "sizes.json"
    code, output = fresh_python(_VIEW_MEMORY_PROBE, str(corpus), str(tmp_path / "out"),
                                str(result), timeout=120.0)
    assert code == 0, output
    sizes = json.loads(result.read_text())
    worst = max(sizes[view] for view in ("full", "causal", "noncausal"))
    assert worst < 0.38 * sizes["decoded"], sizes


def test_cli_regress_on_run_measures_with_merged_outcomes(synth_run):
    _, config, tmp_path = synth_run
    out = tmp_path / "out"
    run_pipeline(config, str(out))
    assert "outcomes.csv" in (out / "measures.csv").read_text()
    specs = tmp_path / "specs.csv"
    specs.write_text("outcome,measure,view,fe,cluster\n"
                     "Top5,prop_causal_edges,,1,by_year\n"
                     "LogCitesPlus1,num_unique_paths,full,0,none\n")
    proc = run_cli("regress", "--measures", str(out / "measures.csv"),
                   "--specs", str(specs))
    got = proc.stdout.splitlines()
    # The run's own battery fitted the same two cells from the same rows.
    battery = {line.rsplit(",", 1)[0]
               for line in (out / "regressions.csv").read_text().splitlines()}
    assert got[0] == "outcome,measure,view,fe,cluster,alpha,beta,se_beta,n,r_squared"
    assert len(got) == 3
    assert got[1] in battery
    assert got[2].replace("num_unique_paths,full", "num_unique_paths_full,") \
        in battery


def test_cli_centrality_matches_run_centrality_csv(synth_run):
    records, config, tmp_path = synth_run
    out = tmp_path / "out"
    run_pipeline(config, str(out))
    proc = run_cli("centrality", "--corpus", config.corpus, "--view", "full")
    run_lines = (out / "centrality.csv").read_text().splitlines()
    assert proc.stdout.splitlines() == (
        run_lines[:1] + [ln for ln in run_lines[1:] if ln.split(",")[2] == "full"])
    assert len(run_lines) == 1 + 3 * len(records)


@pytest.mark.parametrize("argv, run_file, suffix", [
    (["novelty", "--view", "full"], "novelty.csv", "_full"),
    (["novelty", "--view", "causal"], "novelty.csv", "_causal"),
    (["gaps", "--view", "full"], "gaps.csv", "_full"),
    (["gaps", "--view", "causal"], "gaps.csv", "_causal"),
    (["trends", "--group-by", "year"], "trends_year.csv", ""),
], ids=["novelty-full", "novelty-causal", "gaps-full", "gaps-causal",
        "trends-year"])
def test_cli_subcommand_matches_run_csv(synth_run, argv, run_file, suffix):
    _, config, tmp_path = synth_run
    out = tmp_path / "out"
    run_pipeline(config, str(out))
    cli_out = tmp_path / "sub.csv"
    run_cli(argv[0], "--corpus", config.corpus, *argv[1:], "--out", str(cli_out))
    cli_rows = read_csv_dicts(str(cli_out))
    run_rows = read_csv_dicts(str(out / run_file))
    run_col = {col: col if col in ("paper_id", "year") else col + suffix
               for col in cli_rows[0]}
    assert len(cli_rows[0]) > 2
    assert cli_rows == [{col: r[run_col[col]] for col in run_col} for r in run_rows]


def test_cli_measures_matches_run_measures_csv(synth_run):
    _, config, tmp_path = synth_run
    out = tmp_path / "out"
    run_pipeline(config, str(out))
    cli_out = tmp_path / "m.csv"
    run_cli("measures", "--corpus", config.corpus, "--out", str(cli_out))
    cli_rows = read_csv_dicts(str(cli_out))
    run_rows = read_csv_dicts(str(out / "measures.csv"))
    assert len(cli_rows[0]) == 14
    assert cli_rows == [{k: r[k] for k in cli_rows[0]} for r in run_rows]


# --- one-line errors at the state-file and argument boundaries --------------


def _ledger(tmp_path, path_len=2, subgraph_size=2):
    corpus = tmp_path / "early.jsonl"
    corpus.write_text(records_to_jsonl(random_corpus(
        7, n_papers=30, year_lo=2000, year_hi=2002, pool_size=12, max_claims=5)))
    ledger = tmp_path / "frontier.txt"
    run_cli("novelty", "--corpus", str(corpus), "--ledger-out", str(ledger),
            "--path-len", str(path_len), "--subgraph-size", str(subgraph_size),
            "--out", str(tmp_path / "early.csv"))
    return ledger


def _late_corpus(tmp_path):
    late = tmp_path / "late.jsonl"
    late.write_text(records_to_jsonl(random_corpus(
        8, n_papers=10, year_lo=2003, year_hi=2004, pool_size=12, max_claims=5)))
    return late


def _bad_pair_table(tmp_path):
    table = tmp_path / "pairs.txt"
    table.write_text("#claimgraph-pairs v1\nthrough_year=2002\n"
                     "code1,code2,count\nA1,B2\n")
    return ["gaps", "--corpus", str(_late_corpus(tmp_path)),
            "--table-in", str(table)]


def _unseen_code(tmp_path):
    return ["node-series", "--corpus", str(_late_corpus(tmp_path)),
            "--code", "Z99"]


def _ledger_header(old, new):
    """`novelty` resumed from a saved ledger with `old` in its text
    replaced by `new`."""
    def make(tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_text(ledger.read_text().replace(old, new))
        return ["novelty", "--corpus", str(_late_corpus(tmp_path)),
                "--ledger-in", str(ledger)]
    return make


def _corpus_flag(command, flag, value):
    def make(tmp_path):
        return [command, "--corpus", str(_late_corpus(tmp_path)), flag, value]
    return make


def _config_value(key, value):
    def make(tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={_late_corpus(tmp_path)}\n{key}={value}\n")
        return ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    return make


def _config_short_spec_row(tmp_path):
    specs = tmp_path / "specs.csv"
    specs.write_text("outcome,measure,view,fe,cluster\nTop5,longest_path\n")
    return _config_value("specs", specs)(tmp_path)


def _outcome_table(text):
    def make(tmp_path):
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text(text)
        return ["ingest", "--corpus", str(_late_corpus(tmp_path)),
                "--outcomes", str(outcomes)]
    return make


def _regress_without_year(tmp_path):
    measures = tmp_path / "noyear.csv"
    measures.write_text("paper_id,pub_tier,citations,prop_causal_edges\n"
                        "p1,Top5,3,0.5\np2,Other,0,0.25\np3,Top5,8,1.0\n")
    specs = tmp_path / "specs.csv"
    specs.write_text("outcome,measure,view,fe,cluster\n"
                     "Top5,prop_causal_edges,,0,none\n")
    return ["regress", "--measures", str(measures), "--specs", str(specs)]


def _regress_empty_year(tmp_path):
    argv = _regress_without_year(tmp_path)
    (tmp_path / "noyear.csv").write_text(
        "paper_id,year,pub_tier,prop_causal_edges\np1,2001,Top5,0.5\n"
        "p2,,Other,0.25\n")
    return argv


def _flag_mismatch(flag, value):
    def make(tmp_path):
        return ["novelty", "--corpus", str(_late_corpus(tmp_path)),
                "--ledger-in", str(_ledger(tmp_path)), flag, value]
    return make


@pytest.mark.parametrize("make_argv, message", [
    (_ledger_header("path_len=", "colour=blue\npath_len="),
     "unknown ledger header 'colour'"),
    (_bad_pair_table, "pairs.txt: not enough values to unpack"),
    (_unseen_code, "'Z99' never appears"),
    (_config_value("tau", "five"), "line 2: tau must be int, got 'five'"),
    (_flag_mismatch("--path-len", "3"), "--path-len 3 does not match path_len=2"),
    (_flag_mismatch("--subgraph-size", "3"),
     "--subgraph-size 3 does not match subgraph_size=2"),
    (_corpus_flag("novelty", "--subgraph-size", "5"),
     "--subgraph-size must be 2..4, got 5"),
    (_config_value("subgraph_size", 5),
     "line 2: subgraph_size must be 2..4, got 5"),
    (_ledger_header("subgraph_size=2", "subgraph_size=5"),
     "frontier.txt: subgraph_size must be 2..4, got 5"),
    (_regress_without_year, "noyear.csv: missing column 'year'"),
    (_regress_empty_year, "noyear.csv: paper 'p2': missing year"),
    (_config_value("max_iter", 0), "line 2: max_iter must be >= 1, got 0"),
    (_corpus_flag("novelty", "--path-len", "0"), "--path-len must be >= 1, got 0"),
    (_config_value("path_len", 0), "line 2: path_len must be >= 1, got 0"),
    (_ledger_header("path_len=2", "path_len=0"),
     "frontier.txt: path_len must be >= 1, got 0"),
    (_config_value("path_cap", 0), "line 2: path_cap must be >= 1, got 0"),
    (_config_value("subset_cap", 0), "line 2: subset_cap must be >= 1, got 0"),
    (_config_value("tau", -2), "line 2: tau must be >= 1, got -2"),
    (_corpus_flag("measures", "--path-cap", "-1"),
     "--path-cap must be >= 1, got -1"),
    (_corpus_flag("gaps", "--tau", "-2"), "--tau must be >= 1, got -2"),
    (_config_value("strict", "ture"), "line 2: strict must be bool, got 'ture'"),
    (_config_value("min_year", 2030), "min_year 2030 is after max_year 2023"),
    (_config_short_spec_row, "specs.csv: bad fe flag ''"),
    (_outcome_table('paper_id,journal,citations\nmobility14,"aer,3\n'),
     "outcomes.csv: unexpected end of data"),
    (_outcome_table("paper_id,journal,citations\nmobility14,"
                    + "x" * 200_000 + ",3\n"),
     "outcomes.csv: field larger than field limit (131072)"),
], ids=["ledger-header", "pair-row", "unseen-code", "config-value", "path-len",
        "subgraph-size", "subgraph-size-flag", "subgraph-size-config",
        "subgraph-size-ledger", "regress-no-year", "regress-empty-year",
        "max-iter-config", "path-len-flag", "path-len-config",
        "path-len-ledger", "path-cap-config", "subset-cap-config", "tau-config",
        "path-cap-flag", "tau-flag", "strict-config", "year-order-config",
        "config-short-spec-row", "outcome-unterminated-quote",
        "outcome-huge-cell"])
def test_cli_boundary_errors_are_one_line(tmp_path, make_argv, message):
    proc = run_cli(*make_argv(tmp_path), expect=1)
    assert proc.stderr.startswith("claimgraph: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec_row, message", [
    ("Top5,longest_path", "bad fe flag ''"),
    ("Top5,longest_path,bogus,0,none", "unknown measure column 'longest_path_bogus'"),
    ("Top5,pub_tier,,0,none", "unknown measure column 'pub_tier'"),
], ids=["short-row", "unknown-view", "text-column"])
def test_run_with_a_bad_spec_file_writes_nothing(tmp_path, capsys, spec_row,
                                                 message):
    """The specs are read with the other inputs, so a bad row stops the run
    before any measure is computed or any file is written."""
    specs = tmp_path / "specs.csv"
    specs.write_text(f"outcome,measure,view,fe,cluster\n{spec_row}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus={_late_corpus(tmp_path)}\nspecs={specs}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"claimgraph: stage 'regress' failed: line 2: {specs}: {message}\n")
    assert not out.exists() or list(out.iterdir()) == []


def test_run_path_cap_error_names_the_first_paper_in_input_order(tmp_path):
    """Both papers exceed the cap; `late` comes first in the file but second
    by year, and the error names it."""
    def paper(paper_id, year, pairs):
        return json.dumps({"paper_id": paper_id, "year": year, "edges": [
            {"source_code": s, "sink_code": t} for s, t in pairs]})
    corpus = tmp_path / "caps.jsonl"
    corpus.write_text(
        paper("late", 2005, [("A1", "B2"), ("B2", "C3"), ("A1", "C3")]) + "\n"
        + paper("early", 2001, [("A1", "B2"), ("B2", "C3"), ("C3", "D4")]) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus={corpus}\npath_cap=3\n")
    proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   expect=1)
    assert proc.stderr == ("claimgraph: stage 'measures' failed: path "
                           "enumeration exceeded cap 3 for paper 'late'\n")


@pytest.mark.parametrize("flags", [[], ["--path-len", "2"],
                                   ["--subgraph-size", "2", "--path-len", "2"]])
def test_cli_novelty_resume_takes_ledger_parameters(tmp_path, flags):
    ledger = _ledger(tmp_path)
    resumed = tmp_path / "resumed.txt"
    run_cli("novelty", "--corpus", str(_late_corpus(tmp_path)),
            "--ledger-in", str(ledger), "--ledger-out", str(resumed), *flags)
    header = resumed.read_text().splitlines()[:4]
    assert header[2:] == ["path_len=2", "subgraph_size=2"]
