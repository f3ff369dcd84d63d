import hashlib
import io
import json
import textwrap

import pytest

from claimgraph import cli
from claimgraph.errors import DuplicatePaperError, SchemaError
from claimgraph.ingest import (
    OutcomeTable,
    journal_tier,
    load_outcome_table,
    load_rank_table,
    merge_outcomes,
    parse_corpus,
    record_to_dict,
    serialize_corpus,
)
from claimgraph.model import PUB_TIERS, RELATIONSHIPS, ClaimEdge, PaperRecord

GOOD_LINE = json.dumps({
    "paper_id": "p1", "year": 2001, "fields": ["labor"],
    "edges": [{"source_code": "d31", "sink_code": "J62",
               "source_text": "inequality", "sink_text": "mobility",
               "methods": ["OLS"], "relationship": "correlation"}],
})


def parse_lines(*lines, **kw):
    return parse_corpus(list(lines), **kw)


def test_parse_minimal_record():
    records, diags = parse_lines(GOOD_LINE)
    assert not diags
    (rec,) = records
    assert rec.paper_id == "p1"
    assert rec.year == 2001
    assert rec.edges[0].source == "D31"   # codes are uppercased
    assert rec.edges[0].sink == "J62"
    assert rec.pub_tier == "Unknown"
    assert rec.citations is None


def test_blank_lines_are_skipped():
    records, diags = parse_lines("", "   ", GOOD_LINE, "")
    assert len(records) == 1 and not diags


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("paper_id"), "paper_id"),
    (lambda d: d.pop("year"), "year"),
    (lambda d: d.update(year="2001"), "year"),
    (lambda d: d.update(year=1890), "outside"),
    (lambda d: d.update(year=2077), "outside"),
    (lambda d: d.update(citations=-3), "citations"),
    (lambda d: d.update(pub_tier="TopTier"), "pub_tier"),
    (lambda d: d.update(edges=[{"source_code": "banana", "sink_code": "J62"}]),
     "BANANA"),
    (lambda d: d.update(
        edges=[{"source_code": "D31", "sink_code": "J62",
                "relationship": "causes"}]), "relationship"),
    (lambda d: d.update(pub_tier=5), "unknown pub_tier '5'"),
    (lambda d: d.update(
        edges=[{"source_code": "D31", "sink_code": "J62",
                "relationship": 7}]), "unknown relationship '7'"),
])
def test_bad_records_become_diagnostics(mutate, fragment):
    obj = json.loads(GOOD_LINE)
    mutate(obj)
    records, diags = parse_lines(json.dumps(obj))
    assert records == []
    assert len(diags) == 1
    assert diags[0].kind == "schema"
    assert fragment in diags[0].message


# JSON nested deeper than the decoder's recursion limit.
DEEP_LINE = "[" * 100_000 + "]" * 100_000


def test_diagnostics_carry_line_numbers():
    records, diags = parse_lines(GOOD_LINE, "{not json", DEEP_LINE,
                                 GOOD_LINE.replace("p1", "p2"))
    assert len(records) == 2
    assert [(d.line_no, d.kind) for d in diags] == [(2, "schema"), (3, "schema")]


def test_strict_mode_raises_with_line_number():
    for bad in ("{broken", DEEP_LINE):
        with pytest.raises(SchemaError) as err:
            parse_lines(GOOD_LINE, bad, strict=True)
        assert err.value.line_no == 2


@pytest.mark.parametrize("key, value", [
    ("paper_id", "a\rb"), ("paper_id", None), ("paper_id", ["p1"]),
    ("paper_id", {"id": "p1"}), ("outcome_source", "a\rb"),
    ("outcome_source", None),
], ids=["id-lone-cr", "id-null", "id-list", "id-object", "source-lone-cr",
        "source-null"])
def test_text_measures_csv_cannot_carry_is_rejected(key, value):
    """`measures.csv` carries both strings. `csv` quotes a cell only when it
    holds a line feed, so a lone carriage return would split its row."""
    line = json.dumps({**json.loads(GOOD_LINE), key: value})
    records, diags = parse_lines(GOOD_LINE.replace("p1", "p0"), line)
    assert [(d.line_no, d.kind) for d in diags] == [(2, "schema")]
    assert len(records) == 1 and key in diags[0].message
    with pytest.raises(SchemaError, match=key) as err:
        parse_lines(GOOD_LINE.replace("p1", "p0"), line, strict=True)
    assert err.value.line_no == 2


def test_ids_csv_quotes_and_integer_ids_are_kept():
    kept = [json.dumps({"paper_id": pid, "year": 2001})
            for pid in ("a\r\nb", "x\n#y", 7)]
    records, diags = parse_lines(*kept, strict=True)
    assert [r.paper_id for r in records] == ["a\r\nb", "x\n#y", "7"]
    assert not diags


@pytest.mark.parametrize("value", [True, False, 1.0, 2.5],
                         ids=["true", "false", "float-one", "float"])
def test_bool_and_float_ids_are_rejected(value):
    """`str()` would make `true` the paper 'True', and `1.0` a paper other
    than `1`."""
    line = json.dumps({"paper_id": value, "year": 2001})
    records, diags = parse_lines(json.dumps({"paper_id": 1, "year": 2001}), line)
    assert [r.paper_id for r in records] == ["1"]
    assert [(d.line_no, d.kind) for d in diags] == [(2, "schema")]
    assert "paper_id must be a string or an integer" in diags[0].message
    with pytest.raises(SchemaError, match="paper_id") as err:
        parse_lines(line, strict=True)
    assert err.value.line_no == 1


@pytest.mark.parametrize("value", [True, 1.5], ids=["true", "float"])
def test_bool_and_float_outcome_sources_are_rejected(value):
    records, diags = parse_lines(json.dumps({**json.loads(GOOD_LINE),
                                             "outcome_source": value}))
    assert records == [] and [d.kind for d in diags] == ["schema"]
    assert "outcome_source must be a string or an integer" in diags[0].message


def _with_texts(title, source_text, sink_text):
    obj = json.loads(GOOD_LINE)
    obj["title"] = title
    obj["edges"][0].update(source_text=source_text, sink_text=sink_text)
    return json.dumps(obj)


def test_null_texts_read_as_absent():
    (record,), diags = parse_lines(_with_texts(None, None, None), strict=True)
    edge = record.edges[0]
    assert (record.title, edge.source_text, edge.sink_text) == (None, "", "")
    assert not diags


@pytest.mark.parametrize("key, texts", [
    ("title", (7, "a", "b")), ("title", (["t"], "a", "b")),
    ("source_text", ("t", [1], "b")), ("source_text", ("t", True, "b")),
    ("sink_text", ("t", "a", 1.5)), ("sink_text", ("t", "a", {"x": 1})),
], ids=["title-int", "title-list", "source-list", "source-bool", "sink-float",
        "sink-object"])
def test_non_string_texts_are_rejected(key, texts):
    line = _with_texts(*texts)
    records, diags = parse_lines(line)
    assert records == [] and [d.kind for d in diags] == ["schema"]
    assert f"{key} must be a string" in diags[0].message
    with pytest.raises(SchemaError, match=key):
        parse_lines(line, strict=True)


def test_duplicate_ids_reported_with_both_lines():
    records, diags = parse_lines(GOOD_LINE, GOOD_LINE)
    assert len(records) == 1
    (diag,) = diags
    assert diag.kind == "duplicate"
    assert "1" in diag.message and diag.line_no == 2
    with pytest.raises(DuplicatePaperError):
        parse_lines(GOOD_LINE, GOOD_LINE, strict=True)


def test_unknown_method_tags_flagged_but_kept():
    obj = json.loads(GOOD_LINE)
    obj["edges"][0]["methods"] = ["GMM-System"]
    records, diags = parse_lines(json.dumps(obj))
    assert len(records) == 1
    assert any(d.kind == "unknown-method" and "GMM-SYSTEM" in d.message
               for d in diags)
    # Unknown tags never grant causality.
    assert not records[0].edges[0].is_causal


def test_year_bounds_are_configurable():
    obj = json.loads(GOOD_LINE)
    obj["year"] = 1950
    records, diags = parse_lines(json.dumps(obj), min_year=1940, max_year=1960)
    assert len(records) == 1 and not diags


def test_round_trip_is_identity():
    lines = []
    for i, methods in enumerate([["IV", "OLS"], ["rct"], []]):
        lines.append(json.dumps({
            "paper_id": f"p{i}", "year": 1999 + i, "fields": ["macro", "trade"],
            "title": f"Title {i}", "pub_tier": "Top5", "citations": i * 7,
            "edges": [{"source_code": "E32", "sink_code": "F44",
                       "source_text": "cycles", "sink_text": "trade flows",
                       "methods": methods, "relationship": "theorized"}],
        }))
    records, diags = parse_corpus(lines)
    assert not [d for d in diags if d.kind == "schema"]
    buf = io.StringIO()
    serialize_corpus(records, buf)
    records2, _ = parse_corpus(buf.getvalue().splitlines())
    assert records == records2
    buf2 = io.StringIO()
    serialize_corpus(records2, buf2)
    assert buf.getvalue() == buf2.getvalue()


def _with_edge(paper_id, **edge):
    obj = json.loads(GOOD_LINE)
    obj["paper_id"] = paper_id
    obj["edges"][0].update(edge)
    return json.dumps(obj)


@pytest.mark.parametrize("edge, kind, fragment", [
    ({"source_code": "banana"}, "schema", "malformed concept code 'BANANA'"),
    ({"relationship": "causes"}, "schema", "unknown relationship 'causes'"),
    ({"methods": ["OLS", 7]}, "schema", "edge methods must be a list of strings"),
    ({"methods": [["OLS"]]}, "schema", "edge methods must be a list of strings"),
    ({"methods": ["GMM-System"]}, "unknown-method", "'GMM-SYSTEM'"),
], ids=["code", "relationship", "non-string-tag", "unhashable-tag", "unknown-tag"])
def test_repeated_problem_gets_a_diagnostic_on_every_line(edge, kind, fragment):
    # Codes and tag lists are decided once per distinct value; a problem
    # must still be reported on each line that has it.
    records, diags = parse_lines(_with_edge("p1", **edge), GOOD_LINE.replace("p1", "p2"),
                                 _with_edge("p3", **edge))
    assert [(d.line_no, d.kind) for d in diags] == [(1, kind), (3, kind)]
    assert all(fragment in d.message for d in diags)
    assert len(records) == (3 if kind == "unknown-method" else 1)


def test_equal_values_parsed_from_different_lines_share_one_object():
    def line(paper_id):
        return json.dumps({
            "paper_id": paper_id, "year": 2001, "fields": ["labor"],
            "pub_tier": "Top5",
            "edges": [{"source_code": "D31", "sink_code": "J62",
                       "methods": ["IV"], "relationship": "direct-causal"},
                      {"source_code": "J62", "sink_code": "D31"}]})

    (a, b), diags = parse_lines(line("p1"), line("p2"))
    assert not diags
    assert a.edges[0].relationship is b.edges[0].relationship is RELATIONSHIPS[0]
    assert a.edges[1].relationship is RELATIONSHIPS[RELATIONSHIPS.index("correlation")]
    assert a.pub_tier is b.pub_tier is PUB_TIERS[0]
    assert a.fields[0] is b.fields[0]


def test_ingest_of_the_landmark_corpus_keeps_its_bytes(tmp_path, landmark_path):
    out = tmp_path / "landmark.jsonl"
    assert cli.main(["ingest", "--corpus", landmark_path, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3a8fa12041834c50f4a8f71686323c23ee2503d55253923dbe74d4abd118d496")


def test_round_trip_of_a_synthetic_corpus_is_byte_identical():
    from synth import random_corpus, records_to_jsonl

    text = records_to_jsonl(random_corpus(3, n_papers=60, year_lo=1990,
                                          year_hi=1995, pool_size=12))
    records, diags = parse_corpus(text.splitlines())
    assert not diags
    buf = io.StringIO()
    serialize_corpus(records, buf)
    assert buf.getvalue() == text
    again, _ = parse_corpus(buf.getvalue().splitlines())
    assert again == records


def test_record_to_dict_omits_defaults():
    rec = PaperRecord("p9", 2005)
    d = record_to_dict(rec)
    assert "title" not in d and "citations" not in d and "pub_tier" not in d


# --- outcome merging ---------------------------------------------------


def _table(name, rows, by_title=None):
    return OutcomeTable(name=name, by_id=rows, by_title=by_title or {})


RANKS = {"aer": "Top5", "qje": "Top5", "jole": "Top6to20", "ej": "Top21to100"}


def _base_records():
    return [
        PaperRecord("a", 2000, title="Paper Alpha"),
        PaperRecord("b", 2001),
        PaperRecord("c", 2002),
    ]


def test_merge_takes_highest_priority_source_per_field():
    primary = _table("prim", {"a": {"journal": "jole", "citations": None}})
    backup = _table("back", {"a": {"journal": "aer", "citations": 44},
                             "b": {"journal": "ej", "citations": 7}})
    merged = merge_outcomes(_base_records(), [primary, backup], RANKS)
    by_id = {r.paper_id: r for r in merged}
    # tier from the first source that has a journal; citations can come
    # from a lower-priority source when the first has none
    assert by_id["a"].pub_tier == "Top6to20"
    assert by_id["a"].citations == 44
    assert by_id["b"].pub_tier == "Top21to100"
    assert by_id["b"].citations == 7
    assert by_id["c"].pub_tier == "Unpublished"
    assert by_id["c"].citations is None


def test_merge_falls_back_to_title_match():
    src = _table("t", {}, by_title={"paper alpha": {"journal": "qje",
                                                    "citations": 3}})
    merged = merge_outcomes(_base_records(), [src], RANKS)
    assert merged[0].pub_tier == "Top5"
    assert merged[0].citations == 3


def test_merge_normalises_each_title_once_and_only_for_title_rows(monkeypatch):
    from claimgraph import ingest
    calls = []
    monkeypatch.setattr(ingest, "normalize_title",
                        lambda title: calls.append(title) or title.casefold())
    records = [*_base_records(), PaperRecord("d", 2003, title="Paper Delta")]
    by_id = _table("ids", {"b": {"journal": "ej", "citations": 1}})
    merge_outcomes(records, [by_id, by_id], RANKS)
    assert calls == []
    by_title = _table("titles", {}, by_title={"paper delta": {"journal": "qje",
                                                             "citations": 3}})
    merged = merge_outcomes(records, [by_id, by_title, by_title], RANKS)
    assert calls == ["Paper Alpha", "Paper Delta"]
    assert merged[3].pub_tier == "Top5" and merged[3].citations == 3


def test_unranked_journal_maps_to_other():
    src = _table("t", {"a": {"journal": "Regional Letters", "citations": 1}})
    merged = merge_outcomes(_base_records(), [src], RANKS)
    assert merged[0].pub_tier == "Other"


def test_merge_is_idempotent():
    sources = [
        _table("prim", {"a": {"journal": "jole", "citations": None}}),
        _table("back", {"a": {"journal": "aer", "citations": 44}}),
    ]
    once = merge_outcomes(_base_records(), sources, RANKS)
    twice = merge_outcomes(once, sources, RANKS)
    assert once == twice


def test_merge_records_provenance():
    src = _table("mysource", {"a": {"journal": "aer", "citations": 2}})
    merged = merge_outcomes(_base_records(), [src], RANKS)
    assert merged[0].outcome_source == "mysource"


def test_journal_tier_handles_missing():
    assert journal_tier(None, RANKS) == "Unpublished"
    assert journal_tier("aer", RANKS) == "Top5"
    assert journal_tier("obscure quarterly", RANKS) == "Other"


def test_load_tables_from_disk(tmp_path):
    outcomes = tmp_path / "out.csv"
    outcomes.write_text(textwrap.dedent("""\
        paper_id,title,journal,citations
        a,Paper Alpha,aer,12
        b,,jole,
        """))
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("journal,tier\naer,Top5\njole,Top6to20\n")
    table = load_outcome_table(str(outcomes))
    rank_map = load_rank_table(str(ranks))
    merged = merge_outcomes(_base_records(), [table], rank_map)
    by_id = {r.paper_id: r for r in merged}
    assert by_id["a"].pub_tier == "Top5" and by_id["a"].citations == 12
    assert by_id["b"].pub_tier == "Top6to20" and by_id["b"].citations is None


def test_load_rank_table_rejects_bad_tier(tmp_path):
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("journal,tier\naer,Top1\n")
    with pytest.raises(SchemaError):
        load_rank_table(str(ranks))
