"""The CSV layer: `csv` formats every cell `write_rows` writes, and
`read_table`, the one reader of header CSV files, reads back every row,
whatever its cells hold."""

import ast
import io
import os

import numpy as np
import pytest

import claimgraph
from conftest import read_csv_dicts
from synth import random_corpus
from claimgraph.errors import SchemaError
from claimgraph.ingest import load_outcome_table, load_rank_table
from claimgraph.pipeline import (PipelineConfig, compute_measure_table,
                                 default_battery)
from claimgraph.regression import load_spec_file, run_regressions
from claimgraph.tableio import format_cell, read_table, write_csv, write_rows
from claimgraph.trends import GROUPINGS, aggregate_trends

CELLS = [None, 0.1, 1 / 3, 1e-300, -0.0, float("nan"), float("inf"),
         np.float64(0.1), np.int64(3), 7, "a,b", 'q"x', "n\ny", "#h"]


def test_write_rows_bytes_are_pinned():
    fh = io.StringIO()
    write_rows(fh, [f"c{i}" for i in range(len(CELLS))], [CELLS, CELLS[::-1]])
    assert fh.getvalue() == (
        "c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12,c13\n"
        ',0.1,0.3333333333333333,1e-300,-0.0,nan,inf,0.1,3,7,"a,b","q""x","n\ny",#h\n'
        '#h,"n\ny","q""x","a,b",7,3,0.1,inf,nan,-0.0,1e-300,0.3333333333333333,0.1,\n')


def test_format_cell_is_the_cell_write_rows_writes():
    fh = io.StringIO()
    write_rows(fh, ["c"], [[cell] for cell in CELLS[:10]])
    assert fh.getvalue().splitlines()[1:] == [format_cell(cell) or '""'
                                              for cell in CELLS[:10]]


def test_tables_hold_only_cells_csv_writes_as_before():
    # `csv` writes a bool as True; no table may hold one.
    records = random_corpus(5, n_papers=40, year_lo=2000, year_hi=2003,
                            pool_size=10, max_claims=5)
    table = compute_measure_table(records, PipelineConfig())
    regressions = run_regressions(table, default_battery())
    trends = [row for group_by in GROUPINGS
              for row in aggregate_trends(records, group_by)]
    cells = [*(cell for column in table.values() for cell in column),
             *(cell for row in regressions for cell in row.values()),
             *(cell for row in trends for cell in row)]
    assert {type(cell) for cell in cells} <= {type(None), int, float, str}
    assert {type(None), int, float, str} <= {type(cell) for cell in cells}


def _read(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    return read_csv_dicts(str(path))


def test_only_blank_and_comment_lines_before_the_header_are_skipped(tmp_path):
    rows = _read(tmp_path, "\n# about\n\r\n#more\na,b\n#x,1\n\ny,2\n")
    assert rows == [{"a": "#x", "b": "1"}, {"a": "y", "b": "2"}]


def test_a_short_row_reads_its_missing_cells_as_empty(tmp_path):
    assert _read(tmp_path, "a,b,c\np0\np1,1\n") == [
        {"a": "p0", "b": "", "c": ""}, {"a": "p1", "b": "1", "c": ""}]


def test_a_row_longer_than_the_header_is_an_error(tmp_path):
    with pytest.raises(SchemaError) as err:
        _read(tmp_path, "a,b\np0,1\np1,2,3\n")
    assert str(err.value) == f"{tmp_path / 't.csv'}: row 'p1' has more cells than the header"


def test_an_empty_file_has_no_rows(tmp_path):
    assert _read(tmp_path, "") == []
    assert _read(tmp_path, "# only a comment\n\n") == []


def test_a_table_without_rows_has_its_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# about\na,b\n\n")
    assert read_table(str(path)) == (["a", "b"], [])


def test_each_row_carries_the_file_line_it_ends_on(tmp_path):
    # A blank line after the header, and a quoted cell over two lines.
    path = tmp_path / "t.csv"
    path.write_text('\n# about\na,b\n\np0,1\n"x\ny",2\np2,3\n')
    assert read_table(str(path))[1] == [
        (5, {"a": "p0", "b": "1"}), (7, {"a": "x\ny", "b": "2"}),
        (8, {"a": "p2", "b": "3"})]


# `str.splitlines` breaks lines at \x1c, \x85 and \u2028 too; `csv` does not.
ODD_CELLS = ["", "#p1", "x\n#y", "a\r\nb", "\n", '"', ",", "#", "a\x1cb",
             "a\x85b", "a\u2028b", " ", "\r\n#c"]


def test_read_csv_dicts_reads_back_every_row_write_csv_writes(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [[cell, "1"] for cell in ODD_CELLS] + [["1", cell] for cell in ODD_CELLS]
    write_csv(path, ["a", "b"], rows, comment="a comment")
    assert [[row["a"], row["b"]] for row in read_csv_dicts(path)] == rows


def test_only_tableio_imports_csv():
    package = os.path.dirname(claimgraph.__file__)
    importers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0]
        if any(module.split(".")[0] == "csv" for module in modules):
            importers.append(name)
    assert importers == ["tableio.py"]


# Each loader reads through `read_table`: its messages give the line a row
# ends on, and no row breaks it with a traceback.
LOADERS = {"outcome": load_outcome_table, "rank": load_rank_table,
           "spec": load_spec_file}


@pytest.mark.parametrize("loader, text, message", [
    ("outcome", "paper_id,journal,citations\n\np1,AER,x\n",
     "line 3: {path}: bad citations 'x'"),
    ("outcome", 'paper_id,title,journal,citations\n,"A\nB",AER,1\np1,,AER,-1\n',
     "line 4: {path}: negative citations"),
    ("rank", "journal,tier\n\naer,Top5\nqje,Top1\n",
     "line 4: {path}: unknown tier 'Top1'"),
    ("rank", 'journal,tier\n"Journal of\nFinance",Top6to20\nqje,Top1\n',
     "line 4: {path}: unknown tier 'Top1'"),
    ("spec", "outcome,measure,view,fe,cluster\n\nTop5,longest_path,,2,none\n",
     "line 3: {path}: bad fe flag '2'"),
    ("spec", "outcome,measure,view,fe,cluster\nTop5,longest_path\n",
     "line 2: {path}: bad fe flag ''"),
    ("outcome", "paper_id,journal,citations\np1,AER,3,extra\n",
     "{path}: row 'p1' has more cells than the header"),
], ids=["outcome-blank-line", "outcome-quoted-newline", "rank-blank-line",
        "rank-quoted-newline", "spec-blank-line", "spec-short-row",
        "outcome-long-row"])
def test_loaders_name_the_true_line_of_a_bad_row(tmp_path, loader, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        LOADERS[loader](str(path))
    assert str(err.value) == message.format(path=path)


def test_comment_lines_before_an_outcome_tables_header_are_skipped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# exported from a citation index\n\npaper_id,journal,citations\n"
                    "p1,AER,3\n")
    table = load_outcome_table(str(path))
    assert table.by_id == {"p1": {"journal": "AER", "citations": 3}}
