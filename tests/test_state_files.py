"""State files (the novelty ledger and the gap pair table) on disk.

Resuming from a saved state must give what one pass over the whole corpus
gives, and the loaders must accept and reject exactly what the line-by-line
loaders below do.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from synth import random_corpus
from claimgraph import cooccurrence, novelty
from claimgraph.errors import SchemaError, check_range
from claimgraph.graphs import build_graph

# --- split and resume equals one pass --------------------------------------

YEAR_LO, YEAR_HI = 1990, 1996


def _graphs(seed, view):
    records = random_corpus(seed, n_papers=40, year_lo=YEAR_LO, year_hi=YEAR_HI,
                            pool_size=12, max_claims=5)
    return [build_graph(r, view) for r in records]


def _split_and_resume(seed, split, view, module, save, load):
    """One-shot scores and saved bytes, and the same from a run that saves
    its state after the years before `split` and resumes from the file."""
    graphs = _graphs(seed, view)
    with tempfile.TemporaryDirectory() as tmp:
        one_shot, one_state = module.score_corpus(graphs)
        save(one_state, os.path.join(tmp, "one.txt"))
        scores, state = module.score_corpus([g for g in graphs if g.year < split])
        save(state, os.path.join(tmp, "early.txt"))
        late, state = module.score_corpus(
            [g for g in graphs if g.year >= split],
            **{"ledger" if module is novelty else "table":
               load(os.path.join(tmp, "early.txt"))})
        save(state, os.path.join(tmp, "resumed.txt"))
        with open(os.path.join(tmp, "one.txt"), "rb") as a, \
                open(os.path.join(tmp, "resumed.txt"), "rb") as b:
            return one_shot, {**scores, **late}, a.read(), b.read()


SPLITS = dict(seed=st.integers(0, 10_000),
              split=st.integers(YEAR_LO, YEAR_HI + 1),
              view=st.sampled_from(["full", "causal"]))


@settings(max_examples=25, deadline=None)
@given(**SPLITS)
def test_novelty_resumed_from_a_ledger_file_equals_one_pass(seed, split, view):
    one_shot, resumed, one_bytes, resumed_bytes = _split_and_resume(
        seed, split, view, novelty, novelty.save_ledger_file,
        novelty.load_ledger_file)
    assert resumed == one_shot
    assert resumed_bytes == one_bytes


@settings(max_examples=25, deadline=None)
@given(**SPLITS)
def test_gaps_resumed_from_a_pair_table_file_equals_one_pass(seed, split, view):
    one_shot, resumed, one_bytes, resumed_bytes = _split_and_resume(
        seed, split, view, cooccurrence, cooccurrence.save_pair_table_file,
        cooccurrence.load_pair_table_file)
    assert resumed == one_shot
    assert resumed_bytes == one_bytes


# --- the loaders against line-by-line references ---------------------------


def reference_load_ledger(fh):
    lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != novelty.LEDGER_MAGIC:
        raise ValueError("not a frontier ledger file")
    ledger = novelty.LedgerState()
    section = None
    buckets = {"edges": ledger.seen_edges, "paths": ledger.seen_paths,
               "signatures": ledger.seen_signatures}
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in buckets:
                raise ValueError(f"unknown ledger section {section!r}")
            continue
        if section is None:
            key, _, value = line.partition("=")
            if key == "year":
                ledger.current_year = int(value) if value else None
            elif key in novelty.LEDGER_RANGES:
                setattr(ledger, key, int(value))
                check_range(key, getattr(ledger, key), novelty.LEDGER_RANGES[key])
            else:
                raise ValueError(f"unknown ledger header {key!r}")
        else:
            buckets[section].add(line)
    if ledger.current_year is None and any(buckets.values()):
        raise ValueError("ledger has entries but no year")
    return ledger


def reference_load_pair_table(fh):
    lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != cooccurrence.TABLE_MAGIC:
        raise ValueError("not a pair-count table file")
    if len(lines) < 3 or not lines[1].startswith("through_year="):
        raise ValueError("pair-count table missing header")
    value = lines[1].partition("=")[2]
    table = cooccurrence.PairCountTable(through_year=int(value) if value else None)
    if lines[2] != "code1,code2,count":
        raise ValueError("pair-count table missing column header")
    rows = [line for line in lines[3:] if line]
    if rows and table.through_year is None:
        raise ValueError("pair-count table has counts but no through_year")
    for line in rows:
        a, b, raw = line.split(",")
        if b < a:
            raise ValueError(f"pair {a},{b} not sorted")
        table.counts[(a, b)] = int(raw)
    # Count errors are looked for once every row parses.
    seen = set()
    for line in rows:
        a, b, raw = line.split(",")
        if (a, b) in seen:
            raise ValueError(f"repeated pair in row {line!r}")
        if int(raw) < 0:
            raise ValueError(f"negative count in row {line!r}")
        seen.add((a, b))
    return table


def _outcome(load, path):
    """What loading `path` gives: the state, or the error's type and text."""
    try:
        return load(path)
    except (ValueError, SchemaError) as exc:
        return type(exc), str(exc)


def _reference_file(load):
    def load_file(path):
        with open(path, encoding="utf-8") as fh:
            try:
                return load(fh)
            except (ValueError, SchemaError) as exc:
                raise SchemaError(f"{path}: {exc}") from None
    return load_file


def _same_outcome(text, load, reference, newline="\n"):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.txt")
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
        got = _outcome(load, path)
        assert got == _outcome(_reference_file(reference), path), text
        return got


LEDGER = (f"{novelty.LEDGER_MAGIC}\nyear=1999\npath_len=3\nsubgraph_size=3\n"
          "[edges]\nA1->B2\nB2->C3\n[paths]\nA1->B2->C3\n[signatures]\n3:000001010\n")
LEDGER_CASES = {
    "saved": LEDGER,
    "no-final-newline": LEDGER.rstrip("\n"),
    "blank-lines": LEDGER.replace("\n", "\n\n").replace("[paths]", "\n[paths]\n"),
    "repeated-section": LEDGER + "[edges]\nC3->D4\n[paths]\n",
    "empty-sections": f"{novelty.LEDGER_MAGIC}\nyear=\n[edges]\n[paths]\n[signatures]\n",
    "only-magic": novelty.LEDGER_MAGIC,
    "items-with-=-and-[": LEDGER + "[paths]\nyear=2000\n[x\nx]\n[x]y\n[ x\n=\n",
    "header-after-section": LEDGER + "colour=blue\n",
    "empty-section-name": LEDGER + "[]\n",
    "section-before-header": f"{novelty.LEDGER_MAGIC}\n[edges]\nA1->B2\n",
    "missing-magic": LEDGER.split("\n", 1)[1],
    "empty": "",
    "unknown-header": f"{novelty.LEDGER_MAGIC}\nyear=2000\ncolour=blue\n",
    "bad-path-len": f"{novelty.LEDGER_MAGIC}\nyear=2000\npath_len=three\n",
    "unknown-section": f"{novelty.LEDGER_MAGIC}\nyear=2000\n[motifs]\n",
    "other-magic": "#claimgraph-paths v1\n",
    "path-len-out-of-range": f"{novelty.LEDGER_MAGIC}\npath_len=0\n[edges]\nA1->B2\n",
    "subgraph-size-out-of-range": f"{novelty.LEDGER_MAGIC}\nsubgraph_size=5\n",
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_ledger_loader_matches_line_loop(name, newline):
    got = _same_outcome(LEDGER_CASES[name], novelty.load_ledger_file,
                        reference_load_ledger, newline)
    assert isinstance(got, novelty.LedgerState) == (
        name not in {"missing-magic", "empty", "unknown-header", "bad-path-len",
                     "unknown-section", "other-magic", "empty-section-name",
                     "path-len-out-of-range", "subgraph-size-out-of-range",
                     "section-before-header"})


TABLE = (f"{cooccurrence.TABLE_MAGIC}\nthrough_year=1999\ncode1,code2,count\n"
         "A1,B2,3\nA1,C3,1\nB2,C3,12\n")
TABLE_CASES = {
    "saved": TABLE,
    "no-final-newline": TABLE.rstrip("\n"),
    "blank-lines": TABLE.replace("A1,C3", "\nA1,C3") + "\n\n",
    "empty-year": f"{cooccurrence.TABLE_MAGIC}\nthrough_year=\ncode1,code2,count\n",
    "repeated-pair": TABLE + "A1,B2,5\n",
    "negative-count": TABLE + "A1,D4,-3\n",
    "counts-without-year": (f"{cooccurrence.TABLE_MAGIC}\nthrough_year=\n"
                            "code1,code2,count\nA1,B2,3\n"),
    "items-with-=-and-[": TABLE + "A=1,B[2,4\n",
    "only-magic": f"{cooccurrence.TABLE_MAGIC}\n",
    "no-column-header": f"{cooccurrence.TABLE_MAGIC}\nthrough_year=2000\n",
    "blank-column-header": f"{cooccurrence.TABLE_MAGIC}\nthrough_year=2000\n\ncode1\n",
    "missing-magic": TABLE.split("\n", 1)[1],
    "empty": "",
    "short-row": TABLE + "A1,B2\n",
    "long-row": TABLE + "A1,B2,1,2\n",
    "bad-count": TABLE + "A1,B2,many\n",
    "bad-year": f"{cooccurrence.TABLE_MAGIC}\nthrough_year=soon\ncode1,code2,count\n",
    "unsorted-pair": TABLE + "B2,A1,1\n",
    "unsorted-then-bad-count": TABLE + "B2,A1,1\nA1,B2,many\n",
    "bad-count-then-unsorted": TABLE + "A1,B2,many\nB2,A1,1\n",
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_pair_table_loader_matches_line_loop(name, newline):
    got = _same_outcome(TABLE_CASES[name], cooccurrence.load_pair_table_file,
                        reference_load_pair_table, newline)
    assert isinstance(got, cooccurrence.PairCountTable) == (
        name in {"saved", "no-final-newline", "blank-lines", "empty-year",
                 "items-with-=-and-["})


# Lines either loader treats specially, mixed at random.
LEDGER_LINES = [novelty.LEDGER_MAGIC, "", "year=2000", "year=", "path_len=2",
                "subgraph_size=4", "colour=blue", "[edges]", "[paths]",
                "[signatures]", "[motifs]", "[]", "A1->B2", "[x", "x]", "a=b", " "]
TABLE_LINES = [cooccurrence.TABLE_MAGIC, "", "through_year=2000", "through_year=",
               "code1,code2,count", "A1,B2,1", "B2,C3,7", "B2,A1,1", "A1,B2",
               "A1,B2,x", "A1,C3,-2", "[edges]", "a=b,c,1"]


@settings(max_examples=200, deadline=None)
@given(head=st.sampled_from([[], [novelty.LEDGER_MAGIC]]),
       lines=st.lists(st.sampled_from(LEDGER_LINES), max_size=12),
       end=st.sampled_from(["\n", ""]))
def test_ledger_loader_matches_line_loop_on_mixed_lines(head, lines, end):
    _same_outcome("\n".join(head + lines) + end, novelty.load_ledger_file,
                  reference_load_ledger)


@settings(max_examples=200, deadline=None)
@given(head=st.sampled_from([[], TABLE.split("\n")[:3]]),
       lines=st.lists(st.sampled_from(TABLE_LINES), max_size=10),
       end=st.sampled_from(["\n", ""]))
def test_pair_table_loader_matches_line_loop_on_mixed_lines(head, lines, end):
    _same_outcome("\n".join(head + lines) + end, cooccurrence.load_pair_table_file,
                  reference_load_pair_table)
