"""Command-line interface.

Every subcommand reads plain files and writes CSV (stdout by default), so
runs can be scripted and diffed. `claimgraph run` drives the full pipeline
from a key=value config file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields as dataclass_fields

from . import centrality as centrality_mod
from . import cooccurrence as cooccur_mod
from . import novelty as novelty_mod
from .embedding import (
    fetch_remote_embeddings,
    load_embedding_table,
    match_concept,
    match_concept_all,
)
from .errors import ClaimGraphError, SchemaError
from .graphs import ComplexityMeasures, build_graph, complexity_measures
from .ingest import (
    load_outcome_table,
    load_rank_table,
    merge_outcomes,
    parse_corpus_file,
    serialize_corpus,
)
from .pipeline import (
    CENTRALITY_COLUMNS,
    CENTRALITY_STATS,
    COMPLEXITY_COLUMNS,
    NOVELTY_MEASURES,
    REGRESSION_COLUMNS,
    TREND_COLUMNS,
    add_zscores,
    parse_config_file,
    run_pipeline,
    run_regressions,
)
from .regression import load_spec_file
from .tableio import parse_float, parse_int, read_csv_dicts, write_rows
from .trends import GROUPINGS, aggregate_trends

CLI_VIEWS = ("full", "causal", "non-causal")


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load_corpus(args) -> list:
    records, diagnostics = parse_corpus_file(args.corpus, strict=args.strict)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    return records


def _load_graphs(args) -> tuple[list, str, list]:
    """The corpus, the --view it is scored in, and one graph per paper."""
    records = _load_corpus(args)
    view = "noncausal" if args.view == "non-causal" else args.view
    return records, view, [build_graph(r, view) for r in records]


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="line-delimited corpus file")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first malformed line")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def cmd_run(args) -> int:
    config = parse_config_file(args.config)
    run = run_pipeline(config, args.out)
    for diag in run.diagnostics:
        print(diag, file=sys.stderr)
    print(f"wrote {run.n_records} papers to {run.out_dir}", file=sys.stderr)
    return 0


def cmd_ingest(args) -> int:
    records = _load_corpus(args)
    if args.outcomes:
        sources = [load_outcome_table(p, name=os.path.basename(p))
                   for p in args.outcomes.split(",")]
        ranks = load_rank_table(args.ranks) if args.ranks else {}
        records = merge_outcomes(records, sources, ranks,
                                 default_tier=args.default_tier)
    with _open_out(args.out) as fh:
        serialize_corpus(records, fh)
    return 0


def cmd_measures(args) -> int:
    records = _load_corpus(args)
    # ComplexityMeasures lists its fields in the order of the header.
    names = [f.name for f in dataclass_fields(ComplexityMeasures)]
    rows = []
    for record in records:
        cm = complexity_measures(record, path_cap=args.path_cap)
        rows.append([getattr(cm, name) for name in names])
    with _open_out(args.out) as fh:
        write_rows(fh, ["paper_id", "year", *COMPLEXITY_COLUMNS], rows)
    return 0


def cmd_novelty(args) -> int:
    records, _, graphs = _load_graphs(args)
    ledger = (novelty_mod.load_ledger_file(args.ledger_in) if args.ledger_in
              else novelty_mod.LedgerState())
    # A flag left out takes the ledger's value; a flag given must match it.
    for key in ("path_len", "subgraph_size"):
        given = getattr(args, key)
        if given is None:
            continue
        if key == "subgraph_size" and given not in novelty_mod.SUBGRAPH_SIZES:
            raise SchemaError(f"--subgraph-size must be 2..4, got {given}")
        if args.ledger_in and given != getattr(ledger, key):
            raise SchemaError(
                f"--{key.replace('_', '-')} {given} does not match "
                f"{key}={getattr(ledger, key)} in {args.ledger_in}")
        setattr(ledger, key, given)
    scores, ledger = novelty_mod.score_corpus(graphs, ledger=ledger)
    if args.ledger_out:
        novelty_mod.save_ledger_file(ledger, args.ledger_out)
    header = ["paper_id", "year", *NOVELTY_MEASURES]
    rows = ([getattr(scores[r.paper_id], col) for col in header] for r in records)
    with _open_out(args.out) as fh:
        write_rows(fh, header, rows)
    return 0


def cmd_gaps(args) -> int:
    records, _, graphs = _load_graphs(args)
    table = (cooccur_mod.load_pair_table_file(args.table_in)
             if args.table_in else None)
    scores, table = cooccur_mod.score_corpus(graphs, tau=args.tau, table=table)
    if args.table_out:
        cooccur_mod.save_pair_table_file(table, args.table_out)
    rows = ([r.paper_id, r.year, scores[r.paper_id]] for r in records)
    with _open_out(args.out) as fh:
        write_rows(fh, ["paper_id", "year", "gap_prop"], rows)
    return 0


def cmd_centrality(args) -> int:
    records, view, graphs = _load_graphs(args)
    stats = centrality_mod.score_corpus(graphs, view=view, damping=args.damping)
    by_id = {s.paper_id: s for s in stats}
    rows = [{"paper_id": r.paper_id, "year": r.year, "view": args.view,
             **{stat: getattr(by_id[r.paper_id], stat) for stat in CENTRALITY_STATS}}
            for r in records]
    add_zscores(rows, CENTRALITY_STATS)
    with _open_out(args.out) as fh:
        write_rows(fh, CENTRALITY_COLUMNS,
                   ([row[col] for col in CENTRALITY_COLUMNS] for row in rows))
    return 0


def cmd_node_series(args) -> int:
    _, _, graphs = _load_graphs(args)
    try:
        series = centrality_mod.node_centrality_series(graphs, args.code)
    except ValueError as exc:  # a code the corpus never uses
        raise SchemaError(str(exc)) from None
    with _open_out(args.out) as fh:
        write_rows(fh, ["year", "eigen_centrality", "eigen_centrality_minmax"],
                   series)
    return 0


def cmd_regress(args) -> int:
    rows: list[dict] = []
    entries = read_csv_dicts(args.measures)
    if entries and "year" not in entries[0]:
        raise SchemaError(f"{args.measures}: missing column 'year'")
    for entry in entries:
        row: dict = {"paper_id": entry.get("paper_id", ""),
                     "pub_tier": entry.get("pub_tier") or None,
                     "outcome_source": entry.get("outcome_source") or None}
        try:
            row["year"] = parse_int(entry.get("year", ""))
            if row["year"] is None:
                raise ValueError("missing year")
            row["citations"] = parse_int(entry.get("citations", ""))
            for key, value in entry.items():
                if key not in row:
                    row[key] = parse_float(value)
        except ValueError as exc:
            raise SchemaError(
                f"{args.measures}: paper {row['paper_id']!r}: {exc}") from None
        rows.append(row)
    specs = load_spec_file(args.specs)
    results = run_regressions(rows, specs, keep_errors=False)
    header = REGRESSION_COLUMNS[:-1]  # no error column: errors abort
    with _open_out(args.out) as fh:
        write_rows(fh, header, ([r[c] for c in header] for r in results))
    return 0


def cmd_trends(args) -> int:
    records = _load_corpus(args)
    rows = aggregate_trends(records, group_by=args.group_by)
    with _open_out(args.out) as fh:
        write_rows(fh, TREND_COLUMNS,
                   ([getattr(t, c) for c in TREND_COLUMNS] for t in rows))
    return 0


def cmd_match(args) -> int:
    index = load_embedding_table(args.index)
    queries: list[tuple[str, list[float]]] = []
    if args.remote_texts:
        with open(args.queries, encoding="utf-8") as fh:
            texts = [line.rstrip("\n") for line in fh if line.strip()]
        vectors = fetch_remote_embeddings(texts)
        queries = [(f"q{i}", vec) for i, vec in enumerate(vectors, start=1)]
    else:
        table = load_embedding_table(args.queries)
        queries = list(zip(table.ids, table.vectors))
    rows = []
    for query_id, vec in queries:
        if args.threshold is not None:
            for rank, m in enumerate(
                    match_concept_all(vec, index, args.threshold, query_id),
                    start=1):
                rows.append([m.query_id, m.code, m.score, rank])
        else:
            m = match_concept(vec, index, query_id)
            rows.append([m.query_id, m.code, m.score, 1])
    with _open_out(args.out) as fh:
        write_rows(fh, ["query_id", "code", "similarity", "rank"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimgraph",
        description="Knowledge-graph measures for claim corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ingest", help="parse, merge outcomes, re-serialize")
    _add_corpus_args(p)
    p.add_argument("--outcomes", default="",
                   help="comma-separated outcome tables, highest priority first")
    p.add_argument("--ranks", default="", help="journal rank table")
    p.add_argument("--default-tier", default="Unpublished",
                   choices=["Unpublished", "Unknown"])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("measures", help="per-paper structural measures")
    _add_corpus_args(p)
    p.add_argument("--path-cap", type=int, default=1_000_000)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("novelty", help="novelty against the year frontier")
    _add_corpus_args(p)
    p.add_argument("--view", default="full", choices=["full", "causal"])
    p.add_argument("--path-len", type=int, help="default: the ledger's, "
                   f"else {novelty_mod.DEFAULT_PATH_LEN}")
    p.add_argument("--subgraph-size", type=int, help="default: the ledger's, "
                   f"else {novelty_mod.DEFAULT_SUBGRAPH_SIZE}")
    p.add_argument("--ledger-in", default="", help="resume from a saved ledger")
    p.add_argument("--ledger-out", default="", help="save the final ledger")
    p.set_defaults(func=cmd_novelty)

    p = sub.add_parser("gaps", help="gap-filling against pair counts")
    _add_corpus_args(p)
    p.add_argument("--view", default="full", choices=["full", "causal"])
    p.add_argument("--tau", type=int, default=cooccur_mod.DEFAULT_TAU)
    p.add_argument("--table-in", default="", help="resume from a saved pair table")
    p.add_argument("--table-out", default="", help="save the final pair table")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("centrality", help="prior-year centrality statistics")
    _add_corpus_args(p)
    p.add_argument("--view", default="non-causal", choices=list(CLI_VIEWS))
    p.add_argument("--damping", type=float,
                   default=centrality_mod.DEFAULT_DAMPING)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("node-series",
                       help="yearly eigenvector centrality of one code")
    _add_corpus_args(p)
    p.add_argument("--code", required=True)
    p.add_argument("--view", default="full", choices=list(CLI_VIEWS))
    p.set_defaults(func=cmd_node_series)

    p = sub.add_parser("regress", help="fit regression specs on a measures table")
    p.add_argument("--measures", required=True, help="measures.csv from a run")
    p.add_argument("--specs", required=True,
                   help="CSV of outcome,measure,view,fe,cluster")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("trends", help="grouped causal-share and method trends")
    _add_corpus_args(p)
    p.add_argument("--group-by", default="year", choices=list(GROUPINGS))
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("match", help="match query vectors to concept codes")
    p.add_argument("--index", required=True, help="id,v1,...,vD table")
    p.add_argument("--queries", required=True,
                   help="query vector table, or text lines with --remote-texts")
    p.add_argument("--threshold", type=float, default=None,
                   help="return every match scoring at least this")
    p.add_argument("--remote-texts", action="store_true",
                   help="embed query text lines via the configured provider")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_match)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClaimGraphError, OSError) as exc:
        print(f"claimgraph: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
