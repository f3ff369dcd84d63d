"""Command-line interface.

Every subcommand reads plain files and writes CSV (stdout by default), so
runs can be scripted and diffed. `claimgraph run` drives the full pipeline
from a key=value config file. A table command returns its computed
(header, rows) for `main` to write, so a failed command leaves no `--out`.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from itertools import repeat

from . import centrality as centrality_mod
from . import cooccurrence as cooccur_mod
from . import novelty as novelty_mod
from .embedding import load_embedding_table, match_table
from .errors import ClaimGraphError, SchemaError, check_range
from .graphs import DEFAULT_PATH_CAP, build_graph
from .ingest import (
    merge_outcome_files,
    parse_corpus_file,
    serialize_corpus,
    split_paths,
)
from .model import normalize_code
from .pipeline import (
    CENTRALITY_COLUMNS,
    CENTRALITY_STATS,
    COMPLEXITY_COLUMNS,
    GAP_VIEWS,
    NOVELTY_MEASURES,
    NOVELTY_VIEWS,
    REGRESSION_COLUMNS,
    TREND_COLUMNS,
    complexity_table,
    parse_config_file,
    run_pipeline,
)
from .regression import load_spec_file, run_regressions
from .tableio import parse_float, parse_int, read_table, write_rows
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


def _load_graphs(args) -> tuple[list, list]:
    """The corpus and one graph per paper in its --view."""
    records = _load_corpus(args)
    view = "noncausal" if args.view == "non-causal" else args.view
    return records, [build_graph(r, view) for r in records]


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="line-delimited corpus file")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first malformed line")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def cmd_run(args) -> None:
    config = parse_config_file(args.config)
    run = run_pipeline(config, args.out)
    for diag in run.diagnostics:
        print(diag, file=sys.stderr)
    print(f"wrote {run.n_records} papers to {run.out_dir}", file=sys.stderr)


def cmd_ingest(args) -> None:
    records = _load_corpus(args)
    outcomes = split_paths(args.outcomes)
    if outcomes:
        records = merge_outcome_files(records, outcomes, args.ranks,
                                      args.default_tier)
    with _open_out(args.out) as fh:
        serialize_corpus(records, fh)


def cmd_measures(args):
    check_range("--path-cap", args.path_cap, (1, None))
    table = complexity_table(_load_corpus(args), args.path_cap)
    header = ["paper_id", "year", *COMPLEXITY_COLUMNS]
    return header, zip(*(table[c] for c in header))


def cmd_novelty(args):
    records, graphs = _load_graphs(args)
    ledger = (novelty_mod.load_ledger_file(args.ledger_in) if args.ledger_in
              else novelty_mod.LedgerState())
    # A flag left out takes the ledger's value; a flag given must match it.
    for key, bounds in novelty_mod.LEDGER_RANGES.items():
        given = getattr(args, key)
        if given is None:
            continue
        flag = f"--{key.replace('_', '-')}"
        check_range(flag, given, bounds)
        if args.ledger_in and given != getattr(ledger, key):
            raise SchemaError(
                f"{flag} {given} does not match "
                f"{key}={getattr(ledger, key)} in {args.ledger_in}")
        setattr(ledger, key, given)
    scores, ledger = novelty_mod.score_corpus(graphs, ledger=ledger)
    if args.ledger_out:
        novelty_mod.save_ledger_file(ledger, args.ledger_out)
    return (["paper_id", "year", *NOVELTY_MEASURES],
            (scores[r.paper_id] for r in records))


def cmd_gaps(args):
    check_range("--tau", args.tau, (1, None))
    records, graphs = _load_graphs(args)
    table = (cooccur_mod.load_pair_table_file(args.table_in)
             if args.table_in else None)
    scores, table = cooccur_mod.score_corpus(graphs, tau=args.tau, table=table)
    if args.table_out:
        cooccur_mod.save_pair_table_file(table, args.table_out)
    return (["paper_id", "year", "gap_prop"],
            ([r.paper_id, r.year, scores[r.paper_id]] for r in records))


def cmd_centrality(args):
    centrality_mod.check_damping("--damping", args.damping)
    records, graphs = _load_graphs(args)
    stats = centrality_mod.score_corpus(graphs, damping=args.damping)
    columns = [[getattr(stats[r.paper_id], stat) for r in records]
               for stat in CENTRALITY_STATS]
    # The row names the view as the flag spells it.
    return (CENTRALITY_COLUMNS,
            zip([r.paper_id for r in records], [r.year for r in records],
                repeat(args.view), *columns,
                *map(centrality_mod.standardize, columns)))


def cmd_node_series(args):
    _, graphs = _load_graphs(args)
    try:
        series = centrality_mod.node_centrality_series(
            graphs, normalize_code(args.code))
    except ValueError as exc:  # a malformed code, or one the corpus never uses
        raise SchemaError(str(exc)) from None
    return ["year", "eigen_centrality", "eigen_centrality_minmax"], series


def _required_year(cell: str) -> int:
    year = parse_int(cell)
    if year is None:
        raise ValueError("missing year")
    return year


# Cell parsers by column of a measures table; other columns hold floats.
_REGRESS_PARSERS = {"paper_id": str, "year": _required_year,
                    "pub_tier": lambda cell: cell or None,
                    "citations": parse_int,
                    "outcome_source": lambda cell: cell or None}


def cmd_regress(args):
    header, rows = read_table(args.measures)
    if header and "year" not in header:
        raise SchemaError(f"{args.measures}: missing column 'year'")
    # Rows are parsed in file order and each in column order, so the error
    # names the first bad paper, and its year before its other cells.
    table: dict[str, list] = {column: [] for column in (*_REGRESS_PARSERS, *header)}
    for _, row in rows:
        try:
            for column, values in table.items():
                parse = _REGRESS_PARSERS.get(column, parse_float)
                values.append(parse(row.get(column, "")))
                if isinstance(values[-1], float) and not math.isfinite(values[-1]):
                    raise ValueError(f"column {column!r} holds {values[-1]}, "
                                     "not a finite number")
        except ValueError as exc:
            raise SchemaError(f"{args.measures}: paper "
                              f"{row.get('paper_id', '')!r}: {exc}") from None
    specs = load_spec_file(args.specs)
    results = run_regressions(table, specs, keep_errors=False)
    header = REGRESSION_COLUMNS[:-1]  # no error column: errors abort
    return header, ([r[c] for c in header] for r in results)


def cmd_trends(args):
    return TREND_COLUMNS, aggregate_trends(_load_corpus(args),
                                           group_by=args.group_by)


def cmd_match(args):
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise SchemaError(f"--threshold must be finite, got {args.threshold}")
    index = load_embedding_table(args.index)
    table = load_embedding_table(args.queries)
    return (["query_id", "code", "similarity", "rank"],
            [[m.query_id, m.code, m.score, rank]
             for matches in match_table(table, index, args.threshold)
             for rank, m in enumerate(matches, start=1)])


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
    p.add_argument("--path-cap", type=int, default=DEFAULT_PATH_CAP)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("novelty", help="novelty against the year frontier")
    _add_corpus_args(p)
    p.add_argument("--view", default="full", choices=NOVELTY_VIEWS)
    p.add_argument("--path-len", type=int, help="default: the ledger's, "
                   f"else {novelty_mod.DEFAULT_PATH_LEN}")
    p.add_argument("--subgraph-size", type=int, help="default: the ledger's, "
                   f"else {novelty_mod.DEFAULT_SUBGRAPH_SIZE}")
    p.add_argument("--ledger-in", default="", help="resume from a saved ledger")
    p.add_argument("--ledger-out", default="", help="save the final ledger")
    p.set_defaults(func=cmd_novelty)

    p = sub.add_parser("gaps", help="gap-filling against pair counts")
    _add_corpus_args(p)
    p.add_argument("--view", default="full", choices=GAP_VIEWS)
    p.add_argument("--tau", type=int, default=cooccur_mod.DEFAULT_TAU)
    p.add_argument("--table-in", default="", help="resume from a saved pair table")
    p.add_argument("--table-out", default="", help="save the final pair table")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("centrality", help="prior-year centrality statistics")
    _add_corpus_args(p)
    p.add_argument("--view", default="non-causal", choices=CLI_VIEWS)
    p.add_argument("--damping", type=float,
                   default=centrality_mod.DEFAULT_DAMPING)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("node-series",
                       help="yearly eigenvector centrality of one code")
    _add_corpus_args(p)
    p.add_argument("--code", required=True)
    p.add_argument("--view", default="full", choices=CLI_VIEWS)
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
    p.add_argument("--queries", required=True, help="query vector table")
    p.add_argument("--threshold", type=float, default=None,
                   help="return every match scoring at least this")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_match)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = args.func(args)
        if table is not None:
            with _open_out(args.out) as fh:
                write_rows(fh, *table)
    except (ClaimGraphError, OSError) as exc:
        print(f"claimgraph: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
