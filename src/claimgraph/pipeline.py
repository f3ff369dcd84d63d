"""End-to-end corpus pipeline with deterministic outputs.

A run ingests a corpus, computes every per-paper measure, fits the default
regression battery (or an explicit spec file), aggregates yearly trends, and
writes CSV tables plus a parameter/digest manifest into the output
directory. Reruns over identical inputs produce byte-identical directories;
nothing written here carries a timestamp.

The per-paper measures are one column table, `{column: list}`, with one
list per MEASURE_COLUMNS column and one entry per paper in input order. The
scorers fill it, the regressions read it, and the measure CSVs are its
columns zipped into rows.
"""

from __future__ import annotations

import hashlib
import os
from itertools import chain, repeat
from dataclasses import dataclass, field, fields as dataclass_fields

from . import __version__
from . import centrality as centrality_mod
from . import cooccurrence as cooccur_mod
from . import novelty as novelty_mod
from .errors import ClaimGraphError, SchemaError, check_range
from .graphs import (DEFAULT_EPSILON, DEFAULT_PATH_CAP, VIEWS, build_graph,
                     complexity_measures)
from .ingest import (
    DEFAULT_MAX_YEAR,
    DEFAULT_MIN_YEAR,
    Diagnostic,
    merge_outcome_files,
    parse_corpus_file,
    split_paths,
)
from .model import PaperRecord
from .regression import OUTCOMES, RegressionSpec, load_spec_file, run_regressions
from .tableio import open_text, write_csv, write_csv_dicts
from .trends import TrendRow, aggregate_trends

NOVELTY_VIEWS = ("full", "causal")
GAP_VIEWS = ("full", "causal")
CENTRALITY_VIEWS = VIEWS

# Column registry for `run` and the subcommands. Per-view columns are named
# <measure>_<view>. The result types' fields name their measures, which
# follow the paper_id, year (and view) fields.
PATH_MEASURES = ("num_unique_paths", "longest_path", "source_sink")
NOVELTY_MEASURES = novelty_mod.NoveltyMeasures._fields[2:]
CENTRALITY_STATS = centrality_mod.CentralityStats._fields[3:]
Z_STATS = tuple(f"z_{stat}" for stat in CENTRALITY_STATS)


def _per_view(measures, views) -> list[str]:
    return [f"{measure}_{view}" for view in views for measure in measures]


# Path counts and lengths of every view come before the source/sink ratios.
COMPLEXITY_COLUMNS: list[str] = (
    ["num_edges", "num_causal_edges", "prop_causal_edges"]
    + _per_view(PATH_MEASURES[:2], VIEWS) + _per_view(PATH_MEASURES[2:], VIEWS))
CENTRALITY_COLUMNS: list[str] = ["paper_id", "year", "view",
                                 *CENTRALITY_STATS, *Z_STATS]
REGRESSION_COLUMNS: list[str] = ["outcome", "measure", "view", "fe", "cluster",
                                 "alpha", "beta", "se_beta", "n", "r_squared",
                                 "error"]
TREND_COLUMNS = TrendRow._fields

DEFAULT_BATTERY_MEASURES = (
    "prop_causal_edges",
    "num_unique_paths_full",
    "longest_path_full",
    "source_sink_full",
    "prop_novel_edges_full",
    "prop_novel_paths_full",
    "prop_novel_subgraphs_full",
    "gap_prop_full",
    "z_mean_eigen_full",
    "z_var_eigen_full",
    "z_mean_pagerank_full",
    "z_var_pagerank_full",
)


class PipelineStageError(ClaimGraphError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class PipelineConfig:
    corpus: str = ""
    outcomes: list[str] = field(default_factory=list)
    ranks: str = ""
    specs: str = ""
    default_tier: str = "Unpublished"
    strict: bool = False
    min_year: int = DEFAULT_MIN_YEAR
    max_year: int = DEFAULT_MAX_YEAR
    path_len: int = novelty_mod.DEFAULT_PATH_LEN
    subgraph_size: int = novelty_mod.DEFAULT_SUBGRAPH_SIZE
    tau: int = cooccur_mod.DEFAULT_TAU
    epsilon: float = DEFAULT_EPSILON
    damping: float = centrality_mod.DEFAULT_DAMPING
    tol: float = centrality_mod.DEFAULT_TOL
    max_iter: int = centrality_mod.DEFAULT_MAX_ITER
    path_cap: int = DEFAULT_PATH_CAP
    subset_cap: int = novelty_mod.DEFAULT_SUBSET_CAP


_INPUT_KEYS = ("corpus", "outcomes", "ranks", "specs")
# Parameters whose values outside a range would crash a run or be misread.
_RANGES = {**novelty_mod.LEDGER_RANGES, "max_iter": (1, None),
           "path_cap": (1, None), "subset_cap": (1, None), "tau": (1, None)}
# Every other key is a parameter, parsed by its field's annotated type.
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_PARSERS = {"bool": lambda v: _BOOLS[v.lower()], "int": int, "float": float, "str": str}


def parse_config_text(text: str, base_dir: str = ".") -> PipelineConfig:
    """Parse a plain key=value config; '#' starts a comment. Relative paths
    resolve against the config file's directory."""
    types = {f.name: f.type for f in dataclass_fields(PipelineConfig)}
    config = PipelineConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in types or "\0" in value:  # no path holds NUL
            raise SchemaError(f"bad config line {raw!r}", line_no=line_no)
        if key == "outcomes":
            config.outcomes = [os.path.join(base_dir, p) for p in split_paths(value)]
        elif key in _INPUT_KEYS:
            setattr(config, key, os.path.join(base_dir, value) if value else "")
        else:
            try:
                setattr(config, key, _PARSERS[types[key]](value))
            except (KeyError, ValueError):
                raise SchemaError(f"{key} must be {types[key]}, got {value!r}",
                                  line_no=line_no) from None
            if key in _RANGES:
                check_range(key, getattr(config, key), _RANGES[key], line_no)
            elif key == "damping":
                centrality_mod.check_damping(key, config.damping, line_no)
    if not config.corpus:
        raise SchemaError("config is missing corpus=")
    if config.min_year > config.max_year:
        raise SchemaError(
            f"min_year {config.min_year} is after max_year {config.max_year}")
    return config


def parse_config_file(path: str) -> PipelineConfig:
    with open_text(path) as fh:
        return parse_config_text(fh.read(), base_dir=os.path.dirname(path) or ".")


MEASURE_COLUMNS: list[str] = (
    ["paper_id", "year", "pub_tier", "citations", "outcome_source"]
    + COMPLEXITY_COLUMNS
    + _per_view(NOVELTY_MEASURES, NOVELTY_VIEWS)
    + _per_view(("gap_prop",), GAP_VIEWS)
    + _per_view(CENTRALITY_STATS, CENTRALITY_VIEWS)
    + _per_view(Z_STATS, CENTRALITY_VIEWS)
)

# The measures.csv columns a spec may regress on: every numeric one.
_REGRESSORS = frozenset(MEASURE_COLUMNS) - {"paper_id", "pub_tier", "outcome_source"}


def _put(table: dict[str, list], columns: list[str], results) -> None:
    """Set `columns` from results in record order: the columns are the last
    fields of each result tuple."""
    for offset, col in enumerate(columns, start=-len(columns)):
        table[col] = [result[offset] for result in results]


def _score_view(records: list[PaperRecord], table: dict[str, list], view: str,
                config: PipelineConfig) -> None:
    """Set one view's columns from one graph per record. The graphs die with
    this call, and each frontier (ledger, pair table) with its scorer."""
    graphs = [build_graph(r, view) for r in records]
    _put(table, _per_view(PATH_MEASURES, (view,)), complexity_measures(
        graphs, table["num_edges"], config.path_cap, config.epsilon))
    ids = table["paper_id"]
    if view in NOVELTY_VIEWS:
        scores = novelty_mod.score_corpus(graphs, ledger=novelty_mod.LedgerState(
            path_len=config.path_len, subgraph_size=config.subgraph_size,
            subset_cap=config.subset_cap))[0]
        _put(table, _per_view(NOVELTY_MEASURES, (view,)), [scores[pid] for pid in ids])
    if view in GAP_VIEWS:
        gaps = cooccur_mod.score_corpus(graphs, tau=config.tau)[0]
        table[f"gap_prop_{view}"] = [gaps[pid] for pid in ids]
    stats = centrality_mod.score_corpus(
        graphs, damping=config.damping, tol=config.tol, max_iter=config.max_iter)
    _put(table, _per_view(CENTRALITY_STATS, (view,)), [stats[pid] for pid in ids])


def compute_measure_table(records: list[PaperRecord],
                          config: PipelineConfig) -> dict[str, list]:
    """The measures table: one list per MEASURE_COLUMNS column, keyed and
    ordered as MEASURE_COLUMNS, each holding one value per record in input
    order, None marking missing. Every view's pass scores every record."""
    table: dict[str, list] = dict.fromkeys(MEASURE_COLUMNS)
    # The first eight columns: the record's own fields and its claim counts.
    _put(table, MEASURE_COLUMNS[:8],
         [(r.paper_id, r.year, r.pub_tier, r.citations, r.outcome_source or None,
           *r.claim_counts()) for r in records])
    for view in VIEWS:
        _score_view(records, table, view, config)
    for col in _per_view(CENTRALITY_STATS, CENTRALITY_VIEWS):
        table[f"z_{col}"] = centrality_mod.standardize(table[col])
    return table


def complexity_table(records: list[PaperRecord], path_cap: int = DEFAULT_PATH_CAP,
                     epsilon: float = DEFAULT_EPSILON) -> dict[str, list]:
    """The `measures` subcommand's table: one list per column of paper_id,
    year and COMPLEXITY_COLUMNS, one value per record in input order, None
    marking missing. Its values are those of the same columns of
    compute_measure_table, and only one view's graphs are alive at a time."""
    table: dict[str, list] = {}
    _put(table, ["paper_id", "year", *COMPLEXITY_COLUMNS[:3]],
         [(r.paper_id, r.year, *r.claim_counts()) for r in records])
    for view in VIEWS:
        _put(table, _per_view(PATH_MEASURES, (view,)), complexity_measures(
            [build_graph(r, view) for r in records], table["num_edges"],
            path_cap, epsilon))
    return table


def default_battery() -> list[RegressionSpec]:
    specs: list[RegressionSpec] = []
    for outcome in OUTCOMES:
        for measure in DEFAULT_BATTERY_MEASURES:
            specs.append(RegressionSpec(outcome=outcome, measure=measure,
                                        fixed_effects=True, cluster="by_year"))
            specs.append(RegressionSpec(outcome=outcome, measure=measure,
                                        fixed_effects=False, cluster="none"))
    return specs


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str, config: PipelineConfig, n_records: int,
                   n_diagnostics: int, selfloops_dropped: int) -> None:
    lines = [f"tool=claimgraph {__version__}"]
    inputs = [("corpus", config.corpus)]
    inputs += [(f"outcomes[{i}]", p) for i, p in enumerate(config.outcomes)]
    if config.ranks:
        inputs.append(("ranks", config.ranks))
    if config.specs:
        inputs.append(("specs", config.specs))
    for label, p in inputs:
        lines.append(f"input {label}={os.path.basename(p)} sha256={_sha256(p)}")
    for f in dataclass_fields(config):
        if f.name not in _INPUT_KEYS:
            lines.append(f"param {f.name}={getattr(config, f.name)}")
    lines.append(f"records={n_records}")
    lines.append(f"diagnostics={n_diagnostics}")
    lines.append(f"selfloop_claims_dropped={selfloops_dropped}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class PipelineRun:
    out_dir: str
    n_records: int
    diagnostics: list[Diagnostic]


def run_pipeline(config: PipelineConfig, out_dir: str) -> PipelineRun:
    os.makedirs(out_dir, exist_ok=True)

    try:
        records, diagnostics = parse_corpus_file(
            config.corpus, strict=config.strict,
            min_year=config.min_year, max_year=config.max_year)
    except ClaimGraphError as exc:
        raise PipelineStageError("ingest", exc) from exc

    if config.outcomes:
        try:
            records = merge_outcome_files(records, config.outcomes, config.ranks,
                                          config.default_tier)
        except ClaimGraphError as exc:
            raise PipelineStageError("merge-outcomes", exc) from exc

    # The specs are checked before any output is computed or written.
    try:
        specs = (load_spec_file(config.specs, _REGRESSORS)
                 if config.specs else default_battery())
    except ClaimGraphError as exc:
        raise PipelineStageError("regress", exc) from exc

    try:
        table = compute_measure_table(records, config)
    except ClaimGraphError as exc:
        raise PipelineStageError("measures", exc) from exc

    def write_columns(name: str, header: list[str], comment: str | None = None):
        write_csv(os.path.join(out_dir, name), header,
                  zip(*(table[col] for col in header)), comment=comment)

    write_columns("measures.csv", MEASURE_COLUMNS,
                  comment="one row per paper; empty fields are missing values")
    write_columns("novelty.csv", ["paper_id", "year",
                                  *_per_view(NOVELTY_MEASURES, NOVELTY_VIEWS)])
    write_columns("gaps.csv", ["paper_id", "year",
                               *_per_view(("gap_prop",), GAP_VIEWS)])
    # One row per paper and view: the views' rows of a paper are adjacent.
    view_rows = [zip(table["paper_id"], table["year"], repeat(view),
                     *(table[col] for col in
                       _per_view(CENTRALITY_STATS + Z_STATS, (view,))))
                 for view in CENTRALITY_VIEWS]
    write_csv(os.path.join(out_dir, "centrality.csv"), CENTRALITY_COLUMNS,
              chain.from_iterable(zip(*view_rows)))

    try:
        reg_rows = run_regressions(table, specs, keep_errors=not config.specs)
    except ClaimGraphError as exc:
        raise PipelineStageError("regress", exc) from exc
    write_csv_dicts(os.path.join(out_dir, "regressions.csv"),
                    REGRESSION_COLUMNS, reg_rows)

    trend_rows = aggregate_trends(records, group_by="year")
    write_csv(os.path.join(out_dir, "trends_year.csv"), TREND_COLUMNS, trend_rows)

    with open(os.path.join(out_dir, "diagnostics.txt"), "w",
              encoding="utf-8") as fh:
        for diag in diagnostics:
            fh.write(f"{diag}\n")

    selfloops = sum(1 for r in records for e in r.edges if e.source == e.sink)
    write_manifest(os.path.join(out_dir, "manifest.txt"), config,
                   n_records=len(records), n_diagnostics=len(diagnostics),
                   selfloops_dropped=selfloops)
    return PipelineRun(out_dir=out_dir, n_records=len(records),
                       diagnostics=diagnostics)
