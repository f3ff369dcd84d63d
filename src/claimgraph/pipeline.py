"""End-to-end corpus pipeline with deterministic outputs.

A run ingests a corpus, computes every per-paper measure, fits the default
regression battery (or an explicit spec file), aggregates yearly trends, and
writes CSV tables plus a parameter/digest manifest into the output
directory. Reruns over identical inputs produce byte-identical directories;
nothing written here carries a timestamp.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields as dataclass_fields

from . import centrality as centrality_mod
from . import cooccurrence as cooccur_mod
from . import novelty as novelty_mod
from .errors import ClaimGraphError, CollinearityError, SchemaError
from .graphs import DEFAULT_PATH_CAP, VIEWS, build_graph, path_measures
from .ingest import (
    DEFAULT_MAX_YEAR,
    DEFAULT_MIN_YEAR,
    Diagnostic,
    load_outcome_table,
    load_rank_table,
    merge_outcomes,
    parse_corpus_file,
)
from .model import PaperRecord
from .regression import (
    OUTCOMES,
    RegressionSpec,
    _fit_spec,
    _outcome_values,
    load_spec_file,
)
from .tableio import write_csv, write_csv_dicts
from .trends import aggregate_trends

__version__ = "0.1.0"

NOVELTY_VIEWS = ("full", "causal")
GAP_VIEWS = ("full", "causal")
CENTRALITY_VIEWS = VIEWS

# Column registry for `run` and the subcommands. Per-view columns are named
# <measure>_<view>; NOVELTY_MEASURES and CENTRALITY_STATS are also the field
# names of NoveltyMeasures and CentralityStats.
PATH_MEASURES = ("num_unique_paths", "longest_path", "source_sink")
NOVELTY_MEASURES = ("num_novel_edges", "prop_novel_edges",
                    "num_novel_paths", "prop_novel_paths",
                    "num_novel_subgraphs", "prop_novel_subgraphs")
CENTRALITY_STATS = ("mean_eigen", "var_eigen", "mean_pagerank", "var_pagerank")
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
TREND_COLUMNS: list[str] = ["group", "metric", "value", "n", "ci95"]

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
    epsilon: float = 1e-9
    damping: float = centrality_mod.DEFAULT_DAMPING
    tol: float = centrality_mod.DEFAULT_TOL
    max_iter: int = centrality_mod.DEFAULT_MAX_ITER
    path_cap: int = DEFAULT_PATH_CAP
    subset_cap: int = novelty_mod.DEFAULT_SUBSET_CAP


_INPUT_KEYS = ("corpus", "outcomes", "ranks", "specs")
# Every other key is a parameter, parsed by its field's annotated type.
_PARSERS = {"bool": lambda v: v.lower() in ("1", "true", "yes"),
            "int": int, "float": float, "str": str}


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
        if not sep or key not in types:
            raise SchemaError(f"bad config line {raw!r}", line_no=line_no)
        if key == "outcomes":
            config.outcomes = [os.path.join(base_dir, p.strip())
                               for p in value.split(",") if p.strip()]
        elif key in _INPUT_KEYS:
            setattr(config, key, os.path.join(base_dir, value) if value else "")
        else:
            try:
                setattr(config, key, _PARSERS[types[key]](value))
            except ValueError:
                raise SchemaError(f"{key} must be {types[key]}, got {value!r}",
                                  line_no=line_no) from None
            sizes = novelty_mod.SUBGRAPH_SIZES
            if key == "subgraph_size" and config.subgraph_size not in sizes:
                raise SchemaError(f"subgraph_size must be 2..4, got {value}",
                                  line_no=line_no)
    if not config.corpus:
        raise SchemaError("config is missing corpus=")
    return config


def parse_config_file(path: str) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base_dir=os.path.dirname(path) or ".")


MEASURE_COLUMNS: list[str] = (
    ["paper_id", "year", "pub_tier", "citations", "outcome_source"]
    + COMPLEXITY_COLUMNS
    + _per_view(NOVELTY_MEASURES, NOVELTY_VIEWS)
    + _per_view(("gap_prop",), GAP_VIEWS)
    + _per_view(CENTRALITY_STATS, CENTRALITY_VIEWS)
    + _per_view(Z_STATS, CENTRALITY_VIEWS)
)


def _record_row(record: PaperRecord) -> dict:
    num_edges = len(record.edges)
    num_causal = sum(1 for e in record.edges if e.is_causal)
    return {
        "paper_id": record.paper_id,
        "year": record.year,
        "pub_tier": record.pub_tier,
        "citations": record.citations,
        "outcome_source": record.outcome_source or None,
        "num_edges": num_edges,
        "num_causal_edges": num_causal,
        "prop_causal_edges": num_causal / num_edges if num_edges else None,
    }


def _fill(by_id: dict[str, dict], results, measures, view: str) -> None:
    """Copy each result's `measures` attributes into its paper's row."""
    pairs = list(zip(_per_view(measures, (view,)), measures))
    for result in results:
        row = by_id[result.paper_id]
        for col, name in pairs:
            row[col] = getattr(result, name)


def _score_view(records: list[PaperRecord], rows: list[dict],
                by_id: dict[str, dict], view: str, config: PipelineConfig) -> None:
    """Fill one view's columns from one graph per record. The graphs die
    with this call, so only one view's graphs are alive at a time."""
    graphs = [build_graph(r, view) for r in records]
    path_cols = _per_view(PATH_MEASURES, (view,))
    for row, graph in zip(rows, graphs):
        # Zero-edge papers get missing path measures in every view.
        values = (path_measures(graph, config.path_cap, config.epsilon)
                  if row["num_edges"] else (None, None, None))
        row.update(zip(path_cols, values))
    if view in NOVELTY_VIEWS:
        scores, _ = novelty_mod.score_corpus(
            graphs, path_len=config.path_len,
            subgraph_size=config.subgraph_size, subset_cap=config.subset_cap)
        _fill(by_id, scores.values(), NOVELTY_MEASURES, view)
    if view in GAP_VIEWS:
        gaps, _ = cooccur_mod.score_corpus(graphs, tau=config.tau)
        col = f"gap_prop_{view}"
        for paper_id, value in gaps.items():
            by_id[paper_id][col] = value
    stats = centrality_mod.score_corpus(
        graphs, view=view, damping=config.damping,
        tol=config.tol, max_iter=config.max_iter)
    _fill(by_id, stats, CENTRALITY_STATS, view)


def add_zscores(rows: list[dict], columns) -> None:
    """Add z_<column> to every row: the column standardized over all rows."""
    for col in columns:
        z_col = f"z_{col}"
        z_vals = centrality_mod.standardize([row[col] for row in rows])
        for row, z in zip(rows, z_vals):
            row[z_col] = z


def compute_measure_rows(records: list[PaperRecord],
                         config: PipelineConfig) -> list[dict]:
    """One wide dict per record, in input order, None marking missing. Every
    MEASURE_COLUMNS key is set: each view's pass scores every record."""
    rows = [_record_row(record) for record in records]
    by_id = {row["paper_id"]: row for row in rows}
    for view in VIEWS:
        _score_view(records, rows, by_id, view, config)
    add_zscores(rows, _per_view(CENTRALITY_STATS, CENTRALITY_VIEWS))
    return rows


def default_battery() -> list[RegressionSpec]:
    specs: list[RegressionSpec] = []
    for outcome in OUTCOMES:
        for measure in DEFAULT_BATTERY_MEASURES:
            specs.append(RegressionSpec(outcome=outcome, measure=measure,
                                        fixed_effects=True, cluster="by_year"))
            specs.append(RegressionSpec(outcome=outcome, measure=measure,
                                        fixed_effects=False, cluster="none"))
    return specs


def run_regressions(rows: list[dict], specs: list[RegressionSpec],
                    keep_errors: bool = True) -> list[dict]:
    """Run specs in order; with keep_errors, inestimable specs become rows
    with an error note instead of aborting the run. Each outcome's values
    are built once, for its first spec."""
    out: list[dict] = []
    outcomes: dict[str, tuple] = {}
    for spec in specs:
        base = {
            "outcome": spec.outcome, "measure": spec.measure,
            "view": spec.view, "fe": int(spec.fixed_effects),
            "cluster": spec.cluster,
        }
        if spec.outcome not in outcomes:
            outcomes[spec.outcome] = _outcome_values(rows, spec.outcome)
        try:
            res = _fit_spec(rows, spec, outcomes[spec.outcome])
        except (CollinearityError, SchemaError) as exc:
            if not keep_errors:
                raise
            base.update(alpha=None, beta=None, se_beta=None, n=None,
                        r_squared=None, error=str(exc))
        else:
            base.update(alpha=res.alpha, beta=res.beta, se_beta=res.se_beta,
                        n=res.n, r_squared=res.r_squared, error=None)
        out.append(base)
    return out


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
            sources = [load_outcome_table(p, name=os.path.basename(p))
                       for p in config.outcomes]
            ranks = load_rank_table(config.ranks) if config.ranks else {}
            records = merge_outcomes(records, sources, ranks,
                                     default_tier=config.default_tier)
        except ClaimGraphError as exc:
            raise PipelineStageError("merge-outcomes", exc) from exc

    try:
        rows = compute_measure_rows(records, config)
    except ClaimGraphError as exc:
        raise PipelineStageError("measures", exc) from exc

    write_csv_dicts(
        os.path.join(out_dir, "measures.csv"), MEASURE_COLUMNS, rows,
        comment="one row per paper; empty fields are missing values")

    write_csv_dicts(os.path.join(out_dir, "novelty.csv"),
                    ["paper_id", "year", *_per_view(NOVELTY_MEASURES, NOVELTY_VIEWS)],
                    rows)

    gap_cols = ["paper_id", "year"] + [f"gap_prop_{v}" for v in GAP_VIEWS]
    write_csv_dicts(os.path.join(out_dir, "gaps.csv"), gap_cols, rows)

    view_cols = [(view, _per_view(CENTRALITY_STATS + Z_STATS, (view,)))
                 for view in CENTRALITY_VIEWS]
    write_csv(os.path.join(out_dir, "centrality.csv"), CENTRALITY_COLUMNS,
              ([row["paper_id"], row["year"], view, *(row[c] for c in cols)]
               for row in rows for view, cols in view_cols))

    try:
        if config.specs:
            specs = load_spec_file(config.specs)
            reg_rows = run_regressions(rows, specs, keep_errors=False)
        else:
            reg_rows = run_regressions(rows, default_battery(), keep_errors=True)
    except ClaimGraphError as exc:
        raise PipelineStageError("regress", exc) from exc
    write_csv_dicts(os.path.join(out_dir, "regressions.csv"),
                    REGRESSION_COLUMNS, reg_rows)

    trend_rows = aggregate_trends(records, group_by="year")
    write_csv(os.path.join(out_dir, "trends_year.csv"), TREND_COLUMNS,
              ([getattr(t, c) for c in TREND_COLUMNS] for t in trend_rows))

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
