"""Publication-outcome regressions.

Single-regressor OLS of an outcome on one graph measure, optionally with
publication-year fixed effects (absorbed by within-year demeaning, which
matches the dummy-variable estimator) and standard errors clustered by
year (CR0 sandwich with the G/(G-1) * (n-1)/(n-k) small-sample factor).

Outcomes: linear probability models for the three journal-tier indicators
(papers outside the tier, including unpublished ones, enter as zeros) and
log(citations + 1).
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import CollinearityError, SchemaError
from .tableio import read_table

# numpy is imported by the functions that compute with it, so the commands
# that run no regression start without loading it.
if TYPE_CHECKING:
    import numpy as np

    Column = tuple[np.ndarray, np.ndarray]

OUTCOMES = ("Top5", "Top6to20", "Top21to100", "LogCitesPlus1")

TIER_OUTCOMES = OUTCOMES[:3]

# The measures-table columns that hold text, so no spec may regress on them.
TEXT_COLUMNS = frozenset({"paper_id", "pub_tier", "outcome_source"})


@dataclass(frozen=True)
class RegressionSpec:
    outcome: str
    measure: str
    view: str = ""
    fixed_effects: bool = True
    cluster: str = "by_year"

    @property
    def column(self) -> str:
        return f"{self.measure}_{self.view}" if self.view else self.measure


@dataclass(frozen=True)
class RegressionResult:
    outcome: str
    measure: str
    alpha: float
    beta: float
    se_beta: float
    n: int
    r_squared: float
    n_params: int
    fixed_effects: bool
    cluster: str


def _demean_by_group(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    import numpy as np
    out = values.astype(float).copy()
    for g in np.unique(groups):
        mask = groups == g
        out[mask] -= out[mask].mean()
    return out


def ols_fit(y: np.ndarray, x: np.ndarray, years: np.ndarray,
            fixed_effects: bool = True, cluster: str = "by_year",
            ) -> RegressionResult:
    """Fit y = alpha + beta * x (+ year effects) by least squares.

    With fixed effects, beta comes from within-year demeaned data and the
    reported alpha is the grand intercept (year effects normalized to mean
    zero). r_squared uses the model's actual fitted values, year effects
    included. cluster is "by_year" or "none".
    """
    import numpy as np
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    years = np.asarray(years)
    n = y.shape[0]
    if not (x.shape[0] == n and years.shape[0] == n):
        raise ValueError("y, x, years must have equal length")
    if cluster not in ("by_year", "none"):
        raise ValueError(f"unknown cluster option {cluster!r}")
    unique_years = np.unique(years)
    if fixed_effects:
        if unique_years.size < 2:
            raise CollinearityError("fixed effects need at least 2 distinct years")
        n_params = 1 + unique_years.size
        x_t = _demean_by_group(x, years)
        y_t = _demean_by_group(y, years)
    else:
        n_params = 2
        x_t = x - x.mean()
        y_t = y - y.mean()
    if n <= n_params:
        raise CollinearityError(f"n={n} too small for {n_params} parameters")
    sxx = float(x_t @ x_t)
    if sxx <= 0.0 or math.isclose(sxx / n, 0.0, abs_tol=1e-30):
        raise CollinearityError(
            "regressor constant within years" if fixed_effects
            else "regressor has zero variance")
    beta = float(x_t @ y_t) / sxx
    alpha = float(y.mean() - beta * x.mean())
    # With fixed effects the year effects are absorbed, so the residuals
    # of the demeaned data are the model's.
    resid = y_t - beta * x_t if fixed_effects else y - (alpha + beta * x)
    sst = float(((y - y.mean()) ** 2).sum())
    ssr = float((resid ** 2).sum())
    r_squared = 1.0 - ssr / sst if sst > 0 else 0.0
    if cluster == "by_year":
        se_beta = clustered_se(x_t, resid, years, n_params)
    else:
        sigma2 = ssr / (n - n_params)
        se_beta = math.sqrt(sigma2 / sxx)
    return RegressionResult(
        outcome="", measure="", alpha=alpha, beta=beta, se_beta=se_beta,
        n=n, r_squared=r_squared, n_params=n_params,
        fixed_effects=fixed_effects, cluster=cluster,
    )


def clustered_se(x_t: np.ndarray, resid: np.ndarray, clusters: np.ndarray,
                 n_params: int) -> float:
    """Cluster-robust standard error of beta from partialled-out data.

    CR0 sandwich on the demeaned regressor (identical to the beta block of
    the full-design sandwich) scaled by G/(G-1) * (n-1)/(n-k).
    """
    import numpy as np
    labels = np.unique(clusters)
    n_clusters = labels.size
    if n_clusters < 2:
        raise CollinearityError("clustered errors need at least 2 clusters")
    n = x_t.shape[0]
    sxx = float(x_t @ x_t)
    meat = 0.0
    for g in labels:
        mask = clusters == g
        score = float(x_t[mask] @ resid[mask])
        meat += score * score
    correction = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - n_params))
    variance = correction * meat / (sxx * sxx)
    return math.sqrt(variance)


def _column(values: list) -> Column:
    """float64 values, NaN where missing, and the mask of defined entries."""
    import numpy as np
    defined = np.fromiter((v is not None for v in values), dtype=bool,
                          count=len(values))
    array = np.fromiter((math.nan if v is None else v for v in values),
                        dtype=float, count=len(values))
    return array, defined


def _outcome_values(table: dict[str, list], outcome: str) -> Column:
    """Per-paper outcome values as a column."""
    if outcome in TIER_OUTCOMES:
        values = [1.0 if tier == outcome else 0.0 for tier in table["pub_tier"]]
    elif outcome == "LogCitesPlus1":
        values = [None if cites is None else math.log(float(cites) + 1.0)
                  for cites in table["citations"]]
    else:
        raise ValueError(f"unknown outcome {outcome!r}")
    return _column(values)


def _spec_columns(table: dict[str, list], specs: list[RegressionSpec],
                  ) -> tuple[np.ndarray, dict[str, Column], dict[str, Column]]:
    """The years, and each outcome and measure column the specs name, built
    once. A measure column the table lacks is missing everywhere."""
    import numpy as np
    outcomes = {name: _outcome_values(table, name)
                for name in {spec.outcome for spec in specs}}
    measures = {column: _column(table.get(column) or [None] * len(table["year"]))
                for column in {spec.column for spec in specs}}
    return np.array(table["year"]), outcomes, measures


def run_spec(table: dict[str, list], spec: RegressionSpec) -> RegressionResult:
    """Estimate one spec on a measures table: a list per column, holding
    one entry per paper, None where missing.

    Papers missing the outcome or the measure are dropped pairwise. Raises
    when the outcome is underivable or the regressor is collinear with the
    fixed effects.
    """
    return _fit_spec(spec, *_spec_columns(table, [spec]))


def _fit_spec(spec: RegressionSpec, years: np.ndarray, outcomes: dict[str, Column],
              measures: dict[str, Column]) -> RegressionResult:
    """`run_spec` on columns already built."""
    y, y_defined = outcomes[spec.outcome]
    if not y_defined.any():
        raise SchemaError(f"outcome {spec.outcome} underivable: no defined values")
    column = spec.column
    x, x_defined = measures[column]
    usable = y_defined & x_defined
    if not usable.any():
        raise SchemaError(f"no usable rows for {spec.outcome} ~ {column}")
    result = ols_fit(y[usable], x[usable], years[usable],
                     fixed_effects=spec.fixed_effects, cluster=spec.cluster)
    return replace(result, outcome=spec.outcome, measure=column)


def run_regressions(table: dict[str, list], specs: list[RegressionSpec],
                    keep_errors: bool = True) -> list[dict]:
    """Run specs in order on a measures table (see `run_spec`); with
    keep_errors, inestimable specs become rows with an error note instead
    of aborting the run."""
    columns = _spec_columns(table, specs)
    out: list[dict] = []
    for spec in specs:
        base = {
            "outcome": spec.outcome, "measure": spec.measure,
            "view": spec.view, "fe": int(spec.fixed_effects),
            "cluster": spec.cluster,
        }
        try:
            res = _fit_spec(spec, *columns)
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


def load_spec_file(path: str, columns: Collection[str] | None = None,
                   ) -> list[RegressionSpec]:
    """Read regression specs from a CSV with columns
    outcome, measure, view, fe, cluster. With `columns`, each spec's measure
    column must be one of them; it may never be one of `TEXT_COLUMNS`."""
    header, rows = read_table(path)
    required = {"outcome", "measure", "view", "fe", "cluster"}
    if not required <= set(header):
        raise SchemaError(f"{path}: spec file needs columns {sorted(required)}")
    specs: list[RegressionSpec] = []
    for line_no, row in rows:
        outcome = row["outcome"].strip()
        if outcome not in OUTCOMES:
            raise SchemaError(f"{path}: unknown outcome {outcome!r}", line_no=line_no)
        fe_raw = row["fe"].strip().lower()
        if fe_raw not in ("0", "1", "true", "false"):
            raise SchemaError(f"{path}: bad fe flag {fe_raw!r}", line_no=line_no)
        cluster = row["cluster"].strip() or "none"
        if cluster not in ("by_year", "none"):
            raise SchemaError(f"{path}: bad cluster {cluster!r}", line_no=line_no)
        spec = RegressionSpec(
            outcome=outcome,
            measure=row["measure"].strip(),
            view=row["view"].strip(),
            fixed_effects=fe_raw in ("1", "true"),
            cluster=cluster,
        )
        if columns is not None and spec.column not in columns:
            raise SchemaError(f"{path}: unknown measure column {spec.column!r}",
                              line_no=line_no)
        if spec.column in TEXT_COLUMNS:
            raise SchemaError(f"{path}: measure column {spec.column!r} holds text",
                              line_no=line_no)
        specs.append(spec)
    return specs
