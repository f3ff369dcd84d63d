import math
import random
import statistics
import textwrap

import numpy as np
import pytest

from oracles import dummy_ols_oracle, full_sandwich_oracle, plain_ols_oracle
from synth import rows_to_columns
from claimgraph.errors import CollinearityError, SchemaError
from claimgraph.regression import (
    RegressionSpec,
    clustered_se,
    load_spec_file,
    ols_fit,
    run_spec,
)


def toy_panel(seed, n=200, n_years=8, beta=0.4):
    rng = random.Random(seed)
    years = np.array([1990 + rng.randrange(n_years) for _ in range(n)])
    x = np.array([rng.gauss(0, 1) for _ in range(n)])
    effects = {1990 + t: 0.3 * t - 1.0 for t in range(n_years)}
    y = np.array([effects[yr] + beta * xi + rng.gauss(0, 0.3)
                  for yr, xi in zip(years, x)])
    return y, x, years


def test_plain_ols_exact_on_noiseless_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 2.0 + 5.0 * x
    res = ols_fit(y, x, np.array([2000] * 4), fixed_effects=False, cluster="none")
    assert res.alpha == pytest.approx(2.0, abs=1e-12)
    assert res.beta == pytest.approx(5.0, abs=1e-12)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)
    assert res.se_beta == pytest.approx(0.0, abs=1e-9)


def test_plain_ols_matches_lstsq_oracle():
    y, x, years = toy_panel(3)
    res = ols_fit(y, x, years, fixed_effects=False, cluster="none")
    alpha, beta = plain_ols_oracle(y, x)
    assert res.alpha == pytest.approx(alpha, abs=1e-10)
    assert res.beta == pytest.approx(beta, abs=1e-10)


def test_fe_within_equals_dummy_regression():
    y, x, years = toy_panel(11)
    res = ols_fit(y, x, years, fixed_effects=True, cluster="none")
    beta_dummy, *_ = dummy_ols_oracle(y, x, years)
    assert res.beta == pytest.approx(beta_dummy, abs=1e-8)
    assert res.n_params == 1 + len(set(years.tolist()))


def test_fe_absorbs_year_shifts_exactly():
    # pure year shifts with a noiseless slope: FE recovers beta exactly
    rng = random.Random(5)
    years = np.array([2000 + i % 5 for i in range(60)])
    x = np.array([rng.gauss(0, 1) for _ in range(60)])
    y = 0.7 * x + np.array([10.0 * (yr - 2000) for yr in years])
    res = ols_fit(y, x, years, fixed_effects=True, cluster="none")
    assert res.beta == pytest.approx(0.7, abs=1e-10)
    assert res.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fe_r_squared_uses_rebuilt_fitted_values():
    y, x, years = toy_panel(23)
    res = ols_fit(y, x, years, fixed_effects=True, cluster="none")
    beta, resid, design, _ = dummy_ols_oracle(y, x, years)
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    assert res.r_squared == pytest.approx(1 - ssr / sst, abs=1e-10)


def test_clustered_se_matches_full_design_sandwich():
    y, x, years = toy_panel(47, n=50, n_years=6)
    res = ols_fit(y, x, years, fixed_effects=True, cluster="by_year")
    want = full_sandwich_oracle(y, x, years, years)
    assert res.se_beta == pytest.approx(want, abs=1e-10)


def test_clustered_se_differs_from_homoskedastic():
    y, x, years = toy_panel(8)
    cl = ols_fit(y, x, years, fixed_effects=True, cluster="by_year")
    ho = ols_fit(y, x, years, fixed_effects=True, cluster="none")
    assert cl.beta == ho.beta
    assert cl.se_beta != ho.se_beta


def test_clustered_se_needs_two_clusters():
    with pytest.raises(CollinearityError):
        clustered_se(np.array([1.0, -1.0]), np.array([0.1, -0.1]),
                     np.array([2000, 2000]), n_params=2)


def test_collinear_regressor_raises():
    years = np.array([2000, 2000, 2001, 2001])
    x = np.array([1.0, 1.0, 2.0, 2.0])     # constant within years
    y = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(CollinearityError):
        ols_fit(y, x, years, fixed_effects=True, cluster="none")
    # without FE the same x varies fine
    res = ols_fit(y, x, years, fixed_effects=False, cluster="none")
    assert res.beta == pytest.approx(2.0)


def test_single_year_fe_raises():
    with pytest.raises(CollinearityError):
        ols_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]),
                np.array([2000, 2000, 2000]), fixed_effects=True)


def test_too_few_rows_raise():
    with pytest.raises(CollinearityError):
        ols_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                np.array([2000, 2001]), fixed_effects=True, cluster="none")


def test_planted_beta_recovery_small():
    # one quick Monte Carlo sanity run; the acceptance suite scales this up
    rng = random.Random(99)
    betas = []
    for rep in range(8):
        n = 800
        years = np.array([1995 + rng.randrange(6) for _ in range(n)])
        x = np.array([rng.random() for _ in range(n)])
        y = np.array([0.25 * xi + 0.1 * (yr - 1995) + rng.gauss(0, 0.2)
                      for xi, yr in zip(x, years)])
        betas.append(ols_fit(y, x, years).beta)
    mean = statistics.mean(betas)
    mc_se = statistics.stdev(betas) / math.sqrt(len(betas))
    assert abs(mean - 0.25) < 3 * mc_se + 1e-3


# --- spec runner -----------------------------------------------------------


def measure_rows():
    rows = []
    rng = random.Random(17)
    for i in range(120):
        year = 2000 + i % 4
        m = rng.random()
        cites = int(math.expm1(3.0 + 0.5 * m + rng.gauss(0, 0.3)))
        rows.append({
            "paper_id": f"p{i}", "year": year,
            "pub_tier": "Top5" if i % 5 == 0 else "Other",
            "citations": cites if i % 7 else None,
            "prop_causal_edges": m,
            "gap_prop_full": None if i % 11 == 0 else rng.random(),
        })
    return rows


def test_run_spec_log_outcome_drops_missing_rows():
    rows = measure_rows()
    spec = RegressionSpec(outcome="LogCitesPlus1", measure="prop_causal_edges")
    res = run_spec(rows_to_columns(rows), spec)
    usable = [r for r in rows if r["citations"] is not None]
    assert res.n == len(usable)
    # small-n sanity band only; recovery precision is covered elsewhere
    assert 0.2 < res.beta < 1.1


def test_run_spec_tier_outcome_is_lpm_with_zeros():
    rows = measure_rows()
    spec = RegressionSpec(outcome="Top5", measure="prop_causal_edges",
                          fixed_effects=False, cluster="none")
    res = run_spec(rows_to_columns(rows), spec)
    # every row usable: non-Top5 tiers enter as zeros
    assert res.n == len(rows)


def test_run_spec_view_suffix_selects_column():
    rows = measure_rows()
    spec = RegressionSpec(outcome="LogCitesPlus1", measure="gap_prop",
                          view="full")
    res = run_spec(rows_to_columns(rows), spec)
    assert res.measure == "gap_prop_full"
    usable = [r for r in rows
              if r["citations"] is not None and r["gap_prop_full"] is not None]
    assert res.n == len(usable)


def test_run_spec_missing_outcome_everywhere_raises():
    rows = [{"paper_id": "p", "year": 2000, "citations": None,
             "prop_causal_edges": 0.5}]
    with pytest.raises(SchemaError):
        run_spec(rows_to_columns(rows),
                 RegressionSpec(outcome="LogCitesPlus1", measure="prop_causal_edges"))


def test_run_spec_no_usable_rows_raises():
    rows = [{"paper_id": "p", "year": 2000, "pub_tier": "Top5",
             "citations": 4, "prop_causal_edges": None}]
    with pytest.raises(SchemaError):
        run_spec(rows_to_columns(rows),
                 RegressionSpec(outcome="LogCitesPlus1", measure="prop_causal_edges"))


def _reference_fit(rows, spec):
    """`run_spec` as a loop over row dicts: pairwise-complete rows in input
    order, handed to `ols_fit`."""
    y, x, years = [], [], []
    for row in rows:
        if spec.outcome == "LogCitesPlus1":
            cites = row.get("citations")
            y_val = None if cites is None else math.log(float(cites) + 1.0)
        else:
            y_val = 1.0 if row.get("pub_tier") == spec.outcome else 0.0
        x_val = row.get(spec.column)
        if y_val is not None and x_val is not None:
            y.append(y_val)
            x.append(float(x_val))
            years.append(int(row["year"]))
    return ols_fit(np.array(y), np.array(x), np.array(years),
                   fixed_effects=spec.fixed_effects, cluster=spec.cluster)


def test_run_spec_passes_ols_fit_the_row_loop_arrays():
    rows = measure_rows()
    rng = random.Random(3)
    for row in rows:
        row["path_count"] = None if rng.random() < 0.2 else rng.randrange(50)
    table = rows_to_columns(rows)
    for outcome in ("LogCitesPlus1", "Top5"):
        for measure in ("prop_causal_edges", "gap_prop_full", "path_count"):
            for fe, cluster in ((True, "by_year"), (False, "none")):
                spec = RegressionSpec(outcome=outcome, measure=measure,
                                      fixed_effects=fe, cluster=cluster)
                got = run_spec(table, spec)
                want = _reference_fit(rows, spec)
                assert (got.alpha, got.beta, got.se_beta, got.n, got.r_squared) \
                    == (want.alpha, want.beta, want.se_beta, want.n,
                        want.r_squared), spec


def test_spec_file_loading(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text(textwrap.dedent("""\
        outcome,measure,view,fe,cluster
        Top5,prop_causal_edges,,1,by_year
        LogCitesPlus1,gap_prop,full,0,none
        """))
    specs = load_spec_file(str(path))
    assert len(specs) == 2
    assert specs[0].fixed_effects and specs[0].cluster == "by_year"
    assert specs[1].column == "gap_prop_full"
    assert not specs[1].fixed_effects


def test_spec_file_rejects_unknown_outcome(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("outcome,measure,view,fe,cluster\nH0,m,,1,none\n")
    with pytest.raises(SchemaError):
        load_spec_file(str(path))
