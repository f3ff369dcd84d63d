"""Seeded synthetic corpora and graphs for the test suite.

Every generator takes an explicit seed (or Random instance) so tests are
reproducible; nothing here reads global RNG state.
"""

from __future__ import annotations

import json
import math
import random

from claimgraph.model import ClaimEdge, PaperRecord

CAUSAL_TAGS = ["RCT", "IV", "DiD", "RDD", "Event Study", "Synthetic Control"]
NONCAUSAL_TAGS = ["OLS", "Panel", "Theoretical", "Simulations",
                  "Structural Estimation", "Calibration"]
FIELDS = ["labor", "macro", "trade", "development", "finance", "io"]
TIERS = ["Top5", "Top6to20", "Top21to100", "Other", "Unpublished"]


def code_pool(size: int) -> list[str]:
    letters = "ABCDEFGHIJKLMNOPQR"
    pool = []
    for letter in letters:
        for digit in range(1, 28):
            pool.append(f"{letter}{digit}")
            if len(pool) == size:
                return pool
    raise ValueError(f"pool size {size} too large")


def random_claims(rng: random.Random, codes, n_claims, p_causal=0.4,
                  allow_dup_pairs=True):
    claims = []
    for i in range(n_claims):
        u, v = rng.sample(codes, 2)
        if not allow_dup_pairs:
            tried = 0
            while any(c.source == u and c.sink == v for c in claims):
                u, v = rng.sample(codes, 2)
                tried += 1
                if tried > 200:
                    raise RuntimeError("pair pool exhausted")
        causal = rng.random() < p_causal
        tag = rng.choice(CAUSAL_TAGS if causal else NONCAUSAL_TAGS)
        claims.append(ClaimEdge(
            source=u, sink=v,
            source_text=f"concept {u} ({i})",
            sink_text=f"concept {v}",
            methods=(tag,),
            relationship=("direct-causal" if causal else "correlation"),
        ))
    return tuple(claims)


def random_record(rng: random.Random, paper_id, year, codes,
                  max_claims=8, p_causal=0.4, node_cap=None,
                  with_outcomes=True) -> PaperRecord:
    local = codes
    if node_cap is not None and node_cap < len(codes):
        local = rng.sample(codes, node_cap)
    n_claims = rng.randint(1, max_claims)
    claims = random_claims(rng, local, n_claims, p_causal)
    citations = rng.randint(0, 900) if (with_outcomes and rng.random() < 0.8) else None
    return PaperRecord(
        paper_id=paper_id,
        year=year,
        fields=tuple(sorted(rng.sample(FIELDS, rng.randint(1, 2)))),
        edges=claims,
        title=f"Working paper {paper_id}",
        pub_tier=rng.choice(TIERS) if with_outcomes else "Unknown",
        citations=citations,
    )


def random_corpus(seed, n_papers, year_lo, year_hi, pool_size=40,
                  max_claims=8, p_causal=0.4, node_cap=None):
    rng = random.Random(seed)
    codes = code_pool(pool_size)
    records = []
    for i in range(n_papers):
        year = rng.randint(year_lo, year_hi)
        records.append(random_record(
            rng, f"p{i:05d}", year, codes,
            max_claims=max_claims, p_causal=p_causal, node_cap=node_cap))
    return records


def records_to_jsonl(records) -> str:
    from claimgraph.ingest import record_to_dict
    return "".join(json.dumps(record_to_dict(r), sort_keys=True) + "\n"
                   for r in records)


def random_digraph(rng: random.Random, n_nodes, p_edge):
    """Random directed graph on string labels; no self loops."""
    nodes = [f"N{i:02d}" for i in range(n_nodes)]
    edges = set()
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < p_edge:
                edges.add((u, v))
    return set(nodes), edges


def regression_corpus(seed, n_papers=5000, beta=0.3, year_lo=2000,
                      year_hi=2009, sigma=0.5):
    """Corpus where log(1+citations) is linear in the causal-claim share.

    Citations are integers, so the target is offset high enough that
    rounding perturbs log(1+c) by well under the noise scale.
    """
    rng = random.Random(seed)
    codes = code_pool(36)
    records = []
    for i in range(n_papers):
        year = rng.randint(year_lo, year_hi)
        n_claims = rng.randint(2, 10)
        k_causal = rng.randint(0, n_claims)
        share = k_causal / n_claims
        claims = []
        for j in range(n_claims):
            u, v = rng.sample(codes, 2)
            causal = j < k_causal
            tag = rng.choice(CAUSAL_TAGS if causal else NONCAUSAL_TAGS)
            claims.append(ClaimEdge(
                source=u, sink=v,
                source_text=f"claim {j} of {i}",
                sink_text="outcome",
                methods=(tag,),
                relationship="direct-causal" if causal else "correlation",
            ))
        year_effect = 0.12 * (year - year_lo)
        latent = 6.0 + beta * share + year_effect + rng.gauss(0.0, sigma)
        citations = max(0, round(math.expm1(latent)))
        records.append(PaperRecord(
            paper_id=f"r{i:05d}",
            year=year,
            fields=("labor",),
            edges=tuple(claims),
            pub_tier="Other",
            citations=citations,
        ))
    return records


def trend_corpus(papers_per_year=32, claims_per_paper=64,
                 year_lo=1990, year_hi=2020):
    """Corpus with exactly-representable planted yearly causal shares.

    Shares are dyadic rationals (denominator 2048 = 32 * 64), so the
    yearly mean of per-paper shares is computed without rounding error.
    Returns (records, planted) where planted maps year -> exact mean.
    """
    records = []
    planted = {}
    span = year_hi - year_lo
    for year in range(year_lo, year_hi + 1):
        frac = (year - year_lo) / span
        target = 0.04 + (0.28 - 0.04) * frac
        total_causal = round(target * papers_per_year * claims_per_paper)
        planted[year] = total_causal / (papers_per_year * claims_per_paper)
        base, extra = divmod(total_causal, papers_per_year)
        for p in range(papers_per_year):
            k = base + (1 if p < extra else 0)
            claims = []
            for j in range(claims_per_paper):
                causal = j < k
                claims.append(ClaimEdge(
                    source="A1", sink="B2",
                    source_text=f"variant {j}",
                    sink_text="target",
                    methods=("RCT",) if causal else ("OLS",),
                    relationship="direct-causal" if causal else "correlation",
                ))
            records.append(PaperRecord(
                paper_id=f"t{year}_{p:02d}",
                year=year,
                fields=("macro",),
                edges=tuple(claims),
            ))
    return records, planted


def rows_to_columns(rows: list[dict]) -> dict[str, list]:
    """Per-paper dicts as a column table: one list per key any row holds,
    None where a row lacks the key."""
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: [row.get(key) for row in rows] for key in keys}
