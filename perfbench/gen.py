"""Seeded input generator for the claimgraph benchmark.

Writes every input file of one workload into an output directory, plus
`digests.json` (sha256 of each file). It imports nothing from claimgraph or
from the test suite, so later changes there cannot change what is measured:
the same seed and Python version give the same bytes.

    python3 perfbench/gen.py --workload wide --seed 1 --out /tmp/wide-1

prints the digests of the files it wrote, one `<sha256>  <name>` line each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from itertools import accumulate

WORKLOADS = ("narrow", "wide", "yearly", "match")

CAUSAL_TAGS = ["RCT", "IV", "DiD", "RDD", "Event Study", "Synthetic Control"]
NONCAUSAL_TAGS = ["OLS", "Panel", "Theoretical", "Simulations",
                  "Structural Estimation", "Calibration"]
FIELDS = ["labor", "macro", "trade", "development", "finance", "io"]
TIERS = ["Top5", "Top6to20", "Top21to100", "Other", "Unpublished"]

# narrow and yearly: the acceptance-shaped corpus.
NARROW = dict(n_papers=10_000, year_lo=1990, year_hi=2010, pool_size=60,
              max_claims=8, node_cap=10, p_causal=0.4)
# wide: the paper's 44 years, papers per year rising linearly. Codes are
# drawn with Zipf(zipf) popularity: with a uniform pool, the sparse early
# years make eigenvector centrality fail to converge on most seeds.
WIDE = dict(year_lo=1980, year_hi=2023, per_year_lo=40, per_year_hi=230,
            pool_size=480, max_claims=8, node_cap=12, p_causal=0.4, zipf=1.0)
# Journals of the two outcome tables; the last two are absent from the rank
# table, so they map to tier Other.
JOURNALS = ["American Economic Review", "Econometrica",
            "Journal of Political Economy", "Quarterly Journal of Economics",
            "Review of Economic Studies", "Journal of Labor Economics",
            "Journal of Public Economics", "Economic Journal",
            "Journal of Development Economics", "Regional Letters",
            "Working Notes Quarterly"]
RANKS = [("American Economic Review", "Top5"), ("Econometrica", "Top5"),
         ("Journal of Political Economy", "Top5"),
         ("Quarterly Journal of Economics", "Top5"),
         ("Review of Economic Studies", "Top5"),
         ("Journal of Labor Economics", "Top6to20"),
         ("Journal of Public Economics", "Top6to20"),
         ("Economic Journal", "Top21to100"),
         ("Journal of Development Economics", "Top21to100")]
# match: index of code vectors and planted queries at sentence-embedding
# dimension. `duplicates` index rows repeat an earlier row's vector
# exactly, so best-match ties occur and must break toward the smaller code.
MATCH = dict(n_codes=200, n_queries=200, dim=384, noise=0.35, duplicates=6)


def code_pool(size: int) -> list[str]:
    pool = [f"{letter}{digit}" for letter in "ABCDEFGHIJKLMNOPQR"
            for digit in range(1, 28)]
    if size > len(pool):
        raise ValueError(f"pool size {size} too large")
    return pool[:size]


def _edge(rng: random.Random, codes: list[str], idx: int, p_causal: float) -> dict:
    u, v = rng.sample(codes, 2)
    causal = rng.random() < p_causal
    return {"source_code": u, "sink_code": v,
            "source_text": f"concept {u} ({idx})", "sink_text": f"concept {v}",
            "methods": [rng.choice(CAUSAL_TAGS if causal else NONCAUSAL_TAGS)],
            "relationship": "direct-causal" if causal else "correlation"}


def _local_codes(rng: random.Random, codes: list[str], node_cap: int,
                 cum_weights: list[float] | None) -> list[str]:
    if node_cap >= len(codes):
        return codes
    if cum_weights is None:
        return rng.sample(codes, node_cap)
    local: dict[str, None] = {}
    while len(local) < node_cap:
        local[rng.choices(codes, cum_weights=cum_weights)[0]] = None
    return list(local)


def _paper(rng: random.Random, paper_id: str, year: int, codes: list[str],
           max_claims: int, node_cap: int, p_causal: float,
           inline_outcomes: bool, cum_weights: list[float] | None = None) -> dict:
    local = _local_codes(rng, codes, node_cap, cum_weights)
    n_claims = rng.randint(1, max_claims)
    obj = {"paper_id": paper_id, "year": year,
           "fields": sorted(rng.sample(FIELDS, rng.randint(1, 2))),
           "title": f"Working paper {paper_id}",
           "edges": [_edge(rng, local, i, p_causal) for i in range(n_claims)]}
    if inline_outcomes:
        obj["pub_tier"] = rng.choice(TIERS)
        if rng.random() < 0.8:
            obj["citations"] = rng.randint(0, 900)
    return obj


def narrow_papers(seed: int) -> list[dict]:
    p = NARROW
    rng = random.Random(seed)
    codes = code_pool(p["pool_size"])
    papers = []
    for i in range(p["n_papers"]):
        year = rng.randint(p["year_lo"], p["year_hi"])
        papers.append(_paper(rng, f"p{i:05d}", year, codes, p["max_claims"],
                             p["node_cap"], p["p_causal"], inline_outcomes=True))
    return papers


def wide_papers(rng: random.Random) -> list[dict]:
    p = WIDE
    codes = code_pool(p["pool_size"])
    cum_weights = list(accumulate(1.0 / (i + 1) ** p["zipf"] for i in range(len(codes))))
    span = p["year_hi"] - p["year_lo"]
    papers = []
    for year in range(p["year_lo"], p["year_hi"] + 1):
        frac = (year - p["year_lo"]) / span
        count = round(p["per_year_lo"] + (p["per_year_hi"] - p["per_year_lo"]) * frac)
        for _ in range(count):
            papers.append(_paper(rng, f"w{len(papers):05d}", year, codes,
                                 p["max_claims"], p["node_cap"], p["p_causal"],
                                 inline_outcomes=False, cum_weights=cum_weights))
    return papers


def _jsonl(papers: list[dict]) -> str:
    return "".join(json.dumps(p, sort_keys=True) + "\n" for p in papers)


def _csv(header: list[str], rows: list[list]) -> str:
    # Every generated cell is free of commas, quotes and newlines.
    return "".join(",".join(str(c) for c in row) + "\n" for row in [header] + rows)


def outcome_tables(rng: random.Random, papers: list[dict]) -> dict[str, str]:
    """Two prioritised outcome tables and a rank table for the wide corpus.

    The primary table keys rows by paper_id. The secondary one keys a third
    of its rows by title only (upper-cased, so matching must normalise), and
    disagrees with the primary on some journals and citation counts.
    """
    primary, secondary = [], []
    for paper in papers:
        pid = paper["paper_id"]
        if rng.random() < 0.5:
            journal = rng.choice(JOURNALS) if rng.random() < 0.7 else ""
            cites = rng.randint(0, 2000) if rng.random() < 0.6 else ""
            primary.append([pid, journal, cites])
        if rng.random() < 0.6:
            journal = rng.choice(JOURNALS) if rng.random() < 0.6 else ""
            cites = rng.randint(0, 2000) if rng.random() < 0.9 else ""
            if rng.random() < 1 / 3:
                secondary.append(["", paper["title"].upper(), journal, cites])
            else:
                secondary.append([pid, "", journal, cites])
    return {
        "outcomes_primary.csv": _csv(["paper_id", "journal", "citations"], primary),
        "outcomes_secondary.csv": _csv(["paper_id", "title", "journal", "citations"],
                                       secondary),
        "ranks.csv": _csv(["journal", "tier"], [list(r) for r in RANKS]),
    }


def _vector_line(name: str, vec: list[float]) -> str:
    return name + "," + ",".join(f"{v:.6f}" for v in vec) + "\n"


def match_files(rng: random.Random) -> dict[str, str]:
    p = MATCH
    codes = code_pool(p["n_codes"])
    vectors = {c: [rng.gauss(0.0, 1.0) for _ in range(p["dim"])] for c in codes}
    # A later code copies an earlier code's vector, so the earlier (smaller)
    # code wins the tie.
    for _ in range(p["duplicates"]):
        lo, hi = sorted(rng.sample(range(len(codes)), 2))
        vectors[codes[hi]] = list(vectors[codes[lo]])
    index = "# code vectors\n" + "".join(_vector_line(c, vectors[c]) for c in codes)
    queries, answers = ["# planted queries\n"], []
    for i in range(p["n_queries"]):
        planted = rng.choice(codes)
        vec = [v + rng.gauss(0.0, p["noise"]) for v in vectors[planted]]
        queries.append(_vector_line(f"q{i:04d}", vec))
        answers.append([f"q{i:04d}", planted])
    return {"index.csv": index, "queries.csv": "".join(queries),
            "planted.csv": _csv(["query_id", "code"], answers)}


def config_text(corpus: str, extra: dict[str, str] | None = None) -> str:
    lines = [f"corpus = {corpus}"]
    lines += [f"{k} = {v}" for k, v in (extra or {}).items()]
    return "\n".join(lines) + "\n"


def workload_files(workload: str, seed: int) -> dict[str, str]:
    if workload == "narrow":
        return {"corpus.jsonl": _jsonl(narrow_papers(seed)),
                "run.cfg": config_text("corpus.jsonl")}
    if workload == "yearly":
        by_year: dict[int, list[dict]] = {}
        for paper in narrow_papers(seed):
            by_year.setdefault(paper["year"], []).append(paper)
        return {f"corpus_{year}.jsonl": _jsonl(by_year[year]) for year in sorted(by_year)}
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wide":
        papers = wide_papers(rng)
        files = {"corpus.jsonl": _jsonl(papers)}
        files.update(outcome_tables(rng, papers))
        files["run.cfg"] = config_text("corpus.jsonl", {
            "outcomes": "outcomes_primary.csv, outcomes_secondary.csv",
            "ranks": "ranks.csv"})
        return files
    if workload == "match":
        return match_files(rng)
    raise ValueError(f"unknown workload {workload!r}")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_inputs(workload: str, seed: int, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    digests = {}
    for name, text in workload_files(workload, seed).items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        digests[name] = sha256_file(path)
    with open(os.path.join(out_dir, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args(argv)
    digests = write_inputs(args.workload, args.seed, args.out)
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
