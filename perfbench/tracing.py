"""Spans and counts around claimgraph's public functions, from outside src/.

`Tracer.install()` replaces each traced function with a wrapper in every
claimgraph module that holds it, including names bound by `from ... import`
(cli.py and pipeline.py bind most of them at import). A span records name,
start, end, parent span and round; counts are kept per round. Everything
stays in memory until `write()` and `summary()` at exit.

A layer's self time is its spans' durations minus the durations of the
traced spans directly inside them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, function, span name). Functions that share a span name form one
# layer.
SPANS = [
    ("ingest", "parse_corpus_file", "ingest.parse"),
    ("ingest", "load_outcome_table", "ingest.merge"),
    ("ingest", "load_rank_table", "ingest.merge"),
    ("ingest", "merge_outcomes", "ingest.merge"),
    ("graphs", "build_graph", "graphs.build"),
    ("graphs", "complexity_measures", "graphs.complexity"),
    ("novelty", "score_corpus", "novelty.score"),
    ("novelty", "load_ledger_file", "novelty.ledger_load"),
    ("novelty", "save_ledger_file", "novelty.ledger_save"),
    ("cooccurrence", "score_corpus", "cooccurrence.score"),
    ("cooccurrence", "load_pair_table_file", "cooccurrence.table_load"),
    ("cooccurrence", "save_pair_table_file", "cooccurrence.table_save"),
    ("centrality", "score_corpus", "centrality.score"),
    ("centrality", "eigenvector_centrality", "centrality.eigen"),
    ("centrality", "pagerank", "centrality.pagerank"),
    ("pipeline", "run_regressions", "regression.battery"),
    ("trends", "aggregate_trends", "trends.aggregate"),
    ("tableio", "write_csv", "tableio.write"),
    ("tableio", "write_csv_dicts", "tableio.write"),
    ("pipeline", "run_pipeline", "pipeline"),
    ("cli", "main", "cli"),
    ("embedding", "load_embedding_table", "embedding.load"),
    ("embedding", "match_concept", "embedding.match"),
    ("embedding", "match_concept_all", "embedding.match"),
]
# (module, function, count name): counted only, too hot for a span each.
COUNTS = [
    ("model", "normalize_method_tag", "model.tag_normalisations"),
    ("embedding", "cosine_similarity", "embedding.similarities"),
]


def _ledger_entries(ledger) -> int:
    return len(ledger.seen_edges) + len(ledger.seen_paths) + len(ledger.seen_signatures)


class Tracer:
    def __init__(self) -> None:
        self.round = -1  # spans before the first round: imports
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        # (round, view) -> entries of the last ledger novelty returned
        self.ledgers: dict[tuple[int, str], int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, time.perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1, self.round]
        self.spans.append(record)
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.round, name)] += n

    def _after(self, name: str, args, result) -> None:
        """Counts taken from a traced call's arguments and result."""
        if name == "graphs.build":
            self.count("graphs.build_calls")
        elif name == "novelty.score" and args[0]:
            self.ledgers[(self.round, args[0][0].view)] = _ledger_entries(result[1])
        elif name in ("novelty.ledger_save", "cooccurrence.table_save"):
            self.count(name.replace("_save", "_bytes"), os.path.getsize(args[1]))
        elif name == "centrality.eigen":
            self.count("centrality.eigen_calls")
            key = (self.round, "centrality.max_edges")
            self.counts[key] = max(self.counts[key], len(args[0].edges))
        elif name == "centrality.pagerank":
            self.count("centrality.pagerank_calls")
        elif name == "regression.battery":
            self.count("regression.specs", len(result))
            self.count("regression.spec_errors",
                       sum(1 for row in result if row.get("error")))

    def _wrap_span(self, name: str, fn, bytes_arg: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._after(name, args, result)
            if bytes_arg:
                self.count("tableio.bytes", os.path.getsize(args[0]))
            return result
        return wrapper

    def _wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.round, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "claimgraph" or n.startswith("claimgraph.")]
        wrappers = []
        for mod, fn_name, name in SPANS:
            fn = getattr(sys.modules[f"claimgraph.{mod}"], fn_name)
            # write_csv_dicts goes through write_csv; count bytes once.
            wrappers.append((fn, self._wrap_span(name, fn, fn_name == "write_csv")))
        for mod, fn_name, name in COUNTS:
            fn = getattr(sys.modules[f"claimgraph.{mod}"], fn_name)
            wrappers.append((fn, self._wrap_count(name, fn)))
        for fn, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self time per (round, span name)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for (name, _, _, _, rnd), value in zip(self.spans, own):
            totals[(rnd, name)] += value
        return totals

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: times are medians over rounds of per-round self
        time; counts are per round (identical in every round)."""
        selfs = self.self_times()
        rounds = sorted({rnd for _, _, _, _, rnd in self.spans if rnd >= 0})

        def per_round(name: str) -> float:
            return statistics.median(selfs.get((r, name), 0.0) for r in rounds)

        def first_round(name: str) -> float:
            return self.counts.get((rounds[0], name), 0.0)

        out = {f"{name}_s": per_round(name) for name in sorted(
            {name for _, _, name in SPANS} - {"pipeline", "cli"})}
        out["pipeline.self_s"] = per_round("pipeline")
        out["cli.self_s"] = per_round("cli")
        steps = [end - start for name, start, end, _, rnd in self.spans
                 if name == "cli" and rnd >= 0]
        out["cli.step_s"] = statistics.median(steps)
        out["cli.import_s"] = selfs[(-1, "cli.import")]
        out["embedding.import_s"] = selfs[(-1, "embedding.import")]
        for name in ("model.tag_normalisations", "embedding.similarities",
                     "graphs.build_calls", "novelty.ledger_bytes",
                     "cooccurrence.table_bytes", "centrality.eigen_calls",
                     "centrality.pagerank_calls", "centrality.max_edges",
                     "regression.specs", "regression.spec_errors",
                     "tableio.bytes"):
            out[name] = first_round(name)
        out["novelty.ledger_entries"] = float(sum(
            n for (rnd, _), n in self.ledgers.items() if rnd == rounds[0]))
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,round\n")
            for name, start, end, parent, rnd in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{rnd}\n")
