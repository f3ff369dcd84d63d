"""The benchmark's tracer (`perfbench/tracing.py`) wraps claimgraph
functions by module and name; a rename or deletion would break
`perfbench/run.py --trace 1`."""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _traced_names() -> list[tuple[str, str]]:
    """(module, function) of every entry in the tracer's SPANS and COUNTS,
    read from its source without importing it."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "COUNTS")):
            names += [(mod, fn) for mod, fn, _ in ast.literal_eval(node.value)]
    return names


def test_every_traced_function_resolves():
    traced = _traced_names()
    assert ("pipeline", "run_regressions") in traced
    assert ("model", "normalize_method_tag") in traced
    missing = [f"claimgraph.{mod}.{fn}" for mod, fn in traced
               if not callable(getattr(importlib.import_module(f"claimgraph.{mod}"),
                                       fn, None))]
    assert not missing


PERFBENCH = os.path.dirname(TRACING)


def _claimgraph_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every `from claimgraph... import name` in
    the benchmark's scripts, at any depth, read without running them."""
    imports = []
    for entry in sorted(os.listdir(PERFBENCH)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imports += [(entry, node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "claimgraph"
                    for alias in node.names]
    return imports


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_benchmark_import_resolves():
    imports = _claimgraph_imports()
    assert ("checks.py", "claimgraph.tableio", "format_cell") in imports
    assert not [f"{entry}: from {module} import {name}"
                for entry, module, name in imports if not _resolves(module, name)]


def test_the_attributes_the_tracer_reads_exist():
    from synth import random_corpus
    from claimgraph.centrality import CumulativeGraph
    from claimgraph.graphs import build_graph
    from claimgraph.novelty import LedgerState
    from claimgraph.pipeline import (PipelineConfig, compute_measure_table,
                                     default_battery, run_regressions)

    ledger = LedgerState()
    assert [len(ledger.seen_edges), len(ledger.seen_paths),
            len(ledger.seen_signatures)] == [0, 0, 0]
    assert len(CumulativeGraph().edges) == 0
    records = random_corpus(3, n_papers=6, year_lo=2000, year_hi=2001,
                            pool_size=8, max_claims=4)
    assert build_graph(records[0], "causal").view == "causal"
    table = compute_measure_table(records, PipelineConfig())
    rows = run_regressions(table, default_battery())
    assert rows and all("error" in row for row in rows)


LOADED_AT_START_UP = """
import sys

import claimgraph.embedding, claimgraph.cli, claimgraph.pipeline

print(" ".join(sorted(sys.modules)))
"""


def test_the_tracers_modules_are_loaded_at_start_up(fresh_python):
    """`Tracer.install()` looks each traced module up in `sys.modules` after
    the imports `perfbench/measure.py` makes, so none may load lazily."""
    code, output = fresh_python(LOADED_AT_START_UP)
    assert code == 0, output
    loaded = set(output.split())
    assert not {f"claimgraph.{mod}" for mod, _ in _traced_names()} - loaded
