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
