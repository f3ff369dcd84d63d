import os
import subprocess
import sys

import pytest

import claimgraph
from claimgraph.ingest import parse_corpus_file
from claimgraph.tableio import read_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
LANDMARK_PATH = os.path.join(DATA_DIR, "landmark_corpus.jsonl")
# The src/ of the claimgraph under test. pytest's `pythonpath` setting
# reaches only its own process, so a child interpreter is given it.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(claimgraph.__file__)))
# The environment of a child interpreter that imports the same claimgraph as
# the tests, from a checkout as well as from an installed package.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)}


def read_csv_dicts(path: str) -> list[dict[str, str]]:
    """A CSV file's rows keyed by its header, as `read_table` reads them."""
    return [row for _, row in read_table(path)[1]]


@pytest.fixture(scope="session")
def fresh_python():
    """For checks that need an interpreter whose imports this test process
    has not made already: `run(code, *args)` runs `code` with `args` as
    `sys.argv[1:]` in a new interpreter that imports the claimgraph under
    test, and returns its exit code and its stdout and stderr together."""
    def run(code: str, *args: str, timeout: float = 30.0) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-c", code, *args], env=CLI_ENV,
                              timeout=timeout, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout
    return run


@pytest.fixture(scope="session")
def landmark_records():
    records, diagnostics = parse_corpus_file(LANDMARK_PATH)
    assert not diagnostics, [str(d) for d in diagnostics]
    return {r.paper_id: r for r in records}


@pytest.fixture(scope="session")
def landmark_path():
    return LANDMARK_PATH
