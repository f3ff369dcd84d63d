"""The measured process: one fresh interpreter per benchmark run.

It imports `claimgraph.cli` from the checkout's `src/`, prepares the
workload's argument lists and reports when the first timed call could begin
(set-up). It then checks the input digests, which also reads every input
once untimed, and calls `cli.main(argv)` in whole rounds within
`--seconds`. Each round writes to a fresh directory. The process holds
nothing but program state, so its peak RSS and garbage-collection cost are
the program's own. Results go to the `--result` file as JSON; run.py reads
them and checks the outputs.

    python3 perfbench/measure.py --workload wide --inputs DIR --work DIR \
        --seconds 35 --result result.json [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MATCH_THRESHOLD = "0.12"
YEARLY_VIEWS = ("full", "causal")


def round_argvs(workload: str, inputs: str, out: str) -> list[list[str]]:
    """The cli.main calls of one round, writing only under `out`."""
    if workload in ("narrow", "wide"):
        return [["run", "--config", os.path.join(inputs, "run.cfg"), "--out", out]]
    if workload == "match":
        common = ["match", "--index", os.path.join(inputs, "index.csv"),
                  "--queries", os.path.join(inputs, "queries.csv")]
        return [common + ["--out", os.path.join(out, "best.csv")],
                common + ["--threshold", MATCH_THRESHOLD,
                          "--out", os.path.join(out, "threshold.csv")]]
    if workload == "yearly":
        # Each year's state goes to a new file and the next year reads it.
        # Rewriting one state file in place (the same --ledger-in and
        # --ledger-out) put 2-20% of a round's wall time off the CPU, most
        # likely ext4 waiting on the disk write of the previous contents.
        argvs = []
        files = sorted(glob.glob(os.path.join(inputs, "corpus_*.jsonl")))
        years = [os.path.basename(p)[len("corpus_"):-len(".jsonl")] for p in files]
        for idx, (path, year) in enumerate(zip(files, years)):
            for view in YEARLY_VIEWS:
                ledger = os.path.join(out, f"ledger_{view}_{year}.txt")
                table = os.path.join(out, f"pairs_{view}_{year}.txt")
                novelty = ["novelty", "--corpus", path, "--view", view,
                           "--ledger-out", ledger,
                           "--out", os.path.join(out, f"novelty_{view}_{year}.csv")]
                gaps = ["gaps", "--corpus", path, "--view", view,
                        "--table-out", table,
                        "--out", os.path.join(out, f"gaps_{view}_{year}.csv")]
                if idx:
                    prev = years[idx - 1]
                    novelty += ["--ledger-in", os.path.join(out, f"ledger_{view}_{prev}.txt")]
                    gaps += ["--table-in", os.path.join(out, f"pairs_{view}_{prev}.txt")]
                argvs += [novelty, gaps]
        return argvs
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digest_dir(path: str) -> dict[str, str]:
    return {name: _sha256(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def check_inputs(inputs: str) -> list[str]:
    """Input files whose sha256 differs from the digests the generator wrote."""
    with open(os.path.join(inputs, "digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    return [name for name, digest in sorted(want.items())
            if _sha256(os.path.join(inputs, name)) != digest]


def run_rounds(cli, workload: str, inputs: str, work: str, seconds: float,
               tracer=None) -> dict:
    """Whole rounds within `seconds`: a further round starts only if, at the
    median round time so far, it would end in time, so the measured span
    never runs a long round past `seconds`. Round 0's output directory is
    kept for the checks; every later round must reproduce its bytes."""
    round_s: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    mismatched = 0
    first = os.path.join(work, "round0")
    reference: dict[str, str] | None = None
    start = time.perf_counter()
    while not round_s or (time.perf_counter() - start
                          + statistics.median(round_s) <= seconds):
        out = os.path.join(work, f"round{len(round_s)}")
        os.makedirs(out)
        argvs = round_argvs(workload, inputs, out)
        if tracer is not None:
            tracer.round = len(round_s)
        gc.collect()
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            attempted += 1
            if rc != 0:
                failed += 1
                errors.append(f"{argv[0]}: {rc}")
        round_s.append(time.perf_counter() - t0)
        digests = digest_dir(out)
        if reference is None:
            reference = digests
        else:
            mismatched += digests != reference
            shutil.rmtree(out)
    return {"round_s": round_s, "attempted": attempted, "failed": failed,
            "errors": errors[:5], "rounds_mismatched": mismatched,
            "output_dir": first,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", default="")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.span("cli.import"):
            with tracer.span("embedding.import"):
                import claimgraph.embedding  # noqa: F401  (requests loads here)
            import claimgraph.cli  # noqa: F401
    from claimgraph import cli
    from claimgraph.pipeline import parse_config_file

    if args.workload in ("narrow", "wide"):
        parse_config_file(os.path.join(args.inputs, "run.cfg"))
    ready = time.monotonic()
    result: dict = {"ready": ready, "claimgraph": os.path.abspath(cli.__file__)}
    if not args.setup_only:
        bad = check_inputs(args.inputs)
        if bad:
            result["error"] = f"input digests differ: {', '.join(bad)}"
        else:
            if tracer is not None:
                tracer.install()
            result.update(run_rounds(cli, args.workload, args.inputs, args.work,
                                     args.seconds, tracer))
            if tracer is not None:
                result["trace"] = tracer.summary()
                tracer.write(os.path.join(args.work, "spans.csv"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
