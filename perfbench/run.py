"""Benchmark entry point for claimgraph.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The inputs of (workload, seed) are
generated by gen.py in a separate process and cached under
perfbench/.inputs/. The measured interpreter (measure.py) calls
`claimgraph.cli.main(argv)` in whole rounds for `--seconds`. Set-up is also
timed in fresh interpreters that import `claimgraph.cli` and stop, before
and after it. Outputs of the first round are checked against independent
computations (checks.py) and the work directory is removed.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
run_s, setup_s and peak_rss_mb; with `--trace 1`, the per-layer metrics,
which are also printed as a table above it. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("narrow", "wide", "yearly", "match")
# Set-up-only interpreters, besides the measured one. Half run before it and
# half after, so the set-up median samples the host over the whole run.
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0  # the whole run, generation and checks included
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KEEP_INPUTS = 12  # cached input sets kept per workload


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    ncpu = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        if env.get(var, "").isdigit() and int(env[var]) > ncpu:
            env[var] = str(ncpu)
    return env


def _gen_tag() -> str:
    with open(os.path.join(HERE, "gen.py"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:10]


def ensure_inputs(workload: str, seed: int) -> str:
    """Cached input directory of (workload, seed, generator version)."""
    cache = os.path.join(HERE, ".inputs")
    path = os.path.join(cache, f"{workload}-{seed}-{_gen_tag()}")
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload",
                    workload, "--seed", str(seed), "--out", tmp],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    try:
        os.rename(tmp, path)
    except OSError:  # another run cached the same inputs first
        shutil.rmtree(tmp)
    stale = sorted((d for d in os.listdir(cache)
                    if d.startswith(f"{workload}-") and ".tmp" not in d),
                   key=lambda d: os.path.getmtime(os.path.join(cache, d)))
    for d in stale[:-KEEP_INPUTS]:
        shutil.rmtree(os.path.join(cache, d), ignore_errors=True)
    return path


def spawn(args: list[str], log: str, deadline: float) -> tuple[float, dict]:
    """Run measure.py; returns its set-up time and its result object."""
    result_path = log + ".json"
    with open(log, "w", encoding="utf-8") as log_fh:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), *args,
             "--result", result_path],
            cwd=ROOT, env=child_env(), stdout=log_fh, stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"measure.py exited with {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result["ready"] - start, result


def run_checks(workload: str, inputs: str, out: str) -> tuple[list[str], dict]:
    import checks

    if workload in ("narrow", "wide"):
        return checks.check_pipeline(inputs, out)
    if workload == "yearly":
        return checks.check_yearly(inputs, out)
    from measure import MATCH_THRESHOLD

    return checks.check_match(inputs, out, float(MATCH_THRESHOLD))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="claimgraph benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "claimgraph", "cli.py")):
        return _fail(f"no claimgraph sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        return _fail(f"no tests/oracles.py under {ROOT}")

    inputs = ensure_inputs(args.workload, args.seed)
    work = os.path.join(HERE, ".runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    probe = ["--workload", args.workload, "--inputs", inputs, "--setup-only"]
    try:
        setups = [spawn(probe, os.path.join(work, f"setup{k}.log"), deadline)[0]
                  for k in range(SETUP_PROBES // 2)]
        measured = ["--workload", args.workload, "--inputs", inputs,
                    "--work", work, "--seconds", str(args.seconds)]
        if args.trace:
            measured.append("--trace")
        setup, result = spawn(measured, os.path.join(work, "measure.log"), deadline)
        setups.append(setup)
        setups += [spawn(probe, os.path.join(work, f"setup{k}.log"), deadline)[0]
                   for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
        if "error" in result:
            return _fail(result["error"])
        if not result["claimgraph"].startswith(os.path.join(ROOT, "src")):
            return _fail(f"measured an installed claimgraph: {result['claimgraph']}")
        check_start = time.monotonic()
        fails, extra = run_checks(args.workload, inputs, result["output_dir"])
        check_s = time.monotonic() - check_start
        if result["rounds_mismatched"]:
            fails.append(f"{result['rounds_mismatched']} rounds wrote other bytes than round 0")
        if args.trace:
            shutil.copy(os.path.join(work, "spans.csv"),
                        os.path.join(HERE, ".runs", f"spans-{args.workload}.csv"))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_s = statistics.median(result["round_s"])
    if args.trace:
        values = dict(result["trace"])
        values["graphs.paths"] = float(extra.get("graphs.paths", 0))
        values["traced.run_s"] = run_s
    else:
        values = {"run_s": run_s, "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:28s} {metric['value']:>18.6f} {metric['unit']}")
    for message in fails:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if result["errors"]:
        print(f"failed operations: {result['errors']}", file=sys.stderr)
    print(f"rounds={len(result['round_s'])} round_s={result['round_s']} "
          f"setup_s={setups} check_s={check_s:.2f} {extra.get('max_error', '')}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
