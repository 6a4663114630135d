"""Benchmark of toruszeta: one workload, one seed, one closed-loop client.

    python3 benchmarks/run.py --workload torus_eval --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from src/.
Every pass is a fresh worker process (caches start empty) that sends the
seeded requests one at a time.  Passes repeat until --seconds have gone by;
the end-to-end times are medians over the passes, normalised to a fixed
machine speed (speed.py).  With
--trace 1 passes alternate untraced and traced, and the per-layer figures
come from the traced ones.  Outputs are then checked against independent
references (checks.py).  The last line of stdout is the result, as JSON:
{"correct", "attempted", "failed", "metrics"}; the lines above it print every
metric with its unit and sample count, and the run metadata.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_SETUPS = 5  # set-up samples per run; set-up-only workers make up the count
RUN_LIMIT_S = 170  # a worker still running this long after the start is a failure
T_START = time.perf_counter()

# one closed-loop client on a 2-core box: no hidden thread pools
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "TORUSZETA_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> None:
    sys.stderr.write(f"benchmark: {message}\n")
    raise SystemExit(2)


def run_worker(job: dict) -> dict:
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - T_START)),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        fail(f"a worker was still running {RUN_LIMIT_S} s after the start")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args: argparse.Namespace) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        **versions, "commit": git_commit(), "pinned_env": PINNED_ENV,
        "speed_ref_s": speed.REF_S, "speed_period_s": speed.PERIOD_S,
    }


def request_times(workload: str, passes: list[dict], key: str = "norm_ms") -> np.ndarray:
    """Each request's time (ms), the median over the passes.

    Every pass sends the same requests in the same order (identity_suite:
    runs the same checks), so request i of one pass repeats request i of
    another.  ``norm_ms`` is normalised to the reference speed, ``ms`` is
    as measured."""
    field = "checks" if workload == "identity_suite" else "records"
    return np.median(np.array([[r[key] for r in p[field]] for p in passes]), axis=0)


def judge(workload: str, inputs: list[dict], passes: list[dict]):
    """(attempted, failed, correct_digits_min, known, problems) over every pass.

    The first pass is checked against the references; every later pass must
    reproduce its outputs bit for bit.  A request that raised, failed its
    check or changed its output counts as failed in the pass where it did."""
    from checks import check_pass

    first = passes[0]["records"]
    problems = [f"request {i}: {r['error']}" for i, r in enumerate(first) if r["error"]]
    if problems:  # the checks need every output of the pass
        n = len(first) * len(passes)
        return n, sum(r["error"] is not None for p in passes for r in p["records"]), 0.0, [], problems
    verdicts = check_pass(workload, inputs, first)
    bad = [not v.ok for v in verdicts]
    known = [f"request {i}: {note}" for i, v in enumerate(verdicts) for note in v.known]
    for i, v in enumerate(verdicts):
        problems += [f"request {i}: {f}" for f in v.failures()]
    failed = sum(bad) * len(passes)
    if workload != "identity_suite":  # one record per verdict
        for k, p in enumerate(passes[1:], start=2):
            for i, (rec, ref_rec) in enumerate(zip(p["records"], first)):
                if rec["out"] != ref_rec["out"] and not bad[i]:
                    problems.append(f"pass {k} request {i}: output differs from pass 1")
                    failed += 1
    else:
        for k, p in enumerate(passes[1:], start=2):
            if p["records"][0]["out"] != first[0]["out"]:
                problems.append(f"pass {k}: suite output differs from pass 1")
                failed += len(verdicts) - sum(bad)
    digits = min(v.digits for v in verdicts)
    return len(verdicts) * len(passes), failed, digits, known, problems


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> dict:
    """{metric: (value, unit, samples)} for an untraced run, normalised to
    the reference speed of speed.py."""
    times = request_times(workload, passes)
    n = times.size * len(passes)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (float(times.sum()) / 1e3, "s", n),
        "latency_p50_ms": (float(np.percentile(times, 50)), "ms", n),
        "latency_p90_ms": (float(np.percentile(times, 90)), "ms", n),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "toruszeta" / "__init__.py").is_file():
        fail(f"no toruszeta sources under {SRC}; run from a source checkout")
    try:
        import mpmath  # noqa: F401  (the references need it)
    except ImportError:
        fail("mpmath is required for the reference checks")
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    inputs = make_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    job = {"src": str(SRC), "workload": args.workload, "inputs": inputs}

    plain: list[dict] = []
    traced: list[dict] = []
    t_run = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        plain.append(run_worker({**job, "trace": False}))
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{len(traced)}.npz"
            traced.append(run_worker({**job, "trace": True, "spans_path": str(spans)}))
            traced[-1]["spans_path"] = str(spans)
        now = time.perf_counter()
        # stop at the pass boundary nearest to --seconds
        if now - t_run + 0.5 * (now - t_pass) >= args.seconds:
            break
    setup_runs = list(plain)
    while not args.trace and len(setup_runs) < MIN_SETUPS:
        setup_runs.append(run_worker({**job, "setup_only": True}))
    setups = [p["norm_setup_s"] for p in setup_runs]

    attempted, failed, digits, known, problems = judge(args.workload, inputs, plain + traced)
    meta = metadata(args)
    if args.trace:
        from layers import per_layer

        overhead = (request_times(args.workload, traced).sum()
                    / request_times(args.workload, plain).sum() - 1.0)
        units, trace_problems = per_layer(traced, float(overhead))
        problems += trace_problems
    else:
        units = end_to_end(args.workload, plain, setups)
    print(f"# meta {json.dumps(meta)}")
    for name, (value, unit, n) in units.items():
        print(f"# {name} = {value:.6g} {unit} (n={n})")
    raw = {"setup_s": statistics.median(p["setup_s"] for p in setup_runs),
           "wall_s": float(request_times(args.workload, plain, "ms").sum()) / 1e3}
    print(f"# as measured, not normalised: setup_s = {raw['setup_s']:.6g} s, "
          f"wall_s = {raw['wall_s']:.6g} s")
    print(f"# failed_frac = {failed / attempted:.6g} (failed {failed} of {attempted} requests)")
    print(f"# correct_digits_min = {digits:.4g} digits (n={attempted // len(plain + traced)})")
    for line in known:
        print(f"# known defect: {line}")
    for line in problems[:20]:
        print(f"# problem: {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in units.items()},
    }
    field = "checks" if args.workload == "identity_suite" else "records"
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            **result, "meta": meta, "samples": {k: n for k, (_, _, n) in units.items()},
            "correct_digits_min": digits, "known_defects": known, "problems": problems,
            "as_measured": raw,
            "passes": [{"setup_s": p["setup_s"], "norm_setup_s": p["norm_setup_s"],
                        "traced": k >= len(plain), "speed_samples": p["speed_samples"],
                        "request_ms": [r["ms"] for r in p[field]],
                        "request_norm_ms": [r["norm_ms"] for r in p[field]]}
                       for k, p in enumerate(plain + traced)],
        }, indent=1)
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
