"""One pass of one workload, in a fresh process, so every cache starts empty.

Reads a job (JSON) on stdin and prints the pass result (JSON) on stdout:
setup time, per-request outputs and latencies, peak RSS and the K_nu cache
counters.  Every time is given as measured (``ms``) and normalised to the
reference speed of ``speed.py`` (``norm_ms``), whose sampler runs from the
first line to the end of the timed phase.  With ``"trace": true`` the layers
are wrapped for the timed phase only, restored afterwards, and the span
table is written to ``spans_path`` when the pass ends.
"""

import time

T0 = time.perf_counter()

import speed  # noqa: E402  (imports numpy, as toruszeta would)

SAMPLER = speed.SpeedSampler()
SAMPLER.start()

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    import toruszeta as tz
    import toruszeta.cli  # noqa: F401  (identity_suite goes through the CLI)

    import tracer as tr
    from workloads import run_request

    workload, inputs = job["workload"], job["inputs"]
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - T0, "norm_setup_s": SAMPLER.normalise(T0, t_setup)}
    if job.get("setup_only"):
        SAMPLER.stop()
        print(json.dumps(result))
        return

    # identity_suite requests are the checks the CLI runs; time each one
    # where the registry hands it to run_suite
    identities = sys.modules["toruszeta.identities"]
    registry, spans = identities.registry, []

    def timed_registry():
        def timed(check):
            def compute(prec):
                t = time.perf_counter()
                out = check.compute(prec)
                spans.append((check.check_id, t, time.perf_counter()))
                return out

            return dataclasses.replace(check, compute=compute)

        return [timed(check) for check in registry()]

    timed_registry.__wrapped__ = registry
    bindings = tr.rebind(registry, timed_registry)
    tracer = tr.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()

    records, intervals = [], []
    clock = time.perf_counter
    for req in inputs:
        t_req = clock()
        try:
            out, error = run_request(tz, workload, req), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        intervals.append((t_req, clock()))
        records.append({"out": out, "error": error})
    SAMPLER.stop()

    if tracer is not None:
        tracer.restore()
    tr.restore(bindings)
    leftover = tr.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"wrappers left in place: {leftover}")

    for rec, (a, b) in zip(records, intervals):
        rec.update(ms=(b - a) * 1e3, norm_ms=SAMPLER.normalise(a, b) * 1e3)
    if workload == "identity_suite":
        result["checks"] = [
            {"id": cid, "ms": (b - a) * 1e3, "norm_ms": SAMPLER.normalise(a, b) * 1e3}
            for cid, a, b in spans
        ]
    info = sys.modules["toruszeta.specialfn"]._bessel_k_cached.cache_info()
    result.update(
        records=records,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        bessel_cache={"hits": info.hits, "misses": info.misses},
        speed_samples=len(SAMPLER.took),
    )
    if tracer is not None:
        tracer.save(job["spans_path"], speed_at=SAMPLER.at, speed_took=SAMPLER.took)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
