"""Seeded inputs and the request each workload sends to toruszeta.

``make_inputs`` runs in ``run.py`` and uses only the standard
library, so the same (workload, seed) always gives the same inputs.
``run_request`` runs in the worker process, one request at a time.

Inputs are drawn by stratified sampling: each request of a pass takes its
own slice of the sampled ranges, at a seeded place inside it and in a
seeded order.  The cost of a request depends strongly on tau2 and s,
so this keeps the work of a pass close to the same from seed to seed without
fixing any input.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout

WORKLOADS = ("torus_eval", "operator_det", "identity_suite", "lattice_direct")

TORUS_POINTS, TORUS_GENERATOR = 377, 233  # consecutive Fibonacci numbers
LATTICE_POINTS = 16


def _strata(rng: random.Random, k: int) -> list[float]:
    """k draws in [0, 1), one from each slice [i/k, (i+1)/k), in seeded order."""
    order = list(range(k))
    rng.shuffle(order)
    return [(i + rng.random()) / k for i in order]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _torus_eval(rng: random.Random) -> list[dict]:
    # Re s over [-2, 3] and log tau2 over [log 0.05, log 2] on a randomly
    # shifted Fibonacci lattice: every Re s slice of width 5/TORUS_POINTS holds
    # one point, as does every tau2 slice, and the pairs cover the rectangle
    # evenly.  Cost climbs steeply for small tau2 and for Re s just below 1
    # (the contour's tanh-sinh runs to its level cap), and the lattice keeps
    # the number of such points in a pass close to the same for every seed.
    # Half of the points get a complex s.
    shift_s, shift_tau = rng.random(), rng.random()
    complex_s = [k % 2 == 0 for k in range(TORUS_POINTS)]
    rng.shuffle(complex_s)
    reqs = []
    for k in range(TORUS_POINTS):
        u_s = (k / TORUS_POINTS + shift_s) % 1.0
        u_tau = (k * TORUS_GENERATOR / TORUS_POINTS + shift_tau) % 1.0
        tau = [rng.uniform(-1.0, 1.0), _log_uniform(u_tau, 0.05, 2.0)]
        s = complex(-2.0 + 5.0 * u_s, rng.uniform(-1.5, 1.5) if complex_s[k] else 0.0)
        if abs(s - 1.0) < 0.05:  # the pole of E*
            s += 0.1
        reqs.append({"s": [s.real, s.imag], "tau": tau})
    rng.shuffle(reqs)
    return reqs


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform draw rounded to the 4 decimals the expression text carries."""
    return round(rng.uniform(lo, hi), 4)


def _fmt(x: float) -> str:
    return f"({x:.4f})" if x < 0 else f"{x:.4f}"


# zeta_operator's s for each family.  Up to s = 0.2 zeta_operator reuses the
# lambda nodes of log_det_numeric; from s = 0.6 on its tanh-sinh head runs
# to the level cap (for V = 0 at s >= 0.7 without meeting its tolerance),
# about 1400 more ODE solves.  In between the extra work jumps with s and V,
# so a pass whose s fell there would cost up to twice as much for one seed
# as for the next.  Each family keeps to its own slice of (-0.45, 0.95)
# outside that band, and every pass has both kinds of s.
OPERATOR_S = {"zero": (0.7, 0.95), "const": (-0.45, -0.2), "poly": (-0.2, 0.05),
              "sin": (0.05, 0.2), "exp": (0.62, 0.8)}


def _operator_det(rng: random.Random) -> list[dict]:
    c = _coef(rng, -8.0, 8.0)  # V > -pi^2 keeps the spectrum positive
    a, b, c0 = (_coef(rng, -3.0, 3.0) for _ in range(3))
    amp, freq, phase = _coef(rng, -4.0, 4.0), _coef(rng, 1.0, 3.0), _coef(rng, 0.0, 3.0)
    ea, eb = _coef(rng, -2.0, 2.0), _coef(rng, -1.5, 1.5)
    reqs = [
        {"family": "const", "coef": [0.0], "potential": "0", "s": OPERATOR_S["zero"]},
        {"family": "const", "coef": [c], "potential": _fmt(c), "s": OPERATOR_S["const"]},
        {"family": "poly", "coef": [a, b, c0],
         "potential": f"{_fmt(a)}*x*x+{_fmt(b)}*x+{_fmt(c0)}", "s": OPERATOR_S["poly"]},
        {"family": "sin", "coef": [amp, freq, phase],
         "potential": f"{_fmt(amp)}*sin({_fmt(freq)}*x+{_fmt(phase)})", "s": OPERATOR_S["sin"]},
        {"family": "exp", "coef": [ea, eb],
         "potential": f"{_fmt(ea)}*exp({_fmt(eb)}*x)", "s": OPERATOR_S["exp"]},
    ]
    for req in reqs:
        req["s"] = rng.uniform(*req["s"])
    return reqs


def _lattice_direct(rng: random.Random) -> list[dict]:
    # 1.1 < Re s <= 3 includes Re s < 1.75, where the direct sum runs its
    # 1600-shell ladder (four times the cost, the largest arrays the program
    # allocates).  Ten Re s slices lie above 1.75 and six below, so no slice
    # straddles it; a complex s costs about three times a real one, so every
    # other slice gets one.  Each pass has the same mix of all four kinds.
    reqs = []
    for u_s, u_tau in zip(_strata(rng, LATTICE_POINTS), _strata(rng, LATTICE_POINTS)):
        above = 10 / LATTICE_POINTS
        if u_s < above:
            re = 3.0 - 1.25 * u_s / above
        else:
            re = 1.75 - 0.65 * (u_s - above) / (1.0 - above)
        im = rng.uniform(-1.0, 1.0) if int(u_s * LATTICE_POINTS) % 2 else 0.0
        reqs.append({"s": [re, im], "tau": [rng.uniform(-0.5, 0.5), _log_uniform(u_tau, 0.6, 1.6)]})
    return reqs


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The requests of one pass.  identity_suite runs the fixed registry."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "torus_eval":
        return _torus_eval(rng)
    if workload == "operator_det":
        return _operator_det(rng)
    if workload == "lattice_direct":
        return _lattice_direct(rng)
    if workload == "identity_suite":
        return [{"argv": ["identities", "--format", "json"]}]
    raise ValueError(f"unknown workload {workload!r}")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def run_request(tz, workload: str, req: dict) -> dict:
    """Send one request; return its output values (plain floats)."""
    if workload == "torus_eval":
        s, tau = complex(*req["s"]), complex(*req["tau"])
        out = {"cs": _pair(tz.eisenstein_cs(s, tau).value)}
        if s.real < 1.0:
            try:
                out["contour"] = _pair(tz.eisenstein_contour(s, tau).value)
            except tz.NonFiniteError:
                # refused: `table` prints an empty cell; the check counts it
                out["contour"] = None
        out["det"] = tz.determinant_torus(tau)
        return out
    if workload == "operator_det":
        spec = tz.OperatorSpec(tz.parse_potential(req["potential"]), req["potential"])
        return {
            "log_det": tz.log_det(spec),
            "log_det_numeric": tz.log_det_numeric(spec),
            "zeta": _pair(tz.zeta_operator(spec, req["s"]).value),
        }
    if workload == "lattice_direct":
        return {"direct": _pair(tz.eisenstein_direct(complex(*req["s"]), complex(*req["tau"])).value)}
    if workload == "identity_suite":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tz.cli.main(req["argv"])
        return {"exit_code": code, "report": json.loads(buf.getvalue())}
    raise ValueError(f"unknown workload {workload!r}")
