"""Self-tests of the benchmark: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import toruszeta as tz  # noqa: E402
import toruszeta.cli  # noqa: E402,F401

import checks  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, make_inputs, run_request  # noqa: E402


def _bindings() -> dict[tuple[str, str], int]:
    return {(name, attr): id(value) for name, _, attr, value in tr._attributes()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 3) == make_inputs(workload, 3)
    assert json.dumps(make_inputs(workload, 3)) == json.dumps(make_inputs(workload, 3))
    if workload != "identity_suite":
        assert make_inputs(workload, 3) != make_inputs(workload, 4)


def test_operator_text_matches_reference_coefficients():
    # the program parses the text, the reference builds V from coef
    for req in make_inputs("operator_det", 5):
        v_prog = tz.parse_potential(req["potential"])
        v_ref = ref.potential(req["family"], req["coef"])
        for x in (0.0, 0.37, 1.0):
            assert v_prog(x) == pytest.approx(float(v_ref(mp.mpf(x))), rel=1e-14, abs=1e-14)


def _small_job():
    return [
        ("torus_eval", make_inputs("torus_eval", 1)[:6]),
        ("lattice_direct", [{"s": [2.5, 0.5], "tau": [0.1, 1.2]}]),
        ("operator_det", [{"family": "const", "coef": [0.0], "potential": "0", "s": 0.3}]),
        ("identity_suite", [{"argv": ["identities", "--filter", "eta.", "--format", "json"]}]),
    ]


def test_traced_and_untraced_values_bit_identical():
    plain = [[run_request(tz, w, r) for r in reqs] for w, reqs in _small_job()]
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = [[run_request(tz, w, r) for r in reqs] for w, reqs in _small_job()]
    finally:
        tracer.restore()
    assert json.dumps(plain) == json.dumps(traced)
    assert len(tracer.start) > 0


def test_every_wrapper_restored():
    before = _bindings()
    tracer = tr.Tracer()
    tracer.install()
    assert tr.leftover_wrappers()
    # bindings made by "from .specialfn import bessel_k" are wrapped too
    assert getattr(sys.modules["toruszeta.torus"].bessel_k, "__wrapped__", None) is not None
    assert getattr(tz.eta, "__wrapped__", None) is not None  # the package-level function
    tracer.restore()
    assert tr.leftover_wrappers() == []
    assert _bindings() == before


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    assert tr.self_times(parent, end - start).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_speed_normalisation_on_synthetic_samples():
    # the loop took twice the reference time: the machine ran at half speed
    sampler = speed.SpeedSampler()
    for at in (0.0, 0.1, 0.2):
        sampler.at.append(at)
        sampler.took.append(2 * speed.REF_S)
    # two loops inside: their time is taken off, the rest halved
    assert sampler.normalise(0.05, 0.25) == pytest.approx((0.2 - 4 * speed.REF_S) / 2)
    # none inside: the loops on either side give the speed
    assert sampler.normalise(0.12, 0.13) == pytest.approx(0.005)
    # nested intervals add up whatever the speed does, so self times do
    at, took = [0.0, 0.02, 0.04, 0.06], [1e-3, 3e-3, 2e-3, 5e-4]
    parts = speed.normalise(at, took, np.array([0.005, 0.03]), np.array([0.03, 0.065]))
    assert parts.sum() == pytest.approx(float(speed.normalise(at, took, 0.005, 0.065)))


def test_speed_normalisation_while_sampling():
    # the worker normalises its set-up time while the handler still runs
    import time

    sampler = speed.SpeedSampler()
    t0 = time.perf_counter()
    sampler.start()
    try:
        while time.perf_counter() - t0 < 0.5:
            if sampler.took:
                assert sampler.normalise(t0, time.perf_counter()) > 0
    finally:
        sampler.stop()
    assert len(sampler.took) > 5


def test_layer_metrics_on_synthetic_table():
    names = ["torus.remainder_bessel", "specialfn.bessel_k", "quadrature.adaptive_gauss"]
    # remainder_bessel -> bessel_k -> adaptive_gauss, twice; one stray bessel_k
    table = {
        "names": np.array(names),
        "span_name": np.array([0, 1, 2, 1, 2, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0, 3, -1], dtype=np.int32),
        "start": np.array([0.0, 0.001, 0.002, 0.004, 0.005, 0.010]),
        "end": np.array([0.008, 0.003, 0.0025, 0.007, 0.006, 0.011]),
        "work": np.array([0.0, 0.0, 46.0, 0.0, 92.0, 0.0]),
        "flag": np.array([0, 0, 0, 0, 1, 0], dtype=np.int8),
        # one loop before the spans, at the reference speed: times unchanged
        "speed_at": np.array([-1.0]),
        "speed_took": np.array([speed.REF_S]),
    }
    m = layers.layer_metrics(table)
    # the rest of the catalogue comes from outside the span table
    extra = {"specialfn.bessel_k.cache_hit_ratio", "trace.overhead_frac"}
    extra |= {f"identities.{g}.ms" for g in layers.IDENTITY_GROUPS + ("other",)}
    assert set(m) | extra == set(layers.PER_LAYER)
    assert m["torus.remainder_bessel.calls"] == 1
    assert m["specialfn.bessel_k.calls"] == 3
    assert m["torus.remainder_bessel.terms_per_call"] == 2.0
    assert m["quadrature.adaptive_gauss.evals"] == 138.0
    assert m["quadrature.adaptive_gauss.cap_hits"] == 1.0
    assert m["torus.remainder_bessel.self_ms"] == pytest.approx(3.0)
    assert m["specialfn.bessel_k.self_ms"] == pytest.approx(1.5 + 2.0 + 1.0)


def test_tanh_sinh_cap_hit_on_free_operator_at_0_7():
    """The tanh-sinh head of zeta_operator stops at its level cap for V = 0 at
    s = 0.7 (err 4.9e-11 against tol 1e-13); the tracer must see it."""
    tracer = tr.Tracer()
    tracer.install()
    try:
        tz.zeta_operator(tz.OperatorSpec(lambda x: 0.0), 0.7)
    finally:
        tracer.restore()
    table = {**tracer.tables(), "speed_at": np.array([-1.0]), "speed_took": np.array([speed.REF_S])}
    assert layers.layer_metrics(table)["quadrature.tanh_sinh.cap_hits"] > 0


def test_references_against_closed_forms():
    # E*(s, i) = 4 zeta(s) beta(s), beta the Dirichlet beta function
    for s in (2.0, 3.5, 0.3 + 0.4j):
        beta = (mp.zeta(s, 0.25) - mp.zeta(s, 0.75)) / mp.mpf(4) ** s
        assert ref.eisenstein(s, 1j) == pytest.approx(complex(4 * mp.zeta(s) * beta), rel=1e-14)
    # the same value from a point far outside the fundamental domain
    assert ref.eisenstein(2.0, 3 + 0.2j) == pytest.approx(ref.eisenstein(2.0, -1 / (0.2j)), rel=1e-14)
    assert ref.eisenstein(0.5, 1j) == pytest.approx(ref.eisenstein(0.5 + 1e-7, 1j), rel=1e-6)
    # det(i) = Gamma(1/4)^4 / (16 pi^3)
    assert ref.determinant_torus(1j) == pytest.approx(float(mp.gamma(0.25) ** 4 / (16 * mp.pi**3)), rel=1e-15)
    assert ref.operator_log_det("const", [4.0]) == pytest.approx(math.log(math.sinh(2.0)), rel=1e-15)
    assert ref.constant_log_det(-7.5) == pytest.approx(ref.operator_log_det("const", [-7.5]), rel=1e-14)
    direct = mp.nsum(lambda n: (mp.pi**2 * n**2 + 4) ** -2, [1, mp.inf])
    assert ref.constant_zeta(4.0, 2.0) == pytest.approx(float(direct), rel=1e-14)


def test_galerkin_zeta_reference():
    # constant V: the binomial series; any V: zeta(0) = -1/2 and
    # -zeta'(0) = log det
    assert ref.operator_zeta("const", [4.0], -0.4) == pytest.approx(
        ref.constant_zeta(4.0, -0.4).real, rel=1e-10)
    coef = [-4.0, 2.7, 1.1]
    assert ref.operator_zeta("sin", coef, 0.0) == pytest.approx(-0.5, abs=1e-10)
    h = 1e-4
    slope = (ref.operator_zeta("sin", coef, h) - ref.operator_zeta("sin", coef, -h)) / (2 * h)
    assert -slope == pytest.approx(ref.operator_log_det("sin", coef), abs=1e-7)


def _torus_out(s: complex, tau: complex, contour) -> dict:
    pair = [ref.eisenstein(s, tau).real, ref.eisenstein(s, tau).imag]
    return {"cs": pair, "contour": contour, "det": ref.determinant_torus(tau)}


def test_contour_refusal_fails_outside_the_documented_band():
    tau = 0.2 + 1.1j
    near, far = 0.995 + 0.3j, 0.95 + 0.3j  # floor term 6.3 and 2e-14
    req = {"s": [near.real, near.imag], "tau": [tau.real, tau.imag]}
    v = checks.check_torus(req, _torus_out(near, tau, None))
    assert v.ok and v.known
    req = {"s": [far.real, far.imag], "tau": [tau.real, tau.imag]}
    v = checks.check_torus(req, _torus_out(far, tau, None))
    assert not v.ok


def test_contour_allowance_is_capped():
    tau, s = 0.2 + 1.1j, 0.988 + 0.3j  # floor term 0.021, outside the band
    assert checks.CONTOUR_CAP < checks.contour_floor_term(s) < checks.CONTOUR_LOST
    e = ref.eisenstein(s, tau)
    req = {"s": [s.real, s.imag], "tau": [tau.real, tau.imag]}
    off = e + 0.015 * max(abs(e), 1.0)
    assert not checks.check_torus(req, _torus_out(s, tau, [off.real, off.imag])).ok


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    passes = [{"peak_rss_mb": 80.0, "records": [{"norm_ms": 1.0}]}]
    e2e = run.end_to_end("torus_eval", passes, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in e2e.items()}
