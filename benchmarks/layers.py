"""Per-layer metrics of a traced run, from the span tables of its passes.

Counts must repeat exactly from pass to pass; times are normalised to the
reference speed of speed.py, as the end-to-end times are, and are medians
over the traced passes.
"""

from __future__ import annotations

import statistics

import numpy as np

import speed
from tracer import POTENTIAL_LAYER, self_times

IDENTITY_GROUPS = ("det", "operator", "three_method", "eisenstein")

# layers reported as calls and self time; the quadrature rules add evals and
# cap hits
CALLED = ("specialfn.bessel_k", "specialfn.sigma", "specialfn.riemann_zeta",
          "specialfn.gamma", "quadrature.gauss_panel", "eta.eta", "torus.remainder_bessel",
          "torus.remainder_integral", "torus.eisenstein_direct", "operator1d.zeta_operator",
          "cli.main")
QUADRATURE = ("quadrature.adaptive_gauss", "quadrature.tanh_sinh")

# metric -> (unit, better); every traced run prints all of them
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in CALLED:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_ms"] = ("ms", "lower")
for _layer in QUADRATURE:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.evals"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_ms"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.cap_hits"] = ("count", "lower")
PER_LAYER.update({
    "specialfn.bessel_k.cache_hit_ratio": ("ratio", "higher"),
    "torus.remainder_bessel.terms_per_call": ("count/call", "lower"),
    "torus.eisenstein_direct.lattice_points": ("count", "lower"),
    "torus.eisenstein_direct.points_per_s": ("1/s", "higher"),
    "operator1d.ode.solves": ("count", "lower"),
    "operator1d.ode.nfev": ("count", "lower"),
    "operator1d.ode.self_ms": ("ms", "lower"),
    "operator1d.zeta_operator.solves_per_call": ("count/call", "lower"),
    "potentials.V.evals": ("count", "lower"),
    "potentials.V.self_ms": ("ms", "lower"),
})
for _group in IDENTITY_GROUPS + ("other",):
    PER_LAYER[f"identities.{_group}.ms"] = ("ms", "lower")
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")

# counts that must repeat exactly; everything else measured in time
EXACT = {
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "count/call") or name.endswith("cache_hit_ratio")
}


def _under(span_name: np.ndarray, parent: np.ndarray, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ancestor_id above them."""
    under = np.zeros(span_name.size, dtype=bool)
    p = parent.copy()
    while np.any(p >= 0):
        live = p >= 0
        under[live] |= span_name[p[live]] == ancestor_id
        p[live] = parent[p[live]]
    return under


def layer_metrics(t: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer counts and self times (ms) from a span table."""
    names = [str(n) for n in t["names"]]
    span_name, parent = t["span_name"], t["parent"]
    dur = speed.normalise(t["speed_at"], t["speed_took"], t["start"], t["end"])
    self_ms = self_times(parent, dur) * 1e3
    ids = {n: i for i, n in enumerate(names)}

    def mask(name: str) -> np.ndarray:
        return span_name == ids.get(name, -1)

    def total(name: str, values: np.ndarray) -> float:
        return float(values[mask(name)].sum())

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def per_call(child: str, parent_name: str) -> float:
        n = calls(parent_name)
        if n == 0 or parent_name not in ids:
            return 0.0
        return float((mask(child) & _under(span_name, parent, ids[parent_name])).sum()) / n

    out: dict[str, float] = {}
    for name in CALLED:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = total(name, self_ms)
    for name in QUADRATURE:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.evals"] = total(name, t["work"])
        out[f"{name}.self_ms"] = total(name, self_ms)
        out[f"{name}.cap_hits"] = total(name, t["flag"].astype(float))
    out["torus.remainder_bessel.terms_per_call"] = per_call(
        "specialfn.bessel_k", "torus.remainder_bessel")
    points = total("torus.eisenstein_direct", t["work"])
    direct_s = out["torus.eisenstein_direct.self_ms"] / 1e3
    out["torus.eisenstein_direct.lattice_points"] = points
    out["torus.eisenstein_direct.points_per_s"] = points / direct_s if direct_s > 0 else 0.0
    out["operator1d.ode.solves"] = calls("operator1d.ode")
    out["operator1d.ode.nfev"] = total("operator1d.ode", t["work"])
    out["operator1d.ode.self_ms"] = total("operator1d.ode", self_ms)
    out["operator1d.zeta_operator.solves_per_call"] = per_call(
        "operator1d.ode", "operator1d.zeta_operator")
    out["potentials.V.evals"] = calls(POTENTIAL_LAYER)
    out["potentials.V.self_ms"] = total(POTENTIAL_LAYER, self_ms)
    return out


def identity_group(check_id: str) -> str:
    head = check_id.split(".", 1)[0]
    return head if head in IDENTITY_GROUPS else "other"


def _pass_metrics(p: dict) -> dict[str, float]:
    with np.load(p["spans_path"]) as z:
        out = layer_metrics({k: z[k] for k in z.files})
    cache = p["bessel_cache"]
    looked_up = cache["hits"] + cache["misses"]
    out["specialfn.bessel_k.cache_hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
    for group in IDENTITY_GROUPS + ("other",):
        out[f"identities.{group}.ms"] = sum(
            c["norm_ms"] for c in p.get("checks", []) if identity_group(c["id"]) == group)
    return out


def per_layer(traced: list[dict], overhead_frac: float):
    """({metric: (value, unit, samples)}, problems) for a traced run."""
    runs = [_pass_metrics(p) for p in traced]
    problems = [
        f"{name} differs between traced passes: {[r[name] for r in runs]}"
        for name in sorted(EXACT) if any(r[name] != runs[0][name] for r in runs)
    ]
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name in EXACT:
            value = runs[0][name]
        else:
            value = statistics.median(r[name] for r in runs)
        metrics[name] = (float(value), unit, len(traced))
    return metrics, problems
