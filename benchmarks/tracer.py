"""Per-layer tracing of toruszeta from outside the program.

The tracer replaces selected public functions by timing wrappers.  Python
code that did ``from .specialfn import bessel_k`` holds its own binding, so
every module attribute that refers to the original function object is
rebound, in every loaded ``toruszeta`` module, and restored afterwards.

Spans live in flat arrays (name, parent, start, end, work, flag) while the
program runs and are written out once, at exit.  A span's self time is its
duration minus the durations of its direct children, which in a
single-threaded call tree never overlap.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

# (layer name, module, attribute, measure kind).  A measure kind names the
# function that reads counts from the call's arguments and return value.
LAYERS = (
    ("specialfn.bessel_k", "toruszeta.specialfn", "bessel_k", None),
    ("specialfn.sigma", "toruszeta.specialfn", "sigma", None),
    ("specialfn.riemann_zeta", "toruszeta.specialfn", "riemann_zeta", None),
    ("specialfn.gamma", "toruszeta.specialfn", "gamma", None),
    ("quadrature.adaptive_gauss", "toruszeta.quadrature", "adaptive_gauss", "adaptive_gauss"),
    ("quadrature.tanh_sinh", "toruszeta.quadrature", "tanh_sinh", "tanh_sinh"),
    ("quadrature.gauss_panel", "toruszeta.quadrature", "gauss_panel", None),
    ("eta.eta", "toruszeta.eta", "eta", None),
    ("torus.remainder_bessel", "toruszeta.torus", "remainder_bessel", None),
    ("torus.remainder_integral", "toruszeta.torus", "remainder_integral", None),
    ("torus.eisenstein_direct", "toruszeta.torus", "eisenstein_direct", "terms_used"),
    ("operator1d.ode", "toruszeta.operator1d", "_scipy_solve_ivp", "nfev"),
    ("operator1d.zeta_operator", "toruszeta.operator1d", "zeta_operator", None),
    ("cli.main", "toruszeta.cli", "main", None),
)
POTENTIAL_LAYER = "potentials.V"

Bindings = list[tuple[Any, str, Any]]


def _attributes():
    """(module name, module, attribute, value) over every loaded toruszeta module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "toruszeta":
            for attr, value in list(vars(mod).items()):
                yield mod_name, mod, attr, value


def rebind(original: Any, replacement: Any) -> Bindings:
    """Point every toruszeta module attribute bound to original at replacement;
    return the (module, attribute, original) triples for ``restore``."""
    done: Bindings = []
    for _, mod, attr, value in _attributes():
        if value is original:
            done.append((mod, attr, original))
            setattr(mod, attr, replacement)
    if not done:
        raise RuntimeError(f"no toruszeta module binds {original!r}")
    return done


def restore(bindings: Bindings) -> None:
    for mod, attr, original in reversed(bindings):
        setattr(mod, attr, original)


def leftover_wrappers() -> list[str]:
    """toruszeta module attributes that are still benchmark wrappers."""
    return [
        f"{mod_name}.{attr}"
        for mod_name, _, attr, value in _attributes()
        if getattr(value, "__module__", None) == __name__ and hasattr(value, "__wrapped__")
    ]


def _tolerance_reader(fn: Callable, *names: str) -> Callable[[tuple, dict], list[float]]:
    """Read the named parameters of a call, falling back to fn's defaults."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    slots = [(index[name], name, params[index[name]].default) for name in names]

    def read(args: tuple, kwargs: dict) -> list[float]:
        return [
            args[i] if i < len(args) else kwargs.get(name, default)
            for i, name, default in slots
        ]

    return read


def _measure(kind: str | None, fn: Callable) -> Callable | None:
    """Return measure(args, kwargs, result) -> (work, cap_hit) for a layer."""
    if kind == "adaptive_gauss":
        read = _tolerance_reader(fn, "rel_tol", "abs_tol")

        def measure(args, kwargs, res):
            rel_tol, abs_tol = read(args, kwargs)
            return res.n_evals, res.err_estimate > max(abs_tol, rel_tol * abs(res.value))

        return measure
    if kind == "tanh_sinh":
        read = _tolerance_reader(fn, "tol")

        def measure(args, kwargs, res):
            (tol,) = read(args, kwargs)
            return res.n_evals, res.err_estimate > tol * max(1.0, abs(res.value))

        return measure
    if kind == "terms_used":
        return lambda args, kwargs, res: (res.diagnostics.terms_used, False)
    if kind == "nfev":
        return lambda args, kwargs, res: (res.nfev, False)
    return None


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``restore`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.flag = array("b")
        self._stack = [-1]
        self._bindings: Bindings = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        work, flag, stack, clock = self.work, self.flag, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            work.append(0.0)
            flag.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                w, hit = measure(args, kwargs, out)
                work[i] = w
                flag[i] = hit
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, mod_name, attr, kind in LAYERS:
            # toruszeta.eta is the function (the package re-exports it), so
            # modules are reached through sys.modules, never through attributes
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(name, original, _measure(kind, original))
            self._bindings += rebind(original, traced)
        parse = sys.modules["toruszeta.potentials"].parse_potential

        def traced_parse(text: str):
            return self.wrap(POTENTIAL_LAYER, parse(text))

        traced_parse.__wrapped__ = parse
        self._bindings += rebind(parse, traced_parse)

    def restore(self) -> None:
        restore(self._bindings)
        self._bindings = []

    def tables(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays, the form written at exit."""
        return {
            "names": np.array(self.names, dtype=str),
            "span_name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
        }

    def save(self, path: str, **extra) -> None:
        np.savez(path, **self.tables(), **{k: np.asarray(v) for k, v in extra.items()})


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    return dur - child[: dur.size]
