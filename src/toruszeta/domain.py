"""Domain types: evaluation precision, points of the upper half-plane,
integer modular matrices and evaluation results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, NonFiniteError, NormalizationError


@dataclass(frozen=True)
class Precision:
    """Knobs controlling truncation and quadrature everywhere.

    quad_rel_tol    relative tolerance for adaptive quadrature and for the
                    direct lattice sum's checkpoint ladder, in (0, 1)
    series_tail_tol absolute bound at which exponentially convergent series
                    stop, in (0, 1)
    n_max           hard cap on summation indices, the direct sum's last checkpoint
                    and the Magnus step count (TruncationWarning when it stops one)
    """

    quad_rel_tol: float = 1e-12
    series_tail_tol: float = 1e-14
    n_max: int = 10_000

    def __post_init__(self) -> None:
        for name in ("quad_rel_tol", "series_tail_tol"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.n_max < 1:
            raise DomainError("n_max must be at least 1")


DEFAULT_PRECISION = Precision()


@dataclass(frozen=True)
class TauPoint:
    """A point tau = tau1 + i*tau2 of the upper half-plane (tau2 > 0 enforced)."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau1) and math.isfinite(self.tau2)):
            raise NonFiniteError("tau must have finite components")
        if not self.tau2 > 0:
            raise DomainError(f"tau2 must be positive, got {self.tau2}")

    @classmethod
    def from_complex(cls, z: complex) -> "TauPoint":
        return cls(float(z.real), float(z.imag))

    @property
    def z(self) -> complex:
        return complex(self.tau1, self.tau2)

    def __complex__(self) -> complex:
        return self.z


def as_tau(tau: "TauPoint | complex") -> TauPoint:
    """Coerce a complex number (or TauPoint) to a validated TauPoint."""
    if isinstance(tau, TauPoint):
        return tau
    return TauPoint.from_complex(complex(tau))


@dataclass(frozen=True)
class Sl2zMatrix:
    """Unimodular integer matrix (a b; c d), normalized so that c > 0,
    or c = 0 and d = 1.  Construction rejects anything else."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise NormalizationError("matrix must have determinant 1")
        if not (self.c > 0 or (self.c == 0 and self.d == 1)):
            raise NormalizationError(
                "matrix must be normalized with c > 0, or c = 0 and d = 1; "
                "use Sl2zMatrix.normalized to flip the overall sign"
            )

    @classmethod
    def normalized(cls, a: int, b: int, c: int, d: int) -> "Sl2zMatrix":
        """Build a normalized matrix, flipping the (irrelevant) overall sign if needed."""
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        return cls(a, b, c, d)

    @classmethod
    def identity(cls) -> "Sl2zMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def shift(cls, n: int = 1) -> "Sl2zMatrix":
        """tau -> tau + n."""
        return cls(1, n, 0, 1)

    @classmethod
    def inversion(cls) -> "Sl2zMatrix":
        """tau -> -1/tau."""
        return cls(0, -1, 1, 0)

    def __matmul__(self, other: "Sl2zMatrix") -> "Sl2zMatrix":
        return Sl2zMatrix.normalized(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Sl2zMatrix":
        return Sl2zMatrix.normalized(self.d, -self.b, -self.c, self.a)

    def apply(self, tau: "TauPoint | complex") -> TauPoint:
        z = as_tau(tau).z
        return TauPoint.from_complex((self.a * z + self.b) / (self.c * z + self.d))

    def cocycle(self, tau: "TauPoint | complex") -> complex:
        """c*tau + d, the automorphy denominator."""
        return self.c * as_tau(tau).z + self.d


@dataclass
class Diagnostics:
    terms_used: int = 0
    quad_evals: int = 0
    warnings: list[str] = field(default_factory=list)
    # the point an E* route summed at: the caller's tau in the fundamental domain
    reduced_tau: TauPoint | None = None


@dataclass
class EvalResult:
    """A route's value, error estimate and bookkeeping; the one refusal of a non-finite value."""

    value: complex
    err_estimate: float
    method: str
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __post_init__(self) -> None:
        require_finite(self.value, f"method {self.method!r}")
        if not (math.isfinite(self.err_estimate) and self.err_estimate >= 0):
            raise NonFiniteError("err_estimate must be finite and nonnegative")


def require_finite(value: complex, context: str) -> complex:
    """Guard: raise NonFiniteError instead of letting NaN/Inf escape."""
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise NonFiniteError(f"non-finite value in {context}")
    return value
