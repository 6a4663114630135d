import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.domain import Precision, Sl2zMatrix, TauPoint
from toruszeta.errors import DomainError, NonFiniteError, NormalizationError
from toruszeta.eta import (
    eta,
    eta_multiplier,
    eta_transform_check,
    fundamental_domain_reduce,
    log_abs_eta,
)

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

# q-product oracle at tau = i: e^(-pi/12) prod_{n=1..40} (1 - e^(-2 pi n)),
# stable under doubling the factor count
ETA_I = 0.7682254223260566
ETA_2I = 0.5923827813324159


def eta_product_oracle(tau: complex, n_factors: int = 400) -> complex:
    q = cmath.exp(2j * math.pi * tau)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(n_factors):
        qn *= q
        prod *= 1.0 - qn
    return cmath.exp(1j * math.pi * tau / 12.0) * prod


def test_eta_at_i():
    assert abs(eta(1j) - ETA_I) < 1e-14


def test_eta_at_2i():
    assert abs(eta(2j) - ETA_2I) < 1e-14


def test_eta_product_truncation_stability():
    tau = 0.1 + 0.7j
    assert abs(eta(tau) - eta_product_oracle(tau, 50)) < 1e-14
    assert abs(eta_product_oracle(tau, 50) - eta_product_oracle(tau, 100)) < 1e-15


def test_eta_small_tau2_uses_reduction():
    # the raw product still converges at tau2 = 0.1; the reduced path must match
    for tau in (0.3 + 0.1j, -0.7 + 0.25j, 0.05 + 0.3j):
        ref = eta_product_oracle(tau, 2000)
        assert abs(eta(tau) - ref) < 1e-12 * abs(ref)


@SETTINGS
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_eta_matches_mpmath_qp(tau1, tau2):
    # independent oracle: e^(i pi tau/12) (q; q)_inf from mpmath's q-Pochhammer
    # at 30 digits, over points inside and far outside the fundamental domain
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        z = mp.mpc(tau1, tau2)
        ref = complex(mp.exp(mp.j * mp.pi * z / 12) * mp.qp(mp.exp(2 * mp.j * mp.pi * z)))
    assert abs(eta(complex(tau1, tau2)) - ref) <= 1e-13 * abs(ref)
    log_ref = math.log(abs(ref))
    assert abs(log_abs_eta(complex(tau1, tau2)) - log_ref) <= 1e-13 * max(1.0, abs(log_ref))


def test_log_abs_eta_where_eta_underflows():
    # eta(i y) = y^(-1/2) eta(i/y), and at 1/y = 1e4 the q-product is
    # e^(-pi/(12 y)) to within e^(-2 pi 1e4)
    y = 1e-4
    assert eta(1j * y) == 0.0
    exact = -0.5 * math.log(y) - math.pi / (12.0 * y)
    assert abs(log_abs_eta(1j * y) - exact) <= 1e-15 * abs(exact)
    assert math.isfinite(log_abs_eta(0.1 + 1e-6j))


def test_eta_shift_relation():
    tau = 0.3 + 1.2j
    ratio = eta(tau + 1.0) / eta(tau)
    assert abs(ratio - cmath.exp(1j * math.pi / 12.0)) < 1e-13


def test_eta_inversion_relation():
    tau = 0.5 + 0.8j
    lhs = eta(-1.0 / tau)
    rhs = cmath.sqrt(-1j * tau) * eta(tau)
    assert abs(lhs - rhs) < 1e-13


@SETTINGS
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_eta_shift_and_inversion_random(t1, t2):
    tau = complex(t1, t2)
    assert abs(eta(tau + 1.0) - cmath.exp(1j * math.pi / 12.0) * eta(tau)) < 1e-10
    assert abs(eta(-1.0 / tau) - cmath.sqrt(-1j * tau) * eta(tau)) < 1e-10


@SETTINGS
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_eta_conjugation_symmetry(t1, t2):
    tau = complex(t1, t2)
    assert abs(eta(complex(-t1, t2)) - eta(tau).conjugate()) < 1e-12


# --------------------------------------------------------------- multiplier


def test_multiplier_identity():
    assert eta_multiplier(Sl2zMatrix(1, 0, 0, 1)) == 1.0


def test_multiplier_shift():
    got = eta_multiplier(Sl2zMatrix(1, 1, 0, 1))
    assert abs(got - cmath.exp(1j * math.pi / 12.0)) < 1e-15


def test_multiplier_inversion_solved_from_eta():
    # eps(S) must satisfy eta(-1/tau) = eps tau^(1/2) eta(tau) at several tau
    m = Sl2zMatrix(0, -1, 1, 0)
    eps = eta_multiplier(m)
    for tau in (1j, 0.4 + 0.9j, -0.3 + 1.7j):
        solved = eta(-1.0 / tau) / (cmath.sqrt(tau) * eta(tau))
        assert abs(eps - solved) < 1e-12
    assert abs(eps - cmath.exp(-1j * math.pi / 4.0)) < 1e-15


def test_transform_check_generators():
    assert eta_transform_check(Sl2zMatrix(1, 0, 0, 1), 0.3 + 0.77j) < 1e-12
    assert eta_transform_check(Sl2zMatrix(1, 1, 0, 1), 0.3 + 1.2j) < 1e-10
    assert eta_transform_check(Sl2zMatrix(0, -1, 1, 0), 1j) < 1e-10


@SETTINGS
@given(
    st.lists(st.sampled_from(["T", "t", "S"]), min_size=0, max_size=4),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_transform_check_random_words(word, t1, t2):
    m = Sl2zMatrix.identity()
    for letter in word:
        step = {
            "T": Sl2zMatrix.shift(1),
            "t": Sl2zMatrix.shift(-1),
            "S": Sl2zMatrix.inversion(),
        }[letter]
        m = step @ m
    assert eta_transform_check(m, complex(t1, t2)) < 1e-10


def test_multiplier_unit_modulus():
    for m in (Sl2zMatrix(2, 1, 5, 3), Sl2zMatrix(1, 0, 4, 1), Sl2zMatrix(3, -1, 7, -2)):
        assert abs(abs(eta_multiplier(m)) - 1.0) < 1e-15


# --------------------------------------------------------------- matrices


def test_matrix_determinant_enforced():
    with pytest.raises(NormalizationError):
        Sl2zMatrix(1, 1, 1, 1)


def test_matrix_orientation_enforced():
    with pytest.raises(NormalizationError):
        Sl2zMatrix(-1, 0, 0, -1)
    with pytest.raises(NormalizationError):
        Sl2zMatrix(1, 0, -1, 1)


def test_matrix_normalized_flips_sign():
    m = Sl2zMatrix.normalized(-1, 0, 0, -1)
    assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 1)
    m = Sl2zMatrix.normalized(0, 1, -1, 0)
    assert m.c > 0


def test_matrix_apply_moebius():
    m = Sl2zMatrix(0, -1, 1, 0)
    z = m.apply(2j)
    assert abs(z.z - 0.5j) < 1e-15


def test_fundamental_domain_reduce():
    tau = 0.37 + 0.02j
    z, g = fundamental_domain_reduce(tau)
    assert abs(z.tau1) <= 0.5 + 1e-12
    assert abs(z.z) >= 1.0 - 1e-12
    back = g.apply(tau)
    assert abs(back.z - z.z) < 1e-9


@pytest.mark.parametrize(
    "tau", [0.3 + 1e-12j, math.sqrt(2) + 1e-9j, 0.3 + 0.05j, 3 + 0.05j, -2.9213 + 0.136j, 0.5 + 0.8j])
def test_fundamental_domain_reduce_forms_the_image_exactly(tau):
    # z is g(tau) rounded once; the moves' rounding reached 2.2e-6 at 0.3+1e-12i
    mp = pytest.importorskip("mpmath")
    z, g = fundamental_domain_reduce(tau)
    assert abs(z.tau1) <= 0.5 and abs(z.z) >= 1.0
    with mp.workdps(60):
        t = mp.mpc(tau)
        ref = (g.a * t + g.b) / (g.c * t + g.d)
        assert abs(mp.mpc(z.z) - ref) <= 2.3e-16 * abs(ref)


def test_tau_point_validation():
    with pytest.raises(DomainError):
        TauPoint(0.0, -1.0)
    with pytest.raises(DomainError):
        TauPoint(0.0, 0.0)
    with pytest.raises(NonFiniteError):
        TauPoint(math.nan, 1.0)


def test_precision_validation():
    with pytest.raises(DomainError):
        Precision(quad_rel_tol=0.0)
    with pytest.raises(DomainError):
        Precision(series_tail_tol=-1.0)
    with pytest.raises(DomainError):
        Precision(n_max=0)


@pytest.mark.parametrize("field, value", [
    ("quad_rel_tol", math.nan),
    ("quad_rel_tol", math.inf),
    ("quad_rel_tol", 1.0),
    ("series_tail_tol", math.inf),
    ("series_tail_tol", 2.0),
])
def test_precision_rejects_nonfinite_or_large(field, value):
    with pytest.raises(DomainError, match=field):
        Precision(**{field: value})
