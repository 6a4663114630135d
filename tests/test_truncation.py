"""Truncation reports: the line every TruncationWarning names and the
messages a result's diagnostics record."""

import math
import sys
import warnings

import numpy as np
import pytest

from toruszeta import quadrature
from toruszeta.domain import Diagnostics, Precision
from toruszeta.errors import DomainError, TruncationWarning
from toruszeta.eta import eta
from toruszeta.operator1d import OperatorSpec, zeta_operator
from toruszeta.quadrature import adaptive_gauss, sum_series
from toruszeta.torus import eisenstein, eisenstein_contour, eisenstein_cs, eisenstein_direct

MAGNUS_CAPPED = (OperatorSpec(lambda x: 3.0 * math.sin(9.0 * x)), 0.3, Precision(n_max=16))


def _direct_in_a_helper() -> int:
    """Sums a capped direct ladder; returns the line of the eisenstein call."""
    line = sys._getframe().f_lineno + 1
    eisenstein(2.0, 1j, "direct", Precision(n_max=50))
    return line


def _direct_refused() -> None:
    with pytest.raises(DomainError, match="n_max >= 2"):
        eisenstein_direct(2.0, 1j, Precision(n_max=1))


def _panel_budget() -> None:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MAX_PANELS", 2)
        adaptive_gauss(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0)


# every source of a TruncationWarning: the direct ladder (twice), the K_nu
# trapezoid cap, the tanh-sinh level cap (contour rows and the operator's
# head), sum_series at n_max (Bessel series and eta's Lambert series), the Magnus step
# count and the adaptive Gauss panel budget
SOURCES = {
    "direct": _direct_in_a_helper,
    "direct-refused": _direct_refused,
    "K_nu-cap": lambda: eisenstein_cs(0.3 + 15j, 0.1 + 1j),
    "contour-cap": lambda: eisenstein_contour(0.99, 0.2 + 1j),
    "cs-n_max": lambda: eisenstein_cs(0.3, 1j, Precision(n_max=1)),
    "eta-n_max": lambda: eta(1j, Precision(n_max=1)),
    "zeta_operator-cap": lambda: zeta_operator(OperatorSpec(lambda x: 0.0), 0.9 - 5j),
    "magnus-cap": lambda: zeta_operator(*MAGNUS_CAPPED),
    "panel-budget": _panel_budget,
}


@pytest.mark.parametrize("source", list(SOURCES))
def test_every_truncation_warning_names_the_callers_line(source):
    # however deep in the package the cap is hit, the warning points at the
    # first line outside it, here in this file
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = SOURCES[source]()
    assert caught and all(w.category is TruncationWarning for w in caught)
    assert {w.filename for w in caught} == {__file__}
    if source == "direct":
        assert [w.lineno for w in caught] == [line]


def test_sum_series_records_a_quadrature_miss_once():
    # every block reports the same miss; the series records it once, beside
    # its own n_max message
    calls = []

    def block(ns):
        calls.append(ns.size)
        return 0.5**ns, 3 * ns.size, "rows above tol"

    diag = Diagnostics()
    with pytest.warns(TruncationWarning, match="^halves hit n_max = 30$"):
        sum_series(block, 1.0, 0.5, Precision(n_max=30), "halves", diag)
    assert calls == [8, 16, 6]
    assert diag.warnings == ["rows above tol", "halves hit n_max = 30"]
    assert (diag.terms_used, diag.quad_evals) == (30, 90)


def test_direct_warning_and_diagnostics_carry_one_text():
    with pytest.warns(TruncationWarning) as caught:
        res = eisenstein_direct(2.0, 1j, Precision(n_max=50))
    message = "direct-sum ladder stopped by n_max = 50"
    assert [str(w.message) for w in caught] == res.diagnostics.warnings == [message]


def test_magnus_cap_reaches_the_zeta_operator_diagnostics():
    with pytest.warns(TruncationWarning, match="^Magnus step count hit n_max = 16$"):
        res = zeta_operator(*MAGNUS_CAPPED)
    assert res.diagnostics.warnings == ["Magnus step count hit n_max = 16"]
