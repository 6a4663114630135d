#!/usr/bin/env python3
"""Scan the torus determinant along the |tau| = 1 boundary arc of the
fundamental domain and compare the closed form tau2^2 |eta(tau)|^4 with the
paper's contour proof, exp(-zeta'(0)) from the contour rows at s = 0.
Emits CSV on stdout; exits 1 if any rel_diff exceeds MAX_REL_DIFF."""

import math

from toruszeta.torus import determinant_torus, determinant_torus_numeric

N_POINTS = 13
MAX_REL_DIFF = 1e-13


def run() -> int:
    print("theta_deg,tau1,tau2,det_closed,det_numeric,rel_diff")
    worst = 0.0
    for j in range(N_POINTS):
        theta = math.pi / 3 + (math.pi / 3) * j / (N_POINTS - 1)
        tau = complex(math.cos(theta), math.sin(theta))
        closed = determinant_torus(tau)
        numeric = determinant_torus_numeric(tau)
        rel_diff = abs(closed - numeric) / closed
        worst = max(worst, rel_diff)
        print(
            f"{math.degrees(theta):.2f},{tau.real!r},{tau.imag!r},"
            f"{closed!r},{numeric!r},{rel_diff:.3e}"
        )
    return 0 if worst <= MAX_REL_DIFF else 1


if __name__ == "__main__":
    raise SystemExit(run())
