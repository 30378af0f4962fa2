"""Exact Rayleigh designs against a closed form that shares no code with them.

Under Rayleigh fading the per-antenna energy is exponential with mean
s = p + sigma2, so at a region edge c both tail exponents of level p are
I(c/s) with I(x) = x - 1 - log x.  Every interior edge of the exact design
sits at exponent t* on both sides: edge k is s_k*x for the right root x > 1
of I(x) = t* and s_(k+1)*u for the left root u < 1.  So the received
energies are geometric, s_k = sigma2*r^(k-1) with r = x/u, and eliminating
t* gives u = log r/(r - 1), x = r*u and t* = u - 1 - log u.  The budget
fixes r through sigma2*((r^L - 1)/((r - 1)*L) - 1) = budget, whose left
side increases in r; the reference solves it by bisection at 50 digits.
"""

import math

import mpmath as mp
import pytest

from simo_energy.channel import Rician, rayleigh, sigma_from_snr
from simo_energy.design import DesignConfig, design_exact

# Fixed before this comparison first ran: a prototype's worst disagreement
# with the design was 5e-13 on t* and 3.4e-12 at L 256 and 1024.
REL_TOL = 1e-10


def closed_form_design(L: int, sigma2: float, budget: float = 1.0):
    """(t*, levels, boundaries) of the exact Rayleigh design, as floats."""
    with mp.workdps(50):
        s2, target = mp.mpf(sigma2), mp.mpf(budget)

        def power(r):
            return s2 * ((r**L - 1) / ((r - 1) * L) - 1)

        lo, hi = mp.mpf(1), mp.mpf(2)
        while power(hi) < target:
            lo, hi = hi, 2 * hi
        for _ in range(220):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if power(mid) < target else (lo, mid)
        r = (lo + hi) / 2
        u = mp.log(r) / (r - 1)
        t_star = u - 1 - mp.log(u)
        energies = [s2 * r**k for k in range(L)]
        levels = [s2 * (r**k - 1) for k in range(L)]
        boundaries = [s * r * u for s in energies[:-1]]
        return float(t_star), [float(p) for p in levels], [float(c) for c in boundaries]


def assert_close(got, want):
    assert abs(got - want) <= REL_TOL * abs(want), (got, want)


CASES = (
    [(L, snr) for L in (2, 4, 8, 16, 64) for snr in range(-20, 55, 5)]
    + [(256, snr) for snr in (-20, 10, 50)]
    + [(1024, 10)]
)


def check_against_closed_form(channel, L, snr_db):
    sigma2 = sigma_from_snr(float(snr_db))
    out = design_exact(channel, sigma2, DesignConfig(L=L))
    assert out.feasible
    t_star, levels, boundaries = closed_form_design(L, sigma2)
    assert_close(out.t_star, t_star)
    for got, want in zip(out.constellation.levels, levels, strict=True):
        assert_close(got, want)
    for got, want in zip(out.constellation.boundaries, boundaries, strict=True):
        assert_close(got, want)


@pytest.mark.parametrize("L,snr_db", CASES)
def test_exact_design_matches_the_closed_form(L, snr_db):
    check_against_closed_form(rayleigh(), L, snr_db)


def test_rician_at_minus_infinite_k_is_the_rayleigh_design():
    check_against_closed_form(Rician(-math.inf), 4, 10)


@pytest.mark.parametrize(
    "L,snr_db",
    [
        pytest.param(4, -100, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 8: the rate layer's cancellation at low SNR")),
        pytest.param(64, -100, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 8: the rate layer's cancellation at low SNR")),
        # Levels and boundaries agree to 2e-16, but t* is 1.1e-3 off.
        pytest.param(4, -130, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 8: the rate layer's cancellation at low SNR")),
    ],
)
def test_low_snr_designs_match_the_closed_form(L, snr_db):
    check_against_closed_form(rayleigh(), L, snr_db)
