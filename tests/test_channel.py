"""Channel statistics, samplers, and the energy log-MGF."""

import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

from simo_energy.channel import (
    DivergentMgfError,
    InputError,
    NakagamiReal,
    Rician,
    alpha1,
    check_number,
    increasing_root,
    log_mgf_energy,
    nakagami_m_from_K,
    rayleigh,
    sample_channel,
    sigma_from_snr,
    u_second_moment,
)
from simo_energy.rates import RateOracle
from helpers import time_cap


def test_sigma_from_snr_decades():
    assert sigma_from_snr(0.0) == 1.0
    assert sigma_from_snr(10.0) == pytest.approx(0.1, abs=1e-15)
    assert sigma_from_snr(-10.0) == pytest.approx(10.0, abs=1e-12)


def test_sigma_from_snr_rejects_nonfinite():
    with pytest.raises(ValueError):
        sigma_from_snr(math.inf)
    with pytest.raises(ValueError):
        sigma_from_snr(math.nan)


@pytest.mark.parametrize("gamma_db", [-4000.0, 4000.0, 1e308])
def test_sigma_from_snr_rejects_a_noise_power_outside_floats(gamma_db):
    # 10^400 overflows and 10^-400 underflows to 0.
    with pytest.raises(ValueError, match="noise power"):
        sigma_from_snr(gamma_db)


@pytest.mark.parametrize(
    "value,whole", [(0, True), (2.5, True), (True, False), (math.nan, False), ("1", False)]
)
def test_check_number_refusal_names_its_parameter(value, whole):
    # The name that starts the message is the error's field too.
    with pytest.raises(InputError, match="^trials must be") as info:
        check_number(value, "trials", 1, 10, whole=whole)
    assert info.value.field == "trials"
    assert isinstance(info.value, ValueError)


class TestRician:
    @pytest.mark.parametrize("k_db", [math.nan, 3000.5, -3000.5, 1e308, -1e308])
    def test_rejects_nan_and_finite_k_beyond_3000_db(self, k_db):
        with pytest.raises(InputError, match="^K_db must") as info:
            Rician(k_db)
        assert info.value.field == "K_db"

    @pytest.mark.parametrize(
        "k_db", [-math.inf, -3000.0, 0.0, 1541.0, 1541.3, 2000.0, 3000.0, math.inf]
    )
    def test_statistics_are_finite_on_the_accepted_range(self, k_db):
        ch = Rician(k_db)
        for value in (ch.mu, ch.sigma_h2, alpha1(ch)):
            assert math.isfinite(value)
        assert 0.0 <= alpha1(ch) <= 1.0

    def test_alpha1_keeps_its_formula_until_the_square_overflows(self):
        # (1 + k)^2 overflows from k = 1.34e154 (1541.3 dB) on, where 2/k is
        # alpha1 to rounding.
        k = Rician(1541.0).k_lin
        assert alpha1(Rician(1541.0)) == (1.0 + 2.0 * k) / (1.0 + k) ** 2
        assert alpha1(Rician(3000.0)) == pytest.approx(2e-300, rel=1e-15)

    def test_derived_statistics_keep_equality_hash_and_immutability(self):
        for make in (lambda: Rician(3.0), lambda: NakagamiReal(2.0)):
            read, fresh = make(), make()
            read.mu, read.sigma_h2
            assert read == fresh and hash(read) == hash(fresh)
            with pytest.raises(dataclasses.FrozenInstanceError):
                read.mu = 0.5


class TestAlpha1:
    def test_rayleigh_is_one(self):
        assert alpha1(rayleigh()) == pytest.approx(1.0, abs=1e-15)

    def test_rician_unit_k(self):
        # K_lin = 1 <-> 0 dB: (1 + 2)/(1 + 1)^2 = 3/4
        assert alpha1(Rician(0.0)) == pytest.approx(0.75, abs=1e-15)

    def test_nakagami_m1(self):
        assert alpha1(NakagamiReal(1.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "channel",
        [rayleigh(), Rician(0.0), Rician(6.0), NakagamiReal(1.0), NakagamiReal(2.5)],
    )
    def test_against_sampled_fourth_moments(self, channel):
        rng = np.random.default_rng(2024)
        h = sample_channel(channel, 1_000_000, rng)
        re2, im2 = h.real**2, h.imag**2
        samples = h.real**4 + h.imag**4 + 2 * re2.mean() * im2.mean() - 1.0
        est = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(est - alpha1(channel)) < 4 * se + 1e-4


class TestUSecondMoment:
    def test_pure_noise(self):
        assert u_second_moment(rayleigh(), 1.0, 0.0) == 1.0

    def test_rayleigh_unit(self):
        assert u_second_moment(rayleigh(), 1.0, 1.0) == pytest.approx(4.0, abs=1e-15)

    def test_rician_arithmetic(self):
        got = u_second_moment(Rician(0.0), 0.1, 2.0)
        assert got == pytest.approx(0.75 * 4 + 0.2 * 2 + 0.01, abs=1e-12)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            u_second_moment(rayleigh(), 1.0, -0.5)

    @pytest.mark.parametrize("channel", [rayleigh(), Rician(3.0), NakagamiReal(1.7)])
    @pytest.mark.parametrize("p,sigma2", [(0.5, 1.0), (2.0, 0.1)])
    def test_against_sampled_variance(self, channel, p, sigma2):
        rng = np.random.default_rng(99)
        count = 400_000
        h = sample_channel(channel, count, rng)
        v = math.sqrt(sigma2 / 2) * (
            rng.standard_normal(count) + 1j * rng.standard_normal(count)
        )
        u = np.abs(h * math.sqrt(p) + v) ** 2 - (p + sigma2)
        u2 = (u**2).mean()
        se = (u**2).std(ddof=1) / math.sqrt(count)
        assert abs(u2 - u_second_moment(channel, sigma2, p)) < 4 * se


class TestSampleChannel:
    def test_deterministic_los_limit(self):
        h = sample_channel(Rician(math.inf), 100, np.random.default_rng(0))
        assert np.all(h == 1.0 + 0.0j)

    def test_rayleigh_second_moment_lln(self):
        rng = np.random.default_rng(7)
        h = sample_channel(rayleigh(), 1_000_000, rng)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 5e-3

    def test_nakagami_m1_energy_is_exponential(self):
        rng = np.random.default_rng(11)
        h = sample_channel(NakagamiReal(1.0), 100_000, rng)
        assert np.all(h.imag == 0.0)
        _, pvalue = stats.kstest(np.abs(h) ** 2, "expon")
        assert pvalue > 0.01

    @pytest.mark.parametrize("channel", [Rician(0.0), NakagamiReal(2.0)])
    def test_mean_and_power_match(self, channel):
        rng = np.random.default_rng(5)
        h = sample_channel(channel, 1_000_000, rng)
        se_mean = np.abs(h - h.mean()).std() / math.sqrt(len(h))
        assert abs(h.mean() - channel.mu) < 4 * se_mean
        power = np.abs(h) ** 2
        se_pow = power.std(ddof=1) / math.sqrt(len(h))
        assert abs(power.mean() - 1.0) < 4 * se_pow


class TestLogMgfEnergy:
    @pytest.mark.parametrize("channel", [rayleigh(), Rician(6.0), NakagamiReal(1.3)])
    @pytest.mark.parametrize("p,sigma2", [(0.0, 1.0), (1.5, 0.1)])
    def test_zero_at_origin(self, channel, p, sigma2):
        assert log_mgf_energy(channel, sigma2, p, 0.0) == 0.0

    def test_rayleigh_pure_noise_closed_form(self):
        # U = Exp(1) - 1, so M(theta) = exp(-theta)/(1 - theta).
        got = log_mgf_energy(rayleigh(), 1.0, 0.0, 0.5)
        assert got == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)

    @pytest.mark.parametrize("channel", [rayleigh(), Rician(0.0), NakagamiReal(1.3)])
    @pytest.mark.parametrize("p,sigma2", [(0.0, 1.0), (0.7, 0.5), (2.0, 0.1)])
    def test_derivatives_at_origin(self, channel, p, sigma2):
        h = 1e-4
        f = lambda th: log_mgf_energy(channel, sigma2, p, th)
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert abs(d1) < 1e-6
        u2 = u_second_moment(channel, sigma2, p)
        assert d2 == pytest.approx(u2, rel=1e-4)

    def test_rician_domain_boundary_signal(self):
        ch = Rician(0.0)
        p, sigma2 = 1.0, 0.25
        t_max = 1.0 / (ch.sigma_h2 * p + sigma2)
        assert ch.theta_max(sigma2, p) == pytest.approx(t_max, abs=1e-15)
        assert math.isfinite(log_mgf_energy(ch, sigma2, p, t_max * (1 - 1e-9)))
        with pytest.raises(DivergentMgfError) as err:
            log_mgf_energy(ch, sigma2, p, t_max)
        assert err.value.theta_max == pytest.approx(t_max, rel=1e-12)
        with pytest.raises(DivergentMgfError):
            log_mgf_energy(ch, sigma2, p, t_max * 1.5)

    def test_nakagami_divergence_at_gamma_bound(self):
        ch = NakagamiReal(2.0)
        p, sigma2 = 1.0, 0.5
        t_max = ch.m / (p + ch.m * sigma2)
        with pytest.raises(DivergentMgfError):
            log_mgf_energy(ch, sigma2, p, t_max)

    def test_rician_mgf_matches_monte_carlo_and_quadrature(self):
        # The estimator exp(theta*U) obeys the CLT only while 2*theta stays
        # inside the MGF domain, so those grid points use the plain
        # 3-standard-error Monte Carlo check.  At 0.8*theta_max the estimator
        # variance is infinite and sampling cannot see the dominating tail;
        # that point is verified instead against numerical quadrature of
        # exp(theta*u) times the analytic energy density.
        from scipy.integrate import quad

        rng = np.random.default_rng(31)
        count = 200_000
        ch = Rician(0.0)
        for gamma_db in (0.0, 10.0):
            sigma2 = sigma_from_snr(gamma_db)
            for p in (0.0, 0.5, 2.0):
                t_max = ch.theta_max(sigma2, p)
                s2 = ch.sigma_h2 * p + sigma2
                lam = ch.mu**2 * p
                r = p + sigma2
                for theta in (-2.0, -0.5, 0.3 * t_max):
                    h = sample_channel(ch, count, rng)
                    v = math.sqrt(sigma2 / 2) * (
                        rng.standard_normal(count) + 1j * rng.standard_normal(count)
                    )
                    u = np.abs(h * math.sqrt(p) + v) ** 2 - r
                    w = np.exp(theta * u)
                    est, se = w.mean(), w.std(ddof=1) / math.sqrt(count)
                    exact = math.exp(log_mgf_energy(ch, sigma2, p, theta))
                    assert abs(est - exact) < 3 * se

                theta = 0.8 * t_max
                nc = 2 * lam / s2
                if nc > 0:
                    log_density = lambda x: stats.ncx2.logpdf(
                        2 * x / s2, 2, nc
                    ) + math.log(2 / s2)
                else:
                    log_density = lambda x: stats.chi2.logpdf(
                        2 * x / s2, 2
                    ) + math.log(2 / s2)

                def integrand(x):
                    s = theta * (x - r) + log_density(x)
                    return math.exp(s) if s < 700 else math.inf

                val, _ = quad(integrand, 0.0, np.inf, limit=400)
                assert math.log(val) == pytest.approx(
                    log_mgf_energy(ch, sigma2, p, theta), abs=1e-7
                )


class TestNakagamiFromK:
    def test_known_m_equals_one(self):
        # K = pi/(4 - pi) makes the target Gamma(1.5)/Gamma(1) = sqrt(pi)/2.
        k_db = 10 * math.log10(math.pi / (4 - math.pi))
        assert nakagami_m_from_K(k_db) == pytest.approx(1.0, rel=1e-9)

    def test_monotone_in_k(self):
        assert nakagami_m_from_K(30.0) > nakagami_m_from_K(10.0)

    @pytest.mark.parametrize("k_db", [-3.0, 0.0, 5.63, 10.0, 20.0])
    def test_residual_round_trip(self, k_db):
        from scipy.special import gammaln

        m = nakagami_m_from_K(k_db)
        k = 10 ** (k_db / 10)
        lhs = math.exp(gammaln(m + 0.5) - gammaln(m)) / math.sqrt(m)
        assert abs(lhs - math.sqrt(k / (k + 1))) < 1e-9

    @pytest.mark.parametrize(
        "k_db", [-3000.0, -2233.0, -1000.0, -300.0, -78.0, -40.0, -10.0, 0.0, 12.0, 40.0, 60.0, 100.0]
    )
    def test_mean_amplitude_round_trip(self, k_db):
        # mu rounds to about eps * |log m| relative: exp of a difference of
        # two log-gammas of that size.
        m = nakagami_m_from_K(k_db)
        k = 10 ** (k_db / 10)
        target = math.sqrt(k / (k + 1))
        tol = 8 * sys.float_info.epsilon * max(1.0, abs(math.log(m)))
        assert NakagamiReal(m).mu == pytest.approx(target, rel=tol)

    @pytest.mark.parametrize("k_db", [-3000.0, -78.0, 0.0, 20.0, 60.0, 100.0, 300.0])
    def test_matches_mpmath(self, k_db):
        # The reference solves in u = log m at 120 digits, where the log-gamma
        # difference of a large m keeps its digits.  The library's 4-ulp
        # tolerance on u leaves m good to about 8 eps |log m| relative.
        m = nakagami_m_from_K(k_db)
        with mp.workdps(120):
            k = mp.mpf(10) ** (mp.mpf(k_db) / 10)
            log_target = -mp.log1p(1 / k) / 2

            def f(u):
                x = mp.exp(u)
                return mp.loggamma(x + 0.5) - mp.loggamma(x) - u / 2 - log_target

            want = mp.exp(mp.findroot(f, mp.log(m)))
            rel = float(abs(m - want) / want)
        assert rel <= 8 * sys.float_info.epsilon * max(1.0, abs(math.log(m)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            nakagami_m_from_K(-math.inf)

    @pytest.mark.parametrize("k_db", [-3001.0, 3001.0, math.inf, math.nan])
    def test_rejects_out_of_range(self, k_db):
        match = r"^K_db must be a number in \[-3000.0, 3000.0\]"
        with pytest.raises(InputError, match=match) as info:
            nakagami_m_from_K(k_db)
        assert info.value.field == "K_db"


# Increasing functions g with sign(g(z)) = sign(z) in floating point, so
# that f(x) = g(x - r) has its root exactly at r.  The last one is flat up to
# a kink and rises from there, like _BoxRateOracle.rate_left.
INCREASING = {
    "linear": lambda z: z,
    "cubic": lambda z: z + z * z * z,
    "tanh": math.tanh,
    "expm1": lambda z: math.expm1(min(z, 700.0)),
    "atan": math.atan,
    "flat_then_rising": lambda z: z * (z + 1.0) if z > -0.5 else -0.25,
}


# Brent's interpolation multiplies values of f, which underflow for a root
# within about 1e-150 of zero (at a bracket of unit width); it then falls back
# to bisection and meets the iteration cap.  No caller has such a root.
ROOT = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-100),
)


class TestIncreasingRoot:
    @given(
        name=st.sampled_from(sorted(INCREASING)),
        root=ROOT,
        below=st.floats(min_value=1e-3, max_value=1e3),
        width=st.floats(min_value=1e-6, max_value=1e6),
        finite_cap=st.booleans(),
    )
    def test_root_within_4_ulp(self, name, root, below, width, finite_cap):
        g = INCREASING[name]
        lo = root - below
        cap = root + width if finite_cap else math.inf
        x = increasing_root(lambda x: g(x - root), lo, width, cap)
        # At zero, the absolute floor binds instead.
        assert abs(x - root) <= 4 * math.ulp(root) + sys.float_info.min

    @given(
        name=st.sampled_from(sorted(INCREASING)),
        root=st.floats(min_value=-1e6, max_value=1e6),
        below=st.floats(min_value=1e-3, max_value=1e3),
        short=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
        width=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_none_when_negative_at_the_cap(self, name, root, below, short, width):
        g = INCREASING[name]
        lo = root - below
        cap = lo + short * below
        assume(cap < root)
        assert increasing_root(lambda x: g(x - root), lo, width, cap) is None

    def test_root_at_the_first_probe(self):
        assert increasing_root(lambda x: x - 2.0, 0.0, 2.0) == 2.0

    def test_always_ends(self):
        # Each of these used to spin forever: a NaN or zero width and a NaN lo
        # never widen the bracket, and the rate inverse's width 2*t*u2
        # underflowed to 0.
        cases = [(lambda x: x - 1.0, 0.0, math.nan, "width"),
                 (lambda x: x - 1.0, 0.0, 0.0, "width"),
                 (lambda x: -1.0, math.nan, 1.0, "lo")]
        with time_cap(10):
            for f, lo, width, field in cases:
                with pytest.raises(InputError, match=f"^{field} must be") as info:
                    increasing_root(f, lo, width)
                assert info.value.field == field
            d = RateOracle(rayleigh(), 1e-10, 0.0).inverse_rate("right", 1e-310)
        # The root is about sqrt(2*t*u2) = 1.4e-165; the rate layer's
        # cancellation at tiny deviations puts it higher (ROADMAP item 8).
        assert 0.0 < d < 1e-20

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the rate layer's cancellation "
                       "at tiny deviations")
    def test_inverse_of_a_subnormal_rate_is_the_quadratic_tail_root(self):
        # At t = 1e-310 the tail is quadratic, I(d) = d^2 / (2 * E[U^2]), so the
        # root is sqrt(2 * t) * 1e-10; today it stops at 6.5e-27.
        d = RateOracle(rayleigh(), 1e-10, 0.0).inverse_rate("right", 1e-310)
        assert math.isclose(d, math.sqrt(2e-310) * 1e-10, rel_tol=1e-6)

    def test_iteration_cap_raises(self):
        # A step at zero: no interpolation helps, and from a bracket of width 1
        # bisection needs about 1000 halvings to come within the absolute floor.
        with pytest.raises(RuntimeError):
            increasing_root(lambda x: math.copysign(1.0, x), -1.0, 1e-3)


class TestNakagamiReal:
    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_shape_that_is_not_positive_and_finite(self, m):
        with pytest.raises(InputError, match="^m must be a number") as info:
            NakagamiReal(m)
        assert info.value.field == "m"
