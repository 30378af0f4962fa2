"""Rate functions, their inverses, and constellation-level bound machinery.

The p = 0 exponential case has closed forms that serve as the independent
oracle: with sigma2 = 1 the fluctuation is Exp(1) - 1, giving
I_R(d) = d - ln(1+d) and I_L(d) = -d - ln(1-d) for d < 1 (infinite beyond).
Under Rayleigh fading n * ||y||^2 / n / (p + sigma2) is Gamma(n), which is the
exact reference for the saddle-point decision probabilities.
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from simo_energy import rates
from simo_energy.channel import (
    InputError,
    NakagamiReal,
    Rician,
    rayleigh,
    sigma_from_snr,
    u_second_moment,
)
from simo_energy.design import (
    DesignConfig,
    ask_constellation,
    design_exact,
    equalized_regions,
    min_distance_constellation,
)
from simo_energy.rates import (
    Constellation,
    QuadraticRateOracle,
    RateOracle,
    approx_rate,
    chernoff_ser_bound,
    equalize_boundary,
    error_exponent,
)


@pytest.fixture(scope="module")
def exp_oracle():
    return RateOracle(rayleigh(), 1.0, 0.0)


def right_closed_form(d):
    return d - math.log1p(d)


def left_closed_form(d):
    return -d - math.log1p(-d) if d < 1.0 else math.inf


class TestRateRight:
    def test_zero_deviation(self, exp_oracle):
        assert exp_oracle.rate_right(0.0) == 0.0

    def test_unit_deviation(self, exp_oracle):
        assert exp_oracle.rate_right(1.0) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-10
        )

    def test_small_deviation_quadratic(self, exp_oracle):
        d = 0.01
        got = exp_oracle.rate_right(d)
        assert got == pytest.approx(right_closed_form(d), abs=1e-10)
        assert got == pytest.approx(d * d / 2.0, rel=0.01)

    def test_closed_form_grid(self, exp_oracle):
        for d in np.linspace(0.05, 5.0, 40):
            assert abs(exp_oracle.rate_right(d) - right_closed_form(d)) < 1e-8

    def test_rejects_negative(self, exp_oracle):
        with pytest.raises(ValueError):
            exp_oracle.rate_right(-0.1)


class TestRateLeft:
    def test_zero_deviation(self, exp_oracle):
        assert exp_oracle.rate_left(0.0) == 0.0

    def test_half_deviation(self, exp_oracle):
        assert exp_oracle.rate_left(0.5) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-10
        )

    def test_infinite_beyond_floor(self, exp_oracle):
        # The statistic cannot fall below zero, i.e. deviations past r(p).
        assert exp_oracle.rate_left(1.5) == math.inf
        assert exp_oracle.rate_left(1.0) == math.inf

    def test_closed_form_grid(self, exp_oracle):
        for d in np.linspace(0.05, 0.995, 40):
            assert abs(exp_oracle.rate_left(d) - left_closed_form(d)) < 1e-8

    def test_rejects_negative(self, exp_oracle):
        with pytest.raises(ValueError):
            exp_oracle.rate_left(-1e-9)


class TestInverseRate:
    def test_right_closed_form_point(self, exp_oracle):
        d = exp_oracle.inverse_rate("right", 1.0 - math.log(2.0))
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_small_target_quadratic_limit(self, exp_oracle):
        t = 1e-6
        d = exp_oracle.inverse_rate("right", t)
        assert d == pytest.approx(math.sqrt(2 * t * 1.0), rel=0.02)

    def test_monotone_in_target(self, exp_oracle):
        targets = [1e-4, 1e-3, 1e-2, 0.1, 0.5]
        ds = [exp_oracle.inverse_rate("right", t) for t in targets]
        assert all(a < b for a, b in zip(ds, ds[1:]))
        ds_left = [exp_oracle.inverse_rate("left", t) for t in targets]
        assert all(a < b for a, b in zip(ds_left, ds_left[1:]))

    def test_left_round_trip(self, exp_oracle):
        for t in (0.01, 0.2, 1.0, 4.0):
            d = exp_oracle.inverse_rate("left", t)
            assert exp_oracle.rate_left(d) == pytest.approx(t, abs=1e-9)

    def test_left_refuses_an_unreachable_exponent(self, exp_oracle):
        # The left exponent at the largest bracketed deviation r*(1 - 1e-15)
        # is about 33.5: a larger target has no root short of the floor.
        with pytest.raises(InputError, match="^t must be reached by the left") as info:
            exp_oracle.inverse_rate("left", 100.0)
        assert info.value.field == "t"

    def test_rejects_nonpositive_target(self, exp_oracle):
        with pytest.raises(ValueError):
            exp_oracle.inverse_rate("right", 0.0)
        with pytest.raises(ValueError):
            exp_oracle.inverse_rate("left", -1.0)


class TestApproxRate:
    def test_zero(self):
        assert approx_rate(4.0, 0.0) == 0.0

    def test_arithmetic(self):
        assert approx_rate(4.0, 2.0) == 0.5

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            approx_rate(0.0, 1.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("gamma_db", [0.0, 5.0, 10.0])
    def test_matches_exact_rate_at_small_deviation(self, p, gamma_db):
        sigma2 = sigma_from_snr(gamma_db)
        oracle = RateOracle(rayleigh(), sigma2, p)
        d = 0.01 * math.sqrt(oracle.u2)
        assert oracle.rate_right(d) == pytest.approx(
            approx_rate(oracle.u2, d), rel=0.01
        )


class TestLemma2Properties:
    """Shape properties of both rate functions over the (p, gamma, K) grid."""

    channels = [rayleigh(), Rician(0.0), Rician(6.0)]
    powers = [0.0, 0.5, 1.0, 2.0]
    gammas = [0.0, 5.0, 10.0]

    @pytest.mark.parametrize("channel", channels)
    @pytest.mark.parametrize("gamma_db", gammas)
    def test_zero_monotone_convex_in_d(self, channel, gamma_db):
        sigma2 = sigma_from_snr(gamma_db)
        for p in self.powers:
            oracle = RateOracle(channel, sigma2, p)
            scale = math.sqrt(oracle.u2)
            grid = [0.0] + [f * scale for f in (0.25, 0.5, 1.0, 1.5, 2.0)]
            for rate in (oracle.rate_right, oracle.rate_left):
                vals = [rate(d) for d in grid]
                assert vals[0] == 0.0
                finite = [v for v in vals if math.isfinite(v)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
                # midpoint convexity on consecutive triples
                for i in range(len(grid) - 2):
                    left, mid, right = vals[i], vals[i + 1], vals[i + 2]
                    if math.isfinite(right):
                        assert mid <= 0.5 * (left + right) + 1e-10

    @pytest.mark.parametrize("channel", channels)
    @pytest.mark.parametrize("gamma_db", gammas)
    def test_nonincreasing_in_power(self, channel, gamma_db):
        sigma2 = sigma_from_snr(gamma_db)
        for d in (0.05, 0.2, 0.8):
            for rate_name in ("rate_right", "rate_left"):
                vals = [
                    getattr(RateOracle(channel, sigma2, p), rate_name)(d)
                    for p in self.powers
                ]
                assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("channel", channels)
    @pytest.mark.parametrize("gamma_db", gammas)
    def test_quadratic_limit(self, channel, gamma_db):
        sigma2 = sigma_from_snr(gamma_db)
        for p in self.powers:
            u2 = u_second_moment(channel, sigma2, p)
            oracle = RateOracle(channel, sigma2, p)
            d = 0.01 * math.sqrt(u2)
            limit = d * d / (2 * u2)
            assert oracle.rate_right(d) == pytest.approx(limit, rel=0.01)
            assert oracle.rate_left(d) == pytest.approx(limit, rel=0.01)


class TestEqualizeBoundary:
    def test_symmetric_oracles_split_in_half(self):
        # Both tails of the quadratic oracle are the same function, so two
        # identical oracles must split the gap in the middle.
        oracle = QuadraticRateOracle(1.0, 1.0, 1.0)
        d = equalize_boundary(oracle, oracle, 0.8)
        assert d == pytest.approx(0.4, abs=1e-9)

    def test_residual_below_tolerance(self):
        o0 = RateOracle(rayleigh(), 0.1, 0.0)
        o2 = RateOracle(rayleigh(), 0.1, 2.0)
        d = equalize_boundary(o0, o2, 2.0)
        assert 0.0 < d < 2.0
        assert abs(o0.rate_right(d) - o2.rate_left(2.0 - d)) < 1e-9

    def test_quadratic_oracles_match_variance_ratio(self):
        sigma2 = 0.1
        p0, p1 = 0.5, 2.0
        o0 = QuadraticRateOracle(1.0, sigma2, p0)
        o1 = QuadraticRateOracle(1.0, sigma2, p1)
        gap = p1 - p0
        d = equalize_boundary(o0, o1, gap)
        expected = gap * math.sqrt(o0.u2) / (math.sqrt(o0.u2) + math.sqrt(o1.u2))
        assert d == pytest.approx(expected, abs=1e-9)

    def test_rejects_nonpositive_gap(self):
        oracle = RateOracle(rayleigh(), 1.0, 0.0)
        with pytest.raises(ValueError):
            equalize_boundary(oracle, oracle, 0.0)

    @pytest.mark.parametrize(
        "channel", [rayleigh(), Rician(10.0), NakagamiReal(2.0)],
        ids=["rayleigh", "rician10dB", "nakagami2"],
    )
    @pytest.mark.parametrize("snr_db", [-20.0, -10.0, 10.0, 50.0])
    def test_exponents_equal_relative_to_their_size(self, channel, snr_db):
        # At low SNR the exponents are ~1e-6, so an absolute stop on the
        # difference left them unequal by up to 8.6e-4 relative.
        sigma2 = sigma_from_snr(snr_db)
        con = equalized_regions(ask_constellation(16).levels, channel, sigma2)
        for k, c in enumerate(con.boundaries):
            p, q = con.levels[k], con.levels[k + 1]
            right = RateOracle(channel, sigma2, p).rate_right(c - p - sigma2)
            left = RateOracle(channel, sigma2, q).rate_left(q + sigma2 - c)
            assert right == pytest.approx(left, rel=1e-9)


class TestConstellationType:
    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            Constellation((1.0, 0.5), 0.1)

    @pytest.mark.parametrize(
        "levels,sigma2",
        [((0.0, math.nan, 2.0), 0.1), ((0.0, 1.0, math.inf), 0.1), ((math.nan,), 0.1),
         ((0.0, 1.0), math.inf), ((0.0, 1.0), math.nan)],
    )
    def test_rejects_non_finite_levels_and_noise(self, levels, sigma2):
        # NaN compares false with everything, so the ordering checks alone
        # let it through, and a level-only constellation has no region check.
        with pytest.raises(ValueError, match="^(levels|sigma2_design) must be a number"):
            Constellation(levels, sigma2)

    def test_caps_the_number_of_levels(self):
        # A 3000-level artifact used to build the simulator's 3000 x 3000 tables.
        Constellation(tuple(range(rates._MAX_L)), 0.1)
        with pytest.raises(InputError, match="^L must be") as info:
            Constellation(tuple(range(rates._MAX_L + 1)), 0.1)
        assert info.value.field == "L"

    def test_rejects_wrong_boundary_count(self):
        with pytest.raises(ValueError):
            Constellation((0.0, 1.0), 0.1, (0.5, 0.9))

    def test_rejects_receiver_point_outside_region(self):
        # r(p_2) = 1.1 must lie above the first boundary.
        with pytest.raises(ValueError):
            Constellation((0.0, 1.0), 0.1, (1.5,))

    def test_tail_exponents_outer_sides_infinite(self):
        con = Constellation((0.0, 1.0), 0.1, (0.5,))
        (i_l1, i_r1), (i_l2, i_r2) = rates.tail_exponents(con, rayleigh(), 0.1)
        assert i_l1 == math.inf and i_r2 == math.inf
        # The inner sides sit at deviations 0.4 right of r(0) and 0.6 left of r(1).
        assert i_r1 == pytest.approx(RateOracle(rayleigh(), 0.1, 0.0).rate_right(0.4))
        assert i_l2 == pytest.approx(RateOracle(rayleigh(), 0.1, 1.0).rate_left(0.6))


class TestChernoffBound:
    def test_single_level_is_zero(self):
        con = Constellation((1.0,), 0.1)
        assert chernoff_ser_bound(con, rayleigh(), 0.1, 100) == 0.0

    def test_two_level_closed_form(self):
        # With both interior exponents equal to t the bound is exp(-n t).
        sigma2 = 0.1
        out = design_exact(rayleigh(), sigma2, DesignConfig(L=2))
        t = out.t_star
        for n in (5, 10, 20):
            bound = chernoff_ser_bound(out.constellation, rayleigh(), sigma2, n)
            assert bound == pytest.approx(math.exp(-n * t), rel=1e-6)

    def test_doubling_antennas_squares_terms(self):
        sigma2 = 0.1
        con = min_distance_constellation(4, sigma2)
        b1 = chernoff_ser_bound(con, rayleigh(), sigma2, 30)
        b2 = chernoff_ser_bound(con, rayleigh(), sigma2, 60)
        assert b2 < b1
        # Term-wise: each exponent doubles, so the n=2m bound is bounded by
        # L times the square of the n=m bound (Cauchy-Schwarz direction).
        assert b2 <= 4 * b1 * b1 + 1e-15

    def test_range(self):
        con = min_distance_constellation(4, 1.0)
        assert 0.0 <= chernoff_ser_bound(con, rayleigh(), 1.0, 1) <= 2.0


class TestErrorExponent:
    def test_design_output_equals_t_star(self):
        sigma2 = 0.1
        out = design_exact(rayleigh(), sigma2, DesignConfig(L=4))
        i_e = error_exponent(out.constellation, rayleigh(), sigma2)
        assert i_e == pytest.approx(out.t_star, abs=1e-8)

    def test_shrinking_a_region_does_not_help(self):
        sigma2 = 0.1
        out = design_exact(rayleigh(), sigma2, DesignConfig(L=4))
        con = out.constellation
        base = error_exponent(con, rayleigh(), sigma2)
        moved = list(con.boundaries)
        moved[1] -= 0.2 * (moved[1] - moved[0])
        shrunk = Constellation(con.levels, con.sigma2_design, tuple(moved))
        assert error_exponent(shrunk, rayleigh(), sigma2) <= base + 1e-12

    def test_min_distance_is_strictly_worse(self):
        sigma2 = 0.1
        out = design_exact(rayleigh(), sigma2, DesignConfig(L=4))
        i_min = error_exponent(
            min_distance_constellation(4, sigma2), rayleigh(), sigma2
        )
        assert i_min < out.t_star


def test_chernoff_dominates_monte_carlo():
    from simo_energy.decode import EnergyRegions
    from simo_energy.montecarlo import SimScenario, simulate, wilson_interval

    sigma2 = sigma_from_snr(5.0)
    out = design_exact(rayleigh(), sigma2, DesignConfig(L=4))
    n = 50
    scen = SimScenario(
        rayleigh(), sigma2, EnergyRegions(out.constellation), n=n, symbols=50_000, seed=5
    )
    rep = simulate(scen)
    bound = chernoff_ser_bound(out.constellation, rayleigh(), sigma2, n)
    se = math.sqrt(max(rep.ser * (1 - rep.ser), 1e-12) / rep.symbols)
    assert rep.ser <= bound + 3 * se


def _ser(probabilities, n):
    """Symbol error rate from the decision probabilities, off the diagonal."""
    rows = probabilities(n)
    return sum(p for k, row in enumerate(rows) for j, p in enumerate(row) if j != k) / len(rows)


def _rayleigh_ser(levels, boundaries, sigma2, n):
    """Exact SER of interval decoding under Rayleigh fading: n * stat / (p + sigma2)
    is Gamma(n) distributed."""
    edges = (0.0,) + tuple(boundaries) + (math.inf,)
    total = 0.0
    for k, p in enumerate(levels):
        s = p + sigma2
        total += gammainc(n, n * edges[k] / s)
        if k < len(levels) - 1:
            total += gammaincc(n, n * edges[k + 1] / s)
    return total / len(levels)


class TestIntervalDecisionProbabilities:
    """Lugannani-Rice probabilities of interval decisions against exact references."""

    def test_rayleigh_ser_against_the_gamma_cdf(self):
        # Exact designs over the paper's SNR range; the relative error falls
        # like 0.066 / n (4.1e-3 at n = 16, 5.9e-4 at n = 100 when set).
        # SERs below 1e-290 underflow in the reference and must do so here.
        for L in (2, 4, 8, 16):
            for snr_db in range(-20, 55, 5):
                sigma2 = sigma_from_snr(snr_db)
                con = design_exact(rayleigh(), sigma2, DesignConfig(L=L)).constellation
                probs = rates.interval_decision_probabilities(
                    con.levels, con.boundaries, rayleigh(), sigma2
                )
                for n in (16, 32, 64, 100, 400):
                    got, ref = _ser(probs, n), _rayleigh_ser(con.levels, con.boundaries, sigma2, n)
                    if ref < 1e-290:
                        assert got < 1e-280, (L, snr_db, n, got)
                        continue
                    tol = 1e-3 if n >= 100 else 1e-2
                    assert got == pytest.approx(ref, rel=tol), (L, snr_db, n)

    @pytest.mark.parametrize(
        "channel", [rayleigh(), Rician(0.0), NakagamiReal(0.6), NakagamiReal(2.0)]
    )
    def test_each_row_is_a_distribution(self, channel):
        con = design_exact(channel, 0.1, DesignConfig(L=4)).constellation
        probs = rates.interval_decision_probabilities(con.levels, con.boundaries, channel, 0.1)
        for n in (1, 2, 16, 400, 4096):
            for row in probs(n):
                assert all(0.0 <= p <= 1.0 for p in row)
                assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_noise_and_the_removable_singularity(self):
        # A boundary on the receiver point (w = u = 0) and boundaries below
        # their own receiver points, as a larger true noise puts them: the
        # probabilities still follow the exact Gamma CDF, and the limit that
        # stands in below |w| = 1e-3 joins the full formula continuously.
        levels, sigma2 = (0.0, 1.0, 3.0), 0.5
        for boundaries in ((0.5, 2.0), (1.3, 1.6)):
            probs = rates.interval_decision_probabilities(levels, boundaries, rayleigh(), sigma2)
            for n in (16, 100):
                ref = _rayleigh_ser(levels, boundaries, sigma2, n)
                assert _ser(probs, n) == pytest.approx(ref, rel=1e-2)
        r = 1.0 + sigma2
        for n in (16, 400):
            cdf, ref = [], []
            for w in (0.0, 0.999e-3, 1.001e-3):
                c = r * (1.0 + w / math.sqrt(n))  # |w| just below, at and above 1e-3
                probs = rates.interval_decision_probabilities((1.0, 5.0), (c,), rayleigh(), sigma2)
                cdf.append(probs(n)[0][0])
                ref.append(gammainc(n, n * c / r))
                assert cdf[-1] == pytest.approx(ref[-1], rel=1e-4)
            # The step at |w| = 1e-3 (2.1e-6 at n = 16) is below the formula's own error.
            assert abs((cdf[2] - cdf[1]) - (ref[2] - ref[1])) < 1e-5

    def test_refusals(self):
        with pytest.raises(InputError, match="^boundaries "):
            rates.interval_decision_probabilities((0.0, 1.0), (), rayleigh(), 0.1)
        with pytest.raises(InputError, match="^boundaries "):
            rates.interval_decision_probabilities((0.0, 1.0, 2.0), (1.5, 0.6), rayleigh(), 0.1)
        with pytest.raises(InputError, match="^sigma2 "):
            rates.interval_decision_probabilities((0.0, 1.0), (0.6,), rayleigh(), 0.0)
        probs = rates.interval_decision_probabilities((0.0, 1.0), (0.6,), rayleigh(), 0.1)
        for bad in (0, 2.5, True):
            with pytest.raises(InputError, match="^n "):
                probs(bad)

    @pytest.mark.parametrize("channel", [rayleigh(), Rician(0.0), NakagamiReal(2.0)])
    def test_the_chernoff_bound_dominates_at_400_antennas(self, channel):
        for L in (2, 4, 16):
            for snr_db in (-20.0, 10.0, 50.0):
                sigma2 = sigma_from_snr(snr_db)
                con = design_exact(channel, sigma2, DesignConfig(L=L)).constellation
                probs = rates.interval_decision_probabilities(
                    con.levels, con.boundaries, channel, sigma2
                )
                assert _ser(probs, 400) <= chernoff_ser_bound(con, channel, sigma2, 400)

    def test_ser_exponent_approaches_t_star(self):
        # The paper's asymptotic claim: -log(SER)/n tends to the design's t*,
        # and the gap shrinks like (log n)/n.  SER ~ C exp(-n t*) / sqrt(n),
        # so n * gap = log(n) / 2 - log C: its slope in log n tends to 1/2.
        sigma2 = sigma_from_snr(-5.0)
        out = design_exact(rayleigh(), sigma2, DesignConfig(L=4))
        con = out.constellation
        probs = rates.interval_decision_probabilities(
            con.levels, con.boundaries, rayleigh(), sigma2
        )
        ns = (1_000, 10_000, 100_000)
        gaps = []
        for n in ns:
            ser = _ser(probs, n)
            exact = _rayleigh_ser(con.levels, con.boundaries, sigma2, n)
            assert ser == pytest.approx(exact, rel=1e-6)
            gaps.append(-math.log(ser) / n - out.t_star)
        assert 0.0 < gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.02 * out.t_star
        slopes = [
            (n2 * g2 - n1 * g1) / math.log(n2 / n1)
            for (n1, g1), (n2, g2) in zip(zip(ns, gaps), zip(ns[1:], gaps[1:]))
        ]
        assert slopes[0] < slopes[1]
        assert slopes[1] == pytest.approx(0.5, abs=0.02)
