"""Constellation design: optimizing algorithms, reductions, and baselines."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from simo_energy import design
from simo_energy.channel import (
    InputError,
    NakagamiReal,
    Rician,
    alpha1,
    rayleigh,
    sigma_from_snr,
)
from simo_energy.design import (
    DesignConfig,
    UncertaintyBox,
    _BoxRateOracle,
    ask_constellation,
    design_exact,
    design_moments,
    design_robust,
    equalized_regions,
    exact_power_at,
    min_distance_constellation,
    pam_constellation,
)
from simo_energy.decode import gray_code
from simo_energy.rates import QuadraticRateOracle, error_exponent
from helpers import degenerate_box, mean_power


SIGMA2_10DB = sigma_from_snr(10.0)


def construction_power_at(cfg, t, factory):
    """Mean power of the construction at t under the tails of `factory`'s oracles."""
    built = design._exact_levels_at(t, cfg, factory)
    return math.inf if built is None else sum(built[0]) / cfg.L


def moments_power_at(alpha1_value, sigma2, cfg, t):
    """Mean power of the construction at t under the quadratic tail model."""
    return construction_power_at(cfg, t, lambda p: QuadraticRateOracle(alpha1_value, sigma2, p))


def robust_power_at(box, cfg, t):
    """Mean power of the construction at t under the box's worst-case tails."""
    return construction_power_at(cfg, t, lambda p: _BoxRateOracle(box, p))


def exact_or_moments(method, channel, sigma2, cfg):
    if method == "exact":
        return design_exact(channel, sigma2, cfg)
    return design_moments(alpha1(channel), sigma2, cfg)


@pytest.fixture(scope="module")
def exact_l4():
    return design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=4))


class TestDesignExact:
    def test_two_levels_use_full_budget(self):
        out = design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=2))
        assert out.feasible
        assert out.constellation.levels[0] == 0.0
        assert out.constellation.levels[1] == pytest.approx(2.0, abs=1e-5)

    def test_two_levels_scaled_budget(self):
        out = design_exact(
            rayleigh(), SIGMA2_10DB, DesignConfig(L=2, power_budget=0.5)
        )
        assert out.constellation.levels[1] == pytest.approx(1.0, abs=1e-5)

    def test_interior_exponents_equalized(self, exact_l4):
        for right, left in exact_l4.boundary_exponents:
            assert right == pytest.approx(exact_l4.t_star, abs=1e-8)
            assert left == pytest.approx(exact_l4.t_star, abs=1e-8)

    def test_meets_power_budget(self, exact_l4):
        assert abs(exact_l4.mean_power - 1.0) < 1e-6
        assert exact_l4.mean_power <= 1.0 + 1e-12

    def test_levels_increasing_from_zero(self, exact_l4):
        levels = exact_l4.constellation.levels
        assert levels[0] == 0.0
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_matches_error_exponent(self, exact_l4):
        i_e = error_exponent(exact_l4.constellation, rayleigh(), SIGMA2_10DB)
        assert i_e == pytest.approx(exact_l4.t_star, abs=1e-8)

    def test_power_monotone_in_exponent(self, exact_l4):
        cfg = DesignConfig(L=4)
        t_star = exact_l4.t_star
        rng = np.random.default_rng(17)
        probes = sorted(rng.uniform(0.2 * t_star, 1.8 * t_star, size=6))
        powers = [exact_power_at(rayleigh(), SIGMA2_10DB, cfg, t) for t in probes]
        assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))
        assert exact_power_at(rayleigh(), SIGMA2_10DB, cfg, 0.5 * t_star) < 1.0
        assert exact_power_at(rayleigh(), SIGMA2_10DB, cfg, 2.0 * t_star) > 1.0

    def test_works_on_rician_and_nakagami(self):
        for channel in (Rician(6.0), NakagamiReal(1.2)):
            out = design_exact(channel, 0.5, DesignConfig(L=3))
            assert out.feasible
            for right, left in out.boundary_exponents:
                assert right == pytest.approx(out.t_star, abs=1e-8)
                assert left == pytest.approx(out.t_star, abs=1e-8)


@pytest.mark.parametrize("snr_db", [-20.0, 10.0, 50.0])
@pytest.mark.parametrize("L", [2, 4, 16, 64])
@pytest.mark.parametrize(
    "channel", [rayleigh(), Rician(0.0), NakagamiReal(2.0)],
    ids=["rayleigh", "rician0dB", "nakagami2"],
)
@pytest.mark.parametrize("method", ["exact", "moments"])
def test_region_edges_sit_at_t_star(method, channel, L, snr_db):
    """Both exponents of every region edge equal t_star to 1e-11 relative."""
    sigma2, cfg = sigma_from_snr(snr_db), DesignConfig(L=L)
    if method == "exact":
        out = design_exact(channel, sigma2, cfg)
    else:
        out = design_moments(alpha1(channel), sigma2, cfg)
    for right, left in out.boundary_exponents:
        assert right == pytest.approx(out.t_star, rel=1e-11, abs=0.0)
        assert left == pytest.approx(out.t_star, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("snr_db", [-20.0, 10.0, 50.0])
@pytest.mark.parametrize("L", [2, 4, 16])
@pytest.mark.parametrize(
    "channel", [rayleigh(), Rician(0.0), NakagamiReal(2.0)],
    ids=["rayleigh", "rician0dB", "nakagami2"],
)
@pytest.mark.parametrize("method", ["exact", "moments"])
def test_mean_power_meets_the_budget(method, channel, L, snr_db):
    """The power is within 1e-6 below the budget and never 1e-12 above it.

    Near saturation the computed power wobbles by about 1e-12 around the
    budget within a few ulp of t*, so the search must return a probed t that
    fits, not the root of the power equation (1 + 5.2e-12 at moments L = 2,
    50 dB).
    """
    cfg = DesignConfig(L=L)
    out = exact_or_moments(method, channel, sigma_from_snr(snr_db), cfg)
    assert 1.0 - 1e-6 <= out.mean_power <= 1.0 + 1e-12


@pytest.mark.parametrize("snr_db", [-20.0, 0.0, 10.0, 30.0, 50.0])
@pytest.mark.parametrize(
    "channel", [rayleigh(), Rician(0.0), NakagamiReal(2.0)],
    ids=["rayleigh", "rician0dB", "nakagami2"],
)
@pytest.mark.parametrize("method", ["exact", "moments"])
def test_t_star_does_not_rise_with_L(method, channel, snr_db):
    """Dropping the top level of an (L+1)-level design lowers its mean power,
    so the best exponent can only fall as L grows."""
    sigma2 = sigma_from_snr(snr_db)
    t_stars = [
        exact_or_moments(method, channel, sigma2, DesignConfig(L=L)).t_star
        for L in (2, 3, 4, 6, 8, 12, 16)
    ]
    for smaller, larger in zip(t_stars, t_stars[1:]):
        assert larger <= smaller * (1.0 + 1e-12)


@pytest.mark.parametrize("L", [2, 4, 16])
@pytest.mark.parametrize(
    "channel", [rayleigh(), Rician(0.0), NakagamiReal(2.0)],
    ids=["rayleigh", "rician0dB", "nakagami2"],
)
@pytest.mark.parametrize("method", ["exact", "moments"])
def test_t_star_does_not_fall_as_the_snr_rises(method, channel, L):
    """t* is nondecreasing in the SNR from -20 to 50 dB.

    Unlike the relation in L this is not derived from the construction: it
    held on every design here, and a counterexample is a finding to record,
    not a reason to widen the tolerance.
    """
    cfg = DesignConfig(L=L)
    t_stars = [
        exact_or_moments(method, channel, sigma_from_snr(float(snr_db)), cfg).t_star
        for snr_db in range(-20, 55, 5)
    ]
    for lower, higher in zip(t_stars, t_stars[1:]):
        assert higher >= lower * (1.0 - 1e-12)


@pytest.mark.parametrize("snr_db", [-20.0, 10.0, 50.0])
@pytest.mark.parametrize("L", [2, 4, 16, 64])
@pytest.mark.parametrize(
    "channel",
    [rayleigh(), Rician(0.0), Rician(10.0), NakagamiReal(2.0), NakagamiReal(0.6)],
    ids=["rayleigh", "rician0dB", "rician10dB", "nakagami2", "nakagami0.6"],
)
def test_equalized_regions_reproduce_the_exact_design(channel, L, snr_db):
    """A cross-path identity: `equalized_regions` splits each gap by
    `equalize_boundary`, not by the construction, yet on the design's own
    levels it gives the design's boundaries, and its error exponent is t*."""
    sigma2 = sigma_from_snr(snr_db)
    out = design_exact(channel, sigma2, DesignConfig(L=L))
    assert out.feasible
    con = equalized_regions(out.constellation.levels, channel, sigma2)
    for got, want in zip(con.boundaries, out.constellation.boundaries, strict=True):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert error_exponent(con, channel, sigma2) == pytest.approx(out.t_star, rel=1e-10, abs=0.0)


class TestDesignMoments:
    def test_pairwise_gap_equation(self):
        sigma2 = SIGMA2_10DB
        out = design_moments(1.0, sigma2, DesignConfig(L=4))
        b = math.sqrt(2.0 * out.t_star)
        s = lambda p: 1.0 * p * p + 2 * sigma2 * p + sigma2 * sigma2
        levels = out.constellation.levels
        for p, q in zip(levels, levels[1:]):
            assert q - p == pytest.approx(
                b * (math.sqrt(s(q)) + math.sqrt(s(p))), abs=1e-9
            )

    @pytest.mark.parametrize("a1", [-0.1, math.nan])
    def test_rejects_an_alpha1_that_is_not_nonnegative(self, a1):
        with pytest.raises(InputError, match="^alpha1_value must be a number") as info:
            design_moments(a1, 0.1, DesignConfig(L=4))
        assert info.value.field == "alpha1_value"

    def test_smaller_alpha1_packs_tighter(self):
        cfg = DesignConfig(L=4)
        t_small = design_moments(0.01, 0.1, cfg).t_star
        t_large = design_moments(1.0, 0.1, cfg).t_star
        assert t_small > t_large

    def test_exponent_ratio_improves_with_size(self):
        # The quadratic model gets tight as levels pack closer, so the
        # moment design evaluated under the exact rates approaches the
        # exact design's exponent as L grows.
        channel = Rician(0.0)
        sigma2 = sigma_from_snr(5.0)
        a1 = alpha1(channel)
        ratios = []
        for L in (2, 4, 8, 16):
            cfg = DesignConfig(L=L)
            exact = design_exact(channel, sigma2, cfg)
            moments = design_moments(a1, sigma2, cfg)
            achieved = error_exponent(moments.constellation, channel, sigma2)
            ratios.append(achieved / exact.t_star)
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_oracle_swap_reproduces_exact_construction(self):
        channel = Rician(0.0)
        sigma2 = sigma_from_snr(5.0)
        a1 = alpha1(channel)
        cfg = DesignConfig(L=4)
        swapped = design_exact(
            channel,
            sigma2,
            cfg,
            oracle_factory=lambda p: QuadraticRateOracle(a1, sigma2, p),
        )
        moments = design_moments(a1, sigma2, cfg)
        for a, b in zip(swapped.constellation.levels, moments.constellation.levels):
            assert a == pytest.approx(b, abs=1e-8)

    def test_power_monotone(self):
        cfg = DesignConfig(L=4)
        out = design_moments(1.0, 0.1, cfg)
        ts = np.linspace(0.3, 1.7, 5) * out.t_star
        powers = [moments_power_at(1.0, 0.1, cfg, t) for t in ts]
        assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))

    def test_inner_step_infeasible_above_alpha_cap(self):
        # The gap equation has no solution once 2*t*alpha1 >= 1.
        assert moments_power_at(1.0, 0.1, DesignConfig(L=2), 0.5) == math.inf


class TestDesignRobust:
    def test_degenerate_box_reduces_to_moments(self):
        sigma2 = 0.1
        cfg = DesignConfig(L=4)
        box = degenerate_box(1.0, sigma2)
        robust = design_robust(box, cfg)
        moments = design_moments(1.0, sigma2, cfg)
        assert robust.feasible
        assert robust.t_star == pytest.approx(moments.t_star, rel=1e-9)
        for a, b in zip(robust.constellation.levels, moments.constellation.levels):
            assert a == pytest.approx(b, abs=1e-8)
        for a, b in zip(
            robust.constellation.boundaries, moments.constellation.boundaries
        ):
            assert a == pytest.approx(b, abs=1e-8)

    def test_wide_noise_uncertainty_infeasible(self):
        # sigma^2 spanning (0.1, 10) forces p_2 >= 1/0.1 - 0.1 = 9.9 for any
        # positive exponent, beyond the two-level budget 2P = 2.
        box = UncertaintyBox(1.0, 1.0, math.sqrt(0.1), math.sqrt(10.0))
        cfg = DesignConfig(L=2)
        out = design_robust(box, cfg)
        assert not out.feasible
        assert out.constellation is None
        # The search probes t = 1, then brackets downward over log t = -1, -2,
        # -4, ..., -512 and the smallest normal float; a construction over
        # budget there gives the verdict, and the outcome counts the 12 probes.
        assert out.iterations == 12

    @pytest.mark.parametrize("L", [2, 4, 16])
    @pytest.mark.parametrize("margin", [0.9, 0.99, 1.01, 1.1])
    def test_verdict_matches_the_closed_form(self, L, margin):
        # As t -> 0 the worst-case left tail still needs adjacent levels
        # sigma_max^2 - sigma_min^2 apart, so the box is infeasible exactly
        # when (sigma_max^2 - sigma_min^2)(L - 1)/2 reaches the budget.
        sigma2_min = 0.1
        spread = 2.0 * margin / (L - 1)
        box = UncertaintyBox(0.8, 1.0, math.sqrt(sigma2_min), math.sqrt(sigma2_min + spread))
        out = design_robust(box, DesignConfig(L=L))
        assert out.feasible == (margin < 1.0)

    def test_widening_the_box_never_helps(self):
        cfg = DesignConfig(L=4)
        nominal = UncertaintyBox(0.9, 1.0, 0.3, 0.35)
        wider = UncertaintyBox(0.85, 1.0, 0.28, 0.40)
        assert wider.alpha1_min <= nominal.alpha1_min
        assert nominal.alpha1_max <= wider.alpha1_max
        assert wider.sigma_min <= nominal.sigma_min
        assert nominal.sigma_max <= wider.sigma_max
        t_nominal = design_robust(nominal, cfg).t_star
        t_wider = design_robust(wider, cfg).t_star
        assert t_wider <= t_nominal + 1e-12

    def test_guaranteed_exponents_meet_t_star(self):
        cfg = DesignConfig(L=4)
        box = UncertaintyBox(0.9, 1.0, 0.3, 0.4)
        out = design_robust(box, cfg)
        assert out.feasible
        for right, left in out.boundary_exponents:
            assert right >= out.t_star - 1e-8
            assert left >= out.t_star - 1e-8
            assert min(right, left) == pytest.approx(out.t_star, abs=1e-7)

    def test_power_monotone(self):
        cfg = DesignConfig(L=3)
        box = UncertaintyBox(0.9, 1.0, 0.3, 0.4)
        out = design_robust(box, cfg)
        ts = np.linspace(0.3, 1.7, 5) * out.t_star
        powers = [robust_power_at(box, cfg, t) for t in ts]
        assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))


class TestExponentSearch:
    # At -20 dB and L = 16 the optimal exponent (about 2.19197e-7, from a run
    # with eps = 1e-12) lies far below the first probe, t = 1; the search
    # must bracket downward instead of reporting infeasible.
    T_STAR_MINUS20_L16 = 2.19197e-7

    @pytest.mark.parametrize("method", ["moments", "exact"])
    def test_low_snr_design_is_feasible(self, method):
        sigma2 = sigma_from_snr(-20.0)
        cfg = DesignConfig(L=16)
        if method == "moments":
            out = design_moments(alpha1(rayleigh()), sigma2, cfg)
        else:
            out = design_exact(rayleigh(), sigma2, cfg)
        assert out.feasible
        assert out.t_star == pytest.approx(self.T_STAR_MINUS20_L16, rel=1e-6)
        assert 1.0 - 1e-6 <= out.mean_power <= 1.0 + 1e-12
        for right, left in out.boundary_exponents:
            assert right == pytest.approx(out.t_star, rel=1e-6)
            assert left == pytest.approx(out.t_star, rel=1e-6)

    def test_width_tolerance_is_relative(self):
        # An absolute 1e-9 width would leave t* ~ 4e-4 uncertain in its
        # sixth digit; the bracket must shrink to 1e-9 of t* itself.
        cfg = DesignConfig(L=64)
        out = design_moments(1.0, SIGMA2_10DB, cfg)
        assert moments_power_at(1.0, SIGMA2_10DB, cfg, out.t_star) <= 1.0
        assert moments_power_at(1.0, SIGMA2_10DB, cfg, out.t_star * (1.0 + 2e-9)) > 1.0

    @pytest.mark.parametrize("scale", [2.0**-10, 2.0**20])
    def test_search_is_invariant_to_the_power_scale(self, scale):
        # Scaling the budget and the noise power by the same power of two
        # scales every level exactly and leaves the exponents alone, so a
        # search whose tolerances are relative takes the same steps.
        unit = design_moments(1.0, 0.1, DesignConfig(L=8))
        scaled = design_moments(1.0, 0.1 * scale, DesignConfig(L=8, power_budget=scale))
        assert scaled.t_star == pytest.approx(unit.t_star, rel=1e-12)
        assert scaled.iterations == unit.iterations
        assert scale * (1.0 - 1e-6) <= scaled.mean_power <= scale * (1.0 + 1e-12)

    def test_normal_design_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="simo_energy"):
            design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=4))
            design_moments(1.0, 0.1, DesignConfig(L=16))
            design_robust(UncertaintyBox(0.9, 1.0, 0.3, 0.4), DesignConfig(L=4))
        assert caplog.records == []

    @pytest.mark.parametrize("method", ["exact", "moments"])
    @pytest.mark.parametrize("snr_db,budget", [(-130.0, 1.0), (10.0, 1e-14)])
    def test_a_tiny_total_snr_designs(self, method, snr_db, budget):
        # t* ~ 5.6e-28 lay below the old search range, eps * 2^-70 = 8.5e-28,
        # and both designs answered infeasible.
        sigma2 = sigma_from_snr(snr_db)
        cfg = DesignConfig(L=4, power_budget=budget)
        if method == "moments":
            out = design_moments(alpha1(rayleigh()), sigma2, cfg)
        else:
            out = design_exact(rayleigh(), sigma2, cfg)
        assert out.feasible
        assert 0.0 < out.t_star < 1e-27
        assert budget * (1.0 - 1e-6) <= out.mean_power <= budget * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "channel", [Rician(0.0), NakagamiReal(1.0)], ids=["rician0dB", "nakagami1"]
    )
    @pytest.mark.parametrize("method", ["exact", "moments"])
    @pytest.mark.parametrize("L", [2, 4])
    def test_scaling_noise_and_budget_together_scales_the_design(self, channel, method, L):
        # A design depends on budget / sigma2 alone.  At sigma2 = 1e101 the
        # exact Nakagami saddle point used to square R * (A + sigma2) past
        # float range and the design raised; the designs now run in units of
        # the noise power.  L * budget stays within 1e150 at every scale.
        sigma2, budget = 0.1, 0.5 / L

        def run(c):
            cfg = DesignConfig(L=L, power_budget=c * budget)
            if method == "exact":
                return design_exact(channel, c * sigma2, cfg)
            return design_moments(channel.alpha1, c * sigma2, cfg)

        base = run(1.0)
        for c in (1e-100, 1e100, 1e150):
            out = run(c)
            assert out.feasible
            assert out.t_star == pytest.approx(base.t_star, rel=1e-12)
            con, ref = out.constellation, base.constellation
            assert con.levels == pytest.approx(tuple(c * p for p in ref.levels), rel=1e-12, abs=0.0)
            assert con.boundaries == pytest.approx(tuple(c * b for b in ref.boundaries), rel=1e-12)
            assert out.mean_power == pytest.approx(c * base.mean_power, rel=1e-12)

    def test_power_shortfall_warns(self, caplog, monkeypatch):
        # At 50 dB the two-level design is near saturation, where the power is
        # ill-conditioned in t: the largest probed t that fits stops 3.4e-13
        # short of the budget, more than a 2^-52 tolerance, so the logger says
        # so rather than pass it off as converged.
        monkeypatch.setattr(design, "_SHORTFALL", 2.0**-52)
        cfg = DesignConfig(L=2)
        with caplog.at_level(logging.WARNING, logger="simo_energy"):
            out = design_exact(rayleigh(), sigma_from_snr(50.0), cfg)
        assert 1.0 - out.mean_power > design._SHORTFALL
        assert len(caplog.records) == 1
        assert "falls short of the budget" in caplog.records[0].getMessage()


class TestBaselines:
    def test_min_distance_levels(self):
        con = min_distance_constellation(4, 0.1)
        assert con.levels == pytest.approx((0.0, 2 / 3, 4 / 3, 2.0))
        assert con.boundaries == pytest.approx((1 / 3 + 0.1, 1.0 + 0.1, 5 / 3 + 0.1))

    def test_min_distance_unit_mean_power(self):
        for L in (2, 3, 4, 8, 17):
            con = min_distance_constellation(L, 0.2)
            assert mean_power(con) == pytest.approx(1.0, abs=1e-12)

    def test_min_distance_two_levels(self):
        con = min_distance_constellation(2, 0.3)
        assert con.levels == (0.0, 2.0)
        assert con.boundaries == pytest.approx((1.3,))

    def test_ask_levels(self):
        con = ask_constellation(4)
        assert con.levels == pytest.approx((0.0, 2 / 7, 8 / 7, 18 / 7))
        assert ask_constellation(2).levels == pytest.approx((0.0, 2.0))

    def test_ask_unit_mean_power(self):
        for L in (2, 3, 4, 8, 16):
            assert mean_power(ask_constellation(L)) == pytest.approx(1.0, abs=1e-12)

    def test_pam_amplitudes(self):
        pam = pam_constellation(4)
        root5 = math.sqrt(5.0)
        assert pam.amplitudes == pytest.approx(
            (-3 / root5, -1 / root5, 1 / root5, 3 / root5)
        )
        assert pam_constellation(2).amplitudes == pytest.approx((-1.0, 1.0))

    def test_pam_unit_mean_power(self):
        for L in (2, 4, 8, 16):
            pam = pam_constellation(L)
            assert sum(a * a for a in pam.amplitudes) / L == pytest.approx(
                1.0, abs=1e-12
            )

    def test_pam_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            pam_constellation(6)

    def test_pam_gray_labels_adjacent(self):
        # Amplitudes increase, so adjacent amplitudes carry the labels of
        # adjacent indices, which differ in one bit.
        pam = pam_constellation(8)
        assert all(b > a for a, b in zip(pam.amplitudes, pam.amplitudes[1:]))
        labels = [gray_code(k) for k in range(pam.L)]
        for a, b in zip(labels, labels[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_equalized_regions_residuals(self):
        from simo_energy.rates import RateOracle

        sigma2 = SIGMA2_10DB
        con = equalized_regions(ask_constellation(4).levels, rayleigh(), sigma2)
        for k in range(con.L - 1):
            o_k = RateOracle(rayleigh(), sigma2, con.levels[k])
            o_next = RateOracle(rayleigh(), sigma2, con.levels[k + 1])
            d_r = con.boundaries[k] - (con.levels[k] + sigma2)
            d_l = (con.levels[k + 1] + sigma2) - con.boundaries[k]
            assert abs(o_k.rate_right(d_r) - o_next.rate_left(d_l)) < 1e-9


class TestConfigValidation:
    def test_rejects_tiny_constellation(self):
        with pytest.raises(ValueError):
            DesignConfig(L=1)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            DesignConfig(L=2, power_budget=0.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_budget_that_is_not_positive_and_finite(self, value):
        # An infinite budget would send the search to overflow, a false
        # infeasible verdict or an unbracketed rate inverse.
        with pytest.raises(ValueError, match="^power_budget must be"):
            DesignConfig(L=2, power_budget=value)

    @pytest.mark.parametrize("value", [1e300, 5.1e149])
    def test_rejects_a_budget_out_of_range(self, value):
        # budget = 1e300 ended in a traceback.
        with pytest.raises(ValueError):
            DesignConfig(L=2, power_budget=value)

    def test_takes_no_tolerance(self):
        # The exponent search brackets t* over every positive float, so a
        # tolerance would steer nothing: the config holds L and the budget.
        assert [f.name for f in dataclasses.fields(DesignConfig)] == ["L", "power_budget"]
        with pytest.raises(TypeError, match="eps"):
            DesignConfig(L=2, eps=1e-6)

    @pytest.mark.parametrize("channel", [rayleigh(), Rician(0.0), NakagamiReal(0.6)])
    @pytest.mark.parametrize("L", [2, 16])
    def test_total_snr_at_the_bound_designs_without_warnings(self, channel, L, caplog):
        # Two-level designs are the first to reach a search cap as
        # L * budget / sigma2 grows; at the bound every method still converges.
        # L is a power of two, so L * budget is the bound exactly.
        sigma2 = sigma_from_snr(50.0)
        cfg = DesignConfig(L=L, power_budget=design._MAX_TOTAL_SNR * sigma2 / L)
        box = degenerate_box(alpha1(channel), sigma2)
        with caplog.at_level(logging.WARNING, logger="simo_energy"):
            outcomes = [
                design_exact(channel, sigma2, cfg),
                design_moments(alpha1(channel), sigma2, cfg),
                design_robust(box, cfg),
            ]
        assert caplog.records == []
        for out in outcomes:
            assert out.feasible
            assert out.mean_power == pytest.approx(cfg.power_budget, rel=1e-6)

    @pytest.mark.parametrize("snr_db", [-20.0, 10.0, 50.0])
    def test_rejects_a_total_snr_above_the_bound(self, snr_db):
        sigma2 = sigma_from_snr(snr_db)
        cfg = DesignConfig(L=2, power_budget=design._MAX_TOTAL_SNR * sigma2)
        with pytest.raises(ValueError, match="times the noise power"):
            design_exact(rayleigh(), sigma2, cfg)
        with pytest.raises(ValueError, match="times the noise power"):
            design_moments(1.0, sigma2, cfg)
        with pytest.raises(ValueError, match="times the noise power"):
            design_robust(degenerate_box(1.0, sigma2), cfg)

    @pytest.mark.parametrize("L", [2, 4, 64])
    def test_the_alpha1_and_level_step_bounds_still_design(self, L):
        # At alpha1 = 1e6 and at a level step 2 * budget / (L - 1) of exactly
        # 5e-14 times the noise power, every method designs to the budget.
        sigma2 = 0.1
        budget = design._MIN_LEVEL_STEP * (L - 1) * sigma2 / 2.0
        for cfg, a1 in ((DesignConfig(L=L), design._MAX_ALPHA1),
                        (DesignConfig(L=L, power_budget=budget), 1.0)):
            for out in (
                design_exact(NakagamiReal(1.0 / a1), sigma2, cfg),
                design_moments(a1, sigma2, cfg),
                design_robust(degenerate_box(a1, sigma2), cfg),
            ):
                assert out.feasible
                assert out.mean_power == pytest.approx(cfg.power_budget, rel=1e-6)

    @pytest.mark.parametrize("L", [4.0, True, design._MAX_L + 1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda L: design_exact(rayleigh(), 0.1, DesignConfig(L=L)),
            lambda L: min_distance_constellation(L, 0.1),
            lambda L: ask_constellation(L),
            lambda L: pam_constellation(L),
        ],
        ids=["exact", "mindist", "ask", "pam"],
    )
    def test_rejects_a_float_boolean_or_oversized_L(self, build, L):
        # A float L ended in range()'s or &'s TypeError, L = True was read as
        # L = 1, and a huge L filled memory with levels.
        with pytest.raises(ValueError, match="^L must be a whole number"):
            build(L)

    def test_takes_a_numpy_L_and_the_largest_L(self):
        assert DesignConfig(L=np.int64(4)) == DesignConfig(L=4)
        assert min_distance_constellation(np.int64(4), 0.1) == min_distance_constellation(4, 0.1)
        assert ask_constellation(np.int64(4)) == ask_constellation(4)
        assert pam_constellation(np.int64(4)) == pam_constellation(4)
        assert min_distance_constellation(design._MAX_L, 0.1).L == design._MAX_L

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            UncertaintyBox(1.0, 0.5, 0.1, 0.2)
        with pytest.raises(ValueError):
            UncertaintyBox(0.5, 1.0, 0.0, 0.2)
