"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the verdict
lines inline).  Every tolerance is fixed here; nothing is calibrated at run
time.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from simo_energy.channel import (
    Rician,
    alpha1,
    rayleigh,
    sigma_from_snr,
    u_second_moment,
)
from simo_energy.cli import main as cli_main
from simo_energy.decode import (
    EnergyMLAsk,
    EnergyRegions,
    NoncoherentML,
    PilotPAM,
    ml_threshold_boundaries,
)
from simo_energy.design import (
    DesignConfig,
    UncertaintyBox,
    ask_constellation,
    design_exact,
    design_moments,
    design_robust,
    equalized_regions,
    exact_power_at,
    min_distance_constellation,
    pam_constellation,
)
from simo_energy.montecarlo import SimScenario, min_antennas, simulate
from simo_energy.rates import (
    QuadraticRateOracle,
    RateOracle,
    chernoff_ser_bound,
    error_exponent,
)
from helpers import degenerate_box, noncoherent_ml_index


def verdict(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def ser_se(report) -> float:
    return math.sqrt(max(report.ser * (1 - report.ser), 1e-12) / report.symbols)


def test_criterion_01_closed_form_rate_oracle():
    start = time.perf_counter()
    oracle = RateOracle(rayleigh(), 1.0, 0.0)
    for d in np.linspace(0.01, 5.0, 60):
        assert abs(oracle.rate_right(d) - (d - math.log1p(d))) < 1e-8
    for d in np.linspace(0.01, 0.999, 60):
        assert abs(oracle.rate_left(d) - (-d - math.log1p(-d))) < 1e-8
    assert oracle.rate_left(1.0) == math.inf
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    verdict(1, f"closed-form rate oracle matched to 1e-8 in {elapsed:.2f}s")


def test_criterion_02_rate_function_shape_suite():
    start = time.perf_counter()
    channels = [rayleigh(), Rician(0.0), Rician(6.0)]
    gammas = [0.0, 5.0, 10.0]
    powers = [0.0, 0.5, 1.0, 2.0]
    for channel in channels:
        for gamma_db in gammas:
            sigma2 = sigma_from_snr(gamma_db)
            for rate_name in ("rate_right", "rate_left"):
                fixed_d_vals = []
                for p in powers:
                    oracle = RateOracle(channel, sigma2, p)
                    rate = getattr(oracle, rate_name)
                    scale = math.sqrt(oracle.u2)
                    grid = [f * scale for f in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)]
                    vals = [rate(d) for d in grid]
                    assert vals[0] == 0.0
                    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
                    for i in range(len(vals) - 2):
                        if math.isfinite(vals[i + 2]):
                            assert vals[i + 1] <= 0.5 * (vals[i] + vals[i + 2]) + 1e-10
                    d_small = 0.01 * scale
                    assert rate(d_small) == pytest.approx(
                        d_small**2 / (2 * oracle.u2), rel=0.01
                    )
                    fixed_d_vals.append(rate(0.2))
                assert all(
                    b <= a + 1e-10 for a, b in zip(fixed_d_vals, fixed_d_vals[1:])
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    verdict(2, f"rate functions nonneg/monotone/convex with quadratic limit in {elapsed:.2f}s")


def test_criterion_03_design_self_consistency():
    sigma2 = sigma_from_snr(10.0)
    start = time.perf_counter()
    out = design_exact(rayleigh(), sigma2, DesignConfig(L=4, eps=1e-6))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    for right, left in out.boundary_exponents:
        assert right == pytest.approx(out.t_star, abs=1e-8)
        assert left == pytest.approx(out.t_star, abs=1e-8)
    assert abs(out.mean_power - 1.0) < 1e-6

    cfg = DesignConfig(L=4)
    rng = np.random.default_rng(23)
    probes = sorted(rng.uniform(0.3 * out.t_star, 1.7 * out.t_star, size=5))
    powers = [exact_power_at(rayleigh(), sigma2, cfg, t) for t in probes]
    assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))

    two = design_exact(rayleigh(), sigma2, DesignConfig(L=2))
    assert two.constellation.levels[0] == 0.0
    assert two.constellation.levels[1] == pytest.approx(2.0, abs=1e-5)
    verdict(3, f"exact design equalized to 1e-8, budget met, L=2 -> [0, 2] in {elapsed:.2f}s")


def test_criterion_04_reduction_chain():
    sigma2 = sigma_from_snr(5.0)
    channel = Rician(0.0)
    a1 = alpha1(channel)
    cfg = DesignConfig(L=4)

    moments = design_moments(a1, sigma2, cfg)
    robust = design_robust(degenerate_box(a1, sigma2), cfg)
    for a, b in zip(robust.constellation.levels, moments.constellation.levels):
        assert a == pytest.approx(b, abs=1e-8)

    swapped = design_exact(
        channel, sigma2, cfg, oracle_factory=lambda p: QuadraticRateOracle(a1, sigma2, p)
    )
    for a, b in zip(swapped.constellation.levels, moments.constellation.levels):
        assert a == pytest.approx(b, abs=1e-8)
    verdict(4, "robust(zero box) == moments == exact(quadratic oracle) to 1e-8")


def test_criterion_05_wide_uncertainty_infeasible():
    start = time.perf_counter()
    box = UncertaintyBox(1.0, 1.0, math.sqrt(0.1), math.sqrt(10.0))
    out = design_robust(box, DesignConfig(L=2, power_budget=1.0))
    elapsed = time.perf_counter() - start
    assert not out.feasible
    assert elapsed < 5.0
    verdict(5, f"sigma^2 in (0.1, 10) with 2P = 2 < 9.9 reported infeasible in {elapsed:.2f}s")


def test_criterion_06_chernoff_dominance():
    cases = []
    for L in (2, 4, 8):
        for channel, gamma_db in ((rayleigh(), 5.0), (rayleigh(), 10.0), (Rician(0.0), 10.0)):
            cases.append((L, channel, gamma_db))
    assert len(cases) == 9
    for L, channel, gamma_db in cases:
        sigma2 = sigma_from_snr(gamma_db)
        out = design_exact(channel, sigma2, DesignConfig(L=L))
        scen = SimScenario(
            channel, sigma2, EnergyRegions(out.constellation), n=100,
            symbols=100_000, seed=13,
        )
        rep = simulate(scen)
        bound = chernoff_ser_bound(out.constellation, channel, sigma2, 100)
        assert rep.ser <= bound + 3 * ser_se(rep)
    verdict(6, "Monte Carlo SER below the union bound for all 9 scenarios")


def test_criterion_07_moment_design_ratio_improves_with_size():
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
    assert ratios[-1] > 0.9
    verdict(7, f"moment/exact exponent ratios {['%.3f' % r for r in ratios]} nondecreasing, >0.9 at L=16")


def test_criterion_08_exact_design_beats_ask_and_min_distance():
    sigma2 = sigma_from_snr(10.0)
    exact = design_exact(rayleigh(), sigma2, DesignConfig(L=8)).constellation
    rep_exact = simulate(
        SimScenario(rayleigh(), sigma2, EnergyRegions(exact), n=100, symbols=100_000, seed=1)
    )
    rep_ask = simulate(
        SimScenario(
            rayleigh(), sigma2,
            EnergyMLAsk(ask_constellation(8).levels, 0.0, 1.0, sigma2, n=100),
            n=100, symbols=100_000, seed=1,
        )
    )
    rep_mind = simulate(
        SimScenario(
            rayleigh(), sigma2, EnergyRegions(min_distance_constellation(8, sigma2)),
            n=100, symbols=100_000, seed=1,
        )
    )
    for rival in (rep_ask, rep_mind):
        sep = (rival.ser - rep_exact.ser) / math.hypot(ser_se(rival), ser_se(rep_exact))
        assert sep >= 3.0
    verdict(
        8,
        f"SER exact {rep_exact.ser:.4f} < ASK {rep_ask.ser:.4f} and "
        f"min-distance {rep_mind.ser:.4f} with >=3 sigma separation",
    )


def test_criterion_09_exact_exponent_dominates_equalized_ask():
    for channel in (rayleigh(), Rician(0.0)):
        for gamma_db in (0.0, 5.0, 10.0, 15.0, 20.0):
            sigma2 = sigma_from_snr(gamma_db)
            t_exact = design_exact(channel, sigma2, DesignConfig(L=4)).t_star
            ask_regions = equalized_regions(
                ask_constellation(4).levels, channel, sigma2
            )
            i_ask = error_exponent(ask_regions, channel, sigma2)
            assert t_exact >= i_ask - 1e-9
    verdict(9, "exact-design exponent >= equalized-ASK exponent at every (K, gamma)")


def test_criterion_10_min_antennas_pam_vs_energy():
    sigma2 = sigma_from_snr(10.0)
    pam = pam_constellation(2)
    pam_scen = SimScenario(
        rayleigh(), sigma2,
        PilotPAM(pam.amplitudes, 0.0, 1.0, sigma2, coherence_slots=2, pilot_slots=0),
        n=1, symbols=100_000, seed=21,
    )
    assert min_antennas(pam_scen, 1e-3, 2048) is None

    exact = design_exact(rayleigh(), sigma2, DesignConfig(L=2)).constellation
    energy_scen = SimScenario(
        rayleigh(), sigma2, EnergyRegions(exact), n=1, symbols=100_000, seed=21
    )
    n_star = min_antennas(energy_scen, 1e-3, 2048)
    assert n_star is not None and 1 <= n_star <= 2048
    verdict(10, f"PAM w/o phase reference NOT_REACHED; energy design reaches 1e-3 BER at n={n_star}")


def test_criterion_11_robust_design_survives_snr_overestimation():
    nom_K, nom_gamma, half_width = -10.0, 10.0, 2.0
    cfg = DesignConfig(L=8)
    nonrobust = design_moments(alpha1(Rician(nom_K)), sigma_from_snr(nom_gamma), cfg)
    alphas = [alpha1(Rician(nom_K + d)) for d in (-half_width, half_width)]
    sigmas = [
        math.sqrt(sigma_from_snr(nom_gamma + d)) for d in (-half_width, half_width)
    ]
    box = UncertaintyBox(min(alphas), max(alphas), min(sigmas), max(sigmas))
    robust = design_robust(box, cfg)
    assert robust.feasible

    results = {}
    for true_K, true_gamma in ((-9.0, 9.0), (-11.0, 11.0)):
        truth = Rician(true_K)
        true_sigma2 = sigma_from_snr(true_gamma)
        for n in (100, 200):
            for name, design in (("nonrobust", nonrobust), ("robust", robust)):
                rep = simulate(
                    SimScenario(
                        truth, true_sigma2, EnergyRegions(design.constellation),
                        n=n, symbols=100_000, seed=29,
                    )
                )
                results[(true_K, true_gamma, n, name)] = rep

    # SNR was overestimated on the (K=-9, gamma=9) channel; the robust design
    # must win there with clear statistical separation at the larger n.
    worst = (-9.0, 9.0, 200)
    rep_nr = results[worst + ("nonrobust",)]
    rep_r = results[worst + ("robust",)]
    sep = (rep_nr.ser - rep_r.ser) / math.hypot(ser_se(rep_nr), ser_se(rep_r))
    assert rep_r.ser <= rep_nr.ser
    assert sep >= 3.0
    verdict(
        11,
        f"on the SNR-overestimated channel robust SER {rep_r.ser:.4f} beats "
        f"nominal-design SER {rep_nr.ser:.4f} by {sep:.0f} sigma",
    )


def test_criterion_12_rayleigh_ml_equivalence():
    sigma2 = sigma_from_snr(10.0)
    levels = design_exact(rayleigh(), sigma2, DesignConfig(L=4)).constellation.levels

    # Equal-statistic blocks decode identically under the noncoherent rule.
    rng = np.random.default_rng(41)
    for _ in range(100):
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rotated = y * np.exp(1j * rng.uniform(0, 2 * math.pi, 16))
        k1 = noncoherent_ml_index(
            levels, 0.0, 1.0, sigma2, 16, np.sum(np.abs(y) ** 2), np.sum(y.real)
        )
        k2 = noncoherent_ml_index(
            levels, 0.0, 1.0, sigma2, 16, np.sum(np.abs(rotated) ** 2), np.sum(rotated.real)
        )
        assert k1 == k2

    thresholds = ml_threshold_boundaries(levels, 1.0, sigma2)
    scen = SimScenario(
        rayleigh(), sigma2, EnergyRegions(thresholds), n=100, symbols=100_000, seed=3
    )
    rep_regions = simulate(scen)
    rep_ml = simulate(
        replace(scen, decoder=NoncoherentML(levels, 0.0, 1.0, sigma2))
    )
    assert rep_regions.symbol_errors == rep_ml.symbol_errors
    assert rep_regions.err_counts == rep_ml.err_counts
    verdict(12, "noncoherent ML is a function of the statistic and matches threshold decoding")


def test_criterion_13_determinism_across_shards(tmp_path):
    args = [
        "sweep-n",
        "--channel.gamma_dB", "0",
        "--design.method", "exact",
        "--design.L", "4",
        "--sim.n", "[50, 100]",
        "--sim.symbols", "20000",
        "--seed", "97",
    ]
    blobs = []
    for shards in (1, 4, 16):
        out = tmp_path / f"shards{shards}.csv"
        assert cli_main(args + ["--shards", str(shards), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        blobs.append("\n".join(ln for ln in lines if not ln.startswith("#")))
    assert blobs[0] == blobs[1] == blobs[2]
    verdict(13, "shard counts 1/4/16 produce byte-identical data rows")
