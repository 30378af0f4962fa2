"""Simulation engine: determinism, scheme behavior, antenna search, histograms."""

import logging
import math
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import kstest, ks_2samp, ncx2, norm

from simo_energy import decode, montecarlo
from simo_energy.channel import (
    InputError,
    NakagamiReal,
    Rician,
    check_number,
    nakagami_m_from_K,
    rayleigh,
    sigma_from_snr,
    u_second_moment,
)
from simo_energy.decode import (
    EnergyMLAsk,
    EnergyRegions,
    NoncoherentML,
    PilotPAM,
    gray_code,
    ml_threshold_boundaries,
)
from simo_energy.design import (
    DesignConfig,
    design_exact,
    min_distance_constellation,
    pam_constellation,
)
from simo_energy.montecarlo import (
    SimScenario,
    histogram,
    min_antennas,
    simulate,
    wilson_interval,
)
from simo_energy.rates import Constellation, chernoff_ser_bound, interval_decision_probabilities
from helpers import energy_ml_index, noncoherent_ml_index


SIGMA2_10DB = sigma_from_snr(10.0)


@pytest.fixture(scope="module")
def design_l4():
    return design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=4))


def energy_scenario(constellation, n=100, symbols=20_000, seed=11, shards=1,
                    channel=rayleigh(), sigma2=SIGMA2_10DB):
    return SimScenario(
        true_channel=channel,
        true_sigma2=sigma2,
        decoder=EnergyRegions(constellation),
        n=n,
        symbols=symbols,
        seed=seed,
        shards=shards,
    )


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 100)
        assert lo < 0.07 < hi

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01


class TestDeterminism:
    def test_counts_invariant_to_shard_count(self, design_l4):
        reports = [
            simulate(energy_scenario(design_l4.constellation, shards=s))
            for s in (1, 4, 16)
        ]
        base = reports[0]
        for rep in reports[1:]:
            assert rep.symbol_errors == base.symbol_errors
            assert rep.bit_errors == base.bit_errors
            assert rep.tx_counts == base.tx_counts
            assert rep.err_counts == base.err_counts

    def test_rerun_identical(self, design_l4):
        a = simulate(energy_scenario(design_l4.constellation))
        b = simulate(energy_scenario(design_l4.constellation))
        assert (a.symbol_errors, a.bit_errors) == (b.symbol_errors, b.bit_errors)

    def test_seed_changes_counts(self, design_l4):
        a = simulate(energy_scenario(design_l4.constellation, n=25, seed=1))
        b = simulate(energy_scenario(design_l4.constellation, n=25, seed=2))
        assert a.symbol_errors > 0
        assert (a.symbol_errors, a.bit_errors) != (b.symbol_errors, b.bit_errors)


class TestSimulate:
    @pytest.mark.parametrize("sigma2", [1e-9, 0.0])
    @pytest.mark.parametrize(
        "scheme,n,assumed",
        [
            pytest.param("energy", 4, None, id="energy-4"),
            pytest.param("noncoherent_ml", 4, 1e-3, id="noncoherent_ml-4"),
            pytest.param("ask_energy_ml", 4, 1e-3, id="ask_energy_ml-4"),
            pytest.param("noncoherent_ml", 1, 1e-3, id="noncoherent_ml-1"),
            pytest.param("ask_energy_ml", 1, 1e-9, id="ask_energy_ml-1-assumed1e-09"),
            pytest.param("ask_energy_ml", 8, 1e-9, id="ask_energy_ml-8-assumed1e-09"),
        ],
    )
    def test_noiseless_deterministic_channel(self, scheme, n, assumed, sigma2):
        # With K = +inf the per-antenna variance is sigma2 alone, so sigma2 = 0
        # leaves the sampler nothing random to draw.  An ASK-ML receiver that
        # assumes noise 1e-9 sees a noncentrality near 2n*p/1e-9, where the
        # noncentral chi-square density must stay finite.
        con = min_distance_constellation(4, 1e-9)
        decoder = {
            "energy": lambda: EnergyRegions(con),
            "noncoherent_ml": lambda: NoncoherentML(con.levels, 1.0, 0.0, assumed),
            "ask_energy_ml": lambda: EnergyMLAsk(con.levels, 1.0, 0.0, assumed, n=n),
        }[scheme]()
        scen = SimScenario(Rician(math.inf), sigma2, decoder, n=n, symbols=2000, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert simulate(scen).symbol_errors == 0

    def test_equiprobable_transmission(self, design_l4):
        rep = simulate(energy_scenario(design_l4.constellation, symbols=100_000))
        expected = rep.symbols / len(rep.tx_counts)
        se = math.sqrt(rep.symbols * 0.25 * 0.75)
        for count in rep.tx_counts:
            assert abs(count - expected) < 4 * se

    def test_ser_decreases_with_antennas(self, design_l4):
        scen_sigma2 = sigma_from_snr(0.0)
        out = design_exact(rayleigh(), scen_sigma2, DesignConfig(L=4))
        sers, ses = [], []
        for n in (25, 50, 100, 200):
            rep = simulate(
                energy_scenario(
                    out.constellation, n=n, symbols=100_000, sigma2=scen_sigma2
                )
            )
            sers.append(rep.ser)
            ses.append(math.sqrt(rep.ser * (1 - rep.ser) / rep.symbols))
        for k in range(len(sers) - 1):
            assert sers[k + 1] <= sers[k] + 3 * math.hypot(ses[k], ses[k + 1])

    def test_empirical_exponent_approaches_design_exponent(self):
        sigma2 = sigma_from_snr(0.0)
        out = design_exact(rayleigh(), sigma2, DesignConfig(L=4))
        pairs = [(50, 100), (100, 200)]
        chosen = None
        for n1, n2 in pairs:
            r1 = simulate(
                energy_scenario(out.constellation, n=n1, symbols=200_000, sigma2=sigma2)
            )
            r2 = simulate(
                energy_scenario(out.constellation, n=n2, symbols=200_000, sigma2=sigma2)
            )
            if r1.symbol_errors >= 100 and r2.symbol_errors >= 100:
                chosen = (n1, r1.ser, r2.ser)
        assert chosen is not None
        n1, ser1, ser2 = chosen
        slope = (math.log(ser1) - math.log(ser2)) / n1
        assert slope == pytest.approx(out.t_star, rel=0.25)

    def test_chernoff_dominates(self, design_l4):
        rep = simulate(
            energy_scenario(design_l4.constellation, n=100, symbols=100_000)
        )
        bound = chernoff_ser_bound(design_l4.constellation, rayleigh(), SIGMA2_10DB, 100)
        se = math.sqrt(max(rep.ser * (1 - rep.ser), 1e-12) / rep.symbols)
        assert rep.ser <= bound + 3 * se

    def test_rejects_tiny_budget(self, design_l4):
        with pytest.raises(ValueError):
            energy_scenario(design_l4.constellation, symbols=100)

    @pytest.mark.parametrize("bad", [2.5, 4.0, True, 0, np.int64(0)])
    def test_rejects_a_fractional_boolean_or_zero_antenna_count(self, design_l4, bad):
        # n = 2.5 once simulated a Gamma(2.5) energy as if it were an antenna count.
        with pytest.raises(ValueError):
            energy_scenario(design_l4.constellation, n=bad)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("symbols", 1e5),  # used to end in numpy's TypeError
            ("symbols", True),
            ("shards", 1.5),  # shards and seed used to run, echoed into the report
            ("shards", True),
            ("seed", True),
            ("seed", 11.0),
        ],
    )
    def test_rejects_a_fractional_or_boolean_whole_field(self, design_l4, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
            energy_scenario(design_l4.constellation, **{field: bad})

    def test_caps_the_symbol_budget_where_int64_counts_could_wrap(self, design_l4):
        energy_scenario(design_l4.constellation, symbols=montecarlo._MAX_SYMBOLS)
        with pytest.raises(ValueError, match="^symbols must be"):
            energy_scenario(design_l4.constellation, symbols=montecarlo._MAX_SYMBOLS + 1)

    def test_takes_numpy_symbols_seed_and_shards(self, design_l4):
        con = design_l4.constellation
        got = simulate(energy_scenario(con, symbols=np.int64(20_000), seed=np.uint64(11),
                                       shards=np.int32(2)))
        want = simulate(energy_scenario(con, symbols=20_000, seed=11, shards=2))
        assert got == want

    def test_takes_a_numpy_antenna_count(self, design_l4):
        got = simulate(energy_scenario(design_l4.constellation, n=np.int32(25), seed=1))
        want = simulate(energy_scenario(design_l4.constellation, n=25, seed=1))
        assert got == want

    def test_caps_the_antenna_count_at_one_logical_block(self, design_l4):
        # n = 1e308 used to overflow the Gamma draw to infinite statistics.
        con = design_l4.constellation
        energy_scenario(con, n=montecarlo._BLOCK_DRAWS)
        for refuse in (
            lambda: energy_scenario(con, n=montecarlo._BLOCK_DRAWS + 1),
            lambda: histogram(con, rayleigh(), SIGMA2_10DB, n=montecarlo._BLOCK_DRAWS + 1,
                              trials=1000, bins=10),
            lambda: EnergyMLAsk(con.levels, 0.0, 1.0, SIGMA2_10DB, n=montecarlo._BLOCK_DRAWS + 1),
        ):
            with pytest.raises(InputError, match="^n must be") as info:
                refuse()
            assert info.value.field == "n"

    def test_caps_the_antenna_draws_of_one_coherence_block(self):
        # Nakagami pilot PAM draws every antenna, so T * n draws make one coherence
        # block; a block larger than one logical block used to be allocated whole.
        amps = pam_constellation(2).amplitudes
        nakagami = NakagamiReal(2.0)
        decoder = PilotPAM(amps, nakagami.mu, nakagami.sigma_h2, 0.1, 4, 1)
        template = SimScenario(nakagami, 0.1, decoder, n=1 << 16, symbols=2000, seed=0)
        with pytest.raises(InputError, match="^coherence_slots must keep") as info:
            replace(template, n=(1 << 16) + 1)
        assert info.value.field == "coherence_slots"
        # min_antennas refuses an n_max whose block would not fit before any candidate.
        with pytest.raises(InputError, match="^n_max must keep") as info:
            min_antennas(replace(template, n=1), 1e-3, (1 << 16) + 1)
        assert info.value.field == "n_max"
        with pytest.raises(InputError, match="^n_max must be") as info:
            min_antennas(replace(template, n=1), 1e-3, montecarlo._BLOCK_DRAWS + 1)
        # Sufficient-statistic samplers draw a few values per symbol: T alone is capped.
        rayleigh_pilot = PilotPAM(amps, 0.0, 1.0, 0.1, montecarlo._BLOCK_DRAWS + 1, 1)
        with pytest.raises(InputError, match="^coherence_slots must keep"):
            SimScenario(rayleigh(), 0.1, rayleigh_pilot, n=1, symbols=1 << 19, seed=0)

    def test_symbol_budget_below_a_coherence_block_names_symbols(self):
        decoder = PilotPAM(pam_constellation(2).amplitudes, 0.0, 1.0, 0.1, 5000, 1)
        with pytest.raises(InputError, match="^symbol budget is below") as info:
            SimScenario(rayleigh(), 0.1, decoder, n=4, symbols=2000, seed=0)
        assert info.value.field == "symbols"

    def test_noncoherent_ml_rayleigh_matches_energy_with_ml_thresholds(self):
        from simo_energy.decode import ml_threshold_boundaries

        levels = design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=4)).constellation.levels
        con = ml_threshold_boundaries(levels, 1.0, SIGMA2_10DB)
        scen_energy = energy_scenario(con, n=100, symbols=50_000, seed=3)
        scen_ml = replace(
            scen_energy,
            decoder=NoncoherentML(levels, 0.0, 1.0, SIGMA2_10DB),
        )
        a, b = simulate(scen_energy), simulate(scen_ml)
        assert a.symbol_errors == b.symbol_errors
        assert a.err_counts == b.err_counts


class TestPilotPam:
    def test_rayleigh_without_pilots_is_useless(self):
        pam = pam_constellation(2)
        dec = PilotPAM(pam.amplitudes, 0.0, 1.0, SIGMA2_10DB, coherence_slots=2, pilot_slots=0)
        scen = SimScenario(rayleigh(), SIGMA2_10DB, dec, n=64, symbols=10_000, seed=2)
        rep = simulate(scen)
        assert rep.ber > 0.4

    def test_pilots_enable_coherent_detection(self):
        ch = Rician(0.0)
        pam = pam_constellation(2)
        dec = PilotPAM(
            pam.amplitudes, ch.mu, ch.sigma_h2, SIGMA2_10DB,
            coherence_slots=4, pilot_slots=1,
        )
        scen = SimScenario(ch, SIGMA2_10DB, dec, n=32, symbols=20_000, seed=2)
        assert simulate(scen).ber < 1e-3

    def test_effective_rate_accounts_for_overhead(self):
        pam = pam_constellation(4)
        dec = PilotPAM(pam.amplitudes, 0.0, 1.0, 0.1, coherence_slots=10, pilot_slots=1)
        scen = SimScenario(rayleigh(), 0.1, dec, n=4, symbols=10_000, seed=0)
        assert scen.effective_rate == pytest.approx(0.9 * 2.0)


class TestCoherenceBlockIntervals:
    """The data slots of one pilot-PAM coherence block share the channel and its
    estimate, so their errors are correlated; the intervals count that."""

    # Long blocks, little noise: errors come from a poor channel estimate and
    # arrive a block at a time.
    LONG_BLOCKS = PilotPAM((-0.9, -0.3, 0.3, 0.9), 0.0, 1.0, 0.01, 16, 1)

    def test_coverage_of_the_mean_across_seeds(self):
        reports = [
            simulate(SimScenario(rayleigh(), 0.01, self.LONG_BLOCKS, 2, 4000, seed))
            for seed in range(300)
        ]
        for field, ci in (("ser", "ser_ci"), ("ber", "ber_ci")):
            mean = np.mean([getattr(r, field) for r in reports])
            covered = [lo <= mean <= hi for lo, hi in (getattr(r, ci) for r in reports)]
            # 0.77 (SER) and 0.72 (BER) when every slot counts as independent.
            assert np.mean(covered) >= 0.88, field

    def test_wider_than_the_independent_slot_interval(self):
        # Each seed's design effect is itself random and can fall to 1 or
        # below, which keeps the plain interval; count the seeds that widen.
        wider = 0
        for seed in range(100):
            rep = simulate(SimScenario(rayleigh(), 0.01, self.LONG_BLOCKS, 2, 4000, seed))
            lo, hi = wilson_interval(rep.symbol_errors, rep.symbols)
            wider += rep.ser_ci[0] < lo and hi < rep.ser_ci[1]
        assert wider >= 90

    @pytest.mark.parametrize("cell", ["energy", "pilot-T2-Tl1"])
    def test_one_data_slot_per_block_keeps_the_binomial_interval(self, cell, design_l4):
        if cell == "energy":
            scen = energy_scenario(design_l4.constellation, n=25, seed=1)
        else:
            pam = pam_constellation(4)
            dec = PilotPAM(pam.amplitudes, 0.0, 1.0, 0.1, coherence_slots=2, pilot_slots=1)
            scen = SimScenario(rayleigh(), 0.1, dec, n=4, symbols=10_000, seed=0)
        rep = simulate(scen)
        assert rep.symbol_errors > 0
        assert rep.ser_ci == wilson_interval(rep.symbol_errors, rep.symbols)
        assert rep.ber_ci == wilson_interval(rep.bit_errors, rep.bits)


class TestMinAntennas:
    def test_coin_flip_target_needs_one_antenna(self, design_l4):
        scen = energy_scenario(design_l4.constellation, n=1, symbols=20_000)
        assert min_antennas(scen, 0.499, 64) == 1

    def test_pam_on_rayleigh_never_reaches(self):
        pam = pam_constellation(2)
        dec = PilotPAM(pam.amplitudes, 0.0, 1.0, SIGMA2_10DB, coherence_slots=2, pilot_slots=0)
        scen = SimScenario(rayleigh(), SIGMA2_10DB, dec, n=1, symbols=10_000, seed=4)
        assert min_antennas(scen, 1e-3, 256) is None

    def test_larger_constellations_need_more_antennas(self):
        n2 = min_antennas(
            energy_scenario(
                design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=2)).constellation,
                n=1,
                symbols=200_000,
                seed=8,
            ),
            1e-3,
            2048,
        )
        n4 = min_antennas(
            energy_scenario(
                design_exact(rayleigh(), SIGMA2_10DB, DesignConfig(L=4)).constellation,
                n=1,
                symbols=200_000,
                seed=8,
            ),
            1e-3,
            2048,
        )
        assert n2 is not None and n4 is not None
        assert n4 > n2

    def test_rejects_bad_target(self, design_l4):
        scen = energy_scenario(design_l4.constellation)
        with pytest.raises(ValueError):
            min_antennas(scen, 0.7, 10)

    @pytest.mark.parametrize(
        "n_max,gamma_db,candidates",
        [(1, 10.0, [1]), (400, -20.0, [400])],
    )
    def test_hopeless_candidate_costs_one_capped_block(
        self, n_max, gamma_db, candidates, design_l4, monkeypatch
    ):
        # At -20 dB every candidate up to n = 400 sees its 100 bit errors in
        # its first block, so each one draws a single block of 2^14 symbols.
        # The aim lands beyond n_max, so n_max is the only candidate.
        blocks, counts = [], []
        make_rng, run_block = montecarlo._block_generator, montecarlo._run_noncoherent_block

        def spy_rng(seed, index):
            blocks.append(index)
            return make_rng(seed, index)

        def spy_block(scenario, sampler, rng, count):
            counts.append((scenario.n, count))
            return run_block(scenario, sampler, rng, count)

        monkeypatch.setattr(montecarlo, "_block_generator", spy_rng)
        monkeypatch.setattr(montecarlo, "_run_noncoherent_block", spy_block)
        scen = energy_scenario(
            design_l4.constellation, n=1, symbols=100_000, sigma2=sigma_from_snr(gamma_db)
        )
        assert min_antennas(scen, 1e-3, n_max) is None
        assert [n for n, _ in counts] == candidates
        assert blocks == [0] * len(counts)
        assert [count for _, count in counts] == [montecarlo._BLOCK_SYMBOLS] * len(counts)

    @pytest.mark.parametrize(
        "seed,n_star,candidates", [(1, 30, [30, 29]), (101, 31, [30, 31])]
    )
    def test_reached_search_is_pinned(self, seed, n_star, candidates, design_l4, monkeypatch):
        # The benchmark's energy template.  The saddle-point verdict aims the
        # first candidate at n = 30, and one step of one antenna shows the
        # answer: at seed 1 n = 30 qualifies and 29 fails, at seed 101 30
        # fails and 31 qualifies.  Doubling and bisection probed 1, 2, 4, 8,
        # 16, 32, 24, 28, 30, 29 at seed 1.
        probes = _spy_candidates(monkeypatch)
        scen = energy_scenario(design_l4.constellation, n=1, symbols=100_000, seed=seed)
        assert min_antennas(scen, 1e-3, 2048) == n_star
        assert [n for n, *_ in probes] == candidates

    @pytest.mark.parametrize(
        "name,n_star,candidates",
        [
            ("pilot-pam-L2-T2", 4, [1, 4, 3]),
            ("pilot-pam-L4-T2-1e-4", 14, [1, 4, 10, 13, 14]),
            ("rician0dB-noncoherent-ml", 23, [1, 4, 16, 23, 22]),
        ],
    )
    def test_receivers_without_intervals_search_from_one(
        self, name, n_star, candidates, monkeypatch
    ):
        # Pilot PAM decides on a projection and noncoherent ML with mu != 0
        # on (||y||^2, Re sum y), so neither is aimed: the secant search from
        # n = 1 probes what it probed before the aim existed.
        ric = Rician(0.0)
        levels = design_exact(ric, SIGMA2_10DB, DesignConfig(L=4)).constellation.levels
        channel, decoder, target = {
            "pilot-pam-L2-T2": (
                rayleigh(), PilotPAM(pam_constellation(2).amplitudes, 0.0, 1.0, SIGMA2_10DB, 2, 1),
                1e-3,
            ),
            "pilot-pam-L4-T2-1e-4": (
                rayleigh(), PilotPAM(pam_constellation(4).amplitudes, 0.0, 1.0, SIGMA2_10DB, 2, 1),
                1e-4,
            ),
            "rician0dB-noncoherent-ml": (
                ric, NoncoherentML(levels, ric.mu, ric.sigma_h2, SIGMA2_10DB), 1e-3
            ),
        }[name]
        probes = _spy_candidates(monkeypatch)
        template = SimScenario(channel, SIGMA2_10DB, decoder, 1, 100_000, 1)
        assert min_antennas(template, target, 2048) == n_star
        assert [n for n, *_ in probes] == candidates

    @pytest.mark.parametrize("bad", [2.5, 5.0, True, "5"])
    def test_refuses_a_fractional_or_boolean_n_max(self, design_l4, bad):
        # n_max = 5.5 once kept bisection's bracket 1.5 wide forever.
        scen = energy_scenario(design_l4.constellation, n=1, symbols=20_000)
        with pytest.raises(ValueError):
            min_antennas(scen, 1e-3, bad)

    def test_takes_a_numpy_n_max(self, design_l4):
        scen = energy_scenario(design_l4.constellation, n=1, symbols=20_000)
        assert min_antennas(scen, 0.499, np.int64(4)) == 1

    def test_logs_each_candidate_and_the_totals(self, design_l4, monkeypatch, caplog):
        probes = _spy_candidates(monkeypatch)
        scen = energy_scenario(design_l4.constellation, n=1, symbols=100_000, seed=1)
        with caplog.at_level(logging.DEBUG, logger="simo_energy"):
            n_star = min_antennas(scen, 1e-3, 2048)
        messages = [r.getMessage() for r in caplog.records if r.name == "simo_energy"]
        assert len(messages) == len(probes) + 1
        for message, (n, symbols, bit_errors, upper) in zip(messages, probes):
            verdict = "qualifies" if upper < 1e-3 else "fails"
            assert message == (
                f"min_antennas candidate n={n}: {symbols} symbols, {bit_errors} bit errors, "
                f"BER upper {upper:.6g}, {verdict}"
            )
        total = sum(symbols for _, symbols, *_ in probes)
        assert messages[-1] == (
            f"min_antennas: {len(probes)} candidates, {total} symbols, n* = {n_star}"
        )


def _spy_candidates(monkeypatch):
    """Record (n, symbols, bit errors, BER upper bound) of every candidate that
    `min_antennas` simulates, in order."""
    probes, accumulate = [], montecarlo._accumulate

    def spy(scenario, stop_bit_errors=None):
        result = accumulate(scenario, stop_bit_errors)
        probes.append((scenario.n, result.symbols, result.bit_errors, result.ber_ci[1]))
        return result

    monkeypatch.setattr(montecarlo, "_accumulate", spy)
    return probes


def bisection_min_antennas(template, target_ber, n_max):
    """The reference: the doubling and bisection search over the same
    per-candidate verdict that `min_antennas` used before it aimed."""

    def qualifies(n):
        scen = montecarlo._with_antennas(template, n)
        _, upper = montecarlo._accumulate(scen, stop_bit_errors=montecarlo._MIN_BIT_ERRORS).ber_ci
        return upper < target_ber

    n, lo, hi = 1, 0, None
    while n <= n_max:
        if qualifies(n):
            hi = n
            break
        lo, n = n, 2 * n
    if hi is None:
        if lo < n_max and qualifies(n_max):
            hi = n_max
        else:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        hi, lo = (mid, lo) if qualifies(mid) else (hi, mid)
    return hi


SEARCH_TARGET = 1e-3
# Upper BER bounds as a function of (n, k, n_max) whose smallest qualifying n
# is k (none when k > n_max).  The cliff falls slowly just above the target
# and then drops, the worst case for regula falsi.  A curve that approaches
# the target from above draws secant steps of a few antennas each.
HOPELESS_CURVES = ("flat", "flat-above-target", "approaching-target")
SEARCH_CURVES = {
    "step": lambda n, k, n_max: 0.3 if n < k else 1e-5,
    "flat": lambda n, k, n_max: 0.3,
    "flat-above-target": lambda n, k, n_max: 1.01 * SEARCH_TARGET,
    "approaching-target": lambda n, k, n_max: SEARCH_TARGET * (1.0 + math.exp(-n / 3.0)),
    "convex": lambda n, k, n_max: min(0.5, SEARCH_TARGET * ((k - 0.5) / n) ** 3),
    "cliff": lambda n, k, n_max: (
        SEARCH_TARGET * (1.5 - n / (2 * n_max)) if n < k else 1e-6
    ),
}


class TestMinAntennasContract:
    """The aimed search returns the count that doubling and bisection return,
    and each answer is shown by its own probes."""

    @staticmethod
    def cell(name, constellation):
        sigma2 = SIGMA2_10DB
        ric = Rician(0.0)
        amps = pam_constellation(2).amplitudes
        return {
            "rayleigh-energy": (rayleigh(), EnergyRegions(constellation)),
            "rician0dB-energy": (ric, EnergyRegions(constellation)),
            "nakagami-energy": (NakagamiReal(2.0), EnergyRegions(constellation)),
            "rayleigh-ask-ml": (
                rayleigh(), EnergyMLAsk(constellation.levels, 0.0, 1.0, sigma2, n=1)
            ),
            "rician0dB-noncoherent-ml": (
                ric, NoncoherentML(constellation.levels, ric.mu, ric.sigma_h2, sigma2)
            ),
            "pilot-pam-T2-Tl1": (rayleigh(), PilotPAM(amps, 0.0, 1.0, sigma2, 2, 1)),
            "pilot-pam-T2-Tl0": (rayleigh(), PilotPAM(amps, 0.0, 1.0, sigma2, 2, 0)),
        }[name]

    @pytest.mark.parametrize(
        "name",
        [
            "rayleigh-energy", "rician0dB-energy", "nakagami-energy", "rayleigh-ask-ml",
            "rician0dB-noncoherent-ml", "pilot-pam-T2-Tl1", "pilot-pam-T2-Tl0",
        ],
    )
    def test_same_answer_as_bisection_and_shown_by_its_probes(self, name, design_l4, monkeypatch):
        channel, decoder = self.cell(name, design_l4.constellation)
        n_max = 256
        for seed in (1, 2, 3, 4):
            for target in (1e-2, 1e-3):
                template = SimScenario(channel, SIGMA2_10DB, decoder, 1, 20_000, seed)
                expected = bisection_min_antennas(template, target, n_max)
                with monkeypatch.context() as m:
                    probes = _spy_candidates(m)
                    n_star = min_antennas(template, target, n_max)
                assert n_star == expected, (seed, target)
                verdicts = {n: upper < target for n, _, _, upper in probes}
                assert len(verdicts) == len(probes)
                if n_star is None:
                    assert verdicts[n_max] is False
                else:
                    assert verdicts[n_star] is True
                    assert n_star == 1 or verdicts[n_star - 1] is False

    @pytest.mark.parametrize("curve", list(SEARCH_CURVES))
    def test_synthetic_curves(self, curve, design_l4, monkeypatch):
        # The answer is k, no n is simulated twice, and the search takes at
        # most the 2*ceil(log2(n_max)) + 2 candidates of doubling and bisection.
        upper_of, probed, case = SEARCH_CURVES[curve], [], {}

        def fake(scenario, stop_bit_errors=None):
            probed.append(scenario.n)
            upper = upper_of(scenario.n, case["k"], case["n_max"])
            return SimpleNamespace(symbols=1000, bit_errors=0, ber_ci=(0.0, upper))

        monkeypatch.setattr(montecarlo, "_accumulate", fake)
        template = energy_scenario(design_l4.constellation, n=1)
        for n_max in (1, 2, 3, 5, 64, 400, 2048):
            ks = range(1, n_max + 2) if n_max <= 64 else [*range(1, n_max, 37), n_max, n_max + 1]
            for k in [n_max + 1] if curve in HOPELESS_CURVES else ks:
                case.update(k=k, n_max=n_max)
                probed.clear()
                n_star = min_antennas(template, SEARCH_TARGET, n_max)
                assert n_star == (k if k <= n_max else None), (n_max, k, probed)
                assert len(set(probed)) == len(probed), (n_max, k, probed)
                assert len(probed) <= 2 * math.ceil(math.log2(n_max)) + 2, (n_max, k, probed)


@pytest.mark.parametrize("m", [0.6, 2.0])
def test_saddle_point_ser_within_the_monte_carlo_interval(m):
    # Nakagami has no closed-form SER: the saddle-point value must lie in the
    # simulation's 95 % Wilson interval wherever it sees at least 100 errors.
    channel = NakagamiReal(m)
    con = design_exact(channel, SIGMA2_10DB, DesignConfig(L=4)).constellation
    probs = interval_decision_probabilities(con.levels, con.boundaries, channel, SIGMA2_10DB)
    checked = 0
    for n in (4, 16, 32):
        rows = probs(n)
        ser = sum(p for k, row in enumerate(rows) for j, p in enumerate(row) if j != k) / 4
        report = simulate(energy_scenario(con, n=n, symbols=200_000, seed=7, channel=channel))
        if report.symbol_errors >= 100:
            checked += 1
            assert report.ser_ci[0] <= ser <= report.ser_ci[1], (n, ser, report.ser_ci)
    assert checked >= 2


@pytest.mark.parametrize("curve", list(SEARCH_CURVES))
def test_the_walk_keeps_the_contract_from_any_start(curve):
    # The aimed first candidate may land anywhere in [1, n_max]: from every
    # start the walk and its refinement still answer k, probe no n twice and
    # take at most the 2*ceil(log2(n_max)) + 2 candidates of doubling and bisection.
    for n_max in (1, 2, 3, 5, 64, 400, 2048):
        ks = range(1, n_max + 2) if n_max <= 64 else [*range(1, n_max, 37), n_max, n_max + 1]
        for k in [n_max + 1] if curve in HOPELESS_CURVES else ks:
            starts = {1, n_max, max(k - 1, 1), min(k, n_max), min(k + 1, n_max), (1 + n_max) // 2}
            for start in sorted(starts):
                probed = []

                def f(n):
                    probed.append(n)
                    return math.log(SEARCH_CURVES[curve](n, k, n_max) / SEARCH_TARGET)

                n_star = montecarlo._aimed_search(f, n_max, start)
                assert n_star == (k if k <= n_max else None), (n_max, k, start, probed)
                assert len(set(probed)) == len(probed), (n_max, k, start, probed)
                assert len(probed) <= 2 * math.ceil(math.log2(n_max)) + 2, (n_max, k, start, probed)


LEVELS = (0.0, 0.6, 1.6, 3.0)
AMPS = (-0.9, -0.3, 0.3, 0.9)
NAKAGAMI = NakagamiReal(2.0)
ENERGY_REGIONS = EnergyRegions(Constellation(LEVELS, 1.0, (1.25, 2.0, 3.2)))
RICIAN_0DB = Rician(0.0)
# Receivers whose samplers draw a few values per symbol whatever n is.
SUFFICIENT_STATISTIC_CELLS = {
    "rayleigh-energy": (rayleigh(), ENERGY_REGIONS),
    "rician0dB-noncoherent-ml": (
        RICIAN_0DB, NoncoherentML(LEVELS, RICIAN_0DB.mu, RICIAN_0DB.sigma_h2, 1.0)
    ),
    "nakagami-energy": (NAKAGAMI, ENERGY_REGIONS),
    "nakagami-zero-mean-ml": (NAKAGAMI, NoncoherentML(LEVELS, 0.0, 1.0, 1.0)),
    "rician0dB-pilot-pam-T2": (
        RICIAN_0DB, PilotPAM(AMPS, RICIAN_0DB.mu, RICIAN_0DB.sigma_h2, 1.0, 2, 1)
    ),
    "rayleigh-pilot-pam-T3": (rayleigh(), PilotPAM(AMPS, 0.0, 1.0, 1.0, 3, 0)),
}


class TestBlockRule:
    """Blocks of per-antenna samplers hold at most _BLOCK_DRAWS antenna draws;
    the other samplers' blocks hold _BLOCK_SYMBOLS symbols at every n."""

    @pytest.mark.parametrize("coherence", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 400, 2048])
    @pytest.mark.parametrize("scheme", ["noncoherent_ml", "pilot_pam"])
    def test_per_antenna_samplers_keep_the_draw_cap(self, scheme, n, coherence):
        if scheme == "pilot_pam":
            decoder = PilotPAM(AMPS, NAKAGAMI.mu, NAKAGAMI.sigma_h2, 1.0, max(coherence, 2), 1)
            coherence = decoder.coherence_slots
        else:
            decoder = NoncoherentML(LEVELS, NAKAGAMI.mu, NAKAGAMI.sigma_h2, 1.0)
        sampler, draws = montecarlo._sampler(NAKAGAMI, decoder, n)
        assert sampler in (montecarlo._antenna_stats, montecarlo._antenna_pilot)
        assert draws == n
        per = montecarlo._symbols_per_block(draws, coherence)
        cap = min(montecarlo._BLOCK_SYMBOLS, montecarlo._BLOCK_DRAWS // n)
        assert per % coherence == 0
        assert cap - coherence < per <= montecarlo._BLOCK_SYMBOLS
        if n <= montecarlo._BLOCK_DRAWS // coherence:
            assert per * n <= montecarlo._BLOCK_DRAWS
        if n >= 16:
            # The symbol cap is inactive: the same blocks as a draw cap alone.
            assert per == (montecarlo._BLOCK_DRAWS // n // coherence) * coherence

    def test_more_antennas_than_the_draw_cap_still_take_one_coherence_block(self):
        assert montecarlo._symbols_per_block(montecarlo._BLOCK_DRAWS + 1, 4) == 4

    @pytest.mark.parametrize("n", [17, 400, 2048])
    @pytest.mark.parametrize("cell", list(SUFFICIENT_STATISTIC_CELLS))
    def test_sufficient_statistic_samplers_hold_2_14_symbols(self, cell, n):
        channel, decoder = SUFFICIENT_STATISTIC_CELLS[cell]
        coherence = decoder.coherence_slots
        _, draws = montecarlo._sampler(channel, decoder, n)
        per = montecarlo._symbols_per_block(draws, coherence)
        assert per == (montecarlo._BLOCK_SYMBOLS // coherence) * coherence

    def test_rayleigh_energy_at_n_1000_runs_in_7_blocks(self, design_l4, monkeypatch):
        # 2^18 / 1000 = 262 symbols per block would take 382 blocks.
        blocks = []
        make_rng = montecarlo._block_generator
        monkeypatch.setattr(
            montecarlo, "_block_generator", lambda seed, i: blocks.append(i) or make_rng(seed, i)
        )
        report = simulate(energy_scenario(design_l4.constellation, n=1000, symbols=100_000))
        assert report.symbols == 100_000
        assert blocks == list(range(7))

    def test_nakagami_ml_at_n_400_draws_at_most_2_18_antennas_per_block(self, monkeypatch):
        sizes = []
        draw = montecarlo.sample_channel

        def spy(channel, size, rng):
            sizes.append(size)
            return draw(channel, size, rng)

        monkeypatch.setattr(montecarlo, "sample_channel", spy)
        decoder = NoncoherentML(LEVELS, NAKAGAMI.mu, NAKAGAMI.sigma_h2, 1.0)
        assert simulate(SimScenario(NAKAGAMI, 1.0, decoder, 400, 2000, 5)).symbols == 2000
        assert len(sizes) == 4
        assert max(sizes) <= montecarlo._BLOCK_DRAWS


def _reference_counts(sent, decoded, L, data_slots):
    """Symbol and bit errors, per-level counts and squared per-coherence-block
    errors, one symbol at a time from gray_code and a popcount."""
    bits = [bin(gray_code(s) ^ gray_code(d)).count("1") for s, d in zip(sent, decoded)]
    wrong = [int(s != d) for s, d in zip(sent, decoded)]
    tx, err = [0] * L, [0] * L
    for s, w in zip(sent, wrong):
        tx[s] += 1
        err[s] += w
    sym_sq = bit_sq = 0
    if data_slots > 1:
        for b in range(0, len(sent), data_slots):
            sym_sq += sum(wrong[b:b + data_slots]) ** 2
            bit_sq += sum(bits[b:b + data_slots]) ** 2
    return sum(wrong), sum(bits), tx, err, sym_sq, bit_sq


class TestCountLayer:
    @settings(max_examples=200)
    @given(
        L=st.sampled_from([2, 3, 4, 16, 64]),
        data_slots=st.sampled_from([1, 3]),
        blocks=st.integers(1, 200),
        wrong=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_symbol_by_symbol_reference(self, L, data_slots, blocks, wrong, seed):
        rng = np.random.default_rng(seed)
        size = blocks * data_slots
        sent = rng.integers(0, L, size)
        # A share `wrong` of the decisions is redrawn: errors of any distance.
        decoded = np.where(rng.random(size) < wrong, rng.integers(0, L, size), sent)
        # One logical block of pilot PAM with `data_slots` data slots per
        # coherence block, whose (sent, decoded) pairs are these.
        decoder = PilotPAM(tuple(float(k) for k in range(L)), 0.0, 1.0, 0.1, data_slots + 1, 1)
        scenario = SimScenario(rayleigh(), 0.1, decoder, n=1, symbols=1000, seed=0)
        with mock.patch.object(montecarlo, "_run_pilot_pam_block", lambda *_: (sent, decoded)):
            report = montecarlo._accumulate(scenario)
        sym_sq, bit_sq = montecarlo._squared_errors(
            sent, decoded, montecarlo._bit_error_table(L), data_slots
        )
        sym_err, bit_err, tx, err, ref_sym_sq, ref_bit_sq = _reference_counts(
            sent.tolist(), decoded.tolist(), L, data_slots
        )
        assert (report.symbol_errors, report.bit_errors, sym_sq, bit_sq) == (
            sym_err, bit_err, ref_sym_sq, ref_bit_sq,
        )
        assert list(report.tx_counts) == tx
        assert list(report.err_counts) == err


class TestHistogram:
    def test_moments_match_theory(self, design_l4):
        con = design_l4.constellation
        n, trials = 100, 4000
        result = histogram(con, rayleigh(), SIGMA2_10DB, n=n, trials=trials, bins=40, seed=9)
        for k, p in enumerate(con.levels):
            u2 = u_second_moment(rayleigh(), SIGMA2_10DB, p)
            r = p + SIGMA2_10DB
            assert abs(result.means[k] - r) < 3 * math.sqrt(u2 / (n * trials))
            assert result.variances[k] == pytest.approx(u2 / n, rel=0.10)

    def test_min_distance_overlaps_more_than_exact_design(self, design_l4):
        n, trials = 100, 4000
        sigma2 = sigma_from_snr(5.0)
        exact = design_exact(rayleigh(), sigma2, DesignConfig(L=4)).constellation
        mind = min_distance_constellation(4, sigma2)
        h_exact = histogram(exact, rayleigh(), sigma2, n=n, trials=trials, bins=40, seed=9)
        h_mind = histogram(mind, rayleigh(), sigma2, n=n, trials=trials, bins=40, seed=9)
        assert max(h_mind.outside_fraction) > 0.0
        assert sum(h_mind.outside_fraction) > sum(h_exact.outside_fraction)

    @pytest.mark.parametrize(
        "channel",
        [rayleigh(), Rician(0.0), NakagamiReal(0.6)],
        ids=["rayleigh", "rician0dB", "nakagami0.6"],
    )
    def test_noiseless_zero_level_lies_in_its_own_region(self, channel):
        # Without noise level 0 gives a statistic of exactly 0, which
        # region_index decides as level 0; it was counted outside.
        con = min_distance_constellation(4, 0.1)
        result = histogram(con, channel, 0.0, n=16, trials=1000, bins=20, seed=1)
        assert result.outside_fraction[0] == 0.0

    def test_rejects_few_bins(self, design_l4):
        with pytest.raises(ValueError):
            histogram(design_l4.constellation, rayleigh(), 0.1, 10, 100, bins=5)

    @pytest.mark.parametrize("bad", [10.5, 10.0, True, 0])
    def test_rejects_a_fractional_boolean_or_zero_antenna_count(self, design_l4, bad):
        with pytest.raises(ValueError):
            histogram(design_l4.constellation, rayleigh(), 0.1, bad, 100, bins=20)

    def test_takes_a_numpy_antenna_count(self, design_l4):
        args = (design_l4.constellation, rayleigh(), 0.1)
        got = histogram(*args, np.int64(10), 100, bins=20, seed=3)
        assert got == histogram(*args, 10, 100, bins=20, seed=3)

    # One trial has no sample variance.
    @pytest.mark.parametrize("trials,seed", [(0, 0), (1, 0), (-5, 0), (100, -1), (100, 2**64)])
    def test_rejects_bad_trials_and_seed(self, design_l4, trials, seed):
        with pytest.raises(ValueError):
            histogram(design_l4.constellation, rayleigh(), 0.1, 10, trials, bins=20, seed=seed)

    def test_two_trials_give_a_finite_variance(self, design_l4):
        # Two trials are the fewest with a sample variance; one gave NaN and
        # two RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = histogram(design_l4.constellation, rayleigh(), 0.1, 10, 2, bins=20, seed=3)
        assert all(math.isfinite(v) and v >= 0.0 for v in got.variances)

    @pytest.mark.parametrize(
        "trials,bins,field",
        [
            (montecarlo._MAX_TRIALS + 1, 20, "trials"),
            (10**20, 20, "trials"),
            (100.0, 20, "trials"),
            (100, montecarlo._MAX_BINS + 1, "bins"),
            (100, 10**20, "bins"),
            (100, True, "bins"),
        ],
    )
    def test_rejects_sizes_beyond_memory_and_non_whole_sizes(self, design_l4, trials, bins, field):
        # numpy used to raise "Maximum allowed size exceeded" for 1e20 bins.
        with pytest.raises(ValueError, match=f"^{field}"):
            histogram(design_l4.constellation, rayleigh(), 0.1, 10, trials, bins=bins)

    def test_size_checks_take_their_caps(self):
        for cap, sizes in [(montecarlo._MAX_TRIALS, montecarlo.TRIALS_RANGE),
                           (montecarlo._MAX_BINS, montecarlo.BINS_RANGE)]:
            assert check_number(cap, "size", *sizes, whole=True) == cap


SIGMA2_0DB = sigma_from_snr(0.0)
RICIAN_CHANNELS = [rayleigh(), Rician(0.0)]


def _decoder(scheme, channel, constellation, n):
    levels = constellation.levels
    if scheme == "energy":
        return EnergyRegions(constellation)
    if scheme == "noncoherent_ml":
        return NoncoherentML(levels, channel.mu, channel.sigma_h2, SIGMA2_0DB)
    return EnergyMLAsk(levels, channel.mu, channel.sigma_h2, SIGMA2_0DB, n=n)


def _per_antenna_sampler(channel, decoder, n):
    """The per-antenna reference path of any receiver, in place of `montecarlo._sampler`."""
    if isinstance(decoder, PilotPAM):
        return montecarlo._antenna_pilot, n
    return montecarlo._antenna_stats, n


class TestGaussianSums:
    """`_gaussian_sums` against the closed-form laws of x_i ~ CN(mean, var):
    ||x||^2 is (var/2) chi'^2(2n, 2n mean^2 / var) and Re sum_i x_i is
    N(n mean, n var / 2)."""

    @pytest.mark.parametrize("n", [1, 2, 16, 400])
    @pytest.mark.parametrize("mean", [0.0, 0.7], ids=["zero-mean", "mean0.7"])
    def test_law_matches_noncentral_chi2_and_normal(self, n, mean):
        var = 1.3
        norm2, re_sum = montecarlo._gaussian_sums(
            mean, var, n, montecarlo._block_generator(9, 0), 20_000
        )
        energy = ncx2(2 * n, 2 * n * mean**2 / var, scale=var / 2)
        assert kstest(norm2, energy.cdf).pvalue > 1e-3
        assert kstest(re_sum, norm(n * mean, math.sqrt(n * var / 2)).cdf).pvalue > 1e-3


class TestSufficientStatisticSampler:
    """The direct Rician sampler against the per-antenna reference path."""

    @pytest.mark.parametrize("channel", RICIAN_CHANNELS, ids=["rayleigh", "rician0dB"])
    @pytest.mark.parametrize("n", [1, 16, 100])
    @pytest.mark.parametrize("with_sum", [False, True], ids=["norm2", "norm2+sum"])
    def test_statistics_match_per_antenna_draws(self, channel, n, with_sum):
        trials = 4000
        p = np.full(trials, 1.5)
        stats = montecarlo._rician_stats(
            channel, SIGMA2_0DB, p, n, montecarlo._block_generator(5, 0), with_sum
        )
        reference = montecarlo._antenna_stats(
            channel, SIGMA2_0DB, p, n, montecarlo._block_generator(6, 0), with_sum
        )
        names = ("norm2", "re_sum") if with_sum else ("norm2",)
        for name, direct, antenna in zip(names, stats, reference):
            assert ks_2samp(direct, antenna).pvalue > 1e-3, name
        # E[||y||^2 / n] = p + sigma2 whatever the K-factor.
        stat = stats[0] / n
        se = math.sqrt(u_second_moment(channel, SIGMA2_0DB, 1.5) / (n * trials))
        assert abs(stat.mean() - (1.5 + SIGMA2_0DB)) < 5 * se

    @pytest.mark.parametrize("channel", RICIAN_CHANNELS, ids=["rayleigh", "rician0dB"])
    @pytest.mark.parametrize("n", [1, 16, 100])
    @pytest.mark.parametrize("scheme", ["energy", "noncoherent_ml", "ask_energy_ml"])
    def test_ser_matches_per_antenna_draws(self, channel, n, scheme, monkeypatch):
        con = design_exact(channel, SIGMA2_0DB, DesignConfig(L=4)).constellation
        scen = SimScenario(
            channel, SIGMA2_0DB, _decoder(scheme, channel, con, n),
            n=n, symbols=20_000, seed=17,
        )
        direct = simulate(scen)
        monkeypatch.setattr(montecarlo, "_sampler", _per_antenna_sampler)
        reference = simulate(scen)
        assert direct.symbol_errors > 0 and reference.symbol_errors > 0
        lo_a, hi_a = direct.ser_ci
        lo_b, hi_b = reference.ser_ci
        assert lo_a <= hi_b and lo_b <= hi_a

    @staticmethod
    def _regions_and_ml_reference(reference):
        # Rayleigh ML depends on ||y||^2 alone, so on identical statistics the
        # likelihood reference must reproduce interval decoding at the ML
        # crossings symbol for symbol, in a regime with plenty of errors.
        levels = design_exact(rayleigh(), SIGMA2_0DB, DesignConfig(L=4)).constellation.levels
        regions = EnergyRegions(ml_threshold_boundaries(levels, 1.0, SIGMA2_0DB))
        rng = montecarlo._block_generator(3, 0)
        idx = rng.integers(0, 4, size=20_000)
        norm2, re_sum = montecarlo._rician_stats(
            rayleigh(), SIGMA2_0DB, np.asarray(levels)[idx], 16, rng, with_sum=True
        )
        by_regions = regions.decide(16, norm2, re_sum)
        assert np.count_nonzero(by_regions != idx) > 100
        assert np.array_equal(by_regions, reference(levels, norm2, re_sum))

    def test_ml_decides_like_ml_thresholds_on_the_same_statistics(self):
        self._regions_and_ml_reference(
            lambda levels, norm2, re_sum: noncoherent_ml_index(
                levels, 0.0, 1.0, SIGMA2_0DB, 16, norm2, re_sum
            )
        )

    def test_energy_ml_decides_like_ml_thresholds_on_the_same_statistics(self):
        self._regions_and_ml_reference(
            lambda levels, norm2, re_sum: energy_ml_index(
                norm2 / 16, 16, levels, 0.0, 1.0, SIGMA2_0DB
            )
        )


class _LikelihoodCalled(RuntimeError):
    pass


class TestZeroMeanMLSkipsTheLikelihoods:
    """With assumed mu = 0 both ML receivers decide by intervals of ||y||^2 / n:
    no likelihood matrix, and no Re sum_i y_i drawn."""

    @pytest.fixture
    def spies(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _LikelihoodCalled

        monkeypatch.setattr(decode, "noncoherent_nll", refuse)
        monkeypatch.setattr(decode, "energy_ml_logpdf", refuse)
        monkeypatch.setattr(montecarlo, "_gaussian_sums", refuse)

    @pytest.mark.parametrize("scheme", ["noncoherent_ml", "ask_energy_ml"])
    def test_zero_mean_runs_without_them(self, scheme, spies):
        con = min_distance_constellation(4, SIGMA2_0DB)
        scen = SimScenario(
            rayleigh(), SIGMA2_0DB, _decoder(scheme, rayleigh(), con, 8), n=8, symbols=2000, seed=1
        )
        assert simulate(scen).symbols == 2000
        assert min_antennas(scen, 0.2, 64) is not None

    @pytest.mark.parametrize("scheme", ["noncoherent_ml", "ask_energy_ml"])
    def test_nonzero_mean_still_evaluates_them(self, scheme, spies):
        channel = Rician(0.0)
        con = min_distance_constellation(4, SIGMA2_0DB)
        scen = SimScenario(
            channel, SIGMA2_0DB, _decoder(scheme, channel, con, 8), n=8, symbols=2000, seed=1
        )
        with pytest.raises(_LikelihoodCalled):
            simulate(scen)
        with pytest.raises(_LikelihoodCalled):
            min_antennas(scen, 0.2, 64)


# Below 1 (the benchmark's shape, matching Rician K = 0 dB, and 0.6) the
# sampler adds one Gamma to the channel energy, at 1 nothing, and above 1 it
# draws `_gaussian_sums` given the channel energy.
NAKAGAMI_MS = [nakagami_m_from_K(0.0), 0.6, 1.0, 1.8, 5.0]


class TestNakagamiEnergySampler:
    """The direct Nakagami ||y||^2 sampler against the per-antenna reference path."""

    @pytest.mark.parametrize("m", NAKAGAMI_MS)
    @pytest.mark.parametrize("n", [1, 16, 400])
    def test_energy_matches_per_antenna_draws(self, m, n):
        channel = NakagamiReal(m)
        p = np.full(3000, 1.5)
        for seed in range(3):
            direct, _ = montecarlo._nakagami_stats(
                channel, SIGMA2_0DB, p, n, montecarlo._block_generator(seed, 0), False
            )
            reference, _ = montecarlo._antenna_stats(
                channel, SIGMA2_0DB, p, n, montecarlo._block_generator(seed, 1), False
            )
            assert ks_2samp(direct, reference).pvalue > 1e-3, seed

    @pytest.mark.parametrize("m", NAKAGAMI_MS)
    @pytest.mark.parametrize("n", [1, 16, 400])
    def test_moments_match_theory(self, m, n):
        channel, trials, p = NakagamiReal(m), 40_000, 1.5
        norm2, _ = montecarlo._nakagami_stats(
            channel, SIGMA2_0DB, np.full(trials, p), n, montecarlo._block_generator(7, 0), False
        )
        stat = norm2 / n
        u2 = u_second_moment(channel, SIGMA2_0DB, p)
        assert abs(stat.mean() - (p + SIGMA2_0DB)) < 5 * math.sqrt(u2 / (n * trials))
        assert stat.var(ddof=1) == pytest.approx(u2 / n, rel=0.1)

    @pytest.mark.parametrize("m", [0.6, 1.0, 1.8])
    @pytest.mark.parametrize("n", [1, 16, 400])
    def test_noiseless_energy_is_exactly_p_times_channel_energy(self, n, m):
        channel = NakagamiReal(m)
        p = np.array([0.0, 0.6, 1.6, 3.0] * 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norm2, _ = montecarlo._nakagami_stats(
                channel, 0.0, p, n, montecarlo._block_generator(3, 0), False
            )
        gain = montecarlo._block_generator(3, 0).gamma(n * m, 1.0 / m, size=len(p))
        assert np.array_equal(norm2, p * gain)

    @pytest.mark.parametrize("m", [sys.float_info.min, 1e-300])
    @pytest.mark.parametrize("sigma2", [0.1, 1e100])
    @pytest.mark.parametrize("n", [1, 16, 400])
    def test_extreme_shapes_stay_finite(self, m, sigma2, n):
        # p / m overflows at these shapes; the energy is written in the
        # channel energy G, which stays finite.
        p = np.array([0.0, 1.0, 1e50, 3e100] * 250)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norm2, _ = montecarlo._nakagami_stats(
                NakagamiReal(m), sigma2, p, n, montecarlo._block_generator(5, 0), False
            )
        assert np.all(np.isfinite(norm2))
        assert np.all(norm2 >= 0.0)

    @pytest.mark.parametrize("m", [nakagami_m_from_K(0.0), 0.6, 1.0])
    def test_shapes_up_to_one_draw_no_gaussian_sums(self, m, monkeypatch):
        monkeypatch.setattr(montecarlo, "_gaussian_sums", _refuse_gaussian_sums)
        scen = SimScenario(
            NakagamiReal(m), SIGMA2_0DB, EnergyRegions(TestStreamIsPinned.REGIONS), n=8,
            symbols=2000, seed=1,
        )
        assert simulate(scen).symbols == 2000

    def test_shapes_above_one_still_draw_gaussian_sums(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_gaussian_sums", _refuse_gaussian_sums)
        scen = SimScenario(
            NakagamiReal(2.0), SIGMA2_0DB, EnergyRegions(TestStreamIsPinned.REGIONS), n=8,
            symbols=2000, seed=1,
        )
        with pytest.raises(_GaussianSumsCalled):
            simulate(scen)


PILOT_CELLS = {
    # name: (true channel, true sigma2, decoder, n)
    "rayleigh-T2-Tl1": (rayleigh(), 1.0, PilotPAM(AMPS, 0.0, 1.0, 1.0, 2, 1), 4),
    "rician0dB-T4-Tl0": (
        Rician(0.0), 1.0,
        PilotPAM(AMPS, Rician(0.0).mu, Rician(0.0).sigma_h2, 1.0, 4, 0), 4,
    ),
    "rician3dB-assumed-rayleigh-pilot2": (
        Rician(3.0), 0.3, PilotPAM(AMPS, 0.0, 1.0, 0.3, 3, 1, pilot_power=2.0), 8,
    ),
    "K-inf": (Rician(math.inf), 1.0, PilotPAM(AMPS, 0.0, 1.0, 1.0, 2, 1), 4),
    "rayleigh-n64": (rayleigh(), 4.0, PilotPAM(AMPS, 0.0, 1.0, 4.0, 3, 1), 64),
}


# The projection's branches: a zero-mean estimate with one and with three data
# slots, and a nonzero-mean estimate (beta != 0) whose slots share a cross term.
# At n = 2 the law of ||h_hat||^2, and so of z, is far from Gaussian.
PROJECTION_CELLS = {
    "rayleigh-T2-Tl1": (rayleigh(), 1.0, PilotPAM(AMPS, 0.0, 1.0, 1.0, 2, 1), 2),
    "rayleigh-T4-Tl1": (rayleigh(), 1.0, PilotPAM(AMPS, 0.0, 1.0, 1.0, 4, 1), 2),
    "rician3dB-assumed-rayleigh-pilot2": PILOT_CELLS["rician3dB-assumed-rayleigh-pilot2"],
}


class _GaussianSumsCalled(RuntimeError):
    pass


def _refuse_gaussian_sums(*args, **kwargs):
    raise _GaussianSumsCalled


class TestPilotProjectionSampler:
    """The direct Rician pilot-PAM sampler against the per-antenna reference block."""

    @pytest.mark.parametrize("name", list(PILOT_CELLS))
    def test_ser_matches_per_antenna_draws(self, name, monkeypatch):
        channel, sigma2, decoder, n = PILOT_CELLS[name]
        scen = SimScenario(channel, sigma2, decoder, n=n, symbols=30_000, seed=23)
        direct = simulate(scen)
        monkeypatch.setattr(montecarlo, "_sampler", _per_antenna_sampler)
        reference = simulate(scen)
        assert direct.symbol_errors > 100 and reference.symbol_errors > 100
        # Slots of one coherence block share the channel and its estimate, so
        # their errors are correlated; T - T_l bounds the variance inflation.
        pooled = (direct.symbol_errors + reference.symbol_errors) / (
            direct.symbols + reference.symbols
        )
        slots = decoder.coherence_slots - decoder.pilot_slots
        se = math.sqrt(
            pooled * (1 - pooled) * slots * (1 / direct.symbols + 1 / reference.symbols)
        )
        assert abs(direct.ser - reference.ser) < 4 * se

    @pytest.mark.parametrize("name", list(PROJECTION_CELLS))
    def test_projection_law_matches_per_antenna_draws(self, name):
        # Two-sample KS of z per sent amplitude and data slot; blocks are
        # independent, so each (amplitude, slot) sample is i.i.d.
        channel, sigma2, decoder, n = PROJECTION_CELLS[name]
        draws = [
            sampler(channel, sigma2, decoder, n, 40_000, montecarlo._block_generator(seed, 0))
            for sampler, seed in ((montecarlo._rician_pilot, 31), (montecarlo._antenna_pilot, 32))
        ]
        for slot in range(decoder.coherence_slots - decoder.pilot_slots):
            for k in range(decoder.L):
                direct, antenna = (z[idx[:, slot] == k, slot] for idx, z in draws)
                assert ks_2samp(direct, antenna).pvalue > 1e-3, (slot, k)

    @pytest.mark.parametrize("coherence_slots", [2, 4])
    def test_zero_mean_estimate_draws_no_gaussian_sums(self, coherence_slots, monkeypatch):
        monkeypatch.setattr(montecarlo, "_gaussian_sums", _refuse_gaussian_sums)
        decoder = PilotPAM(AMPS, 0.0, 1.0, 1.0, coherence_slots, pilot_slots=1)
        scen = SimScenario(rayleigh(), 1.0, decoder, n=8, symbols=2000, seed=1)
        assert simulate(scen).symbols == 2000 // coherence_slots * (coherence_slots - 1)

    @pytest.mark.parametrize("coherence_slots", [2, 4])
    def test_nonzero_mean_estimate_still_draws_them(self, coherence_slots, monkeypatch):
        monkeypatch.setattr(montecarlo, "_gaussian_sums", _refuse_gaussian_sums)
        channel = Rician(0.0)
        decoder = PilotPAM(AMPS, channel.mu, channel.sigma_h2, 1.0, coherence_slots, 1)
        with pytest.raises(_GaussianSumsCalled):
            simulate(SimScenario(channel, 1.0, decoder, n=8, symbols=2000, seed=1))

    @pytest.mark.parametrize("sampler", ["direct", "per_antenna"])
    def test_null_estimate_decodes_every_slot_as_z_zero(self, sampler, monkeypatch):
        # mu = 0 without pilots makes the estimate the zero vector, so every
        # projection is 0 and every slot decodes to the amplitude nearest 0.
        if sampler == "per_antenna":
            monkeypatch.setattr(montecarlo, "_sampler", _per_antenna_sampler)
        decoder = PilotPAM(AMPS, 0.0, 1.0, 1.0, coherence_slots=2, pilot_slots=0)
        scen = SimScenario(rayleigh(), 1.0, decoder, n=8, symbols=2000, seed=4)
        k0 = int(decoder.decide(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = simulate(scen)
        expected = tuple(0 if k == k0 else c for k, c in enumerate(rep.tx_counts))
        assert rep.err_counts == expected


class _PerAntennaCalled(RuntimeError):
    pass


class TestPerAntennaPathStaysOff:
    """Only Nakagami noncoherent ML with assumed mu != 0 and Nakagami pilot PAM
    draw every antenna."""

    @pytest.fixture
    def no_antenna_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _PerAntennaCalled

        monkeypatch.setattr(montecarlo, "sample_channel", refuse)

    @pytest.mark.parametrize("channel", RICIAN_CHANNELS, ids=["rayleigh", "rician0dB"])
    @pytest.mark.parametrize("scheme", ["energy", "noncoherent_ml", "ask_energy_ml"])
    def test_rician_runs_without_antenna_draws(self, channel, scheme, no_antenna_draws):
        con = min_distance_constellation(4, SIGMA2_0DB)
        scen = SimScenario(
            channel, SIGMA2_0DB, _decoder(scheme, channel, con, 8), n=8, symbols=2000, seed=1
        )
        assert simulate(scen).symbols == 2000
        assert min_antennas(scen, 0.2, 64) is not None

    @pytest.mark.parametrize("channel", RICIAN_CHANNELS, ids=["rayleigh", "rician0dB"])
    def test_histogram_runs_without_antenna_draws(self, channel, no_antenna_draws):
        con = min_distance_constellation(4, SIGMA2_0DB)
        result = histogram(con, channel, SIGMA2_0DB, n=8, trials=500, bins=20, seed=1)
        assert len(result.counts) == 4

    @pytest.mark.parametrize("scheme", ["energy", "ask_energy_ml"])
    def test_nakagami_energy_runs_without_antenna_draws(self, scheme, no_antenna_draws):
        channel = NakagamiReal(2.0)
        con = min_distance_constellation(4, SIGMA2_0DB)
        scen = SimScenario(
            channel, SIGMA2_0DB, _decoder(scheme, channel, con, 8), n=8, symbols=2000, seed=1
        )
        assert simulate(scen).symbols == 2000
        assert min_antennas(scen, 0.2, 64) is not None
        result = histogram(con, channel, SIGMA2_0DB, n=8, trials=500, bins=20, seed=1)
        assert len(result.counts) == 4

    @pytest.mark.parametrize("channel", RICIAN_CHANNELS, ids=["rayleigh", "rician0dB"])
    @pytest.mark.parametrize("pilot_slots", [0, 1])
    def test_rician_pilot_pam_runs_without_antenna_draws(
        self, channel, pilot_slots, no_antenna_draws
    ):
        decoder = PilotPAM(AMPS, channel.mu, channel.sigma_h2, SIGMA2_0DB, 4, pilot_slots)
        scen = SimScenario(channel, SIGMA2_0DB, decoder, n=8, symbols=2000, seed=1)
        assert simulate(scen).symbols == 2000 // 4 * (4 - pilot_slots)
        min_antennas(scen, 0.2, 64)

    def test_nakagami_zero_mean_noncoherent_ml_runs_without_antenna_draws(
        self, no_antenna_draws
    ):
        # A receiver that assumes Rayleigh fading reads ||y||^2 alone.
        con = min_distance_constellation(4, SIGMA2_0DB)
        scen = SimScenario(
            NakagamiReal(2.0), SIGMA2_0DB, _decoder("noncoherent_ml", rayleigh(), con, 8),
            n=8, symbols=2000, seed=1,
        )
        assert simulate(scen).symbols == 2000
        assert min_antennas(scen, 0.2, 64) is not None

    def test_nakagami_still_draws_antennas(self, no_antenna_draws):
        channel = NakagamiReal(2.0)
        con = min_distance_constellation(4, SIGMA2_0DB)
        ml = SimScenario(
            channel, SIGMA2_0DB, _decoder("noncoherent_ml", channel, con, 8),
            n=8, symbols=2000, seed=1,
        )
        pilot = SimScenario(
            channel, SIGMA2_0DB, PilotPAM(AMPS, channel.mu, channel.sigma_h2, SIGMA2_0DB, 2, 1),
            n=8, symbols=2000, seed=1,
        )
        for scen in (ml, pilot):
            with pytest.raises(_PerAntennaCalled):
                simulate(scen)


class TestStreamIsPinned:
    """Exact counts of small low-SNR cells, one per receiver and sampler path.

    A refactor of the sampler, decoder or count layers must reproduce them; a
    change that alters the random stream on purpose must say so and record
    new values here.
    """

    LEVELS = (0.0, 0.6, 1.6, 3.0)
    REGIONS = Constellation(LEVELS, 1.0, (1.25, 2.0, 3.2))
    AMPS = (-0.9, -0.3, 0.3, 0.9)
    RICIAN = Rician(0.0)
    NAKAGAMI = NakagamiReal(2.0)
    # (symbol_errors, bit_errors, tx_counts, err_counts)
    # Every value was recorded again when blocks moved from Philox to SFC64
    # streams seeded by SeedSequence(seed, spawn_key=(block,)), and the
    # nonzero-mean and Nakagami ||y||^2 samplers to one Gaussian plus one Gamma.
    PINNED = {
        "rayleigh-energy": (1185, 1277, (743, 748, 784, 725), (170, 374, 412, 229)),
        "rician0dB-noncoherent-ml": (951, 999, (743, 748, 784, 725), (98, 263, 382, 208)),
        "rayleigh-ask-energy-ml": (1183, 1276, (743, 748, 784, 725), (168, 369, 417, 229)),
        "nakagami-energy": (1079, 1134, (743, 748, 784, 725), (179, 354, 359, 187)),
        "nakagami-noncoherent-ml": (760, 778, (743, 748, 784, 725), (61, 197, 335, 167)),
        # Recorded again when zero-mean estimates drew ||h_hat||^2 as one Gamma
        # and single-data-slot blocks one Gaussian per slot.
        "pilot-pam-T2-Tl1": (853, 973, (498, 509, 464, 529), (169, 265, 272, 147)),
        "pilot-pam-T4-Tl0": (1694, 1908, (1035, 984, 990, 991), (315, 535, 541, 303)),
        "nakagami-pilot-pam": (686, 708, (551, 468, 496, 485), (122, 211, 237, 116)),
        # Zero-mean noncoherent ML draws and decides exactly like the ASK-ML cell.
        "rayleigh-noncoherent-ml": (1183, 1276, (743, 748, 784, 725), (168, 369, 417, 229)),
        # Three 2^14-symbol blocks at n = 2.
        "rayleigh-energy-n2": (22665, 28302, (10013, 9966, 9899, 10122), (2993, 7466, 7413, 4793)),
        # Sufficient-statistic samplers take 2^14-symbol blocks at every n:
        # three blocks at n = 100, where the draw cap would make sixteen.
        "rayleigh-energy-n100": (660, 660, (10013, 9966, 9899, 10122), (95, 162, 214, 189)),
        # Recorded when Nakagami shapes m <= 1 drew ||y||^2 as the channel
        # energy plus one Gamma, in place of one Gaussian and one Gamma.
        "nakagami-m0.5-energy": (1274, 1403, (743, 748, 784, 725), (151, 400, 456, 267)),
    }

    def scenario(self, name):
        ric, nak = self.RICIAN, self.NAKAGAMI
        if name.endswith("Tl1"):
            decoder = PilotPAM(self.AMPS, 0.0, 1.0, 1.0, coherence_slots=2, pilot_slots=1)
            return SimScenario(rayleigh(), 1.0, decoder, 4, 4000, 5)
        if name.endswith("Tl0"):
            decoder = PilotPAM(self.AMPS, ric.mu, ric.sigma_h2, 1.0, coherence_slots=4, pilot_slots=0)
            return SimScenario(ric, 1.0, decoder, 4, 4000, 5)
        if name.startswith("rayleigh-energy-n"):
            n = int(name.rpartition("n")[2])
            return SimScenario(rayleigh(), 1.0, EnergyRegions(self.REGIONS), n, 40_000, 5)
        if name == "nakagami-pilot-pam":
            decoder = PilotPAM(self.AMPS, nak.mu, nak.sigma_h2, 1.0, coherence_slots=2, pilot_slots=1)
            return SimScenario(nak, 1.0, decoder, 4, 4000, 5)
        channel, decoder = {
            "rayleigh-energy": (rayleigh(), EnergyRegions(self.REGIONS)),
            "rician0dB-noncoherent-ml": (ric, NoncoherentML(self.LEVELS, ric.mu, ric.sigma_h2, 1.0)),
            "rayleigh-ask-energy-ml": (rayleigh(), EnergyMLAsk(self.LEVELS, 0.0, 1.0, 1.0, 8)),
            "rayleigh-noncoherent-ml": (rayleigh(), NoncoherentML(self.LEVELS, 0.0, 1.0, 1.0)),
            "nakagami-energy": (nak, EnergyRegions(self.REGIONS)),
            "nakagami-m0.5-energy": (NakagamiReal(0.5), EnergyRegions(self.REGIONS)),
            "nakagami-noncoherent-ml": (nak, NoncoherentML(self.LEVELS, nak.mu, nak.sigma_h2, 1.0)),
        }[name]
        return SimScenario(channel, 1.0, decoder, 8, 3000, 5)

    @pytest.mark.parametrize("name", list(PINNED))
    def test_counts_match_the_recorded_stream(self, name):
        report = simulate(self.scenario(name))
        got = (report.symbol_errors, report.bit_errors, report.tx_counts, report.err_counts)
        assert got == self.PINNED[name]
