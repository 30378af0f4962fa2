"""Receiver implementations: energy regions, likelihood decoders, pilots, Gray codes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from simo_energy.channel import Rician, rayleigh, sample_channel
from simo_energy.decode import (
    EnergyMLAsk,
    EnergyRegions,
    NoncoherentML,
    PilotPAM,
    ReceivedBlock,
    coherent_pam_decode,
    energy_decode,
    energy_ml_logpdf,
    energy_statistic,
    gray_map,
    gray_unmap,
    ml_energy_ask,
    ml_noncoherent_rician,
    ml_threshold_boundaries,
    pilot_mmse_estimate,
)
from simo_energy.design import pam_constellation
from simo_energy.rates import Constellation


class TestEnergyStatistic:
    def test_zero_column(self):
        block = ReceivedBlock(np.zeros((4, 2), dtype=complex))
        assert energy_statistic(block, 0) == 0.0

    def test_two_antennas(self):
        block = ReceivedBlock(np.array([[1.0 + 0j], [1j]]))
        assert energy_statistic(block, 0) == pytest.approx(1.0)

    def test_concentrates_at_receiver_point(self):
        rng = np.random.default_rng(1)
        n, p, sigma2 = 100_000, 1.0, 0.1
        h = sample_channel(rayleigh(), n, rng)
        v = math.sqrt(sigma2 / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        block = ReceivedBlock((h * math.sqrt(p) + v).reshape(n, 1))
        u2 = 1.0 * p * p + 2 * sigma2 * p + sigma2 * sigma2
        assert abs(energy_statistic(block, 0) - 1.1) < 3 * math.sqrt(u2 / n)


class TestEnergyDecode:
    CON = Constellation((0.0, 1.5, 3.5), 0.25, (1.0, 3.0))

    def test_receiver_points_decode_to_self(self):
        for k, r in enumerate(self.CON.receiver_points()):
            assert energy_decode(self.CON, r) == k

    def test_interior_point(self):
        assert energy_decode(self.CON, 2.5) == 1

    def test_boundary_belongs_to_lower_region(self):
        assert energy_decode(self.CON, 1.0) == 0
        assert energy_decode(self.CON, 3.0) == 1

    def test_monotone_step_function(self):
        stats_grid = np.linspace(0.0, 5.0, 101)
        decisions = [energy_decode(self.CON, s) for s in stats_grid]
        assert all(b >= a for a, b in zip(decisions, decisions[1:]))


class TestNoncoherentML:
    def test_rayleigh_depends_only_on_energy(self):
        rng = np.random.default_rng(3)
        levels = (0.0, 0.5, 2.0)
        for _ in range(50):
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
            y2 = y * phase  # same norm, different samples
            b1 = ReceivedBlock(y.reshape(-1, 1))
            b2 = ReceivedBlock(y2.reshape(-1, 1))
            k1 = ml_noncoherent_rician(b1, 0, levels, 0.0, 1.0, 0.3)
            k2 = ml_noncoherent_rician(b2, 0, levels, 0.0, 1.0, 0.3)
            assert k1 == k2

    def test_two_level_threshold(self):
        # mu=0, levels {0,2}, sigma2=1, sigma_h2=1, n=1: the likelihoods
        # cross at ||y||^2 = 1.5 ln 3.
        crossing = 1.5 * math.log(3.0)
        for shift, expected in ((-1e-6, 0), (1e-6, 1)):
            y = np.array([[math.sqrt(crossing + shift)]], dtype=complex)
            got = ml_noncoherent_rician(ReceivedBlock(y), 0, (0.0, 2.0), 0.0, 1.0, 1.0)
            assert got == expected

    def test_deterministic_channel_noiseless(self):
        levels = (0.0, 1.0, 4.0)
        y = np.full((6, 1), math.sqrt(levels[1]), dtype=complex)
        got = ml_noncoherent_rician(ReceivedBlock(y), 0, levels, 1.0, 1e-12, 1e-9)
        assert got == 1


class TestEnergyMLAsk:
    def test_matches_noncoherent_ml_for_rayleigh(self):
        rng = np.random.default_rng(9)
        levels = (0.0, 2 / 7, 8 / 7, 18 / 7)
        n, sigma2 = 12, 0.2
        for _ in range(200):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            block = ReceivedBlock(y.reshape(-1, 1))
            stat = energy_statistic(block, 0)
            k_energy = ml_energy_ask(stat, n, levels, 0.0, 1.0, sigma2)
            k_ml = ml_noncoherent_rician(block, 0, levels, 0.0, 1.0, sigma2)
            assert k_energy == k_ml

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_density_normalizes(self, n):
        mu, sigma_h2, sigma2, p = Rician(0.0).mu, Rician(0.0).sigma_h2, 0.1, 1.0

        def pdf(t):
            return math.exp(
                energy_ml_logpdf(np.array([t]), n, np.array([p]), mu, sigma_h2, sigma2)[
                    0, 0
                ]
            )

        total, err = quad(pdf, 0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_matches_simulated_statistic(self):
        # Histogram of 10^6 sampled statistics against the analytic density.
        rng = np.random.default_rng(12)
        n, p, sigma2 = 50, 1.0, 0.1
        ch = Rician(0.0)
        draws = 1_000_000
        chunks = []
        for start in range(0, draws, 50_000):
            m = min(50_000, draws - start)
            h = sample_channel(ch, m * n, rng).reshape(m, n)
            v = math.sqrt(sigma2 / 2) * (
                rng.standard_normal((m, n, 2)) @ np.array([1.0, 1j])
            )
            chunks.append(np.mean(np.abs(h * math.sqrt(p) + v) ** 2, axis=1))
        stat = np.concatenate(chunks)
        edges = np.quantile(stat, np.linspace(0.0, 1.0, 41))
        edges[0], edges[-1] = 0.0, np.inf
        observed, _ = np.histogram(stat, bins=edges)

        s2 = ch.sigma_h2 * p + sigma2
        nc = 2 * n * ch.mu**2 * p / s2
        w_edges = 2 * n * np.clip(edges, 0, 1e12) / s2
        cdf = stats.ncx2.cdf(w_edges, 2 * n, nc)
        cdf[-1] = 1.0
        expected = np.diff(cdf) * draws
        chi2_stat = np.sum((observed - expected) ** 2 / expected)
        pvalue = stats.chi2.sf(chi2_stat, df=len(observed) - 1)
        assert pvalue > 0.01

    def test_zero_level_uses_central_branch(self):
        got = ml_energy_ask(0.05, 4, (0.0, 1.0), 0.7, 0.51, 0.1)
        assert got == 0


class TestMlThresholdBoundaries:
    def test_reproduces_ml_decisions(self):
        levels = (0.0, 0.4, 1.6)
        sigma2 = 0.3
        con = ml_threshold_boundaries(levels, 1.0, sigma2)
        rng = np.random.default_rng(21)
        for stat in rng.uniform(0.0, 4.0, 300):
            k_region = energy_decode(con, stat)
            k_ml = ml_energy_ask(stat, 7, levels, 0.0, 1.0, sigma2)
            assert k_region == k_ml


class TestPilotMmse:
    def test_noise_free_limit_recovers_channel(self):
        rng = np.random.default_rng(4)
        n = 256
        h = sample_channel(Rician(3.0), n, rng)
        block = ReceivedBlock(
            np.column_stack([h * 1.0 + 0.0, np.zeros(n)]), pilot_slots=1
        )
        ch = Rician(3.0)
        h_hat = pilot_mmse_estimate(block, 1, 1.0, ch.mu, ch.sigma_h2, 1e-12)
        assert np.max(np.abs(h_hat - h)) < 1e-5

    def test_infinite_noise_limit_is_prior_mean(self):
        rng = np.random.default_rng(5)
        ch = Rician(0.0)
        n = 64
        y = rng.standard_normal((n, 2)) @ np.array([1.0, 1j]) * 1e6
        block = ReceivedBlock(np.column_stack([y, np.zeros(n)]), pilot_slots=1)
        h_hat = pilot_mmse_estimate(block, 1, 1.0, ch.mu, ch.sigma_h2, 1e12)
        assert np.max(np.abs(h_hat - ch.mu)) < 1e-3

    def test_error_variance_matches_mmse_formula(self):
        rng = np.random.default_rng(6)
        ch = Rician(0.0)
        sigma2, t_l, p_p = 0.5, 2, 1.0
        n = 200_000
        h = sample_channel(ch, n, rng)
        v_bar = math.sqrt(sigma2 / (2 * t_l)) * (
            rng.standard_normal((n, 2)) @ np.array([1.0, 1j])
        )
        y_bar = math.sqrt(p_p) * h + v_bar
        # The estimator the simulator applies to the pilot average.
        decoder = PilotPAM(
            pam_constellation(2).amplitudes, ch.mu, ch.sigma_h2, sigma2,
            coherence_slots=t_l + 1, pilot_slots=t_l, pilot_power=p_p,
        )
        h_hat = decoder.estimate(y_bar)
        err = h_hat - h
        var_expected = ch.sigma_h2 * (sigma2 / t_l) / (ch.sigma_h2 * p_p + sigma2 / t_l)
        se = np.abs(err) ** 2
        assert abs(se.mean() - var_expected) < 3 * se.std(ddof=1) / math.sqrt(n)
        # unbiased around the prior mean
        se_mean = np.abs(err - err.mean()).std() / math.sqrt(n)
        assert abs(err.mean()) < 4 * se_mean

    def test_rejects_zero_pilot_slots(self):
        block = ReceivedBlock(np.zeros((2, 2), dtype=complex), pilot_slots=1)
        with pytest.raises(ValueError):
            pilot_mmse_estimate(block, 0, 1.0, 0.0, 1.0, 0.1)


class TestCoherentPamDecode:
    AMPS = pam_constellation(4).amplitudes

    def test_perfect_estimate_noiseless(self):
        h = np.array([1.0 + 0.5j, -0.3 + 1j])
        for k, a in enumerate(self.AMPS):
            y = h * a
            block = ReceivedBlock(y.reshape(-1, 1))
            assert coherent_pam_decode(block, 0, h, self.AMPS) == k

    def test_scaled_estimate_same_decision(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = h * self.AMPS[2] + 0.1 * (
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        block = ReceivedBlock(y.reshape(-1, 1))
        k1 = coherent_pam_decode(block, 0, h, self.AMPS)
        k2 = coherent_pam_decode(block, 0, 3.7 * h, self.AMPS)
        assert k1 == k2

    def test_nearest_amplitude_arithmetic(self):
        # z = 0.9 sits closer to 3/sqrt(5) ~ 1.342 than to 1/sqrt(5) ~ 0.447.
        block = ReceivedBlock(np.array([[0.9 + 0j]]))
        got = coherent_pam_decode(block, 0, np.array([1.0 + 0j]), self.AMPS)
        assert self.AMPS[got] == pytest.approx(3 / math.sqrt(5))

    def test_null_estimate_collapses_to_midpoint_tie(self):
        # A null estimate projects every symbol to z = 0, the midpoint of the
        # two inner amplitudes; the tie resolves to the smaller one.
        block = ReceivedBlock(np.array([[0.9 + 0j]]))
        got = coherent_pam_decode(block, 0, np.zeros(1, dtype=complex), self.AMPS)
        assert got == 1
        assert self.AMPS[got] < 0


class TestScalarDecodersAreRowsOfTheDecoders:
    """The scalar functions and the decoder objects apply the same rules."""

    LEVELS = (0.0, 0.6, 1.6, 3.0)
    SIGMA2 = 1.0

    @pytest.fixture
    def blocks(self):
        rng = np.random.default_rng(9)
        n, m = 8, 400
        p = np.asarray(self.LEVELS)[rng.integers(0, 4, size=m)]
        h = sample_channel(Rician(0.0), n * m, rng).reshape(n, m)
        noise = rng.standard_normal((n, m, 2)) @ np.array([1.0, 1j])
        y = h * np.sqrt(p) + math.sqrt(self.SIGMA2 / 2) * noise
        return ReceivedBlock(y), np.sum(np.abs(y) ** 2, axis=0), np.sum(y.real, axis=0)

    def test_noncoherent_receivers(self, blocks):
        block, norm2, re_sum = blocks
        ch, n, s2 = Rician(0.0), block.n, self.SIGMA2
        regions = Constellation(self.LEVELS, s2, (1.25, 2.0, 3.2))
        by_regions = EnergyRegions(regions).decide(n, norm2, re_sum)
        by_ml = NoncoherentML(self.LEVELS, ch.mu, ch.sigma_h2, s2).decide(n, norm2, re_sum)
        by_ask = EnergyMLAsk(self.LEVELS, ch.mu, ch.sigma_h2, s2, n).decide(n, norm2, re_sum)
        for j in range(block.T):
            stat = energy_statistic(block, j)
            assert by_regions[j] == energy_decode(regions, stat)
            assert by_ml[j] == ml_noncoherent_rician(
                block, j, self.LEVELS, ch.mu, ch.sigma_h2, s2
            )
            assert by_ask[j] == ml_energy_ask(stat, n, self.LEVELS, ch.mu, ch.sigma_h2, s2)
        assert len(set(by_ml)) == 4

    def test_pilot_pam(self, blocks):
        block, _, _ = blocks
        amps = pam_constellation(4).amplitudes
        decoder = PilotPAM(amps, 0.0, 1.0, self.SIGMA2, coherence_slots=3, pilot_slots=2)
        samples = block.samples[:, :30].reshape(block.n, 10, 3).transpose(1, 0, 2)
        for rows in samples:
            pilots = ReceivedBlock(rows, pilot_slots=2)
            h_hat = pilot_mmse_estimate(pilots, 2, 1.0, 0.0, 1.0, self.SIGMA2)
            np.testing.assert_array_equal(h_hat, decoder.estimate(rows[:, :2].mean(axis=1)))
            got = decoder.decide(h_hat[None, :], rows[None, :, 2:])
            assert got[0, 0] == coherent_pam_decode(pilots, 2, h_hat, amps)


class TestGrayCode:
    def test_known_values(self):
        assert gray_map(0, 3) == "000"
        assert gray_map(1, 3) == "001"
        assert gray_map(5, 3) == "111"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gray_map(8, 3)
        with pytest.raises(ValueError):
            gray_map(-1, 3)

    def test_adjacent_codes_differ_in_one_bit(self):
        codes = [gray_map(i, 3) for i in range(8)]
        for a, b in zip(codes, codes[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    def test_round_trip(self, index):
        assert gray_unmap(gray_map(index, 12)) == index
