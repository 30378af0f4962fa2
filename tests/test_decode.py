"""Receiver implementations: energy regions, likelihood decoders, pilots, Gray codes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from simo_energy import decode
from simo_energy.channel import InputError, Rician, rayleigh, sample_channel, sigma_from_snr
from simo_energy.decode import (
    EnergyMLAsk,
    EnergyRegions,
    NoncoherentML,
    PilotPAM,
    energy_ml_logpdf,
    gray_code,
    ml_threshold_boundaries,
    nearest_amplitude_index,
    pam_projection,
    region_index,
)
from simo_energy.design import ask_constellation, pam_constellation
from simo_energy.montecarlo import _gaussian_sums
from simo_energy.rates import Constellation
from helpers import energy_ml_index, noncoherent_ml_index


def sums(y):
    """(||y||^2, Re sum_i y_i) over the antenna axis 0: what the receivers read."""
    return np.sum(np.abs(y) ** 2, axis=0), np.sum(y.real, axis=0)


def probe(value, tol):
    """Energy regions that decide 1 exactly when the statistic lies in
    (value - tol, value + tol], 0 below and 2 above (needs value > 1.5 tol)."""
    half = tol / 2
    levels = (0.0, value - half, value + tol)
    return EnergyRegions(Constellation(levels, half, (value - tol, value + tol)))


class TestEnergyStatistic:
    """The energy decoders read the average received power ||y||^2 / n."""

    def test_zero_column(self):
        norm2, re_sum = sums(np.zeros((4, 2), dtype=complex))
        # The statistic of both slots is at most 1e-300, i.e. 0.
        assert probe(2e-300, 1e-300).decide(4, norm2, re_sum).tolist() == [0, 0]

    def test_two_antennas(self):
        norm2, re_sum = sums(np.array([[1.0 + 0j], [1j]]))
        # pytest.approx(1.0): within 1e-6 relative.
        assert probe(1.0, 1e-6).decide(2, norm2, re_sum)[0] == 1

    def test_concentrates_at_receiver_point(self):
        rng = np.random.default_rng(1)
        n, p, sigma2 = 100_000, 1.0, 0.1
        h = sample_channel(rayleigh(), n, rng)
        v = math.sqrt(sigma2 / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        norm2, re_sum = sums((h * math.sqrt(p) + v).reshape(n, 1))
        u2 = 1.0 * p * p + 2 * sigma2 * p + sigma2 * sigma2
        assert probe(1.1, 3 * math.sqrt(u2 / n)).decide(n, norm2, re_sum)[0] == 1


class TestEnergyDecode:
    CON = Constellation((0.0, 1.5, 3.5), 0.25, (1.0, 3.0))
    DEC = EnergyRegions(CON)

    def decode(self, stat):
        return self.DEC.decide(1, np.asarray(stat, dtype=float), None)

    def test_receiver_points_decode_to_self(self):
        for k, r in enumerate(self.CON.receiver_points()):
            assert self.decode(r) == k

    def test_interior_point(self):
        assert self.decode(2.5) == 1

    def test_boundary_belongs_to_lower_region(self):
        assert self.decode(1.0) == 0
        assert self.decode(3.0) == 1

    def test_monotone_step_function(self):
        stats_grid = np.linspace(0.0, 5.0, 101)
        decisions = self.decode(stats_grid)
        assert all(b >= a for a, b in zip(decisions, decisions[1:]))

    def test_rejects_a_constellation_without_regions(self):
        with pytest.raises(ValueError):
            EnergyRegions(Constellation((0.0, 1.0), 0.25))


# Values a statistic or boundary can take where a search could go wrong:
# signed zeros, infinities and NaN, and a few small values that repeat.
SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)
REPEATS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
BOUNDARIES = st.lists(st.one_of(REPEATS, st.floats(allow_nan=False)), max_size=63).map(sorted)


def assert_matches_searchsorted(search, boundaries, values):
    """search(values) equals np.searchsorted(boundaries, values, side="left") for
    every value as a scalar, for all of them as a 1-d array and as a 2-d array."""
    values = np.asarray(values, dtype=float)
    for x in (values, np.stack([values, values[::-1]]), *values):
        got, want = search(x), np.searchsorted(boundaries, x, side="left")
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want), (x, got, want)


class TestRegionIndexMatchesSearchsorted:
    """region_index is a branch-free binary search; np.searchsorted is its reference."""

    @given(boundaries=BOUNDARIES, data=st.data())
    def test_region_index(self, boundaries, data):
        # Every boundary is also a statistic, so ties are always probed.
        drawn = data.draw(st.lists(st.one_of(REPEATS, st.floats()), max_size=40))
        values = [*drawn, *boundaries, *SPECIALS]
        assert_matches_searchsorted(
            lambda x: region_index(boundaries, x), np.asarray(boundaries, dtype=float), values
        )

    @given(
        amplitudes=st.lists(
            st.floats(-1e300, 1e300), min_size=1, max_size=64, unique=True
        ).map(sorted),
        data=st.data(),
    )
    def test_nearest_amplitude_index(self, amplitudes, data):
        a = np.asarray(amplitudes)
        midpoints = 0.5 * (a[:-1] + a[1:])
        drawn = data.draw(st.lists(st.floats(), max_size=40))
        values = [*drawn, *amplitudes, *midpoints, *SPECIALS]
        assert_matches_searchsorted(
            lambda z: nearest_amplitude_index(amplitudes, z), midpoints, values
        )


class TestNoncoherentML:
    def test_rayleigh_depends_only_on_energy(self):
        rng = np.random.default_rng(3)
        levels = (0.0, 0.5, 2.0)
        dec = NoncoherentML(levels, 0.0, 1.0, 0.3)
        for _ in range(50):
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
            y2 = y * phase  # same norm, different samples
            k1 = dec.decide(8, *sums(y.reshape(-1, 1)))
            k2 = dec.decide(8, *sums(y2.reshape(-1, 1)))
            assert k1 == k2

    def test_two_level_threshold(self):
        # mu=0, levels {0,2}, sigma2=1, sigma_h2=1, n=1: the likelihoods
        # cross at ||y||^2 = 1.5 ln 3.
        crossing = 1.5 * math.log(3.0)
        dec = NoncoherentML((0.0, 2.0), 0.0, 1.0, 1.0)
        for shift, expected in ((-1e-6, 0), (1e-6, 1)):
            y = np.array([[math.sqrt(crossing + shift)]], dtype=complex)
            assert dec.decide(1, *sums(y))[0] == expected

    def test_deterministic_channel_noiseless(self):
        levels = (0.0, 1.0, 4.0)
        y = np.full((6, 1), math.sqrt(levels[1]), dtype=complex)
        got = NoncoherentML(levels, 1.0, 1e-12, 1e-9).decide(6, *sums(y))
        assert got[0] == 1


class TestEnergyMLAsk:
    def test_matches_noncoherent_ml_for_rayleigh(self):
        rng = np.random.default_rng(9)
        levels = (0.0, 2 / 7, 8 / 7, 18 / 7)
        n, sigma2 = 12, 0.2
        for _ in range(200):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            norm2, re_sum = sums(y.reshape(-1, 1))
            k_energy = energy_ml_index(norm2 / n, n, levels, 0.0, 1.0, sigma2)
            k_ml = noncoherent_ml_index(levels, 0.0, 1.0, sigma2, n, norm2, re_sum)
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
        # Each y_i = h_i*sqrt(p) + v_i is CN(mu*sqrt(p), sigma_h2*p + sigma2),
        # and ||y||^2 is drawn from Gaussian and Gamma variates, not from the
        # chi-square law under test.
        rng = np.random.default_rng(12)
        n, p, sigma2 = 50, 1.0, 0.1
        ch = Rician(0.0)
        draws = 1_000_000
        norm2, _ = _gaussian_sums(
            ch.mu * math.sqrt(p), ch.sigma_h2 * p + sigma2, n, rng, draws
        )
        stat = norm2 / n
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
        got = EnergyMLAsk((0.0, 1.0), 0.7, 0.51, 0.1, 4).decide(4, np.array([4 * 0.05]), None)
        assert got[0] == 0

    def test_rejects_zero_antennas(self):
        with pytest.raises(ValueError):
            EnergyMLAsk((0.0, 1.0), 0.7, 0.51, 0.1, 0)


class TestMlThresholdBoundaries:
    def test_reproduces_ml_decisions(self):
        levels = (0.0, 0.4, 1.6)
        sigma2 = 0.3
        con = ml_threshold_boundaries(levels, 1.0, sigma2)
        rng = np.random.default_rng(21)
        stat = rng.uniform(0.0, 4.0, 300)
        k_region = region_index(con.boundaries, stat)
        k_ml = energy_ml_index(stat, 7, levels, 0.0, 1.0, sigma2)
        np.testing.assert_array_equal(k_region, k_ml)

    @pytest.mark.parametrize("sigma_h2", [0.5, 0.9, 1.1, 2.0])
    def test_rejects_variance_other_than_one(self, sigma_h2):
        # Receiver points p + sigma2 are the mean statistic only at sigma_h2 = 1.
        with pytest.raises(InputError, match=r"^sigma_h2 must be a number in \[1, 1\]") as info:
            ml_threshold_boundaries((0.0, 0.4, 1.6), sigma_h2, 0.3)
        assert info.value.field == "sigma_h2"

    @pytest.mark.parametrize(
        "make",
        [
            lambda levels: ml_threshold_boundaries(levels, 1.0, 0.1),
            lambda levels: NoncoherentML(levels, 0.0, 1.0, 0.1),
            lambda levels: EnergyMLAsk(levels, 0.0, 1.0, 0.1, 4),
        ],
        ids=["ml_threshold_boundaries", "noncoherent_ml", "ask_energy_ml"],
    )
    @pytest.mark.parametrize("levels", [(0.0, 1e-300), (0.0, 0.02, math.nextafter(0.02, 1.0))])
    def test_refuses_levels_whose_variances_tie(self, make, levels):
        # Strictly increasing levels whose variances sigma_h2 * p + sigma2
        # round to one float have no crossing: it divided by zero.
        with pytest.raises(InputError, match="^levels must give strictly increasing") as info:
            make(levels)
        assert info.value.field == "levels"

    def test_refuses_levels_whose_crossing_has_no_float_between_the_variances(self):
        # Variances 1.0 and 1.0000000000000002 cross in between, where no float
        # lies: the crossing rounds to 1.0, which was refused as `boundaries`.
        levels = (0.0, 2.220446049250313e-16)
        with pytest.raises(InputError, match="^levels must leave a float strictly") as info:
            ml_threshold_boundaries(levels, 1.0, 1.0)
        assert info.value.field == "levels"
        # The receiver decides by the rounded crossing, which still splits the
        # two variances correctly.
        receiver = NoncoherentML(levels, 0.0, 1.0, 1.0)
        assert receiver.thresholds == (1.0,)
        stat = np.array([0.5, 1.0, math.nextafter(1.0, 2.0), 2.0])
        np.testing.assert_array_equal(receiver.decide(1, stat, None), [0, 0, 1, 1])

    @pytest.mark.parametrize(
        "levels, sigma2",
        [
            ((0.0, 1e10), 1e-300),  # b/a overflows: the crossing read inf
            ((0.0, 1.0), 1e-320),  # 1/a overflows: it read nan
            ((0.0, 1e-307), 1e-309),  # 1/a overflows, b/a does not
            ((0.0, 1e-10, 1.0, 1e300), 1e-310),
            ((0.0, 1.0, 1e300), 5e-324),
            ((0.0, 1.0), 1e-300),
            ((0.0, 0.5, 2.0), 0.1),
            # Adjacent variances nearly tie: log(b/a) and 1/a - 1/b cancelled,
            # off by 2.1e-11 and 8.4e-9 relative.
            (ask_constellation(64).levels, 1e3),
            (ask_constellation(64).levels, 1e5),
            ((0.0, 1e-320), 1e-320),  # subnormal variances: both reciprocals overflowed
        ],
    )
    def test_crossings_match_mpmath_at_extreme_assumed_noise(self, levels, sigma2):
        # a * b * log(b/a) / (b - a) at 50 digits, from the float variances.
        with mpmath.workdps(50):
            s2 = [mpmath.mpf(p) + mpmath.mpf(sigma2) for p in levels]
            expected = [a * b * mpmath.log(b / a) / (b - a) for a, b in zip(s2, s2[1:])]
        for got in (
            NoncoherentML(levels, 0.0, 1.0, sigma2).thresholds,
            EnergyMLAsk(levels, 0.0, 1.0, sigma2, 4).thresholds,
            ml_threshold_boundaries(levels, 1.0, sigma2).boundaries,
        ):
            assert len(got) == len(expected)
            for c, ref in zip(got, expected):
                ref = float(ref)
                tol = 1e-15 * ref if ref >= np.finfo(float).tiny else 4.9e-324
                assert abs(c - ref) <= tol, (c, ref)

    @pytest.mark.parametrize(
        "make",
        [
            lambda levels: ml_threshold_boundaries(levels, 1.0, 1e308),
            lambda levels: NoncoherentML(levels, 0.0, 1.0, 1e308),
            lambda levels: EnergyMLAsk(levels, 0.0, 1.0, 1e308, 4),
        ],
        ids=["ml_threshold_boundaries", "noncoherent_ml", "ask_energy_ml"],
    )
    def test_refuses_levels_whose_variances_overflow(self, make):
        # sigma_h2 * p + sigma2 overflows: the crossing read inf.
        with pytest.raises(InputError, match="^levels must give finite assumed") as info:
            make((0.0, 1.7e308))
        assert info.value.field == "levels"

    def test_nonzero_mean_separates_tied_variances_by_their_means(self):
        # Only the zero-mean crossings need distinct variances.
        assert NoncoherentML((0.0, 1e-300), 0.5, 1.0, 0.1).thresholds is None
        assert EnergyMLAsk((0.0, 1e-300), 0.5, 1.0, 0.1, 4).thresholds is None


class TestZeroMeanLikelihoodIntervals:
    """With mu = 0 both ML decoders decide by intervals of ||y||^2 / n; the
    likelihood argmin / argmax over every level is the reference."""

    @pytest.mark.parametrize("L", [2, 4, 16, 64])
    def test_decide_matches_the_likelihood_references(self, L):
        # 8 SNRs x 3 antenna counts x 12k Rayleigh statistics per L: about
        # 1.15 million statistics over the four tests.
        levels = np.asarray(ask_constellation(L).levels)
        for snr_db in (-20, -10, 0, 10, 20, 30, 40, 50):
            sigma2 = sigma_from_snr(snr_db)
            for n in (1, 16, 400):
                rng = np.random.default_rng([L, snr_db + 20, n])
                idx = rng.integers(0, L, size=12_000)
                # On Rayleigh fading ||y||^2 is Gamma(n, p + sigma2).
                norm2 = rng.gamma(n, levels[idx] + sigma2)
                stat = norm2 / n
                ml = NoncoherentML(tuple(levels), 0.0, 1.0, sigma2)
                ask = EnergyMLAsk(tuple(levels), 0.0, 1.0, sigma2, n)
                by_nll = noncoherent_ml_index(levels, 0.0, 1.0, sigma2, n, norm2, 0.0 * norm2)
                by_pdf = energy_ml_index(stat, n, levels, 0.0, 1.0, sigma2)
                where = f"L={L} snr={snr_db} dB n={n}"
                np.testing.assert_array_equal(ml.decide(n, norm2, None), by_nll, where)
                np.testing.assert_array_equal(ask.decide(n, norm2, None), by_pdf, where)

    def test_assumed_variance_other_than_one(self):
        # Crossings for sigma_h2 != 1, which ml_threshold_boundaries refuses
        # to return as energy regions (receiver points p + sigma2).
        levels, sigma_h2, sigma2, n = (0.0, 1.0, 2.0), 0.1, 0.1, 5
        rng = np.random.default_rng(3)
        norm2 = rng.gamma(n, sigma_h2 * rng.choice(levels, 20_000) + sigma2)
        np.testing.assert_array_equal(
            NoncoherentML(levels, 0.0, sigma_h2, sigma2).decide(n, norm2, None),
            noncoherent_ml_index(levels, 0.0, sigma_h2, sigma2, n, norm2, 0.0 * norm2),
        )
        np.testing.assert_array_equal(
            EnergyMLAsk(levels, 0.0, sigma_h2, sigma2, n).decide(n, norm2, None),
            energy_ml_index(norm2 / n, n, levels, 0.0, sigma_h2, sigma2),
        )


    def test_thresholds_are_the_intervals_decided_by(self):
        # The crossings at mu = 0, computed once per receiver; the energy
        # regions' boundaries; None for the rules that decide otherwise.
        levels, sigma2 = (0.0, 1.0, 2.5), 0.1
        crossings = decode._ml_crossings(levels, 0.5, sigma2)
        for receiver in (
            NoncoherentML(levels, 0.0, 0.5, sigma2), EnergyMLAsk(levels, 0.0, 0.5, sigma2, 4)
        ):
            assert receiver.thresholds == crossings
            assert receiver.thresholds is receiver.thresholds
        con = Constellation(levels, sigma2, (0.6, 2.0))
        assert EnergyRegions(con).thresholds == con.boundaries
        assert NoncoherentML(levels, 0.5, 0.5, sigma2).thresholds is None
        assert EnergyMLAsk(levels, 0.5, 0.5, sigma2, 4).thresholds is None
        assert PilotPAM((-1.0, 1.0), 0.0, 1.0, sigma2, 2, 1).thresholds is None


LEVELS_3 = (0.0, 1.0, 2.0)
# Each receiver built from an assumed (mu, sigma_h2); the thresholds are zero-mean.
ASSUMED = {
    "noncoherent_ml": lambda mu, sigma_h2: NoncoherentML(LEVELS_3, mu, sigma_h2, 0.1),
    "ask_energy_ml": lambda mu, sigma_h2: EnergyMLAsk(LEVELS_3, mu, sigma_h2, 0.1, 4),
    "pilot_pam": lambda mu, sigma_h2: PilotPAM((-1.0, 1.0), mu, sigma_h2, 0.1, 2, 1),
    "ml_thresholds": lambda mu, sigma_h2: ml_threshold_boundaries(LEVELS_3, sigma_h2, 0.1),
}


class TestAssumedChannelVariance:
    """Bad assumed statistics end in a ValueError that names sigma_h2."""

    @pytest.mark.parametrize("receiver", list(ASSUMED))
    @pytest.mark.parametrize("sigma_h2", [-0.5, math.nan])
    def test_rejects_negative_variance(self, receiver, sigma_h2):
        with pytest.raises(ValueError, match="sigma_h2"):
            ASSUMED[receiver](0.5, sigma_h2)

    @pytest.mark.parametrize("receiver", ["noncoherent_ml", "ask_energy_ml", "ml_thresholds"])
    def test_rejects_zero_variance_at_zero_mean(self, receiver):
        # Every level would have the same likelihood.
        with pytest.raises(ValueError, match="sigma_h2"):
            ASSUMED[receiver](0.0, 0.0)

    def test_zero_variance_with_a_mean_or_pilots_is_accepted(self):
        # K = +inf (mu = 1, sigma_h2 = 0) and an untrained pilot receiver.
        ASSUMED["noncoherent_ml"](1.0, 0.0)
        ASSUMED["ask_energy_ml"](1.0, 0.0)
        ASSUMED["pilot_pam"](0.0, 0.0)


# Each holder of an ordered set of levels, built from (levels, assumed noise),
# and the names of its level and noise parameters.
LEVEL_HOLDERS = {
    "noncoherent_ml_mu0": (lambda v, s2: NoncoherentML(v, 0.0, 1.0, s2), "levels", "sigma2"),
    "noncoherent_ml_mu05": (lambda v, s2: NoncoherentML(v, 0.5, 0.5, s2), "levels", "sigma2"),
    "ask_energy_ml": (lambda v, s2: EnergyMLAsk(v, 0.5, 0.5, s2, 4), "levels", "sigma2"),
    "pilot_pam": (lambda v, s2: PilotPAM(v, 0.0, 1.0, s2, 2, 1), "amplitudes", "sigma2"),
    "constellation": (lambda v, s2: Constellation(v, s2), "levels", "sigma2_design"),
}
# (levels, noise, which parameter the refusal names); PilotPAM takes negative amplitudes.
BAD_LEVELS = {
    "negative": ((-1.0, 1.0), 0.1, "levels"),
    "nan": ((0.0, math.nan, 2.0), 0.1, "levels"),
    "infinite": ((0.0, 1.0, math.inf), 0.1, "levels"),
    "too_many": (tuple(range(1025)), 0.1, "L"),
    "decreasing": ((1.0, 0.5), 0.1, "levels"),
    "infinite_noise": ((0.0, 1.0), math.inf, "noise"),
}


class TestLevelRule:
    """Every constellation and receiver checks its levels by one rule, and
    names the parameter it refuses."""

    @pytest.mark.parametrize("case", list(BAD_LEVELS))
    @pytest.mark.parametrize("holder", list(LEVEL_HOLDERS))
    def test_refusal_names_its_parameter(self, holder, case):
        build, levels_name, noise_name = LEVEL_HOLDERS[holder]
        levels, sigma2, field = BAD_LEVELS[case]
        if holder == "pilot_pam" and case == "negative":
            assert build(levels, sigma2).amplitudes == levels
            return
        field = {"levels": levels_name, "noise": noise_name}.get(field, field)
        with pytest.raises(InputError, match=f"^{field} ") as info:
            build(levels, sigma2)
        assert info.value.field == field

    def test_pilot_pam_needs_two_amplitudes(self):
        with pytest.raises(InputError, match="^L ") as info:
            PilotPAM((1.0,), 0.0, 1.0, 0.1, 2, 1)
        assert info.value.field == "L"

    @pytest.mark.parametrize("holder", list(LEVEL_HOLDERS))
    def test_keeps_the_checked_values(self, holder):
        # NumPy and integer inputs are kept as the Python floats that were checked.
        build, levels_name, noise_name = LEVEL_HOLDERS[holder]
        built = build(np.array([0, 1, 3]), np.float32(0.25))
        assert getattr(built, levels_name) == (0.0, 1.0, 3.0)
        assert type(getattr(built, noise_name)) is float


def pilot_decoder(channel, sigma2):
    """Pilot PAM with one unit-power pilot and the channel's prior statistics."""
    amps = pam_constellation(2).amplitudes
    return PilotPAM(amps, channel.mu, channel.sigma_h2, sigma2, coherence_slots=2, pilot_slots=1)


class TestPilotMmse:
    @pytest.mark.parametrize("power", [-1.0, math.nan, math.inf])
    def test_rejects_negative_nan_or_infinite_pilot_power(self, power):
        amps = pam_constellation(2).amplitudes
        with pytest.raises(ValueError, match="^pilot_power must be"):
            PilotPAM(amps, 0.0, 1.0, 0.1, coherence_slots=2, pilot_slots=1, pilot_power=power)

    def test_noise_free_limit_recovers_channel(self):
        rng = np.random.default_rng(4)
        n = 256
        h = sample_channel(Rician(3.0), n, rng)
        ch = Rician(3.0)
        # One pilot of amplitude 1: the pilot average is the received pilot.
        h_hat = pilot_decoder(ch, 1e-12).estimate(h * 1.0 + 0.0)
        assert np.max(np.abs(h_hat - h)) < 1e-5

    def test_infinite_noise_limit_is_prior_mean(self):
        rng = np.random.default_rng(5)
        ch = Rician(0.0)
        n = 64
        y = rng.standard_normal((n, 2)) @ np.array([1.0, 1j]) * 1e6
        h_hat = pilot_decoder(ch, 1e12).estimate(y)
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

    @pytest.mark.parametrize(
        "y_bar", [np.ones(3), np.ones((2, 5)), np.ones(4, dtype=complex), 1.0]
    )
    def test_zero_pilot_slots_give_prior_mean(self, y_bar):
        # Without training the MMSE estimate is the prior mean mu.
        decoder = PilotPAM((-1.0, 1.0), 0.5, 0.5, 0.1, 2, 0)
        h_hat = decoder.estimate(y_bar)
        assert h_hat.shape == np.shape(y_bar)
        np.testing.assert_array_equal(h_hat, np.full(np.shape(y_bar), 0.5))


class TestCoherentPamDecode:
    AMPS = pam_constellation(4).amplitudes
    DEC = PilotPAM(AMPS, 0.0, 1.0, 0.1, coherence_slots=2, pilot_slots=1)

    def decode(self, h_hat, y):
        """Decision for the single data slot y (one entry per antenna)."""
        return self.DEC.decide(pam_projection(h_hat, np.asarray(y).reshape(-1, 1)))[0]

    def test_perfect_estimate_noiseless(self):
        h = np.array([1.0 + 0.5j, -0.3 + 1j])
        for k, a in enumerate(self.AMPS):
            y = h * a
            assert self.decode(h, y) == k

    def test_scaled_estimate_same_decision(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = h * self.AMPS[2] + 0.1 * (
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        k1 = self.decode(h, y)
        k2 = self.decode(3.7 * h, y)
        assert k1 == k2

    def test_nearest_amplitude_arithmetic(self):
        # z = 0.9 sits closer to 3/sqrt(5) ~ 1.342 than to 1/sqrt(5) ~ 0.447.
        got = self.decode(np.array([1.0 + 0j]), [0.9 + 0j])
        assert self.AMPS[got] == pytest.approx(3 / math.sqrt(5))

    def test_null_estimate_collapses_to_midpoint_tie(self):
        # A null estimate projects every symbol to z = 0, the midpoint of the
        # two inner amplitudes; the tie resolves to the smaller one.
        got = self.decode(np.zeros(1, dtype=complex), [0.9 + 0j])
        assert got == 1
        assert self.AMPS[got] < 0


class TestGrayCode:
    def test_known_values(self):
        assert gray_code(0) == 0b000
        assert gray_code(1) == 0b001
        assert gray_code(5) == 0b111

    def test_each_width_maps_onto_itself(self):
        # The labels of L = 2^k symbols are the k-bit words, each once.
        for bits in range(1, 11):
            assert sorted(gray_code(i) for i in range(1 << bits)) == list(range(1 << bits))

    def test_adjacent_codes_differ_in_one_bit(self):
        codes = [gray_code(i) for i in range(8)]
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1
