"""Deterministic, shardable Monte Carlo engine for symbol/bit error estimation.

Randomness is organized in fixed-size logical blocks: block b of a scenario
draws from a counter-based Philox stream keyed by (seed, b), so the merged
error counts do not depend on how blocks are distributed over shards, and any
rerun with the same seed reproduces the counts bit for bit.

Each block passes through three layers, each written once:

- sampler: the transmitted symbol indices and what the receiver observes.
  Noncoherent schemes see a fresh channel every symbol and decide from the
  sufficient statistics (||y||^2, Re sum_i y_i) alone, so two samplers
  produce them.  Under Rician fading (Rayleigh included) every antenna
  sample is CN(mu*sqrt(p), s) with s = sigma_h2*p + sigma2, and the
  statistics are drawn directly: ||y||^2 as one Gamma or scaled noncentral
  chi-square variate, or, for noncoherent ML, sum_i y_i as one complex
  Gaussian plus an independent (s/2)*chi^2_{2n-2} remainder.  Every other
  channel (Nakagami) draws all n antenna samples and sums them.  The
  pilot-based PAM scheme draws one channel per coherence block and keeps
  per-antenna samples throughout.
- decoder: the decoder object's own rule from `decode` (`decide`, plus
  `estimate` for the pilot MMSE channel estimate).
- counts: `_accumulate` turns (sent, decoded) index pairs into symbol
  errors, Gray-coded bit errors and per-level counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .channel import ChannelSpec, MomentsOnly, NotSamplableError, Rician, sample_channel
from .decode import EnergyMLAsk, EnergyRegions, NoncoherentML, PilotPAM, gray_code
from .rates import Constellation

_BLOCK_DRAWS = 1 << 18  # target number of antenna draws per logical rng block
_WILSON_Z = 1.959963984540054  # 95% two-sided


def wilson_interval(errors: int, trials: int, z: float = _WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p_hat = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = (
        z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # The exact endpoints at 0 and all-errors are 0 and 1; keep them exact so
    # the interval always contains the point estimate.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def check_seed(seed: int) -> None:
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 bits")


DecoderLike = Union[EnergyRegions, NoncoherentML, EnergyMLAsk, PilotPAM]


@dataclass(frozen=True)
class SimScenario:
    """One simulation setup: true statistics, a decoder with assumed statistics,
    antenna count, and a reproducibility contract (seed, shards)."""

    true_channel: ChannelSpec
    true_sigma2: float
    decoder: DecoderLike
    n: int
    symbols: int
    seed: int
    shards: int = 1

    def __post_init__(self):
        if isinstance(self.true_channel, MomentsOnly):
            raise NotSamplableError("cannot simulate a moments-only channel")
        if not (self.true_sigma2 >= 0):
            raise ValueError("true noise power must be nonnegative")
        if self.n < 1:
            raise ValueError("antenna count must be at least 1")
        if self.symbols < 1000:
            raise ValueError("symbol budget must be at least 1000")
        if self.shards < 1:
            raise ValueError("shard count must be at least 1")
        check_seed(self.seed)
        if isinstance(self.decoder, EnergyMLAsk) and self.decoder.n != self.n:
            raise ValueError("decoder antenna count disagrees with scenario")

    @property
    def scheme(self) -> str:
        return self.decoder.scheme

    @property
    def L(self) -> int:
        return self.decoder.L

    @property
    def bits_per_symbol(self) -> int:
        return max(1, (self.L - 1).bit_length())

    @property
    def effective_rate(self) -> float:
        """Information bits per channel use after pilot overhead."""
        T, T_l = self.decoder.coherence_slots, self.decoder.pilot_slots
        return (T - T_l) / T * math.log2(self.L)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo outcome with provenance; counts are exact integers."""

    scheme: str
    symbols: int
    symbol_errors: int
    bits: int
    bit_errors: int
    ser: float
    ber: float
    ser_ci: tuple
    ber_ci: tuple
    seed: int
    shards: int
    tx_counts: tuple
    err_counts: tuple
    elapsed_s: float


def _block_generator(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) + index))


def _symbols_per_block(n: int, coherence: int) -> int:
    """Symbols per logical block: about _BLOCK_DRAWS antenna draws, in whole coherence blocks."""
    per = max(1, _BLOCK_DRAWS // max(n, 1))
    return max(coherence, (per // coherence) * coherence)


def _popcount_table(bits: int) -> np.ndarray:
    size = 1 << bits
    return np.array([bin(v).count("1") for v in range(size)], dtype=np.int64)


def _complex_normal(rng, shape, scale: float) -> np.ndarray:
    """Circular complex Gaussian samples with per-component standard deviation `scale`."""
    g = rng.standard_normal(shape + (2,))
    return scale * (g[..., 0] + 1j * g[..., 1])


def _antenna_stats(channel, sigma2, p, n, rng, with_sum):
    h = sample_channel(channel, len(p) * n, rng).reshape(len(p), n)
    y = h * np.sqrt(p)[:, None] + _complex_normal(rng, (len(p), n), math.sqrt(sigma2 / 2.0))
    norm2 = np.sum(np.abs(y) ** 2, axis=1)
    return norm2, np.sum(y.real, axis=1) if with_sum else None


def _rician_stats(channel: Rician, sigma2, p, n, rng, with_sum):
    s = channel.sigma_h2 * p + sigma2
    amp = channel.mu * np.sqrt(p)
    # s = 0 (K = +inf or p = 0, noiseless) makes y = amp on every antenna;
    # those symbols get the exact values below and must not divide by s.
    live = s > 0.0
    if with_sum:
        scale = np.sqrt(n * s / 2.0)
        g = rng.standard_normal((len(p), 2))
        re_sum = n * amp + scale * g[:, 0]
        norm2 = (re_sum**2 + (scale * g[:, 1]) ** 2) / n
        if n > 1:
            norm2 += rng.gamma(n - 1, s)
        re_sum = np.where(live, re_sum, n * amp)
    elif channel.mu == 0.0:
        norm2 = rng.gamma(n, s)
    else:
        nonc = 2.0 * n * amp**2 / np.where(live, s, 1.0)
        norm2 = 0.5 * s * rng.noncentral_chisquare(2 * n, nonc)
    norm2 = np.where(live, norm2, n * channel.mu**2 * p)
    return norm2, re_sum if with_sum else None


def _sample_stats(channel, sigma2, p, n, rng, with_sum):
    """Per-symbol (||y||^2, Re sum_i y_i) of y = h*sqrt(p) + noise over n antennas.

    `p` is a float array holding one power level per symbol.  The sum is drawn only when
    `with_sum` is set (otherwise None); Rician channels take the direct
    sufficient-statistic sampler, every other channel the per-antenna one.
    """
    sampler = _rician_stats if isinstance(channel, Rician) else _antenna_stats
    return sampler(channel, sigma2, p, n, rng, with_sum)


def _run_noncoherent_block(scenario: SimScenario, rng, count: int):
    """(sent, decoded) level indices of `count` symbols."""
    dec = scenario.decoder
    levels = np.asarray(dec.levels, dtype=float)
    idx = rng.integers(0, len(levels), size=count)
    norm2, re_sum = _sample_stats(
        scenario.true_channel, scenario.true_sigma2, levels[idx], scenario.n, rng,
        with_sum=dec.needs_sum,
    )
    return idx, dec.decide(scenario.n, norm2, re_sum)


def _run_pilot_pam_block(scenario: SimScenario, rng, count: int):
    """(sent, decoded) amplitude indices of the data slots of count // T coherence blocks."""
    dec: PilotPAM = scenario.decoder
    n = scenario.n
    T, T_l = dec.coherence_slots, dec.pilot_slots
    nb = count // T
    amps = np.asarray(dec.amplitudes, dtype=float)

    h = sample_channel(scenario.true_channel, nb * n, rng).reshape(nb, n)
    if T_l >= 1:
        # The pilot average over T_l slots is Gaussian with variance
        # sigma2/T_l; draw it directly.
        v_bar = _complex_normal(rng, (nb, n), math.sqrt(scenario.true_sigma2 / (2.0 * T_l)))
        h_hat = dec.estimate(math.sqrt(dec.pilot_power) * h + v_bar)
    else:
        # Without pilots the MMSE estimate is the prior mean.
        h_hat = np.full((nb, n), dec.mu, dtype=np.complex128)

    idx = rng.integers(0, len(amps), size=(nb, T - T_l))
    v = _complex_normal(rng, (nb, n, T - T_l), math.sqrt(scenario.true_sigma2 / 2.0))
    y = h[:, :, None] * amps[idx][:, None, :] + v
    return idx.ravel(), dec.decide(h_hat, y).ravel()


def _accumulate(scenario: SimScenario, stop_bit_errors: Optional[int] = None):
    """Run the scenario block by block; optionally stop early on enough bit errors.

    The early stop is evaluated at block granularity in block-index order, so
    it is as deterministic as the full run.
    """
    run_block = (
        _run_pilot_pam_block if isinstance(scenario.decoder, PilotPAM) else _run_noncoherent_block
    )
    coherence = scenario.decoder.coherence_slots
    L = scenario.L
    gray = np.array([gray_code(i) for i in range(L)], dtype=np.int64)
    pop = _popcount_table(scenario.bits_per_symbol)

    # Blocks and the budget are whole coherence blocks, so every count is too.
    per_block = _symbols_per_block(scenario.n, coherence)
    total = (scenario.symbols // coherence) * coherence
    if total == 0:
        raise ValueError("symbol budget is below one coherence block")

    symbols = sym_err = bit_err = 0
    tx = np.zeros(L, dtype=np.int64)
    err = np.zeros(L, dtype=np.int64)
    consumed = 0
    block_index = 0
    while consumed < total:
        count = min(per_block, total - consumed)
        idx, decoded = run_block(scenario, _block_generator(scenario.seed, block_index), count)
        errors = decoded != idx
        symbols += idx.size
        sym_err += int(errors.sum())
        bit_err += int(pop[gray[idx] ^ gray[decoded]].sum())
        tx += np.bincount(idx, minlength=L)
        err += np.bincount(idx[errors], minlength=L)
        consumed += count
        block_index += 1
        if stop_bit_errors is not None and bit_err >= stop_bit_errors:
            break
    return symbols, sym_err, bit_err, tx, err


def simulate(scenario: SimScenario) -> SimReport:
    """Estimate SER/BER for the scenario with full-budget deterministic sampling."""
    start = time.perf_counter()
    symbols, sym_err, bit_err, tx, err = _accumulate(scenario)
    bits = symbols * scenario.bits_per_symbol
    return SimReport(
        scheme=scenario.scheme,
        symbols=symbols,
        symbol_errors=sym_err,
        bits=bits,
        bit_errors=bit_err,
        ser=sym_err / symbols,
        ber=bit_err / bits,
        ser_ci=wilson_interval(sym_err, symbols),
        ber_ci=wilson_interval(bit_err, bits),
        seed=scenario.seed,
        shards=scenario.shards,
        tx_counts=tuple(int(c) for c in tx),
        err_counts=tuple(int(c) for c in err),
        elapsed_s=time.perf_counter() - start,
    )


NOT_REACHED = None


def min_antennas(
    scenario_template: SimScenario,
    target_ber: float,
    n_max: int,
    min_bit_errors: int = 100,
) -> Optional[int]:
    """Smallest antenna count whose Wilson upper BER bound beats the target.

    Each candidate n simulates until min_bit_errors bit errors are seen or the
    template's symbol budget runs out.  Exponential bracketing is followed by
    bisection under the usual monotone-BER assumption.  Returns None when even
    n_max fails.
    """
    if not (0.0 < target_ber < 0.5):
        raise ValueError("target BER must be in (0, 0.5)")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    def qualifies(n: int) -> bool:
        scen = _with_antennas(scenario_template, n)
        symbols, _, bit_err, _, _ = _accumulate(scen, stop_bit_errors=min_bit_errors)
        bits = symbols * scen.bits_per_symbol
        _, upper = wilson_interval(bit_err, bits)
        return upper < target_ber

    n = 1
    lo = 0
    hi = None
    while n <= n_max:
        if qualifies(n):
            hi = n
            break
        lo = n
        n *= 2
    if hi is None:
        if lo < n_max and qualifies(n_max):
            hi = n_max
        else:
            return NOT_REACHED
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qualifies(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _with_antennas(template: SimScenario, n: int) -> SimScenario:
    decoder = template.decoder
    if isinstance(decoder, EnergyMLAsk):
        decoder = replace(decoder, n=n)
    return replace(template, n=n, decoder=decoder)


@dataclass(frozen=True)
class StatHistogram:
    """Per-symbol empirical distribution of the energy statistic."""

    bin_edges: tuple
    counts: tuple  # counts[k] is the tuple of bin counts for symbol k
    boundaries: tuple
    receiver_points: tuple
    means: tuple
    variances: tuple
    outside_fraction: tuple  # mass falling outside each symbol's own region


def check_bins(bins: int) -> None:
    if bins < 10:
        raise ValueError("need at least 10 bins")


def check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial per level")


def histogram(
    constellation: Constellation,
    channel: ChannelSpec,
    sigma2: float,
    n: int,
    trials: int,
    bins: int,
    seed: int = 0,
) -> StatHistogram:
    """Sampled statistic histograms for every level of a region-decoded constellation."""
    check_bins(bins)
    check_trials(trials)
    check_seed(seed)
    if constellation.boundaries is None:
        raise ValueError("constellation has no decoding regions")
    from .channel import u_second_moment

    levels = constellation.levels
    r_pts = [p + sigma2 for p in levels]
    spread = math.sqrt(u_second_moment(channel, sigma2, levels[-1]) / n)
    hi = max(r_pts[-1] + 6.0 * spread, constellation.boundaries[-1] * 1.05)
    edges = np.linspace(0.0, hi, bins + 1)

    region_edges = (0.0,) + constellation.boundaries + (math.inf,)
    counts, means, variances, outside = [], [], [], []
    for k, p in enumerate(levels):
        rng = _block_generator(seed, k)
        norm2, _ = _sample_stats(channel, sigma2, np.full(trials, p), n, rng, with_sum=False)
        stat = norm2 / n
        c, _ = np.histogram(stat, bins=edges)
        counts.append(tuple(int(x) for x in c))
        means.append(float(stat.mean()))
        variances.append(float(stat.var(ddof=1)))
        inside = (stat > region_edges[k]) & (stat <= region_edges[k + 1])
        outside.append(float(1.0 - inside.mean()))
    return StatHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(counts),
        boundaries=constellation.boundaries,
        receiver_points=tuple(r_pts),
        means=tuple(means),
        variances=tuple(variances),
        outside_fraction=tuple(outside),
    )
