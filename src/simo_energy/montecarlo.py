"""Deterministic, shardable Monte Carlo engine for symbol/bit error estimation.

Randomness is organized in fixed-size logical blocks: block b of a scenario
draws from its own SFC64 stream, seeded by SeedSequence(seed, spawn_key=(b,)),
so the merged error counts do not depend on how blocks are distributed over
shards, and any rerun with the same seed reproduces the counts bit for bit.
A block holds 2^14 symbols, in whole coherence blocks; a sampler that draws
every antenna holds at most 2^18 antenna draws (so 2^18 / n symbols from
n = 16 up).  One coherence block's draws must fit in one block, so n and
T times the draws per symbol are at most 2^18.  `min_antennas` checks its
stop rule after each block.  For a receiver that decides by intervals of
||y||^2 / n its first candidate is the count whose verdict the saddle-point
BER of `rates.interval_decision_probabilities` predicts; the other receivers'
searches start at n = 1.

Each block passes through three layers, each written once:

- sampler: the transmitted symbol indices and the receiver's decision
  statistics.  Which sampler runs depends on the (true channel, scheme)
  pair, and `_sampler` decides it once, for the block size as well:

  ====================  ==========================  ============================
  true channel          energy regions, ASK-ML,     noncoherent ML with
                        histogram, noncoherent ML   assumed mu != 0:
                        with assumed mu = 0:        (||y||^2, Re sum_i y_i)
                        ||y||^2 alone
  ====================  ==========================  ============================
  Rician (Rayleigh,     one Gamma draw (mu = 0),    Re sum_i y_i as one
  K = +inf included)    else `_gaussian_sums`       Gaussian, plus a Gamma
                                                    remainder for ||y||^2
  Nakagami              G = sum_i |h_i|^2 as one    every antenna sample
                        Gamma draw; then for m <= 1
                        one Gamma draw (none at
                        m = 1), for m > 1
                        `_gaussian_sums` given G
  ====================  ==========================  ============================

  `_gaussian_sums` is the one formula for the nonzero-mean statistics: one
  Gaussian for Re sum_i y_i and one Gamma for the rest of ||y||^2.

  Pilot-based PAM decides from the per-slot projection
  z = Re(h_hat^H y) / ||h_hat||^2, and `_rician_pilot` draws only what it
  reads.  Under Rician fading (h_i, h_hat_i) is jointly Gaussian, and per
  coherence block of T slots, T_l of them pilots:

  ==========================  =========================================
  estimate h_hat              ||h_hat||^2 and Re sum_i h_hat_i
  ==========================  =========================================
  zero mean, true mu = 0      ||h_hat||^2 as one Gamma draw; the sum is
  (Rayleigh, assumed mu = 0)  never read
  nonzero mean                `_gaussian_sums`: one Gaussian, one Gamma
  deterministic (gain 0,      fixed, no draw
  e.g. no pilots)
  ==========================  =========================================

  With one data slot per block (T - T_l = 1) the slot then draws its
  amplitude index and one Gaussian, into which the estimate error and the
  noise fold.  Longer blocks draw Re(h_hat^H h) as one Gaussian shared by
  their slots, and each data slot an index and one Gaussian.  A Rayleigh
  T = 2, T_l = 1 block thus draws 3 values.  Under Nakagami fading the
  pilot block draws every antenna sample of the channel, the pilot average
  and the data.  The per-antenna paths also serve the tests as the
  reference.
- decoder: the decoder object's own rule from `decode` (`decide`, which
  for pilot PAM takes the projection).
- counts: `_accumulate` adds each block's (sent, decoded) index pairs into
  one L x L confusion matrix per run, and reads the symbol errors, Gray-coded
  bit errors and per-level counts off it: the bit errors after every block
  for the early stop, the rest once at the end.  It forms the Wilson
  intervals and returns the run's `SimReport`, which `simulate` and each
  `min_antennas` candidate read by name.
  Pilot-PAM slots of one coherence block share the channel, so with more
  than one data slot per block the intervals are widened by the design
  effect of the per-block error counts, whose squares `_squared_errors`
  sums for those blocks only.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional, Union

import numpy as np

from .channel import (
    ChannelSpec,
    InputError,
    NakagamiReal,
    Rician,
    check_number,
    sample_channel,
    u_second_moment,
)
from .decode import (
    _BLOCK_DRAWS,
    ANTENNA_RANGE,
    EnergyMLAsk,
    EnergyRegions,
    NoncoherentML,
    PilotPAM,
    gray_code,
    pam_projection,
    region_index,
)
from .rates import Constellation, interval_decision_probabilities

_BLOCK_SYMBOLS = 1 << 14  # most symbols per logical rng block
_WILSON_Z = 1.959963984540054  # 95% two-sided
_MIN_BIT_ERRORS = 100  # bit errors that end a min_antennas candidate early
# Largest symbol budget: the per-level sent and error counts are int64, and
# no count can exceed the budget.
_MAX_SYMBOLS = np.iinfo(np.int64).max

# Ranges of the numeric inputs, each as the (lo, hi[, ends]) of
# `check_number`.  A seed is one 64-bit word.
# `histogram` draws each level's trials at once into several float64 arrays
# (2^22 trials take 32 MB each) and keeps its bin counts as tuples of Python
# ints (about 36 bytes each), so both sizes are capped for the arrays to fit
# in memory.
_MAX_TRIALS = 1 << 22
_MAX_BINS = 1 << 20
COUNT_RANGE = (1, math.inf)
SEED_RANGE = (0, 2**64 - 1)
TARGET_BER_RANGE = (0, 0.5, "()")
TRIALS_RANGE = (1, _MAX_TRIALS)
BINS_RANGE = (10, _MAX_BINS)

_log = logging.getLogger("simo_energy")


def wilson_interval(errors: int, trials: int):
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p_hat = errors / trials
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = (
        _WILSON_Z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # The exact endpoints at 0 and all-errors are 0 and 1; keep them exact so
    # the interval always contains the point estimate.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


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
        check_number(self.true_sigma2, "true_sigma2", 0, math.inf, "[)")
        check_number(self.n, "n", *ANTENNA_RANGE, whole=True)
        check_number(self.symbols, "symbols", 1000, _MAX_SYMBOLS, whole=True)
        if self.symbols < self.decoder.coherence_slots:
            raise InputError("symbols", "symbol budget is below one coherence block")
        _check_block_draws(self.true_channel, self.decoder, self.n, "coherence_slots")
        check_number(self.shards, "shards", *COUNT_RANGE, whole=True)
        check_number(self.seed, "seed", *SEED_RANGE, whole=True)
        if isinstance(self.decoder, EnergyMLAsk) and self.decoder.n != self.n:
            raise InputError("n", f"n must equal the decoder's {self.decoder.n}, got {self.n!r}")

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


def _block_generator(seed: int, index: int) -> np.random.Generator:
    """The generator of logical block `index`: an SFC64 stream seeded by the
    SeedSequence spawned from `seed` with spawn key (index,), NumPy's
    construction of independent streams."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index,)))
    )


def _symbols_per_block(draws: int, coherence: int) -> int:
    """Symbols per logical block, in whole coherence blocks (at least one).

    At most _BLOCK_SYMBOLS symbols, so an early stop acts within that many, and
    at most _BLOCK_DRAWS antenna draws, the memory bound of the per-antenna
    samplers.  `draws` per symbol is n for those and 1 for the others (`_sampler`).
    A scenario keeps one coherence block within _BLOCK_DRAWS (`_check_block_draws`).
    """
    per = min(_BLOCK_SYMBOLS, _BLOCK_DRAWS // draws)
    return max(coherence, (per // coherence) * coherence)


def _bit_error_table(L: int) -> np.ndarray:
    """L x L Gray-coded bit errors: entry [i, j] for level i sent and j decoded."""
    gray = np.array([gray_code(i) for i in range(L)], dtype=np.int64)
    popcount = np.array([bin(v).count("1") for v in range(1 << (L - 1).bit_length())])
    return popcount[gray[:, None] ^ gray[None, :]]


def _complex_normal(rng, shape, scale: float) -> np.ndarray:
    """Circular complex Gaussian samples with per-component standard deviation `scale`."""
    g = rng.standard_normal(shape + (2,))
    return scale * (g[..., 0] + 1j * g[..., 1])


def _antenna_stats(channel, sigma2, p, n, rng, with_sum):
    h = sample_channel(channel, len(p) * n, rng).reshape(len(p), n)
    y = h * np.sqrt(p)[:, None] + _complex_normal(rng, (len(p), n), math.sqrt(sigma2 / 2.0))
    norm2 = np.sum(np.abs(y) ** 2, axis=1)
    return norm2, np.sum(y.real, axis=1) if with_sum else None


def _zero_mean_norm2(var, n, rng, count):
    """||x||^2 of `count` vectors of n i.i.d. CN(0, var) entries: one
    var*Gamma(n) draw each, and exactly 0 where var = 0."""
    return var * rng.standard_gamma(n, size=count)


def _gaussian_sums(mean, var, n, rng, count):
    """(||x||^2, Re sum_i x_i) of `count` vectors of n i.i.d. CN(mean, var) entries.

    `mean` is real.  Re sum_i x_i is one Gaussian draw.  ||x||^2 is
    (Re sum)^2/n plus (Im sum)^2/n, which is var*Gamma(1/2), plus the
    var*Gamma(n - 1) energy orthogonal to the all-ones direction: one
    var*Gamma(n - 1/2) draw for the two together.
    """
    re_sum = n * mean + np.sqrt(n * var / 2.0) * rng.standard_normal(count)
    norm2 = re_sum**2 / n + var * rng.standard_gamma(n - 0.5, size=count)
    return norm2, re_sum


def _rician_stats(channel: Rician, sigma2, p, n, rng, with_sum):
    s = channel.sigma_h2 * p + sigma2
    if channel.mu == 0.0 and not with_sum:
        return _zero_mean_norm2(s, n, rng, len(p)), None
    amp = channel.mu * np.sqrt(p)
    norm2, re_sum = _gaussian_sums(amp, s, n, rng, len(p))
    # s = 0 (K = +inf or p = 0, noiseless) makes y = amp on every antenna;
    # give those symbols the exact energy, not (n*amp)^2/n rounded.
    norm2 = np.where(s > 0.0, norm2, n * channel.mu**2 * p)
    return norm2, re_sum if with_sum else None


def _nakagami_stats(channel: NakagamiReal, sigma2, p, n, rng, with_sum):
    # Given the channel energy G = sum_i |h_i|^2 ~ Gamma(n*m, 1/m), ||y||^2
    # depends on h only through ||h||^2 (rotational invariance of the noise),
    # so it is ||x||^2 of x_i ~ CN(sqrt(pG/n), sigma2), and exactly pG without noise.
    m = channel.m
    gain = rng.gamma(n * m, 1.0 / m, size=len(p))
    if sigma2 == 0.0:
        return p * gain, None
    if m > 1.0:
        return _gaussian_sums(np.sqrt(p * gain / n), sigma2, n, rng, len(p))[0], None
    # Per antenna E e^{theta|y|^2} = (1 - theta*A)^(-m) (1 - theta*sigma2)^(m - 1)
    # with A = sigma2 + p/m (`NakagamiReal.log_mgf`).  For m <= 1 neither power
    # is positive: the MGF of A*Gamma(m) + sigma2*Gamma(1 - m), independent.
    # Over n antennas ||y||^2 is A*Gamma(n*m) + sigma2*Gamma(n*(1 - m)), and
    # m*G is a Gamma(n*m) draw, so A*m*G = p*G + sigma2*m*G: no draw beyond G
    # at m = 1 and one Gamma below.  Written in G, it stays finite where p/m
    # overflows.  For m > 1 the noise factor has a positive power, and no
    # such split exists.
    norm2 = p * gain + sigma2 * (m * gain)
    if m < 1.0:
        norm2 += sigma2 * rng.standard_gamma(n * (1.0 - m), size=len(p))
    return norm2, None


def _antenna_pilot(channel, sigma2, dec: PilotPAM, n, nb, rng):
    """Amplitude indices and projections of the data slots of nb coherence blocks, from
    per-antenna draws of the channel, the pilot average and the data samples."""
    T, T_l = dec.coherence_slots, dec.pilot_slots
    amps = np.asarray(dec.amplitudes, dtype=float)
    h = sample_channel(channel, nb * n, rng).reshape(nb, n)
    y_bar = math.sqrt(dec.pilot_power) * h
    if T_l >= 1:
        # The pilot average over T_l slots is Gaussian with variance
        # sigma2/T_l; draw it directly.
        y_bar = y_bar + _complex_normal(rng, (nb, n), math.sqrt(sigma2 / (2.0 * T_l)))
    h_hat = dec.estimate(y_bar)  # the prior mean without pilots

    idx = rng.integers(0, len(amps), size=(nb, T - T_l))
    v = _complex_normal(rng, (nb, n, T - T_l), math.sqrt(sigma2 / 2.0))
    y = h[:, :, None] * amps[idx][:, None, :] + v
    return idx, pam_projection(h_hat, y)


def _rician_pilot(channel: Rician, sigma2, dec: PilotPAM, n, nb, rng):
    """What _antenna_pilot returns, drawn from a few sufficient statistics per block.

    The estimate is affine in the pilot average, h_hat = c + g*(a*h + v_bar),
    so per antenna (h, h_hat) is jointly complex Gaussian and
    h = alpha*h_hat + beta + e with e ~ CN(0, e_var) independent of h_hat.
    Then Re(h_hat^H h) = alpha*||h_hat||^2 + beta*Re(sum h_hat) + Re(h_hat^H e),
    the last term being N(0, ||h_hat||^2 * e_var / 2) given h_hat, and the
    data noise adds N(0, sigma2 / (2*||h_hat||^2)) to each slot's projection.

    Only what the projection reads is drawn.  A zero-mean estimate with
    beta = 0 (true and assumed mu = 0) needs ||h_hat||^2 alone, one Gamma
    draw.  With one data slot the cross term and the slot noise are
    independent Gaussians given h_hat, so the slot sent with amplitude x
    projects to x*(alpha + beta*Re(sum h_hat)/||h_hat||^2) plus one
    N(0, (x^2 * e_var + sigma2) / (2*||h_hat||^2)) draw.  The data slots of
    a longer block share the cross term, drawn once per block.
    """
    T, T_l = dec.coherence_slots, dec.pilot_slots
    amps = np.asarray(dec.amplitudes, dtype=float)
    a = math.sqrt(dec.pilot_power)
    # Without pilots the estimate is the prior mean: g = 0.
    c = dec.estimate(0.0)
    g = dec.estimate(1.0) - c
    pilot_noise = sigma2 / T_l if T_l else 0.0
    hat_mean = c + g * a * channel.mu
    hat_var = g * g * (a * a * channel.sigma_h2 + pilot_noise)
    cov = g * a * channel.sigma_h2  # Cov(h_i, h_hat_i), real
    alpha = cov / hat_var if hat_var > 0.0 else 0.0
    beta = channel.mu - alpha * hat_mean
    e_var = max(channel.sigma_h2 - alpha * cov, 0.0)

    if hat_var == 0.0:
        # A deterministic estimate: every antenna holds hat_mean.
        hat_norm2 = np.full(nb, n * hat_mean * hat_mean)
        hat_re_sum = np.full(nb, n * hat_mean)
    elif hat_mean == 0.0 and beta == 0.0:
        # Re(sum h_hat) is never read.
        hat_norm2, hat_re_sum = _zero_mean_norm2(hat_var, n, rng, nb), 0.0
    else:
        hat_norm2, hat_re_sum = _gaussian_sums(hat_mean, hat_var, n, rng, nb)
    # A null estimate (||h_hat|| = 0) projects every slot to 0.
    live = hat_norm2 > 0.0
    safe = np.where(live, hat_norm2, 1.0)

    if T - T_l == 1:
        idx = rng.integers(0, len(amps), size=nb)
        x = amps[idx]
        gain = alpha + beta * hat_re_sum / safe if beta != 0.0 else alpha
        z = gain * x + np.sqrt((x * x * e_var + sigma2) / (2.0 * safe)) * rng.standard_normal(nb)
        return idx[:, None], np.where(live, z, 0.0)[:, None]

    cross = alpha * hat_norm2 + beta * hat_re_sum
    cross += np.sqrt(hat_norm2 * e_var / 2.0) * rng.standard_normal(nb)
    idx = rng.integers(0, len(amps), size=(nb, T - T_l))
    z = amps[idx] * (cross / safe)[:, None]
    z += np.sqrt(sigma2 / (2.0 * safe))[:, None] * rng.standard_normal((nb, T - T_l))
    return idx, np.where(live[:, None], z, 0.0)


def _sampler(channel, decoder, n: int):
    """(sampler, antenna draws per symbol) for a true channel and a decoder.

    Pilot-PAM samplers take (channel, sigma2, decoder, n, nb, rng) and return
    the sent amplitude indices and projections Re(h_hat^H y)/||h_hat||^2 of
    nb coherence blocks, each nb x (T - T_l).  The others take (channel,
    sigma2, p, n, rng, with_sum), one power level per symbol in `p`, and
    return (||y||^2, Re sum_i y_i), the sum None unless `with_sum`.  Only
    Nakagami pilot PAM and the Nakagami sum draw every antenna (n per
    symbol); the rest draw a few values per symbol whatever n is (1).
    """
    rician = isinstance(channel, Rician)
    if isinstance(decoder, PilotPAM):
        return (_rician_pilot, 1) if rician else (_antenna_pilot, n)
    if rician:
        return _rician_stats, 1
    if decoder.needs_sum:
        return _antenna_stats, n
    return _nakagami_stats, 1


def _check_block_draws(channel, decoder, n: int, name: str) -> None:
    """Refuse, on `name`, a coherence block whose antenna draws (T slots of
    `_sampler`'s draws per symbol at n antennas) do not fit in one logical block."""
    draws = decoder.coherence_slots * _sampler(channel, decoder, n)[1]
    if draws > _BLOCK_DRAWS:
        raise InputError(name, f"{name} must keep one coherence block within "
                               f"{_BLOCK_DRAWS} antenna draws, got {draws} draws")


def _run_noncoherent_block(scenario: SimScenario, sampler, rng, count: int):
    """(sent, decoded) level indices of `count` symbols."""
    dec = scenario.decoder
    levels = np.asarray(dec.levels, dtype=float)
    idx = rng.integers(0, len(levels), size=count)
    norm2, re_sum = sampler(
        scenario.true_channel, scenario.true_sigma2, levels[idx], scenario.n, rng,
        dec.needs_sum,
    )
    return idx, dec.decide(scenario.n, norm2, re_sum)


def _run_pilot_pam_block(scenario: SimScenario, sampler, rng, count: int):
    """(sent, decoded) amplitude indices of the data slots of count // T coherence blocks."""
    dec: PilotPAM = scenario.decoder
    idx, z = sampler(
        scenario.true_channel, scenario.true_sigma2, dec, scenario.n,
        count // dec.coherence_slots, rng,
    )
    return idx.ravel(), dec.decide(z).ravel()


def _squared_errors(sent, decoded, bit_errors: np.ndarray, data_slots: int) -> np.ndarray:
    """Sums of the squared symbol and Gray bit errors of each coherence block
    of `data_slots` consecutive symbols, as an int64 pair; `bit_errors` is
    `_bit_error_table(L)`.  (0, 0) with one data slot per block, where
    `_clustered_interval` reads none."""
    if data_slots == 1:
        return np.zeros(2, dtype=np.int64)
    per_symbol = np.stack([sent != decoded, bit_errors[sent, decoded]])
    return (per_symbol.reshape(2, -1, data_slots).sum(axis=2) ** 2).sum(axis=1)


def _accumulate(scenario: SimScenario, stop_bit_errors: Optional[int] = None) -> SimReport:
    """Run the scenario block by block into one L x L confusion matrix;
    optionally stop early on enough bit errors.

    Entry [i, j] counts the symbols of level i decided as level j.  The early
    stop reads the Gray bit errors off the matrix after each block, in
    block-index order, so it is as deterministic as the full run, and every
    count of the report is read off it once at the end.  Only blocks with
    more than one data slot (pilot PAM, T - T_l > 1) also sum the squared
    per-coherence-block errors that `_clustered_interval` reads.
    """
    run_block = (
        _run_pilot_pam_block if isinstance(scenario.decoder, PilotPAM) else _run_noncoherent_block
    )
    coherence = scenario.decoder.coherence_slots
    data_slots = coherence - scenario.decoder.pilot_slots
    L = scenario.L
    bit_errors = _bit_error_table(L)
    sampler, draws = _sampler(scenario.true_channel, scenario.decoder, scenario.n)

    # Blocks and the budget are whole coherence blocks, so every count is too.
    per_block = _symbols_per_block(draws, coherence)
    total = (scenario.symbols // coherence) * coherence

    confusion = np.zeros((L, L), dtype=np.int64)
    squares = np.zeros(2, dtype=np.int64)
    consumed = block_index = 0
    while consumed < total:
        count = min(per_block, total - consumed)
        rng = _block_generator(scenario.seed, block_index)
        sent, decoded = run_block(scenario, sampler, rng, count)
        confusion += np.bincount(sent * L + decoded, minlength=L * L).reshape(L, L)
        squares += _squared_errors(sent, decoded, bit_errors, data_slots)
        consumed += count
        block_index += 1
        if stop_bit_errors is not None and np.vdot(confusion, bit_errors) >= stop_bit_errors:
            break
    tx = confusion.sum(axis=1)
    err = tx - np.diag(confusion)
    symbols, sym_err, bit_err = int(tx.sum()), int(err.sum()), int(np.vdot(confusion, bit_errors))
    blocks = symbols // data_slots
    bits = symbols * scenario.bits_per_symbol
    return SimReport(
        scheme=scenario.scheme,
        symbols=symbols,
        symbol_errors=sym_err,
        bits=bits,
        bit_errors=bit_err,
        ser=sym_err / symbols,
        ber=bit_err / bits,
        ser_ci=_clustered_interval(sym_err, symbols, int(squares[0]), blocks),
        ber_ci=_clustered_interval(bit_err, bits, int(squares[1]), blocks),
        seed=scenario.seed,
        shards=scenario.shards,
        tx_counts=tuple(int(c) for c in tx),
        err_counts=tuple(int(c) for c in err),
    )


def _clustered_interval(errors: int, trials: int, errors_sq: int, blocks: int):
    """Wilson interval for errors spread over `blocks` equal coherence blocks.

    The data slots of one coherence block share the channel and its estimate,
    so their errors are correlated.  The interval is widened by the Kish
    design effect deff = (variance of the per-block error counts) /
    (binomial variance of a block), i.e. computed on trials/deff effective
    trials.  `errors_sq` is the sum of the squared per-block counts, left 0
    when a block has one data slot.  Then, and with fewer than two blocks or
    a spread no wider than the binomial one, the plain interval is returned.
    """
    if errors_sq == 0 or blocks < 2 or errors in (0, trials):
        return wilson_interval(errors, trials)
    p_hat = errors / trials
    binomial = (trials / blocks) * p_hat * (1.0 - p_hat)
    spread = (errors_sq - errors * errors / blocks) / (blocks - 1)
    deff = spread / binomial
    if deff <= 1.0:
        return wilson_interval(errors, trials)
    return wilson_interval(errors / deff, trials / deff)


def simulate(scenario: SimScenario) -> SimReport:
    """Estimate SER/BER for the scenario with full-budget deterministic sampling."""
    return _accumulate(scenario)


NOT_REACHED = None


def min_antennas(
    scenario_template: SimScenario,
    target_ber: float,
    n_max: int,
) -> Optional[int]:
    """Smallest antenna count whose Wilson upper BER bound beats the target.

    Each candidate n simulates until _MIN_BIT_ERRORS bit errors are seen or the
    template's symbol budget runs out, and qualifies when its Wilson upper BER
    bound is below the target.  The error rate falls like exp(-n*t*), so
    log(upper / target) is close to linear in n, and `_aimed_search` aims its
    candidates at its root.  Where the search starts depends on the receiver.
    One that decides by intervals of ||y||^2 / n (its `thresholds`: energy
    regions, and noncoherent or ASK-ML at assumed mu = 0) on a noisy template
    starts at the smallest n whose verdict the saddle-point BER predicts to
    qualify (`_aim`), and walks from there.  Every other receiver (pilot PAM,
    noncoherent ML at mu != 0) starts at n = 1.  The verdict rule is the same
    for both, so the answer n qualifies and n - 1 does not (or n = 1): under
    the usual monotone-BER assumption, the count a bisection finds.  Returns
    None when even n_max fails.  Each candidate (n, symbols,
    bit errors, upper bound, verdict) and the search's totals are logged at
    DEBUG level on the `simo_energy` logger.
    """
    target_ber = check_number(target_ber, "target_ber", *TARGET_BER_RANGE)
    n_max = check_number(n_max, "n_max", *ANTENNA_RANGE, whole=True)
    _check_block_draws(scenario_template.true_channel, scenario_template.decoder, n_max, "n_max")
    spent = []  # symbols simulated per candidate

    def log_ratio(n: int) -> float:
        report = _accumulate(_with_antennas(scenario_template, n), _MIN_BIT_ERRORS)
        spent.append(report.symbols)
        upper = report.ber_ci[1]
        _log.debug(
            "min_antennas candidate n=%d: %d symbols, %d bit errors, BER upper %.6g, %s",
            n, report.symbols, report.bit_errors, upper,
            "qualifies" if upper < target_ber else "fails",
        )
        return math.log(upper / target_ber)

    n_star = _aimed_search(log_ratio, n_max, _aim(scenario_template, target_ber, n_max))
    _log.debug(
        "min_antennas: %d candidates, %d symbols, n* = %s", len(spent), sum(spent), n_star
    )
    return n_star


def _aim(template: SimScenario, target_ber: float, n_max: int) -> Optional[int]:
    """First candidate of a search whose receiver decides by intervals of ||y||^2 / n.

    The Gray BER at n is read off `rates.interval_decision_probabilities`
    with `_bit_error_table`.  The predicted verdict is the Wilson upper bound
    at the symbol count where the candidate is expected to stop: enough
    symbols for _MIN_BIT_ERRORS bit errors, rounded up to whole blocks and
    capped at the template's budget.  Returns the smallest n in [1, n_max]
    whose predicted verdict qualifies, found by the search that `min_antennas`
    runs from n = 1, n_max when none does, and None for a receiver without
    `thresholds` or a noiseless template.
    """
    decoder = template.decoder
    if decoder.thresholds is None or template.true_sigma2 == 0.0:
        return None
    probabilities = interval_decision_probabilities(
        decoder.levels, decoder.thresholds, template.true_channel, template.true_sigma2
    )
    bits = template.bits_per_symbol
    weights = (_bit_error_table(template.L) / (template.L * bits)).ravel().tolist()
    sampler_draws = _sampler(template.true_channel, decoder, 1)[1]
    per_block = _symbols_per_block(sampler_draws, decoder.coherence_slots)
    total = template.symbols

    def log_ratio(n: int) -> float:
        ber = max(sum(map(operator.mul, chain.from_iterable(probabilities(n)), weights)), 0.0)
        needed = _MIN_BIT_ERRORS / (ber * bits) if ber > 0.0 else math.inf
        symbols = total
        if needed < total:
            symbols = min(total, per_block * math.ceil(needed / per_block))
        return math.log(wilson_interval(ber * symbols * bits, symbols * bits)[1] / target_ber)

    n = _aimed_search(log_ratio, n_max)
    return n_max if n is None else n


def _aimed_search(f, n_max: int, start: Optional[int] = None) -> Optional[int]:
    """Smallest n in [1, n_max] with f(n) < 0, for f nonincreasing, evaluated
    once per candidate.

    Bracket phase from an aimed `start`: walk from it toward the answer, down
    while candidates qualify and up while they fail, in steps of 1, 1, 2, 4,
    ... antennas (clamped to [1, n_max]), until a candidate crosses over.
    Without a start, from n = 1: each step aims a secant through the last two
    candidates at the root, rounded up, and at most 4 times the last
    candidate and n_max; from n = 1, or when f did not fall, it takes the
    full 4 times.  Steps that grow n by less than half must add at least 1,
    1, 2, 4, ... antennas (`gap`, rounded up, doubles with each), so a
    hopeless search ends in O(log n_max) candidates, while a secant that
    lands one short of the root may still take the next count.  Once a
    candidate qualifies and one below it fails (or it is n = 1), each step
    is regula falsi between the largest failing lo and the smallest
    qualifying hi, rounded up and kept within [lo + 1, hi - 1], until a step
    fails to halve the bracket; bisection takes over from then on.  Returns
    hi once hi = lo + 1 (or hi = 1), and None when n_max fails.
    """
    bracket = _secant_bracket(f, n_max) if start is None else _walk_bracket(f, n_max, start)
    if bracket is None:
        return NOT_REACHED
    (lo, f_lo), (hi, f_hi) = bracket
    interpolate = True
    while hi - lo > 1:
        width = hi - lo
        if interpolate:
            n = min(max(math.ceil(lo + width * f_lo / (f_lo - f_hi)), lo + 1), hi - 1)
        else:
            n = (lo + hi) // 2
        if (f_n := f(n)) < 0.0:
            hi, f_hi = n, f_n
        else:
            lo, f_lo = n, f_n
        interpolate = interpolate and 2 * (hi - lo) <= width
    return hi


def _secant_bracket(f, n_max: int):
    """((lo, f(lo)), (hi, f(hi))) from n = 1 by secant steps, lo = 0 when n = 1
    qualifies; None when n_max fails."""
    n, prev, gap = 1, None, 0.5
    while (f_n := f(n)) >= 0.0:
        if n >= n_max:
            return None
        guess = math.inf
        if prev is not None and f_n < prev[1]:
            guess = n + f_n * (n - prev[0]) / (prev[1] - f_n)
        prev = (n, f_n)
        step = min(math.ceil(min(max(guess, n + gap), 4 * n)), n_max)
        if step < 1.5 * n:
            gap *= 2
        n = step
    return prev or (0, 0.0), (n, f_n)


def _walk_bracket(f, n_max: int, start: int):
    """((lo, f(lo)), (hi, f(hi))) by walking from `start`, lo = 0 when n = 1
    qualifies; None when n_max fails."""
    last = (start, f(start))
    down = last[1] < 0.0
    step, steps = 1, 0
    while True:
        if down and last[0] == 1:
            return (0, 0.0), last
        if not down and last[0] >= n_max:
            return None
        n = max(last[0] - step, 1) if down else min(last[0] + step, n_max)
        f_n = f(n)
        if (f_n < 0.0) != down:
            return ((n, f_n), last) if down else (last, (n, f_n))
        last, steps = (n, f_n), steps + 1
        if steps >= 2:
            step *= 2


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
    check_number(n, "n", *ANTENNA_RANGE, whole=True)
    check_number(bins, "bins", *BINS_RANGE, whole=True)
    check_number(trials, "trials", *TRIALS_RANGE, whole=True)
    check_number(seed, "seed", *SEED_RANGE, whole=True)
    decoder = EnergyRegions(constellation)
    levels = constellation.levels
    r_pts = [p + sigma2 for p in levels]
    spread = math.sqrt(u_second_moment(channel, sigma2, levels[-1]) / n)
    hi = max(r_pts[-1] + 6.0 * spread, constellation.boundaries[-1] * 1.05)
    edges = np.linspace(0.0, hi, bins + 1)

    # The decoder only selects the ||y||^2 sampler of `channel`; it decides nothing.
    sampler, _ = _sampler(channel, decoder, n)
    counts, means, variances, outside = [], [], [], []
    for k, p in enumerate(levels):
        rng = _block_generator(seed, k)
        norm2, _ = sampler(channel, sigma2, np.full(trials, p), n, rng, False)
        stat = norm2 / n
        c, _ = np.histogram(stat, bins=edges)
        counts.append(tuple(int(x) for x in c))
        means.append(float(stat.mean()))
        variances.append(float(stat.var(ddof=1)))
        outside.append(float(1.0 - np.mean(region_index(constellation.boundaries, stat) == k)))
    return StatHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(counts),
        boundaries=constellation.boundaries,
        receiver_points=tuple(r_pts),
        means=tuple(means),
        variances=tuple(variances),
        outside_fraction=tuple(outside),
    )
