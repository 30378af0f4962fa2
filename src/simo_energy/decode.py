"""Receivers: interval energy decoder, noncoherent ML, energy-domain ML for ASK,
and the pilot-based MMSE + coherent PAM pipeline.

Every decoder is parameterized by the statistics it *assumes*; those may
differ from the statistics the data was actually drawn from, which is how
mismatch studies are run.  All tie-breaks go to the smaller index so that
decoding is deterministic.

Each decision rule is written once, vectorised over symbols: region_index,
the likelihoods noncoherent_nll and energy_ml_logpdf, pam_projection
followed by nearest_amplitude_index, and ml_threshold_boundaries for the
zero-mean ML regions.  region_index is the one interval search of every
threshold receiver: the energy regions, the zero-mean ML crossings and the
PAM midpoints of nearest_amplitude_index all go through it.  It is a branch-free
binary search, k = ceil(log2 L) vectorised gather-and-compare passes over
the boundaries padded with +inf, and decides exactly as
np.searchsorted(boundaries, stat, side="left").

The decoder objects are the one way a receiver is applied:
EnergyRegions, NoncoherentML and EnergyMLAsk decide a level from
(||y||^2, Re sum_i y_i) with the one `decide` of their base class, an
interval search over their `thresholds` when they have them and their own
likelihood rule otherwise; PilotPAM estimates the channel from
the pilot average (`estimate`) and decides an amplitude from the projection
Re(h_hat^H y) / ||h_hat||^2 alone (`decide`), so a simulator that draws the
projection directly needs no channel estimate.

When the assumed mean mu is 0, both likelihoods depend on ||y||^2 alone and
their ML regions are intervals of ||y||^2 / n whose boundaries are where
adjacent levels' likelihoods cross: a*b*log(b/a)/(b - a) for adjacent
assumed variances a < b, finite at every accepted assumed noise power,
subnormal ones included.  NoncoherentML and EnergyMLAsk then decide with one
interval search (region_index) and need no Re sum_i y_i.  For mu != 0 they
evaluate the likelihood of every level: NoncoherentML takes the argmin of
noncoherent_nll and EnergyMLAsk the argmax of energy_ml_logpdf.  At mu = 0
those two functions are the reference the interval route is tested against.
A receiver's `thresholds` are the interval boundaries it decides by (the
regions of EnergyRegions, or these crossings, computed once per receiver),
or None; `decide` and `montecarlo.min_antennas` both read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ive
from scipy.stats import chi2

from .channel import InputError, check_number
from .rates import Constellation, check_levels

# Most antenna samples that the simulator draws in one logical block of its
# random stream.  One coherence block's draws must fit in one logical block,
# so no receiver takes more antennas than this.
_BLOCK_DRAWS = 1 << 18
ANTENNA_RANGE = (1, _BLOCK_DRAWS)  # antenna counts, as the (lo, hi) of check_number


def _keep(receiver, **checked) -> None:
    """Store the checked values of a frozen receiver in place of its inputs,
    and what it derives from them."""
    for name, value in checked.items():
        object.__setattr__(receiver, name, value)


class _NoncoherentReceiver:
    """Fresh channel every slot, no pilots, a decision among power levels from
    (||y||^2, Re sum_i y_i) over n antennas; `needs_sum` says if it reads the sum.
    `thresholds` are the L - 1 boundaries of the intervals of ||y||^2 / n that
    it decides by, as region_index reads them, or None when it decides by
    its `_likelihood_index` instead."""

    coherence_slots = 1
    pilot_slots = 0
    needs_sum = False

    @property
    def L(self) -> int:
        return len(self.levels)

    def decide(self, n: int, norm2, re_sum) -> np.ndarray:
        if self.thresholds is not None:
            return region_index(self.thresholds, norm2 / n)
        return self._likelihood_index(n, norm2, re_sum)


@dataclass(frozen=True)
class _LikelihoodReceiver(_NoncoherentReceiver):
    """ML decision under assumed (mu, sigma_h2, sigma2).  With mu = 0 the
    likelihood reads ||y||^2 alone and the ML regions are intervals of
    ||y||^2 / n at the closed-form crossings; otherwise `_likelihood_index`
    compares every level's likelihood.  mu is finite and sigma_h2 finite, and
    positive at mu = 0, where every level would otherwise be equally likely.
    The crossings are computed once, at construction, so levels whose
    assumed variances they cannot tell apart are refused there."""

    levels: tuple
    mu: float
    sigma_h2: float
    sigma2: float

    def __post_init__(self):
        levels, sigma2 = check_levels(self.levels, self.sigma2)
        mu = check_number(self.mu, "mu", -math.inf, math.inf, "()")
        sigma_h2 = check_number(self.sigma_h2, "sigma_h2", 0, math.inf, "()" if mu == 0 else "[)")
        thresholds = _ml_crossings(levels, sigma_h2, sigma2) if mu == 0.0 else None
        _keep(self, levels=levels, mu=mu, sigma_h2=sigma_h2, sigma2=sigma2, thresholds=thresholds)


@dataclass(frozen=True)
class EnergyRegions(_NoncoherentReceiver):
    """Interval decoder over the energy statistic, the one receiver that needs
    decoding regions: it refuses a constellation without them."""

    constellation: Constellation
    scheme = "energy"

    def __post_init__(self):
        if self.constellation.boundaries is None:
            message = "constellation has no decoding regions for energy-region decoding"
            raise InputError("constellation", message)

    @property
    def levels(self) -> tuple:
        return self.constellation.levels

    @property
    def thresholds(self) -> tuple:
        return self.constellation.boundaries


@dataclass(frozen=True)
class NoncoherentML(_LikelihoodReceiver):
    """Gaussian-likelihood decoder using assumed (mu, sigma_h2, sigma2)."""

    scheme = "noncoherent_ml"

    @property
    def needs_sum(self) -> bool:
        return self.mu != 0.0

    def _likelihood_index(self, n, norm2, re_sum):
        nll = noncoherent_nll(self.levels, self.mu, self.sigma_h2, self.sigma2, n, norm2, re_sum)
        return np.argmin(nll, axis=1)


@dataclass(frozen=True)
class EnergyMLAsk(_LikelihoodReceiver):
    """Exact likelihood of the energy statistic itself, for a fixed antenna count."""

    n: int
    scheme = "ask_energy_ml"

    def __post_init__(self):
        super().__post_init__()
        check_number(self.n, "n", *ANTENNA_RANGE, whole=True)

    def _likelihood_index(self, n, norm2, re_sum):
        logpdf = energy_ml_logpdf(norm2 / n, n, self.levels, self.mu, self.sigma_h2, self.sigma2)
        return np.argmax(logpdf, axis=1)


@dataclass(frozen=True)
class PilotPAM:
    """MMSE channel estimation from pilots followed by coherent PAM detection.

    pilot_slots = 0 means no training: the channel estimate falls back to the
    prior mean mu, which is the zero-pilot MMSE estimate.
    """

    amplitudes: tuple
    mu: float
    sigma_h2: float
    sigma2: float
    coherence_slots: int
    pilot_slots: int
    pilot_power: float = 1.0
    scheme = "pilot_pam"
    thresholds = None  # it decides on the projection, not on ||y||^2 / n

    def __post_init__(self):
        amplitudes, sigma2 = check_levels(
            self.amplitudes, self.sigma2, name="amplitudes", signed=True
        )
        mu = check_number(self.mu, "mu", -math.inf, math.inf, "()")
        sigma_h2 = check_number(self.sigma_h2, "sigma_h2", 0, math.inf, "[)")
        _keep(self, amplitudes=amplitudes, mu=mu, sigma_h2=sigma_h2, sigma2=sigma2)
        check_number(self.coherence_slots, "coherence_slots", 1, math.inf, whole=True)
        # At least one slot of each coherence block carries data.
        check_number(self.pilot_slots, "pilot_slots", 0, self.coherence_slots, "[)", whole=True)
        check_number(self.pilot_power, "pilot_power", 0, math.inf, "[)")

    @property
    def L(self) -> int:
        return len(self.amplitudes)

    def estimate(self, y_bar) -> np.ndarray:
        """MMSE channel estimate mu + g*(y_bar - mu*a) from the average y_bar of the
        pilots, sent with amplitude a = sqrt(pilot_power), with gain
        g = sigma_h2*a / (sigma_h2*a^2 + sigma2/T_l); without pilots, mu."""
        if self.pilot_slots == 0:
            return np.full(np.shape(y_bar), self.mu, dtype=np.result_type(y_bar, float))
        a = math.sqrt(self.pilot_power)
        gain = self.sigma_h2 * a / (self.sigma_h2 * a**2 + self.sigma2 / self.pilot_slots)
        return self.mu + gain * (y_bar - self.mu * a)

    def decide(self, z) -> np.ndarray:
        """Amplitude index of each projection z = Re(h_hat^H y) / ||h_hat||^2."""
        return nearest_amplitude_index(self.amplitudes, z)


def region_index(boundaries, stat) -> np.ndarray:
    """Index of the region containing each statistic; boundaries belong to the lower region.

    A binary search run level by level over all statistics at once.  The
    boundaries are padded with +inf to 2^k - 1 entries, and each of the k
    passes moves every index right by the pass's step where the statistic
    exceeds the boundary it faces.  The test is not(stat <= b), so a NaN
    statistic moves right at every pass; the final clamp to len(boundaries)
    then gives exactly np.searchsorted(boundaries, stat, side="left"), which
    is slower here because each unsorted statistic costs it a branchy search.
    """
    stat = np.asarray(stat)
    count = len(boundaries)
    depth = max(count.bit_length(), 1)
    padded = np.full((1 << depth) - 1, np.inf)
    padded[:count] = boundaries
    step = 1 << (depth - 1)
    index = ~(stat <= padded[step - 1]) * step
    while step > 1:
        step >>= 1
        index += ~(stat <= padded[step - 1:].take(index)) * step
    return np.minimum(index, count)


def noncoherent_nll(
    levels: np.ndarray,
    mu: float,
    sigma_h2: float,
    sigma2: float,
    n: int,
    norm2: np.ndarray,
    re_sum: np.ndarray,
) -> np.ndarray:
    """Negative log-likelihood matrix (draws x levels) from the two sufficient sums.

    norm2 is ||y||^2 and re_sum is Re(sum_i y_i) per draw; the transmit
    convention is x = sqrt(p) with nonnegative real amplitude.
    """
    levels = np.asarray(levels, dtype=float)
    s2 = sigma2 + sigma_h2 * levels
    amp = mu * np.sqrt(levels)
    norm2 = np.atleast_1d(norm2)[:, None]
    re_sum = np.atleast_1d(re_sum)[:, None]
    dist2 = norm2 - 2.0 * amp * re_sum + n * amp**2
    return dist2 / s2 + n * np.log(s2)


_LOG_TINY = math.log(np.finfo(float).tiny)  # below this ive is subnormal or zero

# Debye's polynomials u_k(p) = p^k * P_k(p^2) for k = 1..4, as coefficients
# of P_k in increasing powers of p^2 over a common denominator.
_DEBYE_TERMS = (
    ((3, -5), 24),
    ((81, -462, 385), 1152),
    ((30375, -369603, 765765, -425425), 414720),
    ((4465125, -94121676, 349922430, -446185740, 185910725), 39813120),
)


def _log_ive(nu: float, z: np.ndarray) -> np.ndarray:
    """log(I_nu(z) * exp(-z)) for nu >= 0 and z >= 0.

    scipy's ive covers most of the plane, but it returns NaN once z passes
    about 2**30 and underflows where nu is large and z small.  There the
    Debye uniform expansion takes over: with r = sqrt(nu^2 + z^2) and
    q = (nu/r)^2,

        I_nu(z) ~ exp(r) (z/(nu + r))^nu / sqrt(2 pi r) * (1 + sum_k P_k(q) / r^k).

    The leading term alone is off by about 1/(8r) relative, which is 7e-4
    where ive first underflows (nu near 120); with the four correction
    terms the error there is at rounding level, under 1e-12 absolute
    against 50-digit mpmath.  r - z is written as nu^2/(r + z), free of
    cancellation.
    """
    with np.errstate(divide="ignore", under="ignore"):
        out = np.log(ive(nu, z))
    debye = ~(out > _LOG_TINY)
    zd = z[debye]
    r = np.hypot(nu, zd)
    q = (nu / r) ** 2
    series = np.ones_like(r)
    for k, (coefs, denom) in enumerate(_DEBYE_TERMS, start=1):
        series += np.polynomial.polynomial.polyval(q, coefs) / denom / r**k
    with np.errstate(divide="ignore"):
        out[debye] = (
            nu * nu / (r + zd) + nu * np.log(zd / (nu + r))
            - 0.5 * np.log(2.0 * np.pi * r) + np.log(series)
        )
    return out


def _ncx2_logpdf(x: np.ndarray, df: int, nc: float) -> np.ndarray:
    """Noncentral chi-square log-density, finite at any noncentrality.

    With nu = df/2 - 1 the density is
    exp(-(x + nc)/2) * (x/nc)^(nu/2) * I_nu(sqrt(nc*x)) / 2, and
    I_nu(z) = exp(z) * ive(nu, z) turns the exponent into -d^2/2 with
    d = sqrt(x) - sqrt(nc), computed as (x - nc)/(sqrt(x) + sqrt(nc)).
    """
    nu = 0.5 * df - 1.0
    d = (x - nc) / (np.sqrt(x) + math.sqrt(nc))
    out = -0.5 * d * d - math.log(2.0)
    out += _log_ive(nu, np.sqrt(nc * x))
    if nu > 0.0:
        with np.errstate(divide="ignore"):
            out += 0.5 * nu * np.log(x / nc)
    return out


def energy_ml_logpdf(
    stat: np.ndarray,
    n: int,
    levels: np.ndarray,
    mu: float,
    sigma_h2: float,
    sigma2: float,
) -> np.ndarray:
    """Exact log-density matrix (draws x levels) of the energy statistic.

    Conditioned on level p the scaled statistic 2n*stat/s^2 with
    s^2 = sigma_h2*p + sigma2 is noncentral chi-square with 2n degrees of
    freedom and noncentrality 2n*mu^2*p/s^2 (central when mu^2*p = 0).  The
    noncentral density is evaluated in log space, so it stays finite when a
    receiver assumes tiny noise and the noncentrality is huge.
    """
    levels = np.asarray(levels, dtype=float)
    stat = np.atleast_1d(np.asarray(stat, dtype=float))
    s2 = sigma_h2 * levels + sigma2
    w = 2.0 * n * stat[:, None] / s2
    out = np.empty_like(w)
    for j, p in enumerate(levels):
        nc = 2.0 * n * mu * mu * p / s2[j]
        if nc > 0.0:
            out[:, j] = _ncx2_logpdf(w[:, j], 2 * n, nc)
        else:
            out[:, j] = chi2.logpdf(w[:, j], 2 * n)
        out[:, j] += math.log(2.0 * n / s2[j])
    return out


def pam_projection(h_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Decision variables Re(h_hat^H y) / ||h_hat||^2, 0 where the estimate is null.

    h_hat is (..., n) and y is (..., n, k); the result is (..., k).
    """
    g = np.sum(np.abs(h_hat) ** 2, axis=-1)
    z = np.sum(np.conj(h_hat)[..., None] * y, axis=-2).real
    safe = g > 0.0
    return np.where(safe[..., None], z / np.where(safe, g, 1.0)[..., None], 0.0)


def nearest_amplitude_index(amplitudes: np.ndarray, z) -> np.ndarray:
    """Index of the closest amplitude; midpoints resolve to the smaller amplitude."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    midpoints = 0.5 * (amplitudes[:-1] + amplitudes[1:])
    return region_index(midpoints, z)


def gray_code(index: int) -> int:
    """Binary reflected Gray code of `index`, the bit label of symbol `index`."""
    return index ^ (index >> 1)


def ml_threshold_boundaries(
    levels: Sequence[float], sigma_h2: float, sigma2: float
) -> Constellation:
    """Decoding regions whose boundaries are the zero-mean likelihood crossings.

    For mu = 0 the noncoherent likelihood depends on the statistic alone, and
    adjacent levels' log-likelihoods cross at a*b*log(b/a)/(b - a) for their
    variances a < b (`_ml_crossings`); interval decoding with these
    boundaries reproduces the ML decisions exactly.  Only sigma_h2 = 1
    is accepted: the regions' receiver points p + sigma2 are the mean
    statistic at that variance alone.  Each region must enclose its
    receiver point, so adjacent variances with no float strictly between
    them for their crossing (1.0 and 1.0000000000000002, levels 0 and
    2.2e-16 at sigma2 = 1) are refused on `levels`, though NoncoherentML
    decides correctly at the rounded crossing.
    """
    check_number(sigma_h2, "sigma_h2", 1, 1)
    levels, sigma2 = check_levels(levels, sigma2)
    crossings = _ml_crossings(levels, sigma_h2, sigma2)
    for p, q, c in zip(levels, levels[1:], crossings):
        if not p + sigma2 < c < q + sigma2:
            raise InputError(
                "levels", f"levels must leave a float strictly between adjacent assumed "
                          f"variances for their crossing, got {c!r} at levels {p!r} and {q!r}"
            )
    return Constellation(levels, sigma2, crossings)


def _ml_crossings(levels, sigma_h2: float, sigma2: float) -> tuple:
    """Where adjacent levels' zero-mean likelihoods cross, on the ||y||^2 / n axis.

    The variances s2_k = sigma_h2 * p_k + sigma2 increase with k, so the
    crossings increase too and every level owns one interval.  Adjacent
    variances a < b cross at a*b*log(b/a)/(b - a), written b*(log1p(r)/r)
    with r = (b - a)/a, which cancels nowhere however close a and b are;
    where r overflows (a tiny against b), a*((log b - log a)*(b/(b - a))).
    Both are finite at every accepted noise power, subnormal ones included.
    Strictly increasing levels may still round to equal variances (levels 0
    and 1e-300 at sigma2 = 0.1); such levels have no crossing, and
    InputError names `levels`, as it does when the largest variance
    overflows.
    """
    s2 = [sigma_h2 * float(p) + sigma2 for p in levels]
    if not s2[-1] < math.inf:
        raise InputError("levels", f"levels must give finite assumed variances sigma_h2 * p "
                                   f"+ sigma2, got {s2[-1]!r} at level {levels[-1]!r}")
    crossings = []
    for p, q, a, b in zip(levels, levels[1:], s2, s2[1:]):
        if not a < b:
            raise InputError(
                "levels", f"levels must give strictly increasing assumed variances "
                          f"sigma_h2 * p + sigma2, got {a!r} and {b!r} at levels {p!r} and {q!r}"
            )
        r = (b - a) / a
        if r < math.inf:
            crossings.append(b * (math.log1p(r) / r))
        else:
            crossings.append(a * ((math.log(b) - math.log(a)) * (b / (b - a))))
    return tuple(crossings)
