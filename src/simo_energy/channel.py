"""Fading-channel statistics, samplers, and the received-energy log-MGF.

The physical model is a single-antenna transmitter sending a nonnegative
real symbol sqrt(p) through i.i.d. per-antenna fading h with additive
circularly-symmetric complex Gaussian noise of power sigma2.  Everything
downstream (rate functions, constellation design, simulation) consumes the
per-antenna energy fluctuation

    U = |h*sqrt(p) + v|^2 - (p + sigma2),

so this module provides its moments, its log moment generating function
Lambda(theta) = log E[exp(theta*U)] and the saddle point theta*(v) solving
Lambda'(theta) = v.  Each fading family is a frozen dataclass that owns its
closed forms as methods: `alpha1`, `sample`, `theta_max`, `log_mgf`, its
curvature Lambda''(theta) `log_mgf_curvature`, and `saddle_point`.  Under
Rician fading |h*sqrt(p) + v|^2 is a scaled noncentral chi-square, and a
Nakagami amplitude makes |h|^2 Gamma distributed.  In either case
Lambda'(theta) = v reduces to a quadratic, so the rate layer built on top is
family-agnostic.  The module-level `alpha1` and `sample_channel` delegate to
the family's method; `log_mgf_energy` and `u_second_moment` check their
inputs first, by `check_number`, the library's one input rule, whose one
refusal is `InputError`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln


class InputError(ValueError):
    """A refused input; `field` is the name of the parameter, which starts the message."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_number(value, name: str, lo, hi, ends: str = "[]", *, whole: bool = False):
    """A numeric input as an int (`whole`) or a float, once it is checked.

    It must be a Python or NumPy integer (`whole`) or real, never a bool, and
    lie between lo and hi, each end closed or open as the bracket in `ends`
    says.  NaN lies in no range, and an infinity only in one closed at it.
    Anything else raises InputError(name, "<name> must be ..., got <value!r>").
    The rate layer, which checks on every evaluation, tests the same ranges
    by chained comparisons and calls this only to raise; those comparisons
    take a bool as the number 0 or 1.
    """
    if whole:
        kind, cast, types = "a whole number", int, numbers.Integral
    else:
        kind, cast, types = "a number", float, numbers.Real
    if isinstance(value, types) and not isinstance(value, bool):
        x = cast(value)
        if (lo <= x if ends[0] == "[" else lo < x) and (x <= hi if ends[1] == "]" else x < hi):
            return x
    bounds = f"{ends[0]}{lo}, {hi}{ends[1]}"
    raise InputError(name, f"{name} must be {kind} in {bounds}, got {value!r}")


class DivergentMgfError(InputError):
    """Raised when the energy MGF is evaluated at or beyond its domain boundary."""

    def __init__(self, theta: float, theta_max: float):
        message = f"theta must lie below the MGF's domain boundary {theta_max!r}, got {theta!r}"
        super().__init__("theta", message)
        self.theta = theta
        self.theta_max = theta_max


def sigma_from_snr(gamma_db: float) -> float:
    """Noise power for a per-antenna SNR in dB (unit channel second moment); positive and finite."""
    gamma_db = check_number(gamma_db, "gamma_db", -math.inf, math.inf, "()")
    try:
        sigma2 = 10.0 ** (-gamma_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not (0.0 < sigma2 < math.inf):
        message = f"gamma_db {gamma_db!r} dB gives noise power {sigma2!r}, not in (0, inf)"
        raise InputError("gamma_db", message)
    return sigma2


# Largest finite |K| in dB, where K and the matching Nakagami shape stay normal floats.
_MAX_ABS_K_DB = 3000.0


@dataclass(frozen=True)
class Rician:
    """Rician fading h ~ CN(mu, sigma_h^2) with E|h|^2 = 1.

    The K-factor is given in dB; K_db = -inf is Rayleigh and K_db = +inf is a
    deterministic unit line-of-sight channel; a finite K_db lies in [-3000, 3000].
    |h*sqrt(p) + v|^2 is s/2 times a noncentral chi-square with two
    degrees of freedom, s = sigma_h^2*p + sigma2, and noncentrality 2*mu^2*p/s.
    """

    K_db: float

    def __post_init__(self):
        k_db = check_number(self.K_db, "K_db", -math.inf, math.inf)
        if not (math.isinf(k_db) or abs(k_db) <= _MAX_ABS_K_DB):
            raise InputError("K_db", f"K_db must be infinite or in [-3000, 3000] dB, got {k_db!r}")

    # Derived once per spec: the rate layer reads them in every evaluation.
    @cached_property
    def k_lin(self) -> float:
        return 10.0 ** (self.K_db / 10.0)

    @cached_property
    def mu(self) -> float:
        k = self.k_lin
        if math.isinf(k):
            return 1.0
        return math.sqrt(k / (k + 1.0))

    @cached_property
    def sigma_h2(self) -> float:
        return 1.0 / (self.k_lin + 1.0)

    @cached_property
    def alpha1(self) -> float:
        k = self.k_lin
        if math.isinf(k):
            return 0.0
        try:
            return (1.0 + 2.0 * k) / (1.0 + k) ** 2
        except OverflowError:
            # (1 + k)^2 overflows from k = 1.34e154 on, where 2/k is the value to rounding.
            return 2.0 / k

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.sigma_h2 == 0.0:
            return np.full(count, self.mu, dtype=np.complex128)
        scale = math.sqrt(self.sigma_h2 / 2.0)
        g = rng.standard_normal((count, 2))
        return self.mu + scale * (g[:, 0] + 1j * g[:, 1])

    def theta_max(self, sigma2: float, p: float) -> float:
        return 1.0 / (self.sigma_h2 * p + sigma2)

    def log_mgf(self, sigma2: float, p: float, theta: float) -> float:
        s2 = self.sigma_h2 * p + sigma2
        q = 1.0 - theta * s2
        if q <= 0.0:
            raise DivergentMgfError(theta, 1.0 / s2)
        lam = self.mu**2 * p
        return -theta * (p + sigma2) + theta * lam / q - math.log(q)

    def log_mgf_curvature(self, sigma2: float, p: float, theta: float) -> float:
        # Lambda'' = 2*lam*s/q^3 + s^2/q^2 with q = 1 - theta*s, inside the domain q > 0.
        s2 = self.sigma_h2 * p + sigma2
        q = 1.0 - theta * s2
        return (2.0 * self.mu**2 * p / q + s2) * s2 / (q * q)

    def saddle_point(self, sigma2: float, p: float, v: float) -> float:
        # With q = 1 - theta*s and x = 1/q the equation is
        # lam*x^2 + s*x - (r + v) = 0.  q is the reciprocal of its positive
        # root, written so that lam = 0 needs no special case.
        s2 = self.sigma_h2 * p + sigma2
        lam = self.mu**2 * p
        total = p + sigma2 + v
        q = (s2 + math.sqrt(s2 * s2 + 4.0 * lam * total)) / (2.0 * total)
        return (1.0 - q) / s2


# From this shape on, 1 - mu^2 would lose digits to cancellation.
_NAKAGAMI_SERIES_M = 16.0


def _log_mean_amplitude_series(m: float) -> float:
    """log(Gamma(m + 1/2) / (Gamma(m) sqrt(m))) by its asymptotic series in 1/m,
    accurate to rounding for m >= _NAKAGAMI_SERIES_M."""
    x = 1.0 / m
    x2 = x * x
    return x * (-1.0 / 8 + x2 * (1.0 / 192 + x2 * (-1.0 / 640 + x2 * (17.0 / 14336 - x2 * 31.0 / 18432))))


# Largest Nakagami shape, the largest at which mu and sigma_h2 are checked
# against mpmath.  The two log1p terms of log_mgf cancel once p << m*sigma2:
# at L = 4 and 10 dB the exact design's t* is 2.2e-4 above the m = inf value
# at m = 1e13 and 1.2 % above it at 1e15, and from 1e20 on brentq fails to
# converge.  The simulator's Gamma(n*m) draws also stay far from overflow.
_MAX_NAKAGAMI_M = 1e12


@dataclass(frozen=True)
class NakagamiReal:
    """Nonnegative real amplitude with a Nakagami(m, 1) law (E|h|^2 = 1), zero imaginary part.

    |h|^2 is Gamma(m, 1/m).  With A = sigma2 + p/m, the energy MGF is finite
    for theta < 1/A.  The shape m lies in [smallest normal float, 1e12]: from
    below, alpha1 = 1/m stays finite; above, see _MAX_NAKAGAMI_M.
    """

    m: float

    def __post_init__(self):
        check_number(self.m, "m", sys.float_info.min, _MAX_NAKAGAMI_M)

    @cached_property
    def mu(self) -> float:
        # E[A] for A^2 ~ Gamma(m, 1/m)
        if self.m < _NAKAGAMI_SERIES_M:
            return math.exp(gammaln(self.m + 0.5) - gammaln(self.m)) * math.sqrt(1.0 / self.m)
        return math.exp(_log_mean_amplitude_series(self.m))

    @cached_property
    def sigma_h2(self) -> float:
        if self.m < _NAKAGAMI_SERIES_M:
            return 1.0 - self.mu**2
        return -math.expm1(2.0 * _log_mean_amplitude_series(self.m))

    @cached_property
    def alpha1(self) -> float:
        return 1.0 / self.m

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        power = rng.gamma(shape=self.m, scale=1.0 / self.m, size=count)
        return np.sqrt(power).astype(np.complex128)

    def theta_max(self, sigma2: float, p: float) -> float:
        return self.m / (p + self.m * sigma2)

    def log_mgf(self, sigma2: float, p: float, theta: float) -> float:
        # Conditional on G = |h|^2, |y|^2 is noncentral exponential, so
        # E[e^{theta|y|^2}] = E[e^{cG}] / (1 - theta*sigma2) with
        # c = theta*p/(1 - theta*sigma2), and G ~ Gamma(m, 1/m) gives
        # E[e^{cG}] = (1 - c/m)^(-m) = ((1 - theta*A)/(1 - theta*sigma2))^(-m).
        m = self.m
        a = sigma2 + p / m
        if theta * a >= 1.0:
            raise DivergentMgfError(theta, 1.0 / a)
        return (
            -m * math.log1p(-theta * a)
            + (m - 1.0) * math.log1p(-theta * sigma2)
            - theta * (p + sigma2)
        )

    def log_mgf_curvature(self, sigma2: float, p: float, theta: float) -> float:
        # Lambda'' = m*a^2/u^2 - (m - 1)*sigma2^2/v^2 with u = 1 - theta*a and
        # v = 1 - theta*sigma2, inside the domain u > 0.
        m = self.m
        a = sigma2 + p / m
        return m * (a / (1.0 - theta * a)) ** 2 - (m - 1.0) * (sigma2 / (1.0 - theta * sigma2)) ** 2

    def saddle_point(self, sigma2: float, p: float, v: float) -> float:
        # Clearing denominators gives R*A*sigma2*theta^2 - b*theta + v = 0
        # with R = r + v and b = R*(A + sigma2) - A*sigma2.  The quadratic
        # is -p <= 0 at theta = 1/A, so its smaller root is the one
        # inside the domain theta < 1/A.
        a = sigma2 + p / self.m
        total = p + sigma2 + v
        lead = total * a * sigma2
        b = total * (a + sigma2) - a * sigma2
        root_disc = math.sqrt(max(b * b - 4.0 * lead * v, 0.0))
        if b > 0.0:
            return 2.0 * v / (b + root_disc)
        return (b - root_disc) / (2.0 * lead)


# A fading law: its statistics (mu, sigma_h2, alpha1) and its methods
# sample(count, rng), theta_max(sigma2, p), log_mgf(sigma2, p, theta), its
# second derivative log_mgf_curvature(sigma2, p, theta) and
# saddle_point(sigma2, p, v), the theta with d/dtheta log_mgf = v for
# v > -(p + sigma2): the derivative increases from -(p + sigma2) to +inf
# over the MGF domain, so the root is unique, and v > 0 gives theta in
# (0, theta_max), v < 0 a negative theta.
ChannelSpec = Union[Rician, NakagamiReal]


def rayleigh() -> Rician:
    """Rayleigh fading, i.e. a Rician channel with K = 0 (K_db = -inf)."""
    return Rician(K_db=-math.inf)


def alpha1(channel: ChannelSpec) -> float:
    """Fourth-moment coefficient of the fading law.

    This is E[h_re^4] + E[h_im^4] + 2 E[h_re^2] E[h_im^2] - 1 for a channel
    normalized to E|h|^2 = 1; it multiplies p^2 in the energy variance.
    """
    return channel.alpha1


def energy_variance(alpha1_value: float, sigma2: float, p: float) -> float:
    """E[U^2] = alpha1*p^2 + 2*sigma2*p + sigma2^2 from the fourth-moment coefficient."""
    return alpha1_value * p * p + 2.0 * sigma2 * p + sigma2 * sigma2


def u_second_moment(channel: ChannelSpec, sigma2: float, p: float) -> float:
    """Variance E[U^2] of the per-antenna energy fluctuation at power level p."""
    if not (0.0 <= sigma2 < math.inf and 0.0 <= p < math.inf):
        check_number(sigma2, "sigma2", 0, math.inf, "[)")
        check_number(p, "p", 0, math.inf, "[)")
    return energy_variance(channel.alpha1, sigma2, p)


def sample_channel(
    channel: ChannelSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` i.i.d. channel coefficients as a complex vector."""
    return channel.sample(count, rng)


def log_mgf_energy(
    channel: ChannelSpec, sigma2: float, p: float, theta: float
) -> float:
    """log E[exp(theta*U)] for U = |h*sqrt(p) + v|^2 - (p + sigma2).

    Rician channels use the scaled noncentral chi-square MGF; Nakagami
    channels use the Gamma MGF of |h|^2,
    -m*log(1 - theta*A) + (m - 1)*log(1 - theta*sigma2) - theta*r with
    A = sigma2 + p/m and r = p + sigma2.  Raises
    DivergentMgfError at or beyond the domain boundary.
    """
    if not (0.0 <= sigma2 < math.inf and 0.0 <= p < math.inf and -math.inf < theta < math.inf):
        check_number(sigma2, "sigma2", 0, math.inf, "[)")
        check_number(p, "p", 0, math.inf, "[)")
        check_number(theta, "theta", -math.inf, math.inf, "()")
    return channel.log_mgf(sigma2, p, theta)


# Absolute tolerance of increasing_root, which binds only at roots within
# about 1e-292 of zero: the relative one, 4 ulp, binds everywhere else.
# Brent's interpolation underflows among subnormals, so a smaller one would
# leave only bisection, over about a thousand halvings.
_ROOT_XTOL = sys.float_info.min


def increasing_root(
    f: Callable[[float], float], lo: float, width: float, cap: float = math.inf
) -> Optional[float]:
    """Root of an increasing f above lo, where f(lo) < 0; None when f(cap) < 0.

    The upper end of the bracket grows over min(lo + width*2^k, cap) until f
    turns nonnegative (a NaN counts as negative), and brentq then solves to
    4 ulp relative.  An infinite cap that the bracket overflows before f
    turns nonnegative also gives None.  Hitting brentq's iteration cap
    raises RuntimeError, so a returned root is always a converged one.  A
    NaN lo or a NaN or nonpositive width, which never widen it, is refused.
    """
    if math.isnan(lo) or not width > 0.0:
        check_number(lo, "lo", -math.inf, math.inf)
        check_number(width, "width", 0, math.inf, "(]")
    a, hi = lo, min(lo + width, cap)
    while not (f(hi) >= 0.0):
        a, width = hi, 2.0 * width
        hi = min(lo + width, cap)
        if a >= cap or math.isinf(hi):
            return None
    return brentq(f, a, hi, xtol=_ROOT_XTOL, rtol=4.0 * sys.float_info.epsilon, maxiter=200)


def nakagami_m_from_K(K_db: float) -> float:
    """Shape m of the Nakagami amplitude whose mean matches a Rician K-factor.

    Solves log NakagamiReal(m).mu = log sqrt(K/(K+1)) in u = log m; the left
    side increases monotonically from -inf toward 0.  Below -3000 dB the
    matching m nears the smallest normal float, and above +3000 dB the
    largest, so K must lie in between.
    """
    K_db = check_number(K_db, "K_db", -_MAX_ABS_K_DB, _MAX_ABS_K_DB)
    # log sqrt(K/(K+1)) without the cancellation of K/(K+1) near 1.
    log_target = -0.5 * math.log1p(10.0 ** (-K_db / 10.0))

    def f(u: float) -> float:
        m = math.exp(u)
        if m < _NAKAGAMI_SERIES_M:
            return math.log(NakagamiReal(m).mu) - log_target
        # The series itself keeps the digits that log(mu) loses as mu nears 1.
        return _log_mean_amplitude_series(m) - log_target

    lo, cap = math.log(sys.float_info.min), math.log(sys.float_info.max)
    return math.exp(increasing_root(f, lo, 1.0, cap))
