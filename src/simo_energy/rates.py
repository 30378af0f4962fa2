"""Tail exponents of the averaged energy statistic and constellation-level bounds.

For a power level p the receiver statistic ||y||^2/n concentrates at
r(p) = p + sigma2; deviations of size d to the right or left decay like
exp(-n*I(d)) where I is the Legendre transform of the log-MGF of the
per-antenna fluctuation U.  The supremum in I(d) = sup theta*d - Lambda(theta)
is attained at the closed-form saddle point theta*(d) that each fading
family provides (`Rician.saddle_point`, `NakagamiReal.saddle_point`), so
each exponent is one saddle-point evaluation and one log-MGF evaluation,
whatever the family.  This module computes those exponents, their
inverses (by the bracketed root finder `channel.increasing_root`), the
small-deviation quadratic approximation, and the resulting union bound /
error exponent of a constellation with interval decoding regions.  The same
saddle point, with the log-MGF curvature of each law, gives the
Lugannani-Rice probability of every interval decision
(`interval_decision_probabilities`): where the union bound gets only the
exponent right, its SER is within about 0.07/n of the exact Rayleigh one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .channel import ChannelSpec, InputError, check_number, energy_variance, increasing_root

# Largest L.  The simulator keeps an L x L int64 bit-error table and builds an
# L x L confusion matrix per block, 8 MB each at L = 2^10; the paper's
# constellations stop at L = 64.
_MAX_L = 1 << 10


def check_levels(values, sigma2, *, name="levels", noise="sigma2", signed=False) -> tuple:
    """(values, sigma2) once checked: the one rule for the ordered transmit
    levels of a constellation or a receiver.

    Power levels are numbers in [0, inf), at least one; `signed` amplitudes
    are finite numbers, at least two.  Either way there are at most _MAX_L,
    they strictly increase, and the assumed noise power lies in (0, inf).  A
    refusal raises InputError naming `name`, "L" or `noise`.
    """
    lo, ends, fewest = (-math.inf, "()", 2) if signed else (0, "[)", 1)
    values = tuple(check_number(v, name, lo, math.inf, ends) for v in values)
    check_number(len(values), "L", fewest, _MAX_L, whole=True)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InputError(name, f"{name} must be strictly increasing")
    return values, check_number(sigma2, noise, 0, math.inf, "()")


class RateOracle:
    """Left/right deviation exponents of the energy statistic for one power level.

    Immutable after construction; all evaluations are pure, so one oracle can
    be shared freely across threads.  The noise power and the power level
    are checked once, here.
    """

    def __init__(self, channel: ChannelSpec, sigma2: float, p: float):
        if not (0.0 < sigma2 < math.inf and 0.0 <= p < math.inf):
            check_number(sigma2, "sigma2", 0, math.inf, "()")
            check_number(p, "p", 0, math.inf, "[)")
        self.channel = channel
        self.sigma2 = sigma2
        self.p = p
        self.r = p + sigma2
        self.u2 = energy_variance(channel.alpha1, sigma2, p)

    @property
    def theta_max(self) -> float:
        """Right end of the log-MGF domain; the rate evaluations never need it."""
        return self.channel.theta_max(self.sigma2, self.p)

    def log_mgf(self, theta: float) -> float:
        """The channel's log-MGF at this level, for theta inside its domain."""
        return self.channel.log_mgf(self.sigma2, self.p, theta)

    def rate_right(self, d: float) -> float:
        """sup over theta >= 0 of theta*d - log_mgf(theta): exponent of P(mean U > d)."""
        if not 0.0 < d < math.inf:
            if d == 0.0:
                return 0.0
            check_number(d, "d", 0, math.inf, "[)")
        theta = self.channel.saddle_point(self.sigma2, self.p, d)
        return max(theta * d - self.log_mgf(theta), 0.0)

    def rate_left(self, d: float) -> float:
        """Exponent of P(mean U < -d); infinite once d reaches the statistic floor r(p)."""
        if not 0.0 < d < self.r:
            if d == 0.0:
                return 0.0
            if d >= self.r:
                return math.inf
            check_number(d, "d", 0, math.inf)
        theta = self.channel.saddle_point(self.sigma2, self.p, -d)
        return max(-theta * d - self.log_mgf(theta), 0.0)

    def inverse_rate(self, side: str, t: float) -> float:
        """The deviation d with rate(side)(d) = t, by `increasing_root`.

        The rate functions are continuous and strictly increasing, so the root
        is unique.  The left exponent is infinite only at the statistic floor
        r(p), so a target it does not reach below r(p)*(1 - 1e-15) is refused.
        """
        if not 0.0 < t < math.inf:
            check_number(t, "t", 0, math.inf, "()")
        if side == "right":
            width = math.sqrt(2.0 * t * self.u2) if self.u2 > 0 else 1.0
            # 2*t*u2 can underflow to 0; the bracket then grows from the smallest normal float.
            d = increasing_root(lambda d: self.rate_right(d) - t, 0.0, width or sys.float_info.min)
        elif side == "left":
            cap = self.r * (1.0 - 1e-15)
            d = increasing_root(lambda d: self.rate_left(d) - t, 0.0, cap, cap)
        else:
            raise InputError("side", f"side must be 'left' or 'right', got {side!r}")
        if d is None:
            raise InputError("t", f"t must be reached by the {side} tail exponent, got {t!r}")
        return d


class QuadraticRateOracle:
    """Small-deviation stand-in for RateOracle: both tails are d^2 / (2 E[U^2])."""

    def __init__(self, alpha1_value: float, sigma2: float, p: float):
        if not (0.0 <= alpha1_value < math.inf and 0.0 < sigma2 < math.inf and 0.0 <= p < math.inf):
            check_number(alpha1_value, "alpha1_value", 0, math.inf, "[)")
            check_number(sigma2, "sigma2", 0, math.inf, "()")
            check_number(p, "p", 0, math.inf, "[)")
        self.p = p
        self.sigma2 = sigma2
        self.u2 = energy_variance(alpha1_value, sigma2, p)

    def rate_right(self, d: float) -> float:
        return approx_rate(self.u2, d)

    rate_left = rate_right

    def inverse_rate(self, side: str, t: float) -> float:
        if not 0.0 < t < math.inf:
            check_number(t, "t", 0, math.inf, "()")
        return math.sqrt(2.0 * t * self.u2)


def approx_rate(s_p: float, d: float) -> float:
    """Quadratic approximation d^2 / (2 s_p) with s_p = E[U^2].

    An s_p that overflowed to inf, as a heavy fading law's variance can at
    a high power level, gives exponent 0.
    """
    if not (0.0 < s_p <= math.inf and 0.0 <= d < math.inf):
        check_number(s_p, "s_p", 0, math.inf, "(]")
        check_number(d, "d", 0, math.inf, "[)")
    return d * d / (2.0 * s_p)


def equalize_boundary(oracle_k, oracle_next, gap: float) -> float:
    """Split `gap` between adjacent receiver points so both tail exponents match.

    Returns d_R in (0, gap) with oracle_k.rate_right(d_R) equal to
    oracle_next.rate_left(gap - d_R), by `increasing_root` on their
    difference: it increases from -rate_left(gap) < 0 to rate_right(gap) >= 0.
    """
    if not 0.0 < gap < math.inf:
        check_number(gap, "gap", 0, math.inf, "()")

    def diff(d: float) -> float:
        return oracle_k.rate_right(d) - oracle_next.rate_left(gap - d)

    return increasing_root(diff, 0.0, gap, gap)


@dataclass(frozen=True)
class Constellation:
    """Ordered transmit power levels with optional energy-domain decoding regions.

    Region k is the half-open interval (c_{k-1}, c_k] of the statistic axis,
    with c_0 = 0 and c_L = +inf.  `boundaries` is None for level-only
    constellations that are decoded by a likelihood rule instead of fixed
    regions.  Symbol k carries the width-ceil(log2 L) binary reflected Gray
    code of its index.
    """

    levels: tuple
    sigma2_design: float
    boundaries: Optional[tuple] = None

    def __post_init__(self):
        levels, sigma2 = check_levels(self.levels, self.sigma2_design, noise="sigma2_design")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "sigma2_design", sigma2)
        if self.boundaries is not None:
            bounds = tuple(
                check_number(c, "boundaries", -math.inf, math.inf, "()") for c in self.boundaries
            )
            object.__setattr__(self, "boundaries", bounds)
            if len(bounds) != len(levels) - 1:
                raise InputError("boundaries", f"boundaries must number L - 1, got {len(bounds)}")
            # Each receiver point inside its region also puts the boundaries in order.
            r = self.receiver_points()
            cs = (0.0,) + bounds + (math.inf,)
            for k in range(len(levels)):
                if not (cs[k] < r[k] < cs[k + 1]):
                    message = f"boundaries must enclose receiver point {r[k]!r} of level {k}"
                    raise InputError("boundaries", message)

    @property
    def L(self) -> int:
        return len(self.levels)

    def receiver_points(self) -> tuple:
        """Mean statistic r(p_k) = p_k + sigma2 for each level."""
        return tuple(p + self.sigma2_design for p in self.levels)


def tail_exponents(
    constellation: Constellation, channel: ChannelSpec, sigma2: float
) -> list:
    """Per-level (I_left, I_right) at the region edges under noise power sigma2.

    Each level's deviations run from its mean statistic r(p) = p + sigma2 to
    its region's edges, so a sigma2 other than the design-time one shifts
    them.  The unbounded outer sides get an infinite exponent.  A deviation
    that comes out negative (the mean statistic falls outside its region,
    possible only under mismatch) gets exponent 0.  A constellation without
    regions is refused with InputError naming `boundaries`.
    """
    if constellation.boundaries is None:
        raise InputError("boundaries", "boundaries are None: the constellation has no regions")
    edges = (-math.inf, *constellation.boundaries, math.inf)
    out = []
    for k, p in enumerate(constellation.levels):
        oracle = RateOracle(channel, sigma2, p)
        d_l, d_r = oracle.r - edges[k], edges[k + 1] - oracle.r
        i_l = oracle.rate_left(max(d_l, 0.0)) if math.isfinite(d_l) else math.inf
        i_r = oracle.rate_right(max(d_r, 0.0)) if math.isfinite(d_r) else math.inf
        out.append((i_l, i_r))
    return out


def chernoff_ser_bound(
    constellation: Constellation,
    channel: ChannelSpec,
    sigma2: float,
    n: int,
) -> float:
    """Union-of-tails upper bound on the symbol error rate with n antennas.

    Averages exp(-n*I_right) + exp(-n*I_left) over the levels; the unbounded
    outer sides contribute zero and a mean statistic outside its region the
    trivial factor 1.
    """
    n = check_number(n, "n", 1, math.inf, whole=True)
    if constellation.L == 1:
        return 0.0
    total = 0.0
    for i_l, i_r in tail_exponents(constellation, channel, sigma2):
        total += math.exp(-n * i_l)
        total += math.exp(-n * i_r)
    return total / constellation.L


def error_exponent(
    constellation: Constellation, channel: ChannelSpec, sigma2: float
) -> float:
    """Worst finite tail exponent over all levels; the SER decays like exp(-n*I_e)."""
    return min(min(pair) for pair in tail_exponents(constellation, channel, sigma2))


_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Below this |w| the correction 1/u - 1/w loses its digits (both terms grow
# like 1/w, their difference stays finite), and its limit at w = 0 stands in;
# the two differ by O(w / sqrt(n)) relative there.
_SMALL_W = 1e-3


def interval_decision_probabilities(levels, boundaries, channel: ChannelSpec, sigma2: float):
    """Saddle-point probabilities of interval decisions, as a function of the antenna count.

    Region j is the interval (c_{j-1}, c_j] of the statistic ||y||^2 / n, with
    c_{-1} = 0 and c_{L-1} = +inf, as `decode.region_index` decides.  For a
    level p and a boundary c at deviation v = c - r(p), the tail
    P(||y||^2 / n > c) is the Lugannani-Rice formula (Lugannani & Rice,
    Adv. Appl. Prob. 12, 1980; Daniels, Ann. Math. Stat. 25, 1954)

        Q(w) + phi(w) * (1/u - 1/w),
        w = sgn(theta) sqrt(2 n I(v)),  u = theta sqrt(n Lambda''(theta)),

    at the saddle point theta of v, with I(v) = theta*v - Lambda(theta); the
    CDF is the same formula at (-w, -u).  theta, I and Lambda'' are computed
    once per (level, boundary), so w and u are closed forms in n.  At the
    removable singularity w = u = 0 the correction tends to
    -kappa3 / (6 kappa2^(3/2) sqrt(n)), with kappa2 = Lambda''(0) and the
    third cumulant kappa3 = Lambda'''(0) (a central difference of Lambda''),
    which stands in for |w| < _SMALL_W.  Each off-diagonal probability is a
    difference of tails on its own side of the level, so a small one keeps
    its relative accuracy; the relative error falls like 1/n.

    Returns probabilities(n), whose [k][j] entry is P(decide j | level k sent).
    """
    levels, sigma2 = check_levels(levels, sigma2)
    bounds = tuple(check_number(c, "boundaries", 0, math.inf, "()") for c in boundaries)
    if len(bounds) != len(levels) - 1 or any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise InputError("boundaries", "boundaries must be L - 1 strictly increasing numbers")
    curvature = channel.log_mgf_curvature
    tails = []  # per level, per boundary: (w, u, limit of the correction) at n = 1
    for k, p in enumerate(levels):
        h = 1e-3 * channel.theta_max(sigma2, p)
        kappa3 = (curvature(sigma2, p, h) - curvature(sigma2, p, -h)) / (2.0 * h)
        limit = -kappa3 / (6.0 * curvature(sigma2, p, 0.0) ** 1.5)
        row = []
        for j, c in enumerate(bounds):
            v = c - (p + sigma2)
            theta = channel.saddle_point(sigma2, p, v)
            rate = max(theta * v - channel.log_mgf(sigma2, p, theta), 0.0)
            w = math.copysign(math.sqrt(2.0 * rate), theta)
            u = theta * math.sqrt(curvature(sigma2, p, theta))
            # Below level k the CDF P(stat <= c_j), the same formula at (-w, -u).
            row.append((-w, -u, -limit) if j < k else (w, u, limit))
        tails.append(row)

    def probabilities(n: int) -> list:
        if type(n) is not int or n < 1:
            n = check_number(n, "n", 1, math.inf, whole=True)
        root_n = math.sqrt(n)
        erfc, exp = math.erfc, math.exp
        rows = []
        for k, row in enumerate(tails):
            # t[j + 1] is the tail at c_j; t[0] = P(stat <= 0) and t[L] = P(stat > inf) are 0.
            t = [0.0]
            for w, u, limit in row:
                w *= root_n
                if -_SMALL_W < w < _SMALL_W:
                    corr = limit / root_n
                else:
                    corr = 1.0 / (u * root_n) - 1.0 / w
                tail = 0.5 * erfc(w * _SQRT_HALF) + exp(-0.5 * w * w) * _INV_SQRT_2PI * corr
                t.append(0.0 if tail < 0.0 else 1.0 if tail > 1.0 else tail)
            t.append(0.0)
            out = [t[j + 1] - t[j] for j in range(k)]
            out.append(1.0 - t[k] - t[k + 1])
            out.extend(t[j] - t[j + 1] for j in range(k + 1, len(t) - 1))
            rows.append(out)
        return rows

    return probabilities
