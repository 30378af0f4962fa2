"""Constellation construction: exponent-optimal, moment-based, robust, and baselines.

All three optimizing designs share the same outer loop: for a trial exponent
t the inner construction packs levels as tightly as the tail exponents allow
(every interior region edge sits exactly at exponent t), which makes the mean
transmit power a nondecreasing function of t.  An outer bisection then finds
the largest t whose construction fits the power budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from scipy.optimize import brentq

from .channel import ChannelSpec, energy_variance
from .rates import Constellation, QuadraticRateOracle, RateOracle, equalize_boundary


@dataclass(frozen=True)
class DesignConfig:
    """Size, power budget and termination tolerances for the design bisection."""

    L: int
    power_budget: float = 1.0
    eps: float = 1e-6
    max_doublings: int = 70
    max_bisections: int = 200

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("constellation size must be at least 2")
        if not (self.power_budget > 0):
            raise ValueError("power budget must be positive")
        if not (self.eps > 0):
            raise ValueError("termination tolerance must be positive")


@dataclass(frozen=True)
class UncertaintyBox:
    """Rectangular uncertainty on (alpha1, sigma): sigma bounds are noise amplitudes."""

    alpha1_min: float
    alpha1_max: float
    sigma_min: float
    sigma_max: float

    def __post_init__(self):
        if not (0.0 <= self.alpha1_min <= self.alpha1_max):
            raise ValueError("need 0 <= alpha1_min <= alpha1_max")
        if not (0.0 < self.sigma_min <= self.sigma_max):
            raise ValueError("need 0 < sigma_min <= sigma_max")

    @classmethod
    def degenerate(cls, alpha1_value: float, sigma2: float) -> "UncertaintyBox":
        s = math.sqrt(sigma2)
        return cls(alpha1_value, alpha1_value, s, s)

    def contains(self, other: "UncertaintyBox") -> bool:
        return (
            self.alpha1_min <= other.alpha1_min
            and other.alpha1_max <= self.alpha1_max
            and self.sigma_min <= other.sigma_min
            and other.sigma_max <= self.sigma_max
        )


@dataclass(frozen=True)
class DesignOutcome:
    """Result of a design run: the constellation, its exponent, and diagnostics."""

    feasible: bool
    constellation: Optional[Constellation]
    t_star: float
    mean_power: float
    boundary_exponents: tuple
    iterations: int

    def __bool__(self) -> bool:
        return self.feasible


_INFEASIBLE = DesignOutcome(
    feasible=False,
    constellation=None,
    t_star=0.0,
    mean_power=math.inf,
    boundary_exponents=(),
    iterations=0,
)


def _maximize_exponent(power_at: Callable[[float], float], cfg: DesignConfig):
    """Largest t with power_at(t) <= budget, by doubling then bisection.

    power_at returns +inf when the inner construction fails.  Returns
    (t_star, iterations) or (None, iterations) when even the floor exponent
    cfg.eps does not fit the budget.
    """
    budget = cfg.power_budget
    iters = 1
    if power_at(cfg.eps) > budget:
        return None, iters
    t_l = cfg.eps
    t_u = None
    for _ in range(cfg.max_doublings):
        iters += 1
        probe = 2.0 * t_l
        if power_at(probe) > budget:
            t_u = probe
            break
        t_l = probe
    if t_u is None:
        # Exponent grows without bound within the doubling cap (degenerate
        # channels); return the capped value.
        return t_l, iters
    s_l = power_at(t_l)
    while iters < cfg.max_bisections:
        width_ok = (t_u - t_l) <= min(cfg.eps, 1e-9 * max(t_u, 1.0))
        power_ok = s_l >= budget - cfg.eps
        if width_ok and power_ok:
            break
        mid = 0.5 * (t_l + t_u)
        iters += 1
        s_mid = power_at(mid)
        if s_mid <= budget:
            t_l, s_l = mid, s_mid
        else:
            t_u = mid
    return t_l, iters


def _find_next_level(psi, lo: float, step: float, cap: float) -> Optional[float]:
    """Smallest root of the increasing-then-saturating psi above lo.

    psi(lo) < 0; the bracket is expanded geometrically from `step`.  Returns
    None when psi stays negative up to `cap`, in which case any root would
    blow the power budget.
    """
    if lo >= cap:
        return None
    a = lo
    width = max(step, 1e-9 * max(lo, 1.0))
    b = min(lo + width, cap)
    while psi(b) < 0.0:
        if b >= cap:
            return None
        a = b
        width *= 2.0
        b = min(lo + width, cap)
    if a == lo:
        # brentq needs a strictly negative left end; nudge off the root at lo.
        a = lo + 1e-15 * max(lo, 1.0)
        if psi(a) >= 0.0:
            return a
    return brentq(psi, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=200)


def _exact_levels_at(
    t: float,
    cfg: DesignConfig,
    oracle_factory: Callable[[float], object],
):
    """Inner construction at exponent t. Returns (levels, d_rights) or None."""
    total_cap = cfg.L * cfg.power_budget * (1.0 + 1e-12)
    levels = [0.0]
    d_rights = []
    running = 0.0
    for k in range(cfg.L - 1):
        oracle = oracle_factory(levels[-1])
        d_r = oracle.inverse_rate("right", t)
        anchor = levels[-1] + d_r
        remaining = cfg.L - 1 - k
        cap = (total_cap - running) / remaining
        if anchor >= cap:
            return None

        def psi(q: float, _anchor=anchor) -> float:
            return oracle_factory(q).rate_left(q - _anchor) - t

        q = _find_next_level(psi, anchor, d_r, cap)
        if q is None:
            return None
        levels.append(q)
        d_rights.append(d_r)
        running += q
    return levels, d_rights


def exact_power_at(
    channel: ChannelSpec,
    sigma2: float,
    cfg: DesignConfig,
    t: float,
    oracle_factory: Optional[Callable[[float], object]] = None,
) -> float:
    """Mean power of the exponent-t construction; +inf when it is infeasible."""
    factory = oracle_factory or (lambda p: RateOracle(channel, sigma2, p))
    built = _exact_levels_at(t, cfg, factory)
    if built is None:
        return math.inf
    levels, _ = built
    return sum(levels) / cfg.L


def design_exact(
    channel: ChannelSpec,
    sigma2: float,
    cfg: DesignConfig,
    oracle_factory: Optional[Callable[[float], object]] = None,
) -> DesignOutcome:
    """Exponent-optimal constellation for a fully known channel distribution.

    Every interior region edge of the result sits at the same tail exponent
    t_star, and the mean power meets the budget to within cfg.eps.  Passing a
    custom `oracle_factory` swaps the tail-exponent model (for instance the
    quadratic approximation) without touching the construction itself.
    """
    factory = oracle_factory or (lambda p: RateOracle(channel, sigma2, p))

    def power_at(t: float) -> float:
        return exact_power_at(channel, sigma2, cfg, t, factory)

    t_star, iters = _maximize_exponent(power_at, cfg)
    if t_star is None:
        return _INFEASIBLE
    levels, d_rights = _exact_levels_at(t_star, cfg, factory)
    boundaries = tuple(
        p + sigma2 + d_r for p, d_r in zip(levels[:-1], d_rights)
    )
    constellation = Constellation(tuple(levels), sigma2, boundaries)
    exponents = []
    for k in range(cfg.L - 1):
        right = factory(levels[k]).rate_right(d_rights[k])
        left = factory(levels[k + 1]).rate_left(
            levels[k + 1] - levels[k] - d_rights[k]
        )
        exponents.append((right, left))
    return DesignOutcome(
        feasible=True,
        constellation=constellation,
        t_star=t_star,
        mean_power=sum(levels) / cfg.L,
        boundary_exponents=tuple(exponents),
        iterations=iters,
    )


def _moments_levels_at(t: float, alpha1_value: float, sigma2: float, cfg: DesignConfig):
    """Inner construction under the quadratic tail model. None when infeasible."""
    if 2.0 * t * alpha1_value >= 1.0:
        # The gap equation q - p = sqrt(2t)(sqrt(s(q)) + sqrt(s(p))) has
        # asymptotic slope sqrt(2t*alpha1); at or above 1 no finite q exists.
        return None
    b = math.sqrt(2.0 * t)
    total_cap = cfg.L * cfg.power_budget * (1.0 + 1e-12)
    levels = [0.0]
    running = 0.0
    for k in range(cfg.L - 1):
        p = levels[-1]
        root_s_p = math.sqrt(energy_variance(alpha1_value, sigma2, p))
        anchor = p + b * root_s_p
        remaining = cfg.L - 1 - k
        cap = (total_cap - running) / remaining
        if anchor >= cap:
            return None

        def gap_eq(q: float, _p=p, _rs=root_s_p) -> float:
            return (
                q
                - _p
                - b * (math.sqrt(energy_variance(alpha1_value, sigma2, q)) + _rs)
            )

        q = _find_next_level(gap_eq, anchor, b * root_s_p, cap)
        if q is None:
            return None
        levels.append(q)
        running += q
    return levels


def moments_power_at(
    alpha1_value: float, sigma2: float, cfg: DesignConfig, t: float
) -> float:
    built = _moments_levels_at(t, alpha1_value, sigma2, cfg)
    return math.inf if built is None else sum(built) / cfg.L


def design_moments(
    alpha1_value: float, sigma2: float, cfg: DesignConfig
) -> DesignOutcome:
    """Constellation design from the first four fading moments only.

    Uses the quadratic tail model d^2/(2 s(p)) with s(p) = alpha1*p^2 +
    2*sigma2*p + sigma2^2; consecutive levels satisfy
    q - p = sqrt(2t)(sqrt(s(q)) + sqrt(s(p))) and the region boundary after
    level p sits at p + sigma2 + sqrt(2t*s(p)).
    """
    if alpha1_value < 0:
        raise ValueError("alpha1 must be nonnegative")

    def power_at(t: float) -> float:
        return moments_power_at(alpha1_value, sigma2, cfg, t)

    t_star, iters = _maximize_exponent(power_at, cfg)
    if t_star is None:
        return _INFEASIBLE
    levels = _moments_levels_at(t_star, alpha1_value, sigma2, cfg)
    b = math.sqrt(2.0 * t_star)
    boundaries = tuple(
        p + sigma2 + b * math.sqrt(energy_variance(alpha1_value, sigma2, p))
        for p in levels[:-1]
    )
    constellation = Constellation(tuple(levels), sigma2, boundaries)
    exponents = []
    for k in range(cfg.L - 1):
        o_k = QuadraticRateOracle(alpha1_value, sigma2, levels[k])
        o_next = QuadraticRateOracle(alpha1_value, sigma2, levels[k + 1])
        d_r = boundaries[k] - (levels[k] + sigma2)
        d_l = (levels[k + 1] + sigma2) - boundaries[k]
        exponents.append((o_k.rate_right(d_r), o_next.rate_left(d_l)))
    return DesignOutcome(
        feasible=True,
        constellation=constellation,
        t_star=t_star,
        mean_power=sum(levels) / cfg.L,
        boundary_exponents=tuple(exponents),
        iterations=iters,
    )


def _sup_boundary_offset(box: UncertaintyBox, t: float, p: float) -> float:
    """sup over the box of sigma2 + sqrt(2t*s_f(p)): attained at both maxima."""
    s = energy_variance(box.alpha1_max, box.sigma_max**2, p)
    return box.sigma_max**2 + math.sqrt(2.0 * t * s)


def _sup_gap_requirement(box: UncertaintyBox, t: float, p: float) -> float:
    """sup over the box of sqrt(2t*s_f(p)) - sigma2.

    Increasing in alpha1, but not monotone in sigma; the candidates are the
    two sigma endpoints plus the interior stationary point of
    e(x) = sqrt(2t*(a*p^2 + 2*x*p + x^2)) - x on x = sigma^2.
    """
    a = box.alpha1_max
    x_lo, x_hi = box.sigma_min**2, box.sigma_max**2
    two_t = 2.0 * t

    def e(x: float) -> float:
        return math.sqrt(two_t * (a * p * p + 2.0 * x * p + x * x)) - x

    best = max(e(x_lo), e(x_hi))
    # Stationary points solve 2t*(p+x)^2 = s(x), i.e.
    # x^2*(2t-1) + 2*p*x*(2t-1) + p^2*(2t-a) = 0.
    if two_t != 1.0 and p > 0.0:
        disc = (a - 1.0) / (two_t - 1.0)
        if disc > 0.0:
            x_star = p * (math.sqrt(disc) - 1.0)
            if x_lo < x_star < x_hi:
                best = max(best, e(x_star))
    return best


def _robust_levels_at(t: float, box: UncertaintyBox, cfg: DesignConfig):
    """Inner robust construction. Returns (levels, boundaries) or None."""
    if 2.0 * t * box.alpha1_max >= 1.0:
        return None
    total_cap = cfg.L * cfg.power_budget * (1.0 + 1e-12)
    levels = [0.0]
    boundaries = []
    running = 0.0
    for k in range(cfg.L - 1):
        p = levels[-1]
        c_k = p + _sup_boundary_offset(box, t, p)
        remaining = cfg.L - 1 - k
        cap = (total_cap - running) / remaining

        def slack(q: float, _c=c_k) -> float:
            return q - _c - _sup_gap_requirement(box, t, q)

        # slack(p) < 0 always: the boundary offset alone exceeds p - c_k.
        if p >= cap:
            return None
        q = _find_next_level(slack, p, c_k - p, cap)
        if q is None:
            return None
        levels.append(q)
        boundaries.append(c_k)
        running += q
    return levels, boundaries


def robust_power_at(box: UncertaintyBox, cfg: DesignConfig, t: float) -> float:
    built = _robust_levels_at(t, box, cfg)
    return math.inf if built is None else sum(built[0]) / cfg.L


def design_robust(box: UncertaintyBox, cfg: DesignConfig) -> DesignOutcome:
    """Minimax constellation over a moment-uncertainty box.

    Every region edge guarantees exponent t_star under the least favourable
    (alpha1, sigma) in the box.  A zero-width box reproduces design_moments.
    Infeasibility (no positive exponent fits the power budget, which a wide
    enough noise range forces) is reported through the outcome flag, not an
    exception.
    """

    def power_at(t: float) -> float:
        return robust_power_at(box, cfg, t)

    t_star, iters = _maximize_exponent(power_at, cfg)
    if t_star is None:
        return _INFEASIBLE
    levels, boundaries = _robust_levels_at(t_star, box, cfg)
    constellation = Constellation(
        tuple(levels), box.sigma_max**2, tuple(boundaries)
    )
    exponents = []
    a_max = box.alpha1_max
    x_lo, x_hi = box.sigma_min**2, box.sigma_max**2
    for k in range(cfg.L - 1):
        # Worst-case guaranteed exponents at the two sides of boundary k.
        # Both minima over the box are attained where the corresponding sup
        # in the construction is attained: x_hi for the right side, and one
        # of {x_lo, x_hi, interior stationary point} for the left side.
        p_k, p_next = levels[k], levels[k + 1]
        d_r = boundaries[k] - p_k - x_hi
        right = d_r * d_r / (2.0 * energy_variance(a_max, x_hi, p_k))
        candidates = [x_lo, x_hi]
        if 2.0 * t_star != 1.0 and p_next > 0.0:
            disc = (a_max - 1.0) / (2.0 * t_star - 1.0)
            if disc > 0.0:
                x_star = p_next * (math.sqrt(disc) - 1.0)
                if x_lo < x_star < x_hi:
                    candidates.append(x_star)
        worst_left = min(
            max(p_next + x - boundaries[k], 0.0) ** 2
            / (2.0 * energy_variance(a_max, x, p_next))
            for x in candidates
        )
        exponents.append((right, worst_left))
    return DesignOutcome(
        feasible=True,
        constellation=constellation,
        t_star=t_star,
        mean_power=sum(levels) / cfg.L,
        boundary_exponents=tuple(exponents),
        iterations=iters,
    )


def min_distance_constellation(L: int, sigma2: float) -> Constellation:
    """Equispaced levels 2(k-1)/(L-1) with boundaries at the receiver-point midpoints."""
    if L < 2:
        raise ValueError("constellation size must be at least 2")
    levels = tuple(2.0 * k / (L - 1) for k in range(L))
    boundaries = tuple((2.0 * k - 1.0) / (L - 1) + sigma2 for k in range(1, L))
    return Constellation(levels, sigma2, boundaries)


def ask_constellation(L: int, sigma2_design: float = 1.0) -> Constellation:
    """Equally spaced amplitudes scaled to unit mean power; levels only.

    The returned constellation carries no decoding regions: an ASK system is
    decoded by the energy-domain likelihood rule.
    """
    if L < 2:
        raise ValueError("constellation size must be at least 2")
    delta2 = 6.0 / ((L - 1) * (2 * L - 1))
    levels = tuple(delta2 * k * k for k in range(L))
    return Constellation(levels, sigma2_design)


@dataclass(frozen=True)
class PamConstellation:
    """Symmetric real amplitudes with unit mean power and Gray labels in order."""

    amplitudes: tuple
    labels: tuple

    @property
    def L(self) -> int:
        return len(self.amplitudes)

    @property
    def bits_per_symbol(self) -> int:
        return (self.L - 1).bit_length()


def pam_constellation(L: int) -> PamConstellation:
    """Amplitudes (2k-1-L)*Delta with Delta^2 = 3/(L^2-1); L must be a power of 2."""
    if L < 2 or L & (L - 1):
        raise ValueError("PAM size must be a power of two")
    from .decode import gray_map  # local import to avoid a module cycle

    delta = math.sqrt(3.0 / (L * L - 1.0))
    amplitudes = tuple((2.0 * k - 1.0 - L) * delta for k in range(1, L + 1))
    bits = (L - 1).bit_length()
    labels = tuple(gray_map(k, bits) for k in range(L))
    return PamConstellation(amplitudes, labels)


def equalized_regions(
    levels: Sequence[float], channel: ChannelSpec, sigma2: float
) -> Constellation:
    """Best interval decoding regions for fixed levels: equal exponents per boundary."""
    levels = tuple(float(p) for p in levels)
    oracles = [RateOracle(channel, sigma2, p) for p in levels]
    boundaries = []
    for k in range(len(levels) - 1):
        gap = levels[k + 1] - levels[k]
        d_r = equalize_boundary(oracles[k], oracles[k + 1], gap)
        boundaries.append(levels[k] + sigma2 + d_r)
    return Constellation(levels, sigma2, tuple(boundaries))
