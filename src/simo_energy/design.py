"""Constellation construction: one level-packing rule under three tail models, plus baselines.

The three optimizing designs differ only in what they know about the fading,
and so in the tail-exponent model they hand to one construction:

- `design_exact`: the exact fading law, through `RateOracle`;
- `design_moments`: the first moments only, through the quadratic tail
  d^2/(2 s(p)) of `QuadraticRateOracle`;
- `design_robust`: moments inside an `UncertaintyBox`, through the worst
  quadratic tail over the box (`_BoxRateOracle`).

For a trial exponent t the construction (`_exact_levels_at`) packs levels
as tightly as the tail model allows: every interior region edge sits
exactly at exponent t, which makes the mean transmit power a nondecreasing
function of t.  An outer search (`_maximize_exponent`) then finds the
largest t whose construction fits the power budget, as one bracketed root
of log(power / budget) in log t, bracketed from t = 1 over every positive
float, keeping the construction of that probe.
One private function (`_design`) serves all three, in units of the noise
power (a design depends on budget / sigma2 alone), and the outcome reports the
levels, the region edges and the exponents on both sides of each edge.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

from .channel import ChannelSpec, InputError, check_number, energy_variance, increasing_root
from .rates import (
    _MAX_L,
    Constellation,
    QuadraticRateOracle,
    RateOracle,
    check_levels,
    equalize_boundary,
)

_log = logging.getLogger("simo_energy")
# Largest fourth-moment coefficient alpha1, 1/m for a Nakagami shape m.  Over
# L 2/4/16/64 x -20/10/50 dB no design warns up to 1e6.  Two-level designs
# at 50 dB end short of the budget at 3e6 and from 1e8 on, as their tails
# saturate at t = 1/(2 alpha1); at 1e30 the moments design ends 99.6 % short,
# and from 1e35 on region edges round onto the receiver points.
_MAX_ALPHA1 = 1e6
# Largest L * budget: levels up to 4 times it are squared, times fourth moments, in
# the tail exponents, and must stay far from float overflow (about 1.3e154).
_MAX_TOTAL_POWER = 1e150
# Largest L * budget / sigma2, the SNR of the total power.  The design is
# invariant to scaling budget and sigma2 together, and so is where its outer
# search loses precision: once two-level tails saturate, the power is
# ill-conditioned in t, and two-level designs end short of the budget by over
# eps, with a warning, from 3e10-1e11 (quadratic tails) and 3e11 (exact tails)
# at -20, 10 and 50 dB alike.  Up to 1e14, L = 16 never warned and no cap was hit.
_MAX_TOTAL_SNR = 1e9
# Smallest 2 * budget / ((L - 1) * sigma2), the step of equispaced levels at the
# budget relative to the noise power.  The levels are resolved in p + sigma2,
# whose float spacing is 2.2e-16 * sigma2: far below this, region edges round
# onto the receiver points, and exact Rician designs failed in the rate layer
# at steps up to 3.5e-14.  From 5e-14 on no design raised over L 2-1024, five
# laws and both tail models.  -130 dB at L = 4 is a step of 6.7e-14.
_MIN_LEVEL_STEP = 5e-14
_L_RANGE = (2, _MAX_L)  # sizes of designs and baselines, as the (lo, hi) of check_number
_MAX_SIGMA = math.sqrt(sys.float_info.max)  # largest noise amplitude whose square is finite


@dataclass(frozen=True)
class DesignConfig:
    """Size, power budget and power tolerance of a design.

    `eps` is the power shortfall, relative to the budget, above which the
    result is logged as a warning.  It lies in [2^-52, 1): a finer tolerance
    cannot be met.
    """

    L: int
    power_budget: float = 1.0
    eps: float = 1e-6

    def __post_init__(self):
        check_number(self.L, "L", *_L_RANGE, whole=True)
        check_number(self.power_budget, "power_budget", 0, math.inf, "()")
        check_number(self.eps, "eps", sys.float_info.epsilon, 1, "[)")
        if self.L * self.power_budget > _MAX_TOTAL_POWER:
            raise InputError(
                "power_budget",
                f"power_budget must be at most {_MAX_TOTAL_POWER:g} / L, got {self.power_budget!r}",
            )


@dataclass(frozen=True)
class UncertaintyBox:
    """Rectangular uncertainty on (alpha1, sigma): sigma bounds are noise amplitudes.
    Each range is ordered, alpha1 in [0, inf) and sigma in (0, _MAX_SIGMA]."""

    alpha1_min: float
    alpha1_max: float
    sigma_min: float
    sigma_max: float

    def __post_init__(self):
        a_lo = check_number(self.alpha1_min, "alpha1_min", 0, math.inf, "[)")
        check_number(self.alpha1_max, "alpha1_max", a_lo, math.inf, "[)")
        s_lo = check_number(self.sigma_min, "sigma_min", 0, _MAX_SIGMA, "(]")
        check_number(self.sigma_max, "sigma_max", s_lo, _MAX_SIGMA)


class _BoxRateOracle(QuadraticRateOracle):
    """Worst-case quadratic tails over an UncertaintyBox for one power level.

    Region edges are placed for the largest noise x_hi = sigma_max^2.  Both
    tails d^2/(2 s(alpha1, x, p)) grow worse with alpha1, so alpha1_max is
    least favourable.  On the right the receiver point p + x is farthest
    from the next edge at x_hi as well, so the right tail is the quadratic
    one at (alpha1_max, x_hi).  On the left a smaller noise x moves it
    toward the edge, shrinking the deviation to d - (x_hi - x), and the
    worst x is an endpoint of [sigma_min^2, x_hi] or the one interior
    stationary point of that exponent.
    """

    def __init__(self, box: UncertaintyBox, p: float):
        super().__init__(box.alpha1_max, box.sigma_max**2, p)
        self.alpha1_max = box.alpha1_max
        self.x_lo = box.sigma_min**2

    def rate_left(self, d: float) -> float:
        a, p, x_lo, x_hi = self.alpha1_max, self.p, self.x_lo, self.sigma2
        candidates = [x_lo, x_hi]
        # The one interior stationary point of the exponent as a function of x.
        c0 = d - x_hi - p
        if c0 != 0.0:
            x_star = (a - 1.0) * p * p / c0 - p
            if x_lo < x_star < x_hi:
                candidates.append(x_star)
        return min(
            max(d - (x_hi - x), 0.0) ** 2 / (2.0 * energy_variance(a, x, p))
            for x in candidates
        )

    def inverse_rate(self, side: str, t: float) -> float:
        """Right-tail inverse sqrt(2t*s); the construction needs no other."""
        if side != "right":
            raise InputError("side", f"side must be 'right' for the box oracle, got {side!r}")
        return super().inverse_rate(side, t)


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


def _maximize_exponent(build: Callable[[float], Optional[tuple]], cfg: DesignConfig):
    """Largest probed t whose construction `build(t)` fits the budget, by one increasing_root call.

    The root of log(power / budget) is sought in u = log t over every
    positive float t; a construction that returns None has infinite power.
    The first probe is t = 1.  If it fits, the bracket grows upward, and it
    cannot run off the top: the right deviation at exponent t is at least
    sigma2 * min(t, sqrt(2t)), so every construction gives up below
    t = (4 * _MAX_TOTAL_SNR)^2.  Otherwise the bracket grows downward, as
    the root of -log(power / budget) at u = -v, down to the smallest normal
    float, and a construction still over budget there makes the design
    infeasible.  Near saturation the computed power wobbles by about 1e-12
    relative within a few ulp of t, so the result is the largest probed t
    that fits, not the root.  Returns ((t_star, power, *build(t_star)),
    probes), or (None, probes) when no probe fits.
    """
    budget = cfg.power_budget
    fit, probes = None, 0

    def excess(u: float) -> float:
        nonlocal fit, probes
        probes += 1
        t = math.exp(u)
        built = build(t)
        power = math.inf if built is None else sum(built[0]) / cfg.L
        if power <= budget and (fit is None or t > fit[0]):
            fit = (t, power, *built)
        # log(P / B), not log P - log B: scaling both by a power of two
        # leaves the ratio, and so the whole search, bit-identical.
        return math.log(power / budget)

    if excess(0.0) <= 0.0:
        increasing_root(excess, 0.0, 1.0, math.log(sys.float_info.max))
    else:
        increasing_root(lambda v: -excess(-v), 0.0, 1.0, -math.log(sys.float_info.min))
    return fit, probes


def _exact_levels_at(
    t: float,
    cfg: DesignConfig,
    oracle_factory: Callable[[float], object],
):
    """Inner construction at exponent t. Returns (levels, d_rights, oracles) or None.

    oracles[k] is the oracle of levels[k], for every level but the last.
    """
    # Loose, so that the power is finite just above t*: the search needs its slope.
    total_cap = 4.0 * cfg.L * cfg.power_budget
    levels = [0.0]
    d_rights = []
    oracles = []
    running = 0.0
    for k in range(cfg.L - 1):
        oracle = oracle_factory(levels[-1])
        oracles.append(oracle)
        d_r = oracle.inverse_rate("right", t)
        anchor = levels[-1] + d_r
        remaining = cfg.L - 1 - k
        cap = (total_cap - running) / remaining
        if anchor >= cap:
            return None

        def psi(q: float, _anchor=anchor) -> float:
            return oracle_factory(q).rate_left(q - _anchor) - t

        # psi(anchor) = -t < 0; a psi still negative at cap means that any
        # root would blow the power budget.
        q = increasing_root(psi, anchor, d_r, cap)
        if q is None:
            return None
        levels.append(q)
        d_rights.append(d_r)
        running += q
    return levels, d_rights, oracles


def exact_power_at(channel: ChannelSpec, sigma2: float, cfg: DesignConfig, t: float) -> float:
    """Mean power of the exponent-t construction under the exact tails of `channel`;
    +inf past 4 * budget or with no next level."""
    built = _exact_levels_at(t, cfg, lambda p: RateOracle(channel, sigma2, p))
    return math.inf if built is None else sum(built[0]) / cfg.L


def _noise_unit(sigma2: float) -> float:
    """The power of 4 within a factor 2 of sigma2: dividing a power by it, or
    an amplitude by its square root, is exact."""
    exponent = math.frexp(sigma2)[1]
    return math.ldexp(1.0, exponent - (exponent & 1))


def _design(
    sigma2: float,
    alpha1_value: float,
    cfg: DesignConfig,
    factory_in: Callable[[float], Callable[[float], object]],
    unit: Optional[float] = None,
) -> DesignOutcome:
    """The construction under one tail model, at the largest exponent that fits the budget.

    A design depends on budget / sigma2 alone, so it runs in units of the
    power of 4 nearest sigma2 (`_noise_unit`): `factory_in(unit)` gives the
    tail model of a level p for the noise power sigma2 / unit, and the
    levels, boundaries and power are scaled back at the end.  Scaling by a
    power of 4 is exact, so the outcome is bit-identical to an unscaled run
    wherever that run neither overflows nor underflows.  A given `unit`
    replaces the power of 4.  Region boundaries sit at p + sigma2 + d_R for
    every model.  A noise power outside (0, inf), a fourth-moment
    coefficient alpha1 of the tail model above _MAX_ALPHA1, a total power
    L * budget above _MAX_TOTAL_SNR * sigma2, and a level step
    2 * budget / (L - 1) below _MIN_LEVEL_STEP * sigma2 are refused.  A
    power short of the budget by more than cfg.eps relative is logged as a
    warning on the `simo_energy` logger.
    """
    sigma2 = check_number(sigma2, "sigma2", 0, math.inf, "()")
    check_number(alpha1_value, "alpha1", 0, _MAX_ALPHA1)
    budget = cfg.power_budget
    total = cfg.L * budget
    if not (total <= _MAX_TOTAL_SNR * sigma2):
        raise InputError(
            "power_budget",
            f"power_budget must be at most {_MAX_TOTAL_SNR:g} / L times the noise power "
            f"{sigma2!r}, got {budget!r}",
        )
    if not (2.0 * budget >= _MIN_LEVEL_STEP * (cfg.L - 1) * sigma2):
        raise InputError(
            "power_budget",
            f"power_budget must be at least {_MIN_LEVEL_STEP / 2:g} * (L - 1) times the noise "
            f"power {sigma2!r}, got {budget!r}",
        )
    unit = _noise_unit(sigma2) if unit is None else unit
    noise = sigma2 / unit
    factory = factory_in(unit)
    unit_cfg = replace(cfg, power_budget=budget / unit)
    fit, iters = _maximize_exponent(lambda t: _exact_levels_at(t, unit_cfg, factory), unit_cfg)
    if fit is None:
        return DesignOutcome(
            False, None, t_star=0.0, mean_power=math.inf, boundary_exponents=(), iterations=iters
        )
    t_star, power, levels, d_rights, oracles = fit
    power *= unit
    if budget - power > cfg.eps * budget:
        _log.warning(
            "design power %r at t=%r falls short of the budget %r by more than eps=%r",
            power, t_star, budget, cfg.eps,
        )
    boundaries = tuple((p + noise + d_r) * unit for p, d_r in zip(levels, d_rights))
    # The construction built the oracle of every level but the last.
    oracles.append(factory(levels[-1]))
    exponents = tuple(
        (lower.rate_right(d_r), upper.rate_left(q - p - d_r))
        for p, q, d_r, lower, upper in zip(levels, levels[1:], d_rights, oracles, oracles[1:])
    )
    return DesignOutcome(
        feasible=True,
        constellation=Constellation(tuple(p * unit for p in levels), sigma2, boundaries),
        t_star=t_star,
        mean_power=power,
        boundary_exponents=exponents,
        iterations=iters,
    )


def design_exact(
    channel: ChannelSpec,
    sigma2: float,
    cfg: DesignConfig,
    oracle_factory: Optional[Callable[[float], object]] = None,
) -> DesignOutcome:
    """Exponent-optimal constellation for a fully known channel distribution.

    Every interior region edge of the result sits at the same tail exponent
    t_star, and the mean power meets the budget to within cfg.eps.  A given
    `oracle_factory` replaces the exact oracle of `channel`, for example by
    one that records its calls; its oracles work at the noise power sigma2,
    so that design runs unscaled.
    """
    if oracle_factory is not None:
        return _design(sigma2, channel.alpha1, cfg, lambda unit: oracle_factory, unit=1.0)
    return _design(
        sigma2, channel.alpha1, cfg, lambda unit: partial(RateOracle, channel, sigma2 / unit)
    )


def design_moments(
    alpha1_value: float, sigma2: float, cfg: DesignConfig
) -> DesignOutcome:
    """Constellation design from the first four fading moments only.

    Runs the exact design's construction under the quadratic tail model
    d^2/(2 s(p)) with s(p) = alpha1*p^2 + 2*sigma2*p + sigma2^2, so
    consecutive levels satisfy q - p = sqrt(2t)(sqrt(s(q)) + sqrt(s(p))) and
    the region boundary after level p sits at p + sigma2 + sqrt(2t*s(p)).
    """
    alpha1_value = check_number(alpha1_value, "alpha1_value", 0, math.inf, "[)")
    return _design(
        sigma2, alpha1_value, cfg,
        lambda unit: partial(QuadraticRateOracle, alpha1_value, sigma2 / unit),
    )


def design_robust(box: UncertaintyBox, cfg: DesignConfig) -> DesignOutcome:
    """Minimax constellation over a moment-uncertainty box.

    Runs the exact design's construction under the worst quadratic tails
    over the box (`_BoxRateOracle`), so every region edge guarantees exponent
    t_star under the least favourable (alpha1, sigma).  A zero-width box
    reproduces design_moments.  Infeasibility (no positive exponent fits the
    power budget, which a wide enough noise range forces) is reported
    through the outcome flag, not an exception.
    """

    def factory_in(unit: float):
        root = math.sqrt(unit)
        scaled = replace(box, sigma_min=box.sigma_min / root, sigma_max=box.sigma_max / root)
        return partial(_BoxRateOracle, scaled)

    return _design(box.sigma_max**2, box.alpha1_max, cfg, factory_in)


def min_distance_constellation(L: int, sigma2: float) -> Constellation:
    """Equispaced levels 2(k-1)/(L-1) with boundaries at the receiver-point midpoints."""
    check_number(L, "L", *_L_RANGE, whole=True)
    levels = tuple(2.0 * k / (L - 1) for k in range(L))
    boundaries = tuple((2.0 * k - 1.0) / (L - 1) + sigma2 for k in range(1, L))
    return Constellation(levels, sigma2, boundaries)


def ask_constellation(L: int, sigma2_design: float = 1.0) -> Constellation:
    """Equally spaced amplitudes scaled to unit mean power; levels only.

    The returned constellation carries no decoding regions: an ASK system is
    decoded by the energy-domain likelihood rule.
    """
    check_number(L, "L", *_L_RANGE, whole=True)
    delta2 = 6.0 / ((L - 1) * (2 * L - 1))
    levels = tuple(delta2 * k * k for k in range(L))
    return Constellation(levels, sigma2_design)


@dataclass(frozen=True)
class PamConstellation:
    """Symmetric real amplitudes with unit mean power, in increasing order."""

    amplitudes: tuple

    @property
    def L(self) -> int:
        return len(self.amplitudes)


def pam_constellation(L: int) -> PamConstellation:
    """Amplitudes (2k-1-L)*Delta with Delta^2 = 3/(L^2-1); L must be a power of 2."""
    L = check_number(L, "L", *_L_RANGE, whole=True)
    if L & (L - 1):
        raise InputError("L", f"L must be a power of two, got {L!r}")
    delta = math.sqrt(3.0 / (L * L - 1.0))
    return PamConstellation(tuple((2.0 * k - 1.0 - L) * delta for k in range(1, L + 1)))


def equalized_regions(
    levels: Sequence[float], channel: ChannelSpec, sigma2: float
) -> Constellation:
    """Best interval decoding regions for fixed levels: equal exponents per boundary."""
    levels, sigma2 = check_levels(levels, sigma2)
    oracles = [RateOracle(channel, sigma2, p) for p in levels]
    boundaries = []
    for k in range(len(levels) - 1):
        gap = levels[k + 1] - levels[k]
        d_r = equalize_boundary(oracles[k], oracles[k + 1], gap)
        boundaries.append(levels[k] + sigma2 + d_r)
    return Constellation(levels, sigma2, tuple(boundaries))
