"""Invariants of the three designs over the whole parameter range.

All three designs run one construction under different tail models, so the
same checks apply to each: levels strictly increase from 0, every receiver
point lies inside its region, the weakest exponent at every boundary equals
t_star, and the mean power meets the budget.  Non-robust designs are always
feasible, because the construction's power tends to 0 with the exponent.
"""

import logging
import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simo_energy.channel import (
    NakagamiReal,
    Rician,
    alpha1,
    energy_variance,
    sigma_from_snr,
)
from simo_energy.design import (
    DesignConfig,
    UncertaintyBox,
    design_exact,
    design_moments,
    design_robust,
)
from helpers import degenerate_box, mean_power

SNR_DB = st.floats(min_value=-20.0, max_value=50.0)
K_DB = st.one_of(
    st.just(-math.inf), st.floats(min_value=-10.0, max_value=30.0), st.just(math.inf)
)
RICIAN = st.builds(Rician, K_DB)
NAKAGAMI = st.builds(NakagamiReal, st.floats(min_value=0.5, max_value=50.0))
CHANNEL = st.one_of(RICIAN, NAKAGAMI)
BUDGET = st.sampled_from([1.0, 0.01, 25.0])
EXPONENT_RTOL = 1e-6


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@contextmanager
def solver_log():
    """Records everything the `simo_energy` logger emits inside the block."""
    handler = _Records()
    logger = logging.getLogger("simo_energy")
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def check_design(out, cfg, sigma2_min=None):
    """Shared invariants; sigma2_min is the smallest noise a robust box allows."""
    con = out.constellation
    levels = con.levels
    assert levels[0] == 0.0
    assert all(b > a for a, b in zip(levels, levels[1:]))
    edges = (0.0,) + con.boundaries + (math.inf,)
    for k, r in enumerate(con.receiver_points()):
        assert edges[k] < r < edges[k + 1]
    if sigma2_min is not None:
        # The least noise the box allows still leaves every receiver point
        # above the edge below it.
        for k in range(1, con.L):
            assert levels[k] + sigma2_min > edges[k]
    t = out.t_star
    assert t > 0.0
    assert len(out.boundary_exponents) == cfg.L - 1
    for right, left in out.boundary_exponents:
        assert min(right, left) == pytest.approx(t, rel=EXPONENT_RTOL)
        assert right >= t * (1.0 - EXPONENT_RTOL)
        assert left >= t * (1.0 - EXPONENT_RTOL)
    budget = cfg.power_budget
    assert out.mean_power == pytest.approx(mean_power(con), rel=1e-12)
    assert budget * (1.0 - 1e-6) <= out.mean_power <= budget * (1.0 + 1e-12)


def check_guaranteed_exponents(out, box, points=101):
    """Every (alpha1, sigma^2) on a grid over the box keeps both tails of every
    boundary at or above t_star; alpha1_max is the worst alpha1 for any sigma."""
    con = out.constellation
    xs = [
        box.sigma_min**2 + (box.sigma_max**2 - box.sigma_min**2) * i / (points - 1)
        for i in range(points)
    ]
    floor = out.t_star * (1.0 - EXPONENT_RTOL)
    for k, c in enumerate(con.boundaries):
        p, q = con.levels[k], con.levels[k + 1]
        for x in xs:
            d_r = c - (p + x)
            d_l = (q + x) - c
            assert d_r > 0.0 and d_l > 0.0
            assert d_r * d_r / (2.0 * energy_variance(box.alpha1_max, x, p)) >= floor
            assert d_l * d_l / (2.0 * energy_variance(box.alpha1_max, x, q)) >= floor


def check_equalized(out):
    """Exact and moment designs put both sides of every boundary at t_star."""
    for right, left in out.boundary_exponents:
        assert right == pytest.approx(out.t_star, rel=EXPONENT_RTOL)
        assert left == pytest.approx(out.t_star, rel=EXPONENT_RTOL)


def check_exact_design(channel, snr_db, L, budget):
    cfg = DesignConfig(L=L, power_budget=budget)
    with solver_log() as records:
        out = design_exact(channel, sigma_from_snr(snr_db), cfg)
    assert records == []
    assert out.feasible
    check_design(out, cfg)
    check_equalized(out)


@settings(max_examples=30)
@given(channel=CHANNEL, snr_db=SNR_DB, L=st.integers(2, 16), budget=BUDGET)
def test_exact_design_invariants(channel, snr_db, L, budget):
    check_exact_design(channel, snr_db, L, budget)


# Large exact designs take up to about a second each, so only a few run.
@settings(max_examples=4)
@given(channel=CHANNEL, snr_db=SNR_DB, L=st.integers(17, 64), budget=BUDGET)
def test_large_exact_design_invariants(channel, snr_db, L, budget):
    check_exact_design(channel, snr_db, L, budget)


@settings(max_examples=60)
@given(channel=CHANNEL, snr_db=SNR_DB, L=st.integers(2, 64), budget=BUDGET)
def test_moments_design_invariants(channel, snr_db, L, budget):
    cfg = DesignConfig(L=L, power_budget=budget)
    with solver_log() as records:
        out = design_moments(alpha1(channel), sigma_from_snr(snr_db), cfg)
    assert records == []
    assert out.feasible
    check_design(out, cfg)
    check_equalized(out)


@settings(max_examples=30)
@given(
    channel=RICIAN,
    snr_db=SNR_DB,
    L=st.integers(2, 64),
    alpha_frac=st.floats(min_value=0.0, max_value=0.5),
    sigma_frac=st.floats(min_value=0.0, max_value=0.1),
)
def test_robust_design_invariants(channel, snr_db, L, alpha_frac, sigma_frac):
    a1 = alpha1(channel)
    s = math.sqrt(sigma_from_snr(snr_db))
    box = UncertaintyBox(
        a1 * (1.0 - alpha_frac), a1 * (1.0 + alpha_frac),
        s * (1.0 - sigma_frac), s * (1.0 + sigma_frac),
    )
    cfg = DesignConfig(L=L)
    with solver_log() as records:
        out = design_robust(box, cfg)
    assert records == []
    # Robustness can cost every positive exponent (criterion 05); it can never
    # beat the moment design at the box's least favourable corner.
    corner = design_moments(box.alpha1_max, box.sigma_max**2, cfg)
    if out.feasible:
        check_design(out, cfg, sigma2_min=box.sigma_min**2)
        check_guaranteed_exponents(out, box)
        assert out.t_star <= corner.t_star * (1.0 + EXPONENT_RTOL)
    else:
        assert out.constellation is None


@settings(max_examples=20)
@given(channel=RICIAN, snr_db=SNR_DB, L=st.integers(2, 64))
def test_zero_box_robust_equals_moments(channel, snr_db, L):
    a1 = alpha1(channel)
    box = degenerate_box(a1, sigma_from_snr(snr_db))
    cfg = DesignConfig(L=L)
    robust = design_robust(box, cfg)
    moments = design_moments(a1, box.sigma_max**2, cfg)
    assert robust.feasible
    assert robust.t_star == pytest.approx(moments.t_star, rel=1e-12)
    assert robust.constellation.levels == pytest.approx(
        moments.constellation.levels, rel=1e-12, abs=1e-15
    )
    assert robust.constellation.boundaries == pytest.approx(
        moments.constellation.boundaries, rel=1e-12
    )
