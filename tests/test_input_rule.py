"""Every library input goes through `check_number`, and every refusal is an
InputError whose message starts with the refused parameter's name.

`TestLevelRule` in test_decode.py covers the ordered levels; this contract
covers the other numeric inputs.  Each entry tries one parameter with the
edge values it must refuse and with numbers outside its range.  The rate
layer checks on every evaluation by chained comparisons, which take a bool
as 0 or 1, so its parameters are not tried with a bool; an infinity is not
tried where it is a valid input (an infinite K-factor, an infinite left
deviation or bracket width, an overflowed energy variance).
"""

import math

import pytest

from simo_energy.channel import (
    InputError,
    NakagamiReal,
    Rician,
    increasing_root,
    log_mgf_energy,
    nakagami_m_from_K,
    rayleigh,
    sigma_from_snr,
    u_second_moment,
)
from simo_energy.decode import EnergyMLAsk, EnergyRegions, NoncoherentML, PilotPAM
from simo_energy.decode import ml_threshold_boundaries
from simo_energy.design import (
    DesignConfig,
    UncertaintyBox,
    design_exact,
    design_moments,
    design_robust,
    equalized_regions,
    min_distance_constellation,
)
from simo_energy.montecarlo import SimScenario
from simo_energy.rates import (
    Constellation,
    QuadraticRateOracle,
    RateOracle,
    approx_rate,
    chernoff_ser_bound,
    equalize_boundary,
    tail_exponents,
)
from helpers import time_cap

EDGES = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "bool": True}
ALL = tuple(EDGES)
UNBOUNDED = ("nan", "+inf", "-inf")  # the rate layer's parameters
LEVELS = (0.0, 1.0, 2.0)
AMPLITUDES = (-1.0, 1.0)
ORACLE = RateOracle(rayleigh(), 0.1, 0.5)
QUADRATIC = QuadraticRateOracle(1.0, 0.1, 0.5)
MINDIST = min_distance_constellation(4, 0.1)

# name: (call with the value under test, the parameter it names, the edge
# values it refuses, numbers outside its range)
RULES = {
    "sigma_from_snr": (sigma_from_snr, "gamma_db", ALL, (4000.0, -4000.0)),
    "Rician": (Rician, "K_db", ("nan", "bool"), (3000.5,)),
    "NakagamiReal": (NakagamiReal, "m", ALL, (0.0, 5e-324, 1e13, 1e308)),
    "nakagami_m_from_K": (nakagami_m_from_K, "K_db", ALL, (3001.0,)),
    "u_second_moment.sigma2": (lambda v: u_second_moment(rayleigh(), v, 1.0), "sigma2",
                               UNBOUNDED, (-1.0,)),
    "u_second_moment.p": (lambda v: u_second_moment(rayleigh(), 0.1, v), "p", UNBOUNDED, (-1.0,)),
    "log_mgf_energy.sigma2": (lambda v: log_mgf_energy(rayleigh(), v, 1.0, 0.5), "sigma2",
                              UNBOUNDED, (-1.0,)),
    "log_mgf_energy.p": (lambda v: log_mgf_energy(rayleigh(), 0.1, v, 0.5), "p",
                         UNBOUNDED, (-1.0,)),
    # theta at or beyond the MGF domain boundary 1/(p + sigma2) = 1/1.1.
    "log_mgf_energy.theta": (lambda v: log_mgf_energy(rayleigh(), 0.1, 1.0, v), "theta",
                             UNBOUNDED, (1.0,)),
    "increasing_root.lo": (lambda v: increasing_root(lambda x: -1.0, v, 1.0), "lo", ("nan",), ()),
    "increasing_root.width": (lambda v: increasing_root(lambda x: x - 1.0, 0.0, v), "width",
                              ("nan", "-inf"), (0.0, -1.0)),
    "RateOracle.sigma2": (lambda v: RateOracle(rayleigh(), v, 0.5), "sigma2", UNBOUNDED, (0.0,)),
    "RateOracle.p": (lambda v: RateOracle(rayleigh(), 0.1, v), "p", UNBOUNDED, (-1.0,)),
    "RateOracle.rate_right": (ORACLE.rate_right, "d", UNBOUNDED, (-1.0,)),
    "RateOracle.rate_left": (ORACLE.rate_left, "d", ("nan", "-inf"), (-1.0,)),
    "RateOracle.inverse_rate": (lambda v: ORACLE.inverse_rate("right", v), "t",
                                UNBOUNDED, (0.0,)),
    "RateOracle.inverse_rate.left": (lambda v: ORACLE.inverse_rate("left", v), "t",
                                     UNBOUNDED, (0.0, 100.0)),
    "RateOracle.inverse_rate.side": (lambda v: ORACLE.inverse_rate(v, 0.1), "side", (), ("up",)),
    "QuadraticRateOracle.alpha1_value": (lambda v: QuadraticRateOracle(v, 0.1, 0.5),
                                         "alpha1_value", UNBOUNDED, (-1.0,)),
    "QuadraticRateOracle.sigma2": (lambda v: QuadraticRateOracle(1.0, v, 0.5), "sigma2",
                                   UNBOUNDED, (0.0,)),
    "QuadraticRateOracle.p": (lambda v: QuadraticRateOracle(1.0, 0.1, v), "p", UNBOUNDED, (-1.0,)),
    "QuadraticRateOracle.inverse_rate": (lambda v: QUADRATIC.inverse_rate("right", v), "t",
                                         UNBOUNDED, (0.0,)),
    "approx_rate.s_p": (lambda v: approx_rate(v, 1.0), "s_p", ("nan", "-inf"), (0.0,)),
    "approx_rate.d": (lambda v: approx_rate(4.0, v), "d", UNBOUNDED, (-1.0,)),
    "equalize_boundary": (lambda v: equalize_boundary(ORACLE, ORACLE, v), "gap",
                          UNBOUNDED, (0.0,)),
    "chernoff_ser_bound.n": (lambda v: chernoff_ser_bound(MINDIST, rayleigh(), 0.1, v), "n",
                             ALL, (0, 2.5)),
    "chernoff_ser_bound.sigma2": (lambda v: chernoff_ser_bound(MINDIST, rayleigh(), v, 10),
                                  "sigma2", UNBOUNDED, (0.0,)),
    "Constellation.boundary": (lambda v: Constellation((0.0, 1.0), 0.1, (v,)), "boundaries",
                               ALL, (1.5,)),
    "Constellation.boundaries": (lambda v: Constellation(LEVELS, 0.1, v), "boundaries",
                                 (), ((0.5,), (1.5, 0.6))),
    "tail_exponents": (lambda v: tail_exponents(Constellation((0.0, 1.0), v), rayleigh(), 0.1),
                       "boundaries", (), (0.1,)),
    "UncertaintyBox.alpha1_min": (lambda v: UncertaintyBox(v, 1.0, 0.1, 0.2), "alpha1_min",
                                  ALL, (-0.1,)),
    "UncertaintyBox.alpha1_max": (lambda v: UncertaintyBox(0.5, v, 0.1, 0.2), "alpha1_max",
                                  ALL, (0.2,)),
    "UncertaintyBox.sigma_min": (lambda v: UncertaintyBox(0.5, 1.0, v, 0.2), "sigma_min",
                                 ALL, (0.0,)),
    "UncertaintyBox.sigma_max": (lambda v: UncertaintyBox(0.5, 1.0, 0.1, v), "sigma_max",
                                 ALL, (0.05, 1e200)),
    "design_exact.sigma2": (lambda v: design_exact(rayleigh(), v, DesignConfig(L=4)), "sigma2",
                            ALL, (0.0,)),
    "design_moments.alpha1_value": (lambda v: design_moments(v, 0.1, DesignConfig(L=4)),
                                    "alpha1_value", ALL, (-0.1,)),
    # alpha1 above 1e6, from a Nakagami shape, a moments value or a box edge.
    "design_exact.alpha1": (lambda v: design_exact(NakagamiReal(v), 0.1, DesignConfig(L=4)),
                            "alpha1", (), (1e-300, 9.9e-7)),
    "design_moments.alpha1": (lambda v: design_moments(v, 0.1, DesignConfig(L=4)), "alpha1",
                              (), (1.01e6, 1e300)),
    "design_robust.alpha1": (lambda v: design_robust(UncertaintyBox(0.5, v, 0.1, 0.2),
                                                     DesignConfig(L=4)), "alpha1", (), (1e300,)),
    # A noise power whose level step 2 * budget / (L - 1) is under 5e-14 of it.
    "design_exact.power_budget": (lambda v: design_exact(rayleigh(), v, DesignConfig(L=4)),
                                  "power_budget", (), (1e20, 1.4e13)),
    # L * budget above 1e150, and above 1e9 times the noise power.
    "DesignConfig.power_budget": (lambda v: DesignConfig(L=4, power_budget=v), "power_budget",
                                  (), (2.6e149, 1e300)),
    "design_exact.total_snr": (lambda v: design_exact(rayleigh(), v, DesignConfig(L=4)),
                               "power_budget", (), (1e-10, 1e-300)),
    "equalized_regions.levels": (lambda v: equalized_regions((0.0, v), rayleigh(), 0.1),
                                 "levels", ALL, (-1.0,)),
    "equalized_regions.sigma2": (lambda v: equalized_regions((0.0, 1.0), rayleigh(), v),
                                 "sigma2", ALL, (0.0,)),
    "NoncoherentML.mu": (lambda v: NoncoherentML(LEVELS, v, 0.5, 0.1), "mu", ALL, ()),
    "NoncoherentML.sigma_h2.mu0": (lambda v: NoncoherentML(LEVELS, 0.0, v, 0.1), "sigma_h2",
                                   ALL, (0.0,)),
    "NoncoherentML.sigma_h2.mu05": (lambda v: NoncoherentML(LEVELS, 0.5, v, 0.1), "sigma_h2",
                                    ALL, (-0.5,)),
    "EnergyMLAsk.mu": (lambda v: EnergyMLAsk(LEVELS, v, 0.5, 0.1, 4), "mu", ALL, ()),
    "EnergyMLAsk.sigma_h2": (lambda v: EnergyMLAsk(LEVELS, 0.5, v, 0.1, 4), "sigma_h2",
                             ALL, (-0.5,)),
    "PilotPAM.mu": (lambda v: PilotPAM(AMPLITUDES, v, 0.5, 0.1, 2, 1), "mu", ALL, ()),
    "PilotPAM.sigma_h2": (lambda v: PilotPAM(AMPLITUDES, 0.0, v, 0.1, 2, 1), "sigma_h2",
                          ALL, (-0.5,)),
    "ml_threshold_boundaries": (lambda v: ml_threshold_boundaries(LEVELS, v, 0.1), "sigma_h2",
                                ALL, (0.5,)),
    # Levels whose zero-mean variances sigma_h2 * p + sigma2 round to one float.
    "ml_threshold_boundaries.levels": (
        lambda v: ml_threshold_boundaries((0.0, v), 1.0, 0.1), "levels", (), (1e-300,)),
    # Adjacent variances 1.0 and 1.0000000000000002: no float lies between them
    # for their crossing.
    "ml_threshold_boundaries.crossing": (
        lambda v: ml_threshold_boundaries((0.0, v), 1.0, 1.0), "levels", (), (2.220446049250313e-16,)),
    "NoncoherentML.levels": (lambda v: NoncoherentML((0.0, v), 0.0, 1.0, 0.1), "levels",
                             (), (1e-300,)),
    "EnergyMLAsk.levels": (lambda v: EnergyMLAsk((0.0, v), 0.0, 1.0, 0.1, 4), "levels",
                           (), (1e-300,)),
    "SimScenario.true_sigma2": (
        lambda v: SimScenario(rayleigh(), v, EnergyRegions(MINDIST), n=4, symbols=2000, seed=0),
        "true_sigma2", ALL, (-0.1,)),
    "SimScenario.n": (
        lambda v: SimScenario(rayleigh(), 0.1, EnergyMLAsk(LEVELS, 0.5, 0.5, 0.1, 4), n=v,
                              symbols=2000, seed=0),
        "n", ALL, (5,)),
}
CASES = [
    pytest.param(name, value, id=f"{name}-{edge}")
    for name, (_, _, edges, _) in RULES.items()
    for edge, value in EDGES.items()
    if edge in edges
] + [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name, (_, _, _, outside) in RULES.items()
    for value in outside
]


@pytest.mark.parametrize("name,value", CASES)
def test_refusal_is_an_input_error_naming_its_parameter(name, value):
    call, field, _, _ = RULES[name]
    with time_cap(10), pytest.raises(InputError, match=f"^{field} ") as info:
        call(value)
    assert info.value.field == field
