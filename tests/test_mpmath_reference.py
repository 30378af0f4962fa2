"""Closed-form log-MGF and tail exponents against 50-digit mpmath references.

The log-MGF reference integrates exp(theta*|y|^2) against the densities
the model is built from: the two Gaussian quadratures of y under Rician
fading, and the Gamma law of |h|^2 (with the noise integrated out
conditionally) under Nakagami fading.  The exponent reference finds the
stationary point of theta*v - Lambda(theta) with mpmath.findroot on a
numerically differentiated 50-digit Lambda, and takes the supremum there.
The energy-ML density is checked against the Bessel form of the noncentral
chi-square density, with mpmath.besseli, and the Nakagami mean amplitude and
channel variance against the Gamma-function ratio.  The log-MGF curvature is
checked against mpmath.diff of the 50-digit log-MGF, and the saddle-point
SER of Rician designs against quadrature of that Bessel-form density.
"""

import math

import pytest

from simo_energy.channel import (
    NakagamiReal,
    Rician,
    log_mgf_energy,
    rayleigh,
)
from simo_energy.decode import energy_ml_logpdf
from simo_energy.design import DesignConfig, design_exact
from simo_energy.rates import RateOracle, interval_decision_probabilities

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

DPS = 50
REL_TOL = 1e-10

CHANNELS = {
    "rayleigh": rayleigh(),
    "rician_0dB": Rician(0.0),
    "rician_inf": Rician(math.inf),
    "nakagami_m0.6": NakagamiReal(0.6),
    "nakagami_m2.5": NakagamiReal(2.5),
}
POWERS = [0.0, 0.7, 3.0]
SIGMA2S = [0.1, 1.0]


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(DPS):
        yield


def _log_mgf_by_quadrature(channel, sigma2, p, theta):
    """log E[exp(theta*U)] by integrating over the fading and noise densities."""
    sigma2, p, theta = mpf(sigma2), mpf(p), mpf(theta)
    if isinstance(channel, Rician):
        # y ~ CN(mu*sqrt(p), s), so |y|^2 = (c + a)^2 + b^2 with a, b i.i.d.
        # N(0, s/2); the expectation factors into two Gaussian integrals.
        c = mpf(channel.mu) * mpmath.sqrt(p)
        var = (mpf(channel.sigma_h2) * p + sigma2) / 2

        def expect(shift):
            # Integrate around the peak of the tilted Gaussian.
            spread = 1 - 2 * theta * var
            centre = 2 * theta * var * shift / spread
            width = mpmath.sqrt(var / spread)
            points = [-mpmath.inf, centre - 8 * width, centre, centre + 8 * width, mpmath.inf]
            density_scale = mpmath.sqrt(2 * mpmath.pi * var)
            return mpmath.quad(
                lambda a: mpmath.exp(theta * (shift + a) ** 2 - a**2 / (2 * var)) / density_scale,
                points,
            )

        log_e = mpmath.log(expect(c)) + mpmath.log(expect(0))
        return log_e - theta * (p + sigma2)
    # Given G = |h|^2 ~ Gamma(m, 1/m), |y|^2 is noncentral exponential:
    # E[exp(theta|y|^2) | G] = exp(c*G) / (1 - theta*sigma2).
    m = mpf(channel.m)
    qn = 1 - theta * sigma2
    c = theta * p / qn
    rate = m

    def integrand(g):
        density = rate**m * g ** (m - 1) * mpmath.exp(-rate * g) / mpmath.gamma(m)
        return density * mpmath.exp(c * g)

    scale = m / (rate - c)
    points = [0, scale, 16 * scale, mpmath.inf]
    return mpmath.log(mpmath.quad(integrand, points) / qn) - theta * (p + sigma2)


def _theta_max_mp(channel, sigma2, p):
    if isinstance(channel, Rician):
        return 1 / (mpf(channel.sigma_h2) * p + sigma2)
    return 1 / (mpf(sigma2) + p / mpf(channel.m))


def _log_mgf_mp(channel, sigma2, p, theta):
    """The closed-form log-MGF written directly from the two fading laws."""
    sigma2, p = mpf(sigma2), mpf(p)
    if isinstance(channel, Rician):
        lam = mpf(channel.mu) ** 2 * p
        s = mpf(channel.sigma_h2) * p + sigma2
        q = 1 - theta * s
        return theta * lam / q - mpmath.log(q) - theta * (p + sigma2)
    m = mpf(channel.m)
    qn = 1 - theta * sigma2
    c = theta * p / qn
    return -m * mpmath.log(1 - c / m) - mpmath.log(qn) - theta * (p + sigma2)


def _saddle_mp(channel, sigma2, p, v):
    """Root of Lambda'(theta) = v, with Lambda' by numerical differentiation."""
    def slope(theta):
        return mpmath.diff(lambda t: _log_mgf_mp(channel, sigma2, p, t), theta) - v

    if v > 0:
        t_max = _theta_max_mp(channel, sigma2, p)
        lo, hi = mpf(0), t_max / 2
        while slope(hi) < 0:
            lo, hi = hi, (hi + t_max) / 2
    else:
        hi, lo = mpf(0), -1 / mpf(sigma2)
        while slope(lo) > 0:
            hi, lo = lo, 2 * lo
    return mpmath.findroot(slope, (lo, hi), solver="anderson")


def _rate_mp(channel, sigma2, p, v):
    """sup over theta of theta*v - Lambda(theta), attained at the stationary point."""
    theta = _saddle_mp(channel, sigma2, p, v)
    best = theta * v - _log_mgf_mp(channel, sigma2, p, theta)
    for nearby in (theta * (1 + mpf("1e-3")), theta * (1 - mpf("1e-3"))):
        assert nearby * v - _log_mgf_mp(channel, sigma2, p, nearby) <= best
    return theta, best


def _rel_err(got, ref):
    return abs(mpf(got) - ref) / abs(ref)


# Each quadrature costs about half a second at 50 digits, so this grid
# covers p = 0 for both families, K = +inf, m < 1 and m > 1 once each.
QUADRATURE_CASES = [
    ("rayleigh", 1.0, 0.0),
    ("rayleigh", 0.1, 0.7),
    ("rician_0dB", 0.1, 3.0),
    ("rician_inf", 0.1, 0.7),
    ("nakagami_m0.6", 0.1, 0.7),
    ("nakagami_m2.5", 1.0, 3.0),
    ("nakagami_m2.5", 0.1, 0.0),
]


@pytest.mark.parametrize("name,sigma2,p", QUADRATURE_CASES)
def test_log_mgf_against_quadrature(name, sigma2, p):
    channel = CHANNELS[name]
    t_max = channel.theta_max(sigma2, p)
    # The last point approaches the domain boundary theta_max.
    for f in (-20.0, -0.05, 0.5, 1 - 1e-5):
        theta = f * t_max
        ref = _log_mgf_by_quadrature(channel, sigma2, p, theta)
        assert _rel_err(log_mgf_energy(channel, sigma2, p, theta), ref) <= REL_TOL, (f, ref)


@pytest.mark.parametrize("name", sorted(CHANNELS))
@pytest.mark.parametrize("sigma2", SIGMA2S)
@pytest.mark.parametrize("p", POWERS)
def test_rates_against_findroot_supremum(name, sigma2, p):
    channel = CHANNELS[name]
    oracle = RateOracle(channel, sigma2, p)
    for side, fractions in (
        ("right", (0.01, 0.3, 1.0, 5.0, 50.0)),
        # d -> r(p), the floor of the statistic, for the left tail.
        ("left", (0.01, 0.3, 0.9, 0.999, 1 - 1e-6)),
    ):
        for f in fractions:
            d = f * oracle.r
            v = d if side == "right" else -d
            theta_ref, rate_ref = _rate_mp(channel, sigma2, p, v)
            theta = channel.saddle_point(sigma2, p, v)
            assert _rel_err(theta, theta_ref) <= 1e-8, (side, f)
            rate = oracle.rate_right(d) if side == "right" else oracle.rate_left(d)
            assert _rel_err(rate, rate_ref) <= REL_TOL, (side, f, rate, rate_ref)


def test_left_rate_infinite_at_the_floor():
    oracle = RateOracle(NakagamiReal(0.6), 0.1, 0.7)
    assert oracle.rate_left(oracle.r) == math.inf
    assert math.isfinite(oracle.rate_left(oracle.r * (1 - 1e-12)))


def _ncx2_logpdf_mp(w, df, nc):
    """Noncentral chi-square log-density from its Bessel-function form."""
    nu = mpf(df) / 2 - 1
    return (
        -mpmath.log(2) - (w + nc) / 2 + nu / 2 * mpmath.log(w / nc)
        + mpmath.log(mpmath.besseli(nu, mpmath.sqrt(nc * w)))
    )


# (n, noncentrality): scipy's ive range; the Debye range where ive returns
# NaN (sqrt(nc*w) past 2**30, i.e. a receiver assuming tiny noise); and the
# Debye range where ive underflows (large order, small noncentrality).
NCX2_CASES = [
    (1, 0.5), (4, 300.0), (100, 40.0), (8, 2e9), (1, 1e11), (400, 1e11), (400, 0.5), (2048, 400.0),
]


@pytest.mark.parametrize("n,nc", NCX2_CASES)
def test_energy_ml_logpdf_against_besseli(n, nc):
    # sigma_h2 = 0 and mu = p = 1 make the scaled statistic 2n*stat/sigma2
    # noncentral chi-square with noncentrality 2n/sigma2.
    sigma2 = 2 * n / nc
    df = 2 * n
    sd = math.sqrt(2 * df + 4 * nc)
    stats = [max(df + nc + k * sd, 1.0) * sigma2 / (2 * n) for k in (-5, -1, 0, 2, 6)]
    got = energy_ml_logpdf(stats, n, [1.0], 1.0, 0.0, sigma2)[:, 0]
    s2 = mpf(sigma2)
    for stat, value in zip(stats, got):
        w = 2 * n * mpf(stat) / s2
        ref = _ncx2_logpdf_mp(w, df, 2 * n / s2) + mpmath.log(2 * n / s2)
        assert math.isfinite(value)
        assert _rel_err(value, ref) <= REL_TOL, (stat, value, ref)


@pytest.mark.parametrize("m", [0.5, 0.9, 2.0, 15.9, 16.0, 50.0, 1e3, 1e5, 1e8, 1e12])
def test_nakagami_mean_and_variance_against_gamma_ratio(m):
    # E[A] = Gamma(m + 1/2) / (Gamma(m) sqrt(m)) and sigma_h2 = 1 - E[A]^2;
    # 1 - E[A]^2 loses digits to cancellation in double precision as m grows.
    M = mpf(m)
    mu = mpmath.exp(mpmath.loggamma(M + mpf(1) / 2) - mpmath.loggamma(M)) / mpmath.sqrt(M)
    channel = NakagamiReal(m)
    assert _rel_err(channel.mu, mu) <= 1e-11
    assert _rel_err(channel.sigma_h2, 1 - mu**2) <= 1e-11


@pytest.mark.parametrize("name", sorted(CHANNELS))
@pytest.mark.parametrize("sigma2", SIGMA2S)
@pytest.mark.parametrize("p", POWERS)
def test_log_mgf_curvature_against_mpmath_diff(name, sigma2, p):
    channel = CHANNELS[name]
    t_max = channel.theta_max(sigma2, p)
    for f in (-20.0, -0.05, 0.0, 0.5, 0.99):
        theta = f * t_max
        ref = mpmath.diff(lambda t: _log_mgf_mp(channel, sigma2, p, t), mpf(theta), 2)
        got = channel.log_mgf_curvature(sigma2, p, theta)
        assert _rel_err(got, ref) <= REL_TOL, (f, got, ref)


def _rician_tail_mp(channel, sigma2, p, n, c, upper):
    """P(||y||^2 / n > c) (`upper`) or P(||y||^2 / n <= c) under Rician fading,
    by quadrature of the noncentral chi-square density: 2n * stat / s is
    chi-square with 2n degrees of freedom and noncentrality 2n * mu^2 * p / s,
    with s = sigma_h2 * p + sigma2."""
    s = mpf(channel.sigma_h2) * p + sigma2
    df, nc = 2 * n, 2 * n * mpf(channel.mu) ** 2 * p / s
    x = 2 * n * mpf(c) / s
    mean, sd = df + nc, mpmath.sqrt(2 * df + 4 * nc)

    def density(w):
        if w <= 0:
            return mpf(0)
        if nc == 0:  # the level p = 0: central chi-square
            k = mpf(df) / 2
            log_pdf = (k - 1) * mpmath.log(w) - w / 2 - k * mpmath.log(2) - mpmath.loggamma(k)
            return mpmath.exp(log_pdf)
        return mpmath.exp(_ncx2_logpdf_mp(w, df, nc))

    if upper:
        points = [x] + [mean + k * sd for k in (1, 4, 16, 64) if mean + k * sd > x] + [mpmath.inf]
    else:
        points = [mpf(0)] + [mean - k * sd for k in (64, 16, 4, 1) if 0 < mean - k * sd < x] + [x]
    return mpmath.quad(density, points)


# The exact Rician L = 4 design at 10 dB, K = 0 and 10 dB, at n = 16 and 100.
@pytest.mark.parametrize("K_db", [0.0, 10.0])
@pytest.mark.parametrize("n,tol", [(16, 1e-2), (100, 1e-3)])
def test_saddle_point_ser_against_the_noncentral_chi_square(K_db, n, tol):
    channel = Rician(K_db)
    sigma2 = 0.1
    con = design_exact(channel, sigma2, DesignConfig(L=4)).constellation
    probs = interval_decision_probabilities(con.levels, con.boundaries, channel, sigma2)(n)
    got = sum(probs[k][j] for k in range(4) for j in range(4) if j != k) / 4
    edges = (0.0,) + con.boundaries + (math.inf,)
    ref = mpf(0)
    for k, p in enumerate(con.levels):
        if k > 0:
            ref += _rician_tail_mp(channel, sigma2, p, n, edges[k], upper=False)
        if k < 3:
            ref += _rician_tail_mp(channel, sigma2, p, n, edges[k + 1], upper=True)
    ref /= 4
    assert _rel_err(got, ref) <= tol, (got, ref)
