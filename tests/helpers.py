"""Constructors and guards that only the tests need."""

import math
import signal
from contextlib import contextmanager

import numpy as np

from simo_energy.decode import energy_ml_logpdf, noncoherent_nll
from simo_energy.design import UncertaintyBox


def mean_power(constellation) -> float:
    """Mean transmit power of a constellation's levels."""
    return sum(constellation.levels) / constellation.L


def degenerate_box(alpha1_value: float, sigma2: float) -> UncertaintyBox:
    """The zero-width box at (alpha1_value, sigma2): robust design on it is the moments design."""
    s = math.sqrt(sigma2)
    return UncertaintyBox(alpha1_value, alpha1_value, s, s)


def noncoherent_ml_index(levels, mu, sigma_h2, sigma2, n, norm2, re_sum) -> np.ndarray:
    """Noncoherent ML level index per draw: the argmin of noncoherent_nll."""
    return np.argmin(noncoherent_nll(levels, mu, sigma_h2, sigma2, n, norm2, re_sum), axis=1)


def energy_ml_index(stat, n, levels, mu, sigma_h2, sigma2) -> np.ndarray:
    """Energy-ML level index per draw: the argmax of energy_ml_logpdf."""
    return np.argmax(energy_ml_logpdf(stat, n, levels, mu, sigma_h2, sigma2), axis=1)


class Overtime(Exception):
    pass


@contextmanager
def time_cap(seconds):
    """Raise Overtime in the block once it has run for `seconds` of wall time."""

    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
