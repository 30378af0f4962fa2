"""Constructors and guards that only the tests need."""

import math
import signal
from contextlib import contextmanager

from simo_energy.design import UncertaintyBox


def degenerate_box(alpha1_value: float, sigma2: float) -> UncertaintyBox:
    """The zero-width box at (alpha1_value, sigma2): robust design on it is the moments design."""
    s = math.sqrt(sigma2)
    return UncertaintyBox(alpha1_value, alpha1_value, s, s)


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
