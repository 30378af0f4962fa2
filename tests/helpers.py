"""Constructors that only the tests need."""

import math

from simo_energy.design import UncertaintyBox


def degenerate_box(alpha1_value: float, sigma2: float) -> UncertaintyBox:
    """The zero-width box at (alpha1_value, sigma2): robust design on it is the moments design."""
    s = math.sqrt(sigma2)
    return UncertaintyBox(alpha1_value, alpha1_value, s, s)
