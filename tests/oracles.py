"""Independent oracles that exist only to check production code.

Each one computes a production quantity by a different route, so a test
can compare the two.  Nothing here is part of the virialkit package.
"""

import math

from scipy.optimize import brentq
from scipy.special import lambertw


def tree_fn_T_bisect(s):
    """Oracle for homogeneous.tree_fn_T: solve T e^-T = s for T in [0, 1]
    by bracketing."""
    if s == 0:
        return 0.0
    return brentq(lambda t: t * math.exp(-t) - s, 0.0, 1.0, xtol=1e-14)


def k_constant_closed_form():
    """Oracle for homogeneous.k_constant: the closed form
    (1 - W(e/2))^2 / W(e/2)."""
    W = float(lambertw(math.e / 2.0).real)
    return (1.0 - W) ** 2 / W
