"""disentangle against the extended-precision reference in reference.py."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from bchkit import AlgebraKind, ExponentParams, disentangle
from reference import gauss_coordinates

# Relative bound on every coordinate of a triangular exponent's disentangling.
TRIANGULAR_BOUND = 4e-15


def relative_error(got, expected, period=None):
    """|got - expected| / |expected|, the difference first reduced modulo ``period`` if given."""
    with mpmath.workdps(40):
        diff = mpmath.mpc(got) - expected
        if period is not None:
            diff -= mpmath.nint(mpmath.re(diff / period)) * period
        return float(abs(diff) / abs(expected))


def unit(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_triangular_census_matches_the_reference(kind):
    # lambda_plus*lambda_minus == 0: w = exp(-delta*lambda_c/2) exactly, which the
    # general form cosh(nu) - (delta*lambda_c/2) sinh(nu)/nu only reaches by cancellation
    rng = np.random.default_rng(12)
    worst, where = 0.0, None
    for magnitude in (0.1, 1, 10, 25, 100, 300):
        for side in ("plus", "minus"):
            for _ in range(20):
                lc = magnitude * unit(rng)
                l = 10.0 ** rng.uniform(-1, 1) * unit(rng)
                lp, lm = (l, 0j) if side == "plus" else (0j, l)
                g = disentangle(kind, ExponentParams(lp, lc, lm)).element
                big_plus, log_c, big_minus, period = gauss_coordinates(kind.value, lp, lc, lm)
                zero, nonzero = (g.big_minus, g.big_plus) if side == "plus" else (g.big_plus, g.big_minus)
                assert zero == 0, (lp, lc, lm)
                errors = (
                    relative_error(nonzero, big_plus if side == "plus" else big_minus),
                    relative_error(g.log_c, log_c, period),
                )
                if max(errors) > worst:
                    worst, where = max(errors), (lp, lc, lm)
    assert worst <= TRIANGULAR_BOUND, (worst, where)
