"""disentangle against the extended-precision reference in reference.py."""

import cmath
import math

import numpy as np
import pytest

from bchkit import AlgebraKind, ExponentParams, disentangle
from reference import CENSUS_BOUND, gauss_coordinates, relative_error, worst_relative_error

# Relative bound on every coordinate of a triangular exponent's disentangling.
TRIANGULAR_BOUND = 4e-15


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


def census_draw(rng, region):
    """One exponent (lp, lc, lm) with |lambda| from 1 to 1e3; near the triangular set,
    |lp|, |lm| <= 1 and one of them scaled by 10^-k, k = 0 to 30."""
    size = 10.0 ** rng.uniform(0, 3)
    if region == "general":
        return tuple(size * unit(rng) for _ in range(3))
    lc = size * unit(rng)
    lp, lm = (10.0 ** rng.uniform(-1, 0) * unit(rng) for _ in range(2))
    tiny = 10.0 ** -int(rng.integers(0, 31))
    return (lp * tiny, lc, lm) if rng.integers(0, 2) else (lp, lc, lm * tiny)


@pytest.mark.parametrize("region", ["general", "near_triangular"])
@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_census_matches_the_reference(kind, region):
    # near the triangular set, x = delta*eps*lp*lm is small next to (delta*lc/2)^2 and
    # cosh(nu) - (delta*lc/2) sinh(nu)/nu cancels down to about exp(-nu)
    rng = np.random.default_rng(31)
    worst, where = 0.0, None
    for _ in range(40):
        lp, lc, lm = census_draw(rng, region)
        g = disentangle(kind, ExponentParams(lp, lc, lm)).element
        error = worst_relative_error(kind.value, lp, lc, lm, (g.big_plus, g.log_c, g.big_minus))
        if error > worst:
            worst, where = error, (lp, lc, lm)
    assert worst <= CENSUS_BOUND, (worst, where)
