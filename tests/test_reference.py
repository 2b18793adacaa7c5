"""disentangle against the extended-precision reference in reference.py, and
_triangular against its first arithmetic on the same draws."""

import cmath
import math
import random
import sys
from cmath import isfinite

import pytest

from bchkit import AlgebraKind, ExponentParams, NonFiniteInput, SingularDecomposition, disentangle
from bchkit.compose import _SERIES_NU_THRESHOLD, _principal, _series, _triangular
from frozen import complex_bits
from reference import CENSUS_BOUND, gauss_coordinates, relative_error, worst_relative_error

# Relative bound on every coordinate of a triangular exponent's disentangling.
TRIANGULAR_BOUND = 4e-15


def unit(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def triangular_draws(rng, magnitudes=(0.1, 1, 10, 25, 100, 300)):
    """(side, lp, lc, lm) with lp*lm == 0: 20 draws per side for each |lambda_c|."""
    for magnitude in magnitudes:
        for side in ("plus", "minus"):
            for _ in range(20):
                lc = magnitude * unit(rng)
                l = 10.0 ** rng.uniform(-1, 1) * unit(rng)
                lp, lm = (l, 0j) if side == "plus" else (0j, l)
                yield side, lp, lc, lm


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_triangular_census_matches_the_reference(kind):
    # lambda_plus*lambda_minus == 0: w = exp(-delta*lambda_c/2) exactly, which the
    # general form cosh(nu) - (delta*lambda_c/2) sinh(nu)/nu only reaches by cancellation
    rng = random.Random(12)
    worst, where = 0.0, None
    for side, lp, lc, lm in triangular_draws(rng):
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


def seed_triangular(half_c, lp, lm, minus_two_over_delta):
    """_triangular as it was when g came from the pair (cosh(nu), sinh(nu)/nu); kept verbatim."""

    def _cosh_sinhc(nu):
        if abs(nu) < _SERIES_NU_THRESHOLD:
            return _series(nu)
        return cmath.cosh(nu), cmath.sinh(nu) / nu

    log_w = complex(-half_c.real, _principal(-half_c.imag))
    rising = (half_c.real, half_c.imag) >= (0.0, 0.0)
    nu = half_c if rising else -half_c
    g = _cosh_sinhc(nu)[1] * cmath.exp(-nu) if nu.real < 709.0 else 0.5 / nu

    def coordinate(l):
        if l == 0:
            return 0j
        lg = l * g
        if not rising:
            return lg
        if half_c.real < 709.0 and abs(lg) >= sys.float_info.min:
            e = cmath.exp(half_c)
            return lg * e * e
        try:
            return cmath.exp(cmath.log(l) + cmath.log(g) + 2.0 * half_c)
        except OverflowError:
            return complex(math.inf, 0.0)

    big_plus, big_minus = coordinate(lp), coordinate(lm)
    if not (isfinite(big_plus) and isfinite(big_minus)):
        raise NonFiniteInput("normal-ordered coordinates overflow double precision")
    return big_plus, minus_two_over_delta * log_w, big_minus, nu


def outcome(function, *args):
    """Bit patterns of a kernel's result, or the message of the NonFiniteInput it raised."""
    try:
        return [complex_bits(z) for z in function(*args)]
    except NonFiniteInput as exc:
        return str(exc)


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_triangular_g_keeps_its_bits(kind):
    # g = sinh(nu)/nu * exp(-nu) no longer forms cosh(nu); the census draws, plus
    # |lambda_c| = 1e-5 for the series and 2000 for Re nu >= 709, keep every bit
    _, half_delta, _, _, minus_two_over_delta = kind._kernel
    rng = random.Random(12)
    for _, lp, lc, lm in triangular_draws(rng, (1e-5, 0.1, 1, 10, 25, 100, 300, 2000)):
        args = (half_delta * lc, lp, lm, minus_two_over_delta)
        assert outcome(_triangular, *args) == outcome(seed_triangular, *args), (lp, lc, lm)


def census_draw(rng, region, index):
    """Exponent (lp, lc, lm) number ``index`` of a census region: |lambda| from 1 to 1e3;
    near the triangular set, |lp|, |lm| <= 1 and one of them scaled by 10^-k, k = 0 to 30;
    beyond |nu| = 1, |Re lambda_c| from half a scale of 3 to 600 to all of it, and
    lambda_plus-minus of that size or, under 600, of 1e-30, where the form
    cosh(nu) - (lc/2) sinh(nu)/nu of w cancels past every digit."""
    if region == "nu_beyond_one":
        scale, small = [(3, 3), (30, 30), (300, 300), (600, 1e-30)][index % 4]
        parts = [rng.uniform(-1, 1) for _ in range(6)]
        lc = scale * complex(math.copysign(0.5 + abs(parts[2]) / 2, parts[2]), parts[3])
        return small * complex(*parts[0:2]), lc, small * complex(*parts[4:6])
    size = 10.0 ** rng.uniform(0, 3)
    if region == "general":
        return tuple(size * unit(rng) for _ in range(3))
    lc = size * unit(rng)
    lp, lm = (10.0 ** rng.uniform(-1, 0) * unit(rng) for _ in range(2))
    tiny = 10.0 ** -rng.randrange(0, 31)
    return (lp * tiny, lc, lm) if rng.randrange(0, 2) else (lp, lc, lm * tiny)


# region: (seed, draws, how many of them must have a normal-ordered form in double range)
CENSUS_REGIONS = {"general": (31, 40, 40), "near_triangular": (31, 40, 40), "nu_beyond_one": (67, 200, 190)}


@pytest.mark.parametrize("region", list(CENSUS_REGIONS))
@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_census_matches_the_reference(kind, region):
    # near the triangular set, x = delta*eps*lp*lm is small next to (delta*lc/2)^2 and
    # cosh(nu) - (delta*lc/2) sinh(nu)/nu cancels down to about exp(-nu); the nu_beyond_one
    # draws take w on the exp(-nu) scale, all but 1 on su(1,1) and 2 on so(2,1) with |nu| > 1
    seed, count, least = CENSUS_REGIONS[region]
    rng = random.Random(seed)
    worst, where, compared = 0.0, None, 0
    for index in range(count):
        lp, lc, lm = census_draw(rng, region, index)
        try:
            g = disentangle(kind, ExponentParams(lp, lc, lm)).element
        except (SingularDecomposition, NonFiniteInput):
            continue
        error = worst_relative_error(kind.value, lp, lc, lm, (g.big_plus, g.log_c, g.big_minus))
        if error > worst:
            worst, where = error, (lp, lc, lm)
        compared += 1
    assert compared >= least
    assert worst <= CENSUS_BOUND, (worst, where)


# su(1,1) exponents fixed by hand: w cancelling down to about exp(-nu), where the form
# cosh(nu) - (lc/2) sinh(nu)/nu of w loses 6.5e-6 of L+; a |nu| of about 780;
# nu = i sqrt(1.1e12), where nu rounded to a double moves exp(-2 nu) and a log w near 0,
# and the coordinates came out 2.5e-10 off; and (lc/2)^2 within 3.5e-12 (relative) of
# lp lm, where nu^2 formed in plain double cancels: nu is about 1.19 + 3.19i, and the
# coordinates came out 3.1e-6 off
CENSUS_ROWS = {
    "near_triangular": (1, 25, 1e-20),
    "large_nu": (
        0.15522507714800948 - 0.03746370018883782j,
        1054.6045162172938 + 1154.7775871381216j,
        0.04263016461507618 + 0.2077347678254593j,
    ),
    "oscillatory_nu": (1e6, 0, 1.1e6),
    "cancelling_nu": (
        -727248.1043854908 - 922190.8685915566j,
        3232015.820424903 - 1686336.004201945j,
        819908.737065273 + 2707494.127245247j,
    ),
}


@pytest.mark.parametrize("row", list(CENSUS_ROWS))
def test_census_rows_match_the_reference(row):
    lam = CENSUS_ROWS[row]
    g = disentangle(AlgebraKind.SU11, ExponentParams(*lam)).element
    assert worst_relative_error("su11", *lam, (g.big_plus, g.log_c, g.big_minus)) <= CENSUS_BOUND
