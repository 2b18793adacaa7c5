"""A seeded census of pair products over the double range, against tests/reference.py.

Each pair (earliest first) is drawn in one region of input space:

- ordinary: |L+-| = 10^U(-3, 3);
- double: |L+-| = 10^U(-300, 308), the whole double range;
- tiny: |L+-| = 10^U(-320, -3), subnormals included;
- guard: ordinary coordinates, with L2- set so that the denominator
  d = 1 - delta*eps*L1+*L2- has |d| = 10^U(-11, -8), just clear of TOL_SINGULAR;
- edge: |delta*eps*L1+*L2-| = 10^U(log10 2**1022, 320), so that |d| is at
  least 2**1022, beyond the largest double, or d itself is not finite.

Every |log_c| is 10^U(-2, 2), every angle uniform.  Each call of compose_many
and alpha_continued_fraction is classified against product_coordinates:

- a match: every coordinate it gives is within BOUND of its scale, the size
  of the terms that form it times the conditioning of d;
- a justified raise: SingularDecomposition where |d| is within roundoff of
  TOL_SINGULAR, NonFiniteInput where a coordinate it gives lies beyond double
  range;
- a false raise: any other raise;
- a wrong value: any other return.

No region may hold a false raise or a wrong value.  Run as a script, the
module prints the tallies of a larger census of one region, with the test's
seeds, and exits 1 if a tally holds either:
``PYTHONPATH=src python tests/test_census.py double 4000``.
"""

import cmath
import math
import random
import sys

import mpmath
import pytest

from bchkit import (
    AlgebraKind,
    GroupElement,
    NonFiniteInput,
    SingularDecomposition,
    TOL_SINGULAR,
    alpha_continued_fraction,
    compose_many,
)
from reference import product_coordinates

# region: the range of log10 |L+-| its draws start from
REGIONS = {"ordinary": (-3, 3), "double": (-300, 308), "tiny": (-320, -3), "guard": (-3, 3), "edge": (-300, 308)}
ROUTES = {"compose_many": compose_many, "alpha_continued_fraction": alpha_continued_fraction}

# A coordinate matches when it is within BOUND of its scale, or FLOOR of it: a few
# subnormal ulps, lost where a term rounds to a subnormal.
BOUND = 1e-14
FLOOR = 1e-320
# Pairs per algebra and region in the test; about 2 s for all of them.
PAIRS = 40


def _polar(rng, low, high):
    return 10.0 ** rng.uniform(low, high) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def draw_pair(rng, region, kind):
    """Two (L+, log_c, L-) triples, earliest first, from ``region``; see the module docstring."""
    low, high = REGIONS[region]
    first, second = ([_polar(rng, low, high), _polar(rng, -2, 2), _polar(rng, low, high)] for _ in range(2))
    delta_eps = kind._kernel[2]
    if region == "guard":
        second[2] = (1.0 - _polar(rng, -11, -8)) / (delta_eps * first[0])
    elif region == "edge":
        size = rng.uniform(1022 * math.log10(2.0), 320)  # log10 |delta*eps*L1+*L2-|
        top = 308.2 + math.log10(abs(delta_eps))  # |L1+| and |L2-| up to 10^308.2
        first[0] = _polar(rng, size - top, 308.2)
        rest = size - math.log10(abs(first[0]))
        second[2] = _polar(rng, rest, rest) / delta_eps
    return tuple(first), tuple(second)


def _scales(kind, first, second):
    """(|d|, scales of L+, log_c and L-) of the pair, at 40 digits from its exact inputs."""
    (p1, lc1, m1), (p2, lc2, m2) = first, second
    delta, _, delta_eps, two_over_delta, _ = (mpmath.mpc(c) for c in kind._kernel)
    with mpmath.workdps(40):
        x = delta_eps * mpmath.mpc(p1) * mpmath.mpc(m2)
        d = 1 - x
        cond = (1 + abs(x)) / abs(d)
        term_p = abs(mpmath.mpc(p1) * mpmath.exp(delta * mpmath.mpc(lc2)) / d)
        term_m = abs(mpmath.mpc(m2) * mpmath.exp(delta * mpmath.mpc(lc1)) / d)
        return (
            abs(d),
            abs(p2) + term_p * cond,
            abs(lc1) + abs(lc2) + abs(two_over_delta) * (abs(mpmath.log(d)) + cond),
            abs(m1) + term_m * cond,
        )


def _beyond(z):
    """Whether a reference coordinate has a part beyond double range, roundoff included."""
    return max(abs(mpmath.re(z)), abs(mpmath.im(z))) > sys.float_info.max * (1 - BOUND)


def _near(got, want, scale, period=None):
    with mpmath.workdps(40):
        diff = mpmath.mpc(got) - want
        if period is not None:
            diff -= mpmath.nint(mpmath.re(diff / period)) * period
        return abs(diff) <= BOUND * scale + FLOOR


def classify(kind, first, second):
    """{route: outcome} for the pair: "match", "justified raise", "false raise" or "wrong value"."""
    big_plus, log_c, big_minus, period = product_coordinates(kind.value, (first, second))
    a_d, s_plus, s_c, s_minus = _scales(kind, first, second)
    elements = [GroupElement(kind, *first), GroupElement(kind, *second)]
    singular = a_d <= TOL_SINGULAR + 1e-15 * s_c
    outcomes = {}
    for name, route in ROUTES.items():
        # the fraction gives L+ alone, and can refuse only L+ or an exactly zero d
        gives_all = name == "compose_many"
        beyond = _beyond(big_plus) or (gives_all and _beyond(big_minus))
        try:
            got = route(elements)
        except SingularDecomposition:
            outcomes[name] = "justified raise" if singular else "false raise"
            continue
        except NonFiniteInput:
            outcomes[name] = "justified raise" if beyond else "false raise"
            continue
        if gives_all:
            ok = (
                _near(got.big_plus, big_plus, s_plus)
                and _near(got.log_c, log_c, s_c, period)
                and _near(got.big_minus, big_minus, s_minus)
            )
        else:
            ok = _near(got, big_plus, s_plus)
        outcomes[name] = "match" if ok and not beyond else "wrong value"
    return outcomes


def census(region, kind, count):
    """{route: {outcome: [pairs]}} over ``count`` pairs of ``region`` on ``kind``, seeded per region and algebra."""
    rng = random.Random(20261020 + 10 * list(AlgebraKind).index(kind) + list(REGIONS).index(region))
    tally = {name: {} for name in ROUTES}
    for _ in range(count):
        pair = draw_pair(rng, region, kind)
        for name, outcome in classify(kind, *pair).items():
            tally[name].setdefault(outcome, []).append(pair)
    return tally


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_census_has_no_false_raise_and_no_wrong_value(kind, region):
    for name, outcomes in census(region, kind, PAIRS).items():
        faults = {outcome: outcomes.get(outcome, [])[:3] for outcome in ("false raise", "wrong value")}
        assert faults == {"false raise": [], "wrong value": []}, name
        # most pairs have a product in double range, so the census compares values
        assert len(outcomes.get("match", [])) >= PAIRS // 2, (name, {k: len(v) for k, v in outcomes.items()})


if __name__ == "__main__":
    region, count = sys.argv[1], int(sys.argv[2])
    clean = True
    for kind in AlgebraKind:
        tally = census(region, kind, count)
        print(kind.value, region, {name: {k: len(v) for k, v in t.items()} for name, t in tally.items()})
        clean = clean and not any("false raise" in t or "wrong value" in t for t in tally.values())
    sys.exit(0 if clean else 1)
