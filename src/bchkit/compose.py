"""Disentangling and composition in normal-ordered coordinates.

Two routes to the same numbers live here.  A single exponential with
coordinates (lambda_plus, lambda_c, lambda_minus) is rewritten as the ordered
product exp(L+ T+) exp(lc Tc) exp(L- T-) by :func:`disentangle`; ordered
products are multiplied by :func:`compose_pair` and folded over sequences by
:func:`compose_many`.  The final raising coordinate of a long product also has
a generalized continued fraction form, :func:`alpha_continued_fraction`, kept
as an independent cross-check of the fold.

Underneath, private kernels do the arithmetic on plain complex triples, the
three Gauss coordinates (big_plus, log_c, big_minus): one disentangles, one
fold holds the only copy of the pair product and serves compose_many (so
compose_pair, compose_many of two), :func:`bchkit.evolve.evolve` and the
``compose`` command, and one evaluates the continued fraction.  The fold
returns its product and takes the product so far as a seed, so evolve's
checkpoints fold chunk by chunk; a singular error leaving it carries the
step of the whole run it failed on.  An element's scalar phase is a
central factor, so it only ever adds: compose_many sums the phases outside
the fold.  The public functions wrap the same kernels, so every route gives
the same bits.
"""

from __future__ import annotations

import cmath
import math
import sys
from cmath import isfinite
from typing import Iterable, Iterator, Sequence

from .algebra import AlgebraKind, ExponentParams, GroupElement, _Frozen, _set
from .errors import (
    AlgebraMismatch,
    EmptySequence,
    NonFiniteInput,
    SingularDecomposition,
)

__all__ = [
    "TOL_SINGULAR",
    "DisentangleResult",
    "disentangle",
    "compose_pair",
    "compose_many",
    "alpha_continued_fraction",
]

# A denominator is singular when it is at most TOL_SINGULAR times its roundoff
# scale: 1 for d = 1 - eps*delta*L1+*L2- in a composition (the term that cancels
# near d = 0 is 1), a first-order estimate for w in a disentangling.
TOL_SINGULAR = 1e-12

# Below this |nu|, cosh(nu) and sinh(nu)/nu are evaluated by series, summing
# nu^(2k)/n! for k = 0, 1, 2.  Every term with k >= 3 is below half an ulp of
# the running sum in both parts, so adding it could not change a bit: the real
# parts sum to about 1 and |nu^6|/720 < 1.4e-27, and every Im(nu^(2k)) carries
# the factor Im(nu^2), so those terms are below 1e-17 of the running imaginary
# part (an exact zero one stays +0.0).  The k = 2 term stays: its imaginary part
# can reach a bit.
_SERIES_NU_THRESHOLD = 1e-4

# 0.5 * TOL_SINGULAR * y groups as (0.5 * TOL_SINGULAR) * y, so this keeps the bits
_HALF_TOL = 0.5 * TOL_SINGULAR

# Where |nu| <= 1 and |half_c| <= 1, the roundoff scale of w in _checked_w is
# below 8.6e-12: |cosh nu| <= cosh 1, |sinhc nu| <= sinh 1 and
# |x| <= |half_c|^2 + |nu^2| <= 2 bound it by
# TOL_SINGULAR*(cosh 1 + sinh 1) + 1.5*TOL_SINGULAR*(sinh 1 + cosh 1 + sinh 1).
# So a |w| above this passes that test, and is taken without evaluating it.
_W_CLEAR = 1e-10


def _series(nu: complex) -> tuple[complex, complex]:
    """cosh(nu) and sinh(nu)/nu for |nu| < _SERIES_NU_THRESHOLD, summed in order of k.

    The powers are the products that nu_sq**k multiplies out and no Horner
    scheme is used, so the result is bit for bit the plain sum of
    nu_sq**k / n! over k = 0..5 (n = 2k for cosh, 2k + 1 for sinhc); the
    terms past k = 2 cannot reach a bit (see _SERIES_NU_THRESHOLD).
    (nu_sq**k also multiplies by 1 + 0j, which can only flip the sign of a
    zero component; a sum that starts from 1 never sees that sign.)
    """
    nu_sq = nu * nu
    p2 = nu_sq * nu_sq
    return (1 + 0j) + nu_sq / 2.0 + p2 / 24.0, (1 + 0j) + nu_sq / 6.0 + p2 / 120.0


def _cosh_sinhc(nu: complex) -> tuple[complex, complex]:
    """cosh(nu) and sinh(nu)/nu as a pair; both even in nu, finite at nu = 0."""
    if abs(nu) < _SERIES_NU_THRESHOLD:
        return _series(nu)
    return cmath.cosh(nu), cmath.sinh(nu) / nu


# Raw kernels.  Coordinates travel as plain complex triples, the three Gauss
# coordinates (big_plus, log_c, big_minus); only the public wrappers and the
# results of folds build GroupElement objects.  The scalar phase never enters
# a kernel: it is a central factor, so compose_many adds the phases, left to
# right, outside the fold.  Each kernel takes its algebra's
# constants from ``algebra._kernel``, formed once at import in algebra.py.

def _disentangle_raw(kernel, lp, lc, lm):
    """(big_plus, log_c, big_minus, nu) of exp(lp T+ + lc Tc + lm T-); see disentangle."""
    if not (isfinite(lp) and isfinite(lc) and isfinite(lm)):
        raise NonFiniteInput("exponent coordinates must be finite")
    _, half_delta, delta_eps, _, minus_two_over_delta = kernel
    half_c = half_delta * lc
    x = delta_eps * lp * lm
    if not x and not (lp and lm):  # triangular: w = exp(-half_c) exactly
        return _triangular(half_c, lp, lm, minus_two_over_delta)
    try:
        nu = cmath.sqrt(half_c * half_c - x)
        a_nu = abs(nu)
        if a_nu < _SERIES_NU_THRESHOLD:
            cosh_nu, sinhc_nu = _series(nu)
        else:  # _cosh_sinhc's closed form, inlined: one call less per slice
            cosh_nu, sinhc_nu = cmath.cosh(nu), cmath.sinh(nu) / nu
        w = cosh_nu - half_c * sinhc_nu
        if not (abs(w) > _W_CLEAR and a_nu <= 1.0 and abs(half_c) <= 1.0):
            w = _checked_w(nu, half_c, x, cosh_nu, sinhc_nu, w)  # a NaN w lands here too
        ratio = sinhc_nu / w
        big_plus, big_minus = lp * ratio, lm * ratio
        if not (isfinite(big_plus) and isfinite(big_minus)):
            raise NonFiniteInput("normal-ordered coordinates overflow double precision")
        return big_plus, minus_two_over_delta * cmath.log(w), big_minus, nu
    except OverflowError:  # cosh(nu), sinh(nu) or exp(-nu) left double range
        return _scaled(nu, half_c, x, lp, lm, minus_two_over_delta)
    except NonFiniteInput:
        raise
    except ValueError:  # x overflowed to an infinite or NaN part, and cmath.cosh(nu) refuses it
        raise NonFiniteInput("normal-ordered coordinates overflow double precision") from None


def _checked_w(nu, half_c, x, cosh_nu, sinhc_nu, w, shift=0j):
    """w where it clears its roundoff scale, else _w_by_exp's form of it.

    The roundoff scale is w's terms, plus the rounding of nu^2 = half_c^2 - x
    times a bound on |dw/d(nu^2)|, TOL_SINGULAR applied first to keep it
    finite; a NaN w fails.  cosh_nu, sinhc_nu, w and the result may all be
    scaled by exp(-shift): the test is the same on every scale.
    """
    ah = abs(half_c)
    ac = abs(cosh_nu)
    a_s = abs(sinhc_nu)
    n2 = abs(nu * nu)
    tol_nu2 = _HALF_TOL * (ah * ah + abs(x))
    if abs(w) > TOL_SINGULAR * (ac + ah * a_s) + tol_nu2 * (
        a_s + ah / (n2 if n2 > 1.0 else 1.0) * (ac + a_s)
    ):
        return w
    return _w_by_exp(nu, half_c, x, cosh_nu, sinhc_nu, w, tol_nu2, shift)


def _principal(angle: float) -> float:
    """The angle on [-pi, pi], kept as it is if it is there already."""
    if -math.pi <= angle <= math.pi:
        return angle
    return math.atan2(math.sin(angle), math.cos(angle))


def _scaled(nu, half_c, x, lp, lm, minus_two_over_delta):
    """_disentangle_raw's result where lp*lm != 0 and cosh(nu), sinh(nu) or exp(-nu) overflowed.

    With Re nu >= 0 (the principal root), cosh(nu) = exp(nu)*c and
    sinh(nu)/nu = exp(nu)*s, where c = (1 + exp(-2 nu))/2 and
    s = (1 - exp(-2 nu))/(2 nu) stay in range.  So w = exp(nu)*w_s with
    w_s = c - half_c*s, each L = l*s/w_s and log w = nu + log w_s, taken to
    the principal branch (|nu| < 1.4e154, so log_c stays finite).  w_s gets
    the guard of w on its own scale, and NonFiniteInput is raised only where
    L leaves double range.
    """
    m = cmath.exp(-2.0 * nu)
    c, s = 0.5 * (1.0 + m), (1.0 - m) / (2.0 * nu)
    w_s = _checked_w(nu, half_c, x, c, s, c - half_c * s, nu)
    ratio = s / w_s
    big_plus, big_minus = lp * ratio, lm * ratio
    log_w = nu + cmath.log(w_s)
    log_c = minus_two_over_delta * complex(log_w.real, _principal(log_w.imag))
    if not (isfinite(big_plus) and isfinite(big_minus)):
        raise NonFiniteInput("normal-ordered coordinates overflow double precision")
    return big_plus, log_c, big_minus, nu


def _triangular(half_c, lp, lm, minus_two_over_delta):
    """_disentangle_raw's result for every exponent with lp*lm == 0, in and beyond double range.

    There w = exp(-half_c) exactly, kept as its principal log; the general
    form cosh(nu) - half_c*sinh(nu)/nu would cancel down to it.  Each
    L = l*(exp(2 half_c) - 1)/(2 half_c) = l*g*exp(half_c + nu) with
    g = sinhc(nu)*exp(-nu): 0 where l is 0, and NonFiniteInput only where
    L itself leaves double range.
    """
    log_w = complex(-half_c.real, _principal(-half_c.imag))
    rising = (half_c.real, half_c.imag) >= (0.0, 0.0)
    nu = half_c if rising else -half_c  # the principal root, Re nu >= 0, so |g| <= 1
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
        try:  # by logs where exp(half_c) overflows or l*g is subnormal
            return cmath.exp(cmath.log(l) + cmath.log(g) + 2.0 * half_c)
        except OverflowError:
            return complex(math.inf, 0.0)

    big_plus, big_minus = coordinate(lp), coordinate(lm)
    if not (isfinite(big_plus) and isfinite(big_minus)):
        raise NonFiniteInput("normal-ordered coordinates overflow double precision")
    return big_plus, minus_two_over_delta * log_w, big_minus, nu


def _w_by_exp(nu, half_c, x, cosh_nu, sinhc_nu, w, tol_nu2, shift=0j):
    """w as exp(-nu) - x*sinhc(nu)/(nu + half_c); raise, with |w|, if that is singular too.

    Equal to cosh(nu) - half_c*sinhc(nu) as nu^2 = half_c^2 - x, but it keeps
    w ~ exp(-nu) where that form cancels (x small, |nu| > 1); a triangular
    exponent (lp*lm == 0) is _triangular's and never comes here.  nu's sign makes
    |nu + half_c| >= |nu|; the roundoff scale is the terms of w plus nu's,
    tol_nu2/|nu| with TOL_SINGULAR applied, times a bound on |dw/dnu|.  With
    ``shift``, cosh_nu, sinhc_nu, w and the result are scaled by exp(-shift),
    and a singular w is reported as |w exp(-shift)|.
    """
    if not isfinite(w):
        raise NonFiniteInput("normal-ordered coordinates overflow double precision")
    a_nu = abs(nu)
    if a_nu > 1.0:
        if (nu.conjugate() * half_c).real < 0:
            nu = -nu
        e, nu_h = cmath.exp(-nu - shift), nu + half_c
        t = x * sinhc_nu / nu_h
        a_e, a_t, a_nu_h = abs(e), abs(t), abs(nu_h)
        if abs(e - t) > TOL_SINGULAR * (a_e + a_t) + tol_nu2 / a_nu * (
            a_e + a_t / a_nu + (abs(x) * abs(cosh_nu) / a_nu + a_t) / a_nu_h
        ):
            return e - t
    name = "|w exp(-nu)|" if shift else "|w|"
    raise SingularDecomposition(
        f"no normal-ordered form: disentangling denominator {name} = {abs(w):.3e} is singular",
        denominator_abs=abs(w),
    )


def _term_by_logs(factor, exponent, log_d):
    """A fold step's factor*exp(exponent)/d where exp(exponent) left double range.

    0 where the factor is exactly 0, else exp(log(factor) + exponent - log(d));
    NonFiniteInput only where that term itself leaves double range.
    """
    if factor == 0:
        return 0j
    try:
        return cmath.exp(cmath.log(factor) + exponent - log_d)
    except OverflowError:
        raise NonFiniteInput("group element coordinates must be finite") from None


def _fold(algebra: AlgebraKind, coords: Iterable[tuple], acc=None, done=0) -> tuple:
    """Left fold of coordinate tuples, earliest first; returns the product.

    ``acc`` is a fold's product of the ``done`` steps before ``coords``;
    without it the first tuple seeds the product and ``coords`` must be
    nonempty.  The fold is left-associative, so a run folded in chunks gets
    the bits of one fold.  This is the only copy of the pair product and the
    only check on the fold: each tuple it takes and each product it makes is
    checked for finiteness once, and each step's denominator d against
    TOL_SINGULAR.  A SingularDecomposition that leaves the fold, from that
    check or from ``coords`` itself (a singular slice), carries in ``step``
    the 1-based step of the run it failed on.  A step whose |d| leaves
    double range raises NonFiniteInput; where its exp(delta*log_c) does, its
    terms are taken by logs (_term_by_logs), so a power that multiplies an
    exact 0 coordinate is no error.  Nothing it returns is non-finite.
    Tuples are (big_plus, log_c, big_minus); phases are the callers' to add.
    """
    delta, _, delta_eps, two_over_delta, _ = algebra._kernel
    exp, log = cmath.exp, cmath.log
    coords = enumerate(coords, start=done + 1)
    index = done
    try:
        if acc is None:
            index, (p1, lc1, m1) = next(coords)
            if not (isfinite(p1) and isfinite(lc1) and isfinite(m1)):
                raise NonFiniteInput("group element coordinates must be finite")
        else:
            p1, lc1, m1 = acc
        for index, (p2, lc2, m2) in coords:
            if not (isfinite(p2) and isfinite(lc2) and isfinite(m2)):
                raise NonFiniteInput("group element coordinates must be finite")
            d = 1.0 - delta_eps * p1 * m2
            try:  # only this arithmetic: an error from the incoming iterator keeps its own type
                if abs(d) <= TOL_SINGULAR:
                    raise SingularDecomposition(
                        f"no normal-ordered form: composition denominator |d| = {abs(d):.3e} "
                        "is singular",
                        denominator_abs=abs(d),
                        step=index,
                    )
            except OverflowError:  # |d| left double range
                raise NonFiniteInput("group element coordinates must be finite") from None
            try:
                pow_c1 = exp(delta * lc1)
                pow_c2 = exp(delta * lc2)
            except OverflowError:  # the term a power scales may still be in range
                log_d = log(d)
                p1 = p2 + _term_by_logs(p1, delta * lc2, log_d)
                m1 = m1 + _term_by_logs(m2, delta * lc1, log_d)
                lc1 = lc1 + lc2 - two_over_delta * log_d
            else:
                p1 = p2 + p1 * pow_c2 / d
                # kept as a subtraction: adding (-two_over_delta) * log(d) can flip a signed zero
                lc1 = lc1 + lc2 - two_over_delta * log(d)
                m1 = m1 + m2 * pow_c1 / d
            if not (isfinite(p1) and isfinite(lc1) and isfinite(m1)):
                raise NonFiniteInput("group element coordinates must be finite")
    except SingularDecomposition as exc:
        if exc.step is None:  # a singular slice from ``coords``, the step after ``index``
            exc.step = index + 1
        raise
    return p1, lc1, m1


def _compose_coords(algebra: AlgebraKind, coords: Iterable[tuple], count: int) -> tuple:
    """Checked product of ``count`` >= 1 coordinate tuples, earliest first; see compose_many.

    A singular step is reported with its 1-based position among the ``count``.
    """
    try:
        return _fold(algebra, coords)
    except SingularDecomposition as exc:
        raise SingularDecomposition(
            f"composition is singular at element {exc.step} of {count}",
            denominator_abs=exc.denominator_abs,
            step=exc.step,
        ) from exc


def _continued_fraction(algebra: AlgebraKind, coords: Iterable[tuple]) -> complex:
    """Final raising coordinate of nonempty coordinate tuples; see alpha_continued_fraction."""
    delta, _, delta_eps, _, _ = algebra._kernel
    exp = cmath.exp
    coords = iter(coords)
    value = next(coords)[0]
    for big_plus, log_c, big_minus in coords:
        if value == 0:
            value = big_plus
            continue
        partial = delta_eps * big_minus - 1.0 / value
        if partial == 0:
            raise SingularDecomposition(
                "continued fraction hit a zero partial denominator",
                denominator_abs=0.0,
            )
        try:
            power = exp(delta * log_c)
        except OverflowError:
            raise NonFiniteInput("group element coordinates must be finite") from None
        value = big_plus - power / partial
    if not isfinite(value):
        raise NonFiniteInput("group element coordinates must be finite")
    return value


class DisentangleResult(_Frozen):
    """Normal-ordered element plus the auxiliary frequency that produced it."""

    __slots__ = ("element", "nu")

    def __init__(self, element: GroupElement, nu: complex):
        _set(self, "element", element)
        _set(self, "nu", nu)


def disentangle(algebra: AlgebraKind, lam: ExponentParams) -> DisentangleResult:
    """Rewrite exp(l+ T+ + lc Tc + l- T-) in normal-ordered coordinates.

    With nu the principal square root of (delta*lc/2)^2 - delta*eps*l+*l-,
    the shared denominator is w = cosh(nu) - (delta*lc/2)*sinh(nu)/nu; then
    L+- = l+- * (sinh(nu)/nu) / w and lc_out = -(2/delta)*Log(w), principal
    branch.  Every ingredient is even in nu, so the root branch is irrelevant.
    A triangular exponent, l+*l- == 0, takes its exact form w = exp(-delta*lc/2)
    and no other.  Elsewhere, where the form above cancels, w is taken as
    exp(-nu) - delta*eps*l+*l- sinh(nu)/(nu (nu + delta*lc/2)).
    A w within roundoff of 0 raises SingularDecomposition; an overflow, NonFiniteInput.
    """
    big_plus, log_c, big_minus, nu = _disentangle_raw(
        algebra._kernel, lam.lambda_plus, lam.lambda_c, lam.lambda_minus
    )
    return DisentangleResult(GroupElement(algebra, big_plus, log_c, big_minus), nu)


def _checked_coords(elements: Iterable[GroupElement], algebra: AlgebraKind) -> Iterator[tuple]:
    """Coordinate triples of ``elements``, each checked against ``algebra`` as it is reached."""
    for g in elements:
        if g.algebra is not algebra:
            raise AlgebraMismatch(f"cannot compose {g.algebra.value} with {algebra.value}")
        yield g.big_plus, g.log_c, g.big_minus


def _summed_coords(
    elements: Iterable[GroupElement], algebra: AlgebraKind, total: list
) -> Iterator[tuple]:
    """_checked_coords that also adds the phases, left to right, and appends the sum to ``total``.

    The running sum is checked as each element is reached, before the fold
    takes its coordinates, so a non-finite phase, or a sum that leaves double
    range, raises NonFiniteInput at that element.
    """
    phase = None
    for g in elements:
        if g.algebra is not algebra:
            raise AlgebraMismatch(f"cannot compose {g.algebra.value} with {algebra.value}")
        phase = g.phase if phase is None else phase + g.phase
        if not isfinite(phase):
            raise NonFiniteInput("group element coordinates must be finite")
        yield g.big_plus, g.log_c, g.big_minus
    total.append(phase)


def compose_pair(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """Normal-ordered coordinates of the product g2 g1 (g1 acts first), as compose_many((g1, g2)).

    The only reordering needed is of the inner pair exp(L1+ T+) exp(L2- T-),
    governed by the denominator d = 1 - eps*delta*L1+*L2-.  Fractional powers
    of the Cartan coordinates are taken as exp(delta*log_c) so each factor's
    stored branch is honoured; the principal log of d is appended to log_c.
    Errors are compose_many's: a singular pair is reported at element 2 of 2.
    """
    return compose_many((g1, g2))


def compose_many(elements: Sequence[GroupElement]) -> GroupElement:
    """Fold a time-ordered sequence (earliest first) into a single element.

    Runs the same fold as :func:`bchkit.evolve.evolve` and the ``compose``
    command, over raw coordinate tuples, and gives bit for bit the element
    that repeated compose_pair calls would, each new element acting after
    the accumulated product; this left fold is the recurrence that seeds on
    the first element's coordinates.  A singular step is reported with its
    1-based position and the fold's message as ``__cause__``, and a step that
    leaves double range raises NonFiniteInput.  A single element is checked
    like every other and returned as it is.
    """
    count = len(elements)
    if count == 0:
        raise EmptySequence("need at least one element to compose")
    algebra, phase = elements[0].algebra, []
    coords = _compose_coords(algebra, _summed_coords(elements, algebra, phase), count)
    return elements[0] if count == 1 else GroupElement(algebra, *coords, *phase)


def alpha_continued_fraction(elements: Sequence[GroupElement]) -> complex:
    """Final raising coordinate of a product via its continued fraction.

    Evaluated bottom-up from the innermost term (the first element's raising
    coordinate).  Independent of the fold in compose_many, which is the point:
    agreement between the two is a nontrivial consistency check.

    A zero running value is a removable case (its reciprocal only appears in
    a denominator that then blows up, killing the whole fraction term), so it
    is taken in the limit; an exactly zero partial denominator is not
    removable and raises, and a value that leaves double range raises NonFiniteInput.
    """
    if len(elements) == 0:
        raise EmptySequence("need at least one element")
    algebra = elements[0].algebra
    return _continued_fraction(algebra, _checked_coords(elements, algebra))
