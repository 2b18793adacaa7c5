"""Disentangling and composition in normal-ordered coordinates.

Two routes to the same numbers live here.  A single exponential with
coordinates (lambda_plus, lambda_c, lambda_minus) is rewritten as the ordered
product exp(L+ T+) exp(lc Tc) exp(L- T-) by :func:`disentangle`; ordered
products are multiplied by :func:`compose_pair` and folded over sequences by
:func:`compose_many`.  The final raising coordinate of a long product also has
a generalized continued fraction form, :func:`alpha_continued_fraction`, kept
as a cross-check of the fold: its arithmetic is independent of the fold's,
its input check is the fold's.

Underneath, private kernels do the arithmetic on plain complex triples, the
three Gauss coordinates (big_plus, log_c, big_minus): one disentangles, one
fold holds the only copy of the pair product and serves compose_many (so
compose_pair, compose_many of two), :func:`bchkit.evolve.evolve` and the
``compose`` command, and one evaluates the continued fraction.  The fold
returns its product and takes the product so far as a seed, so evolve's
checkpoints fold chunk by chunk.  Tuples are checked where they enter it,
so it checks only what it makes, and a singular error carries the step of
the whole run.  Every element sequence enters both kernels through one
generator, which checks each element's algebra (GroupElement is finite) and
sums the phases (a central factor) outside the kernels.  The public functions
wrap the same kernels, so every route gives the same bits.
"""

from __future__ import annotations

import cmath
import math
import sys
from cmath import isfinite
from typing import Iterable, Iterator, Sequence

from .algebra import AlgebraKind, ExponentParams, GroupElement, _Frozen, _setters
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

# Where |nu| <= 1 (beyond, w is carried as exp(nu)*w_s, with its own test) and
# |half_c| <= 1, the roundoff scale of w is below 8.6e-12: |cosh nu| <= cosh 1,
# |sinhc nu| <= sinh 1 and |x| <= |half_c|^2 + |nu^2| <= 2 bound it by
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


# Raw kernels.  Coordinates travel as plain complex triples, the three Gauss
# coordinates (big_plus, log_c, big_minus); only the public wrappers and the
# results of folds build GroupElement objects.  The scalar phase never enters
# a kernel: it is a central factor, so compose_many adds the phases, left to
# right, outside the fold.  Each kernel takes its algebra's
# constants from ``algebra._kernel``, formed once at import in algebra.py.

def _disentangle_raw(kernel, lp, lc, lm):
    """(big_plus, log_c, big_minus, nu) of exp(lp T+ + lc Tc + lm T-); see disentangle.

    Its input is checked here, not in ExponentParams: evolve's slices arrive as raw products.
    All four outputs are finite (L+ and L- are checked once, after either general
    route or in _triangular, and log_c is the log of a finite, nonzero w),
    so a fold takes its coordinates unchecked.
    """
    if not (isfinite(lp) and isfinite(lc) and isfinite(lm)):
        raise NonFiniteInput("exponent coordinates must be finite")
    _, half_delta, delta_eps, _, minus_two_over_delta = kernel
    half_c = half_delta * lc
    x = delta_eps * lp * lm
    if not x and not (lp and lm):  # triangular: w = exp(-half_c) exactly
        return _triangular(half_c, lp, lm, minus_two_over_delta)
    nu = cmath.sqrt(half_c * half_c - x)
    a_nu = abs(nu)
    if not a_nu <= 1.0:  # a NaN nu too; the exact root may still land within 1
        nu, nu_lo = _root(nu, half_c, lp, lm, delta_eps.real)
        a_nu = abs(nu)
    if not a_nu <= 1.0:
        ratio, log_w = _beyond_one(nu, nu_lo, half_c, x)
    else:
        if a_nu < _SERIES_NU_THRESHOLD:
            cosh_nu, sinhc_nu = _series(nu)
        else:
            cosh_nu, sinhc_nu = cmath.cosh(nu), cmath.sinh(nu) / nu
        w = cosh_nu - half_c * sinhc_nu
        if not (abs(w) > _W_CLEAR and abs(half_c) <= 1.0):
            # w's terms, plus the rounding of nu^2 = half_c^2 - x times a bound on
            # |dw/d(nu^2)|, TOL_SINGULAR applied first to keep it finite
            ah, ac, a_s = abs(half_c), abs(cosh_nu), abs(sinhc_nu)
            tol_nu2 = _HALF_TOL * (ah * ah + abs(x))
            _check_w(w, TOL_SINGULAR * (ac + ah * a_s) + tol_nu2 * (a_s + ah * (ac + a_s)), "|w|")
        ratio, log_w = sinhc_nu / w, cmath.log(w)
    big_plus, big_minus = lp * ratio, lm * ratio
    if not (isfinite(big_plus) and isfinite(big_minus)):
        raise NonFiniteInput("normal-ordered coordinates overflow double precision")
    return big_plus, minus_two_over_delta * log_w, big_minus, nu


def _check_w(w, scale, name):
    """Raise SingularDecomposition, reporting |w| as ``name``, unless |w| clears ``scale``."""
    if not abs(w) > scale:
        raise SingularDecomposition(
            f"no normal-ordered form: disentangling denominator {name} = {abs(w):.3e} is singular",
            denominator_abs=abs(w),
        )


def _principal(angle: float) -> float:
    """The angle on [-pi, pi], kept as it is if it is there already.

    Exact at any magnitude, as cmath.exp(1j*angle) sees the double: libm's
    sine and cosine reduce their argument exactly.  The package's one angle
    reduction; the value types map its tie at -pi to pi.
    """
    if -math.pi <= angle <= math.pi:
        return angle
    return math.atan2(math.sin(angle), math.cos(angle))


# Veltkamp's constant 2**27 + 1: a double times it splits into two halves of 26 bits.
_SPLIT = 134217729.0


def _exact_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = a*b rounded and p + e = a*b exactly (Dekker), for |a|, |b| below 2**996."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    t = _SPLIT * b
    b_hi = t - (t - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _root(nu, half_c, lp, lm, de):
    """(nu, nu_lo): the principal root of half_c^2 - de*lp*lm, and its low part.

    Each part of the radicand is a sum of exact products of parts (de is real:
    1, -1 or -1/2), so fsum rounds it correctly even where half_c^2 and
    de*lp*lm cancel, and nu is its root.  One Newton step, the residual
    radicand - nu^2 summed the same way over 2 nu, gives nu_lo: nu + nu_lo is
    the root to about twice double precision (an exact root 0 has nu_lo = 0).
    Where a part is too large to split, or a sum leaves double range, the
    plain root ``nu`` comes back with nu_lo = 0.
    """
    hr, hi, pr, pi, mr, mi = half_c.real, half_c.imag, lp.real, lp.imag, lm.real, lm.imag
    real = (
        *_exact_product(hr, hr), *_exact_product(-hi, hi),
        *_exact_product(-de * pr, mr), *_exact_product(de * pi, mi),
    )
    imag = (*_exact_product(2.0 * hr, hi), *_exact_product(-de * pr, mi), *_exact_product(-de * pi, mr))
    try:
        root = cmath.sqrt(complex(math.fsum(real), math.fsum(imag)))
        nr, ni = root.real, root.imag
        residual = complex(
            math.fsum((*real, *_exact_product(-nr, nr), *_exact_product(ni, ni))),
            math.fsum((*imag, *_exact_product(-2.0 * nr, ni))),
        )
        low = residual / (2.0 * root) if root else 0j
    except (ArithmeticError, ValueError):  # fsum met +inf and -inf, or overflowed
        return nu, 0j
    return (root, low) if isfinite(root) and isfinite(low) else (nu, 0j)


def _beyond_one(nu, nu_lo, half_c, x):
    """(sinh(nu)/(nu w), principal log w) where |nu| > 1, on the exp(-nu) scale.

    With Re nu >= 0 (the principal root), m = exp(-2 nu) and
    s = (1 - m)/(2 nu) stay in range, cosh(nu) = exp(nu)*(1 + m)/2 and
    sinh(nu)/nu = exp(nu)*s.  So w = exp(nu)*w_s, the ratio is s/w_s and
    log w = nu + log w_s, taken to the principal branch.  A sign picks the
    form of w_s: m - x*s/(nu + half_c) where Re(conj(nu) half_c) > 0, so
    |nu + half_c| >= |nu| and it cancels only where w does, else
    (1 + m)/2 - half_c*s.  As where |nu| <= 1, each form's guard is its own
    terms before they cancel, plus the rounding of nu^2 times a bound on how
    far that moves the form; a singular w_s is reported as |w exp(-nu)|.
    The caller forms L+- = l+- * ratio and checks them, as for |nu| <= 1; a
    non-finite nu (x or half_c^2 overflowed) is returned as the ratio, so
    that check reports it.  nu itself is off by up to half an ulp, which would
    move m by a relative 2.2e-16 |nu| and log w by that much absolutely, a loss
    that grows with |nu|; so m is exp(-2 nu) times 1 - 2 nu_lo (see _root),
    log w adds nu_lo, and Im nu is reduced to its principal angle before log w_s
    is added, so a log w near 0 keeps its digits.
    """
    if not isfinite(nu):  # lp and lm are nonzero here, so lp * nu is not finite either
        return nu, nu
    m = cmath.exp(-2.0 * nu) * (1.0 - 2.0 * nu_lo)
    s = (1.0 - m) / (2.0 * nu)
    ah, a_nu, a_m, a_s = abs(half_c), abs(nu), abs(m), abs(s)
    a_c = 0.5 * (1.0 + a_m)
    tol_nu2 = _HALF_TOL * (ah * ah + abs(x))
    if (nu.conjugate() * half_c).real > 0:
        nu_h = nu + half_c
        t = x * s / nu_h
        w_s, a_t = m - t, abs(t)
        # dw_s/dnu = -2m - x (m - s)/(nu nu_h) + t/nu_h; a_xm >= a_m/2, and is 1/|nu| once m underflows
        a_xm = min(a_c, 2.0 * (a_m + a_s))
        tol_w = tol_nu2 / a_nu * (a_m + a_t / a_nu + (abs(x) * a_xm / a_nu + a_t) / abs(nu_h))
        _check_w(w_s, TOL_SINGULAR * (a_m + a_t) + tol_w, "|w exp(-nu)|")
    else:
        h_s = half_c * s
        w_s = 0.5 * (1.0 + m) - h_s
        # dw_s/dnu = -m - half_c (m - s)/nu (dm/dnu = -2m, ds/dnu = (m - s)/nu): no factor grows as m -> 0
        tol_w = tol_nu2 * (min(a_s, a_m / a_nu) + ah / (a_nu * a_nu) * (a_m + a_s))
        _check_w(w_s, TOL_SINGULAR * (a_c + abs(h_s)) + tol_w, "|w exp(-nu)|")
    log_w_s = cmath.log(w_s)
    log_w_imag = _principal(nu.imag) + nu_lo.imag + log_w_s.imag
    return s / w_s, complex(nu.real + log_w_s.real + nu_lo.real, _principal(log_w_imag))


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
    if nu.real < 709.0:
        sinhc = _series(nu)[1] if abs(nu) < _SERIES_NU_THRESHOLD else cmath.sinh(nu) / nu
        g = sinhc * cmath.exp(-nu)
    else:
        g = 0.5 / nu

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


# CPython's complex division (Smith, CACM 5, 435, 1962) forms b.real + b.imag*(b.imag/b.real)
# or its mirror, at most twice the larger part of b: it cannot overflow while both parts of b
# are below this bound, and beyond it the quotient can come back as a silent 0.
_D_EDGE = 2.0**1022


def _term(factor: complex, exponent: complex, d: complex) -> complex:
    """factor * exp(exponent) / d for finite operands and d != 0: an edge term of a fold step.

    Python's bits where that is finite and both parts of d are below _D_EDGE;
    else each operand is scaled by a power of two to parts below 1 first
    (Baudin & Smith, arXiv:1210.4539), which is exact.  Only where
    exp(exponent) leaves double range is the term taken by logs, 0 for an
    exact-zero factor.  NonFiniteInput where the term leaves double range.
    """
    try:
        power = cmath.exp(exponent)
    except OverflowError:
        if factor == 0:
            return 0j
        try:
            return cmath.exp(cmath.log(factor) + exponent - cmath.log(d))
        except OverflowError:
            raise NonFiniteInput("group element coordinates must be finite") from None
    if max(abs(d.real), abs(d.imag)) < _D_EDGE:
        term = factor * power / d
        if isfinite(term):
            return term
    (f, ef), (p, ep), (q, eq) = map(_normalized, (factor, power, d))
    term = f * p / q
    try:
        return complex(math.ldexp(term.real, ef + ep - eq), math.ldexp(term.imag, ef + ep - eq))
    except OverflowError:
        raise NonFiniteInput("group element coordinates must be finite") from None


def _normalized(z: complex) -> tuple:
    """(z / 2**e, e) with the larger part of z / 2**e in [0.5, 1); (0, 0) for z = 0."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def _fold(algebra: AlgebraKind, coords: Iterable[tuple], acc=None, done=0) -> tuple:
    """Left fold of coordinate tuples, earliest first; returns the product.

    ``acc`` is a fold's product of the ``done`` steps before ``coords``;
    without it the first tuple seeds the product and ``coords`` must be
    nonempty.  The fold is left-associative, so a run folded in chunks gets
    the bits of one fold.  This is the only copy of the pair product.  The
    tuples it takes are finite already (each is checked, or built finite,
    where it enters), so it checks only what it makes: each step's
    denominator d against TOL_SINGULAR, and each product for finiteness.  A
    singular step raises SingularDecomposition carrying in ``step`` its
    1-based step of the run.  One magnitude test picks the step's form: with
    |d| below _D_EDGE, its plain terms; past it, or where a power or a plain
    term leaves double range, its one edge route, each term by _term, so a
    power that scales an exact 0 coordinate is no error.  Where d itself is
    not finite, each term is divided through by its coordinate,
    p2 + exp(delta*log_c2)/(1/p1 - delta*eps*m2), and log d taken apart: that
    step is the continued fraction's own form, so there the cross-check is
    not independent.  Nothing it returns is non-finite.
    Tuples are (big_plus, log_c, big_minus); phases are the callers' to add.
    """
    delta, _, delta_eps, two_over_delta, _ = algebra._kernel
    exp, log = cmath.exp, cmath.log
    coords = enumerate(coords, start=done + 1)
    if acc is None:
        _, acc = next(coords)
    p1, lc1, m1 = acc
    for index, (p2, lc2, m2) in coords:
        d = 1.0 - delta_eps * p1 * m2
        try:
            a_d = abs(d)
        except OverflowError:  # both parts finite, the modulus not
            a_d = math.inf
        if not TOL_SINGULAR < a_d < _D_EDGE:
            if a_d <= TOL_SINGULAR:
                raise SingularDecomposition(
                    f"no normal-ordered form: composition denominator |d| = {a_d:.3e} is singular",
                    denominator_abs=a_d,
                    step=index,
                )
            p = m = math.inf  # the edge block below forms both terms
        else:
            try:
                p = p2 + p1 * exp(delta * lc2) / d
                m = m1 + m2 * exp(delta * lc1) / d
            except OverflowError:  # a power left double range, the term it scales may not
                p = m = math.inf
        # kept as a subtraction: adding (-two_over_delta) * log(d) can flip a signed zero
        lc = lc1 + lc2 - two_over_delta * log(d)
        if not (isfinite(p) and isfinite(lc) and isfinite(m)):
            if isfinite(d):  # the edge route: a term may be in range where its plain form is not
                p, m = p2 + _term(p1, delta * lc2, d), m1 + _term(m2, delta * lc1, d)
            else:  # p1*m2 left double range: each term divided through by its coordinate
                p = p2 + _term(1.0, delta * lc2, 1.0 / p1 - delta_eps * m2)
                m = m1 + _term(1.0, delta * lc1, 1.0 / m2 - delta_eps * p1)
                log_d = log(-delta_eps) + log(p1) + log(m2) + log(1.0 - (1.0 / p1) * (1.0 / m2) / delta_eps)
                lc = lc1 + lc2 - two_over_delta * complex(log_d.real, _principal(log_d.imag))
            if not (isfinite(p) and isfinite(lc) and isfinite(m)):
                raise NonFiniteInput("group element coordinates must be finite")
        p1, lc1, m1 = p, lc, m
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
    """Final raising coordinate of nonempty checked coordinate tuples; see alpha_continued_fraction."""
    delta, _, delta_eps, _, _ = algebra._kernel
    exp, tiny = cmath.exp, sys.float_info.min
    coords = iter(coords)
    value = next(coords)[0]
    for big_plus, log_c, big_minus in coords:
        try:
            beyond = abs(value) < tiny  # 1.0 / value would leave double range
        except OverflowError:  # both parts finite, the modulus not: 1.0 / value underflows
            beyond = True
        if beyond:
            if value == 0:
                value = big_plus
                continue
            # the term multiplied through by value: the fold's edge step
            partial = 1.0 - delta_eps * value * big_minus
            if partial != 0:
                value = big_plus + _term(value, delta * log_c, partial)
                continue
        else:
            partial = delta_eps * big_minus - 1.0 / value
            if partial != 0:
                try:
                    # a 0 quotient may be Smith's division past _D_EDGE: there, the fold's term
                    value = big_plus - (exp(delta * log_c) / partial or _term(1.0, delta * log_c, partial))
                except OverflowError:  # the power left double range: the fold's term
                    value = big_plus - _term(1.0, delta * log_c, partial)
                continue
        if not isfinite(value):  # 1.0 / value is 0 because value left double range, not a zero partial
            raise NonFiniteInput("group element coordinates must be finite")
        raise SingularDecomposition(
            "continued fraction hit a zero partial denominator",
            denominator_abs=0.0,
        )
    if not isfinite(value):
        raise NonFiniteInput("group element coordinates must be finite")
    return value


class DisentangleResult(_Frozen):
    """Normal-ordered element plus the auxiliary frequency that produced it."""

    __slots__ = ("element", "nu")

    def __init__(self, element: GroupElement, nu: complex):
        _set_element(self, element)
        _set_nu(self, nu)


_set_element, _set_nu = _setters(DisentangleResult)


def disentangle(algebra: AlgebraKind, lam: ExponentParams) -> DisentangleResult:
    """Rewrite exp(l+ T+ + lc Tc + l- T-) in normal-ordered coordinates.

    With nu the principal square root of (delta*lc/2)^2 - delta*eps*l+*l-,
    the shared denominator is w = cosh(nu) - (delta*lc/2)*sinh(nu)/nu; then
    L+- = l+- * (sinh(nu)/nu) / w and lc_out = -(2/delta)*Log(w), principal
    branch.  Every ingredient is even in nu, so the root branch is irrelevant.
    A triangular exponent, l+*l- == 0, takes its exact form w = exp(-delta*lc/2)
    and no other.  Where |nu| > 1, w is taken on the exp(-nu) scale, in the one
    of two equal forms that a sign picks so it cannot cancel where w does not:
    exp(-nu) - delta*eps*l+*l- sinh(nu)/(nu (nu + delta*lc/2)) with nu the
    principal root, where Re(conj(nu) delta*lc/2) > 0, else the form above.
    A w within roundoff of 0 raises SingularDecomposition (reporting |w exp(-nu)|
    where |nu| > 1); a coordinate that leaves double range, NonFiniteInput.
    """
    big_plus, log_c, big_minus, nu = _disentangle_raw(
        algebra._kernel, lam.lambda_plus, lam.lambda_c, lam.lambda_minus
    )
    return DisentangleResult(GroupElement(algebra, big_plus, log_c, big_minus), nu)


def _checked_coords(
    elements: Iterable[GroupElement], algebra: AlgebraKind, total: list
) -> Iterator[tuple]:
    """Coordinate triples of ``elements``; the sum of their phases, left to right, goes on ``total``.

    Every element sequence enters the kernels here, the fold's and the
    continued fraction's, so each element is checked as it is reached: its
    algebra, then the running phase sum (each GroupElement is finite, their
    sum may not be), before any later pair is formed.
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
    1-based position and the fold's message as ``__cause__``, and a step or a
    phase sum that leaves double range raises NonFiniteInput.  A single
    element is checked like every other and returned as it is.
    """
    count = len(elements)
    if count == 0:
        raise EmptySequence("need at least one element")
    algebra, phase = elements[0].algebra, []
    coords = _compose_coords(algebra, _checked_coords(elements, algebra, phase), count)
    return elements[0] if count == 1 else GroupElement(algebra, *coords, *phase)


def alpha_continued_fraction(elements: Sequence[GroupElement]) -> complex:
    """Final raising coordinate of a product via its continued fraction.

    Evaluated bottom-up from the innermost term (the first element's raising
    coordinate).  Its arithmetic is independent of the fold in compose_many,
    which is the point: agreement between the two is a nontrivial consistency
    check.  Its input check is the fold's: elements are read as compose_many
    reads them (algebra, phase sum), so an input raises the same error at the same element.

    A zero running value is a removable case (its reciprocal only appears in
    a denominator that then blows up, killing the whole fraction term), so it
    is taken in the limit.  A nonzero running value whose reciprocal cannot
    be evaluated in double, one below the smallest normal double or one
    whose parts are finite but whose modulus is not, is removable too: that
    term takes the fold's form, the term multiplied through by the value.
    That term, and one whose power exp(delta*log_c) leaves double range, is
    the fold's edge term, so there the cross-check is not independent; nor
    where the fold's d is not finite, whose step is then this term's own form.
    An exactly zero partial denominator, in either form, is not removable and
    raises, and a value or term that leaves double range raises NonFiniteInput.
    """
    if len(elements) == 0:
        raise EmptySequence("need at least one element")
    algebra = elements[0].algebra
    return _continued_fraction(algebra, _checked_coords(elements, algebra, []))
