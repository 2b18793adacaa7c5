"""Extended-precision references for the disentangling and for products, independent of bchkit's kernels.

The Gauss coordinates of exp(lp M+ + lc Mc + lm M-) are read back from the
2x2 matrix of that exponential, formed by ``mpmath.expm``.  With
M+ = a E12, Mc = b H and M- = a' E21 (E12 and E21 the matrix units,
H = diag(1/2, -1/2)), the normal-ordered product exp(L+ M+) exp(C Mc) exp(L- M-)
is

    [[p + a a' L+ L- / p,  a L+ / p],
     [a' L- / p,           1 / p   ]],    p = exp(b C / 2),

so L+ = g12 / (a g22), L- = g21 / (a' g22) and C = -(2/b) Log(g22), with C
defined modulo its period 4 pi i / b.  Only the algebra's name is taken from
the caller; the generator tables are this module's own.

g22 is the disentangling denominator.  With s^2 = -det M, the entries of
exp(M) are of size exp(|Re s|) while g22 can be as small as exp(-|Re s|), so
reading g22 back loses about 2|Re s|/ln 10 digits to cancellation; the working
precision is that many digits above ``DIGITS``.

A product of elements is the product of their matrices in that form, later
element on the left, read back by the same formulas (``product_coordinates``).
"""

import math

import mpmath

# Digits kept after the cancellation in g22 has taken its share.
DIGITS = 30

# Relative bound on every coordinate of a disentangling off the triangular set,
# |lambda| up to 1e3, log_c modulo its period (tests/test_reference.py's census).
CENSUS_BOUND = 1e-13

_I = mpmath.mpc(0, 1)


def _tables():
    """(a, b, a', eps, delta) per algebra name, at the current working precision."""
    root = _I / mpmath.sqrt(2)
    return {
        "su11": (1, 1, -1, 1, 1),
        "su2": (1, 1, 1, -1, 1),
        "so21": (root, _I, -root, _I / 2, _I),
    }


def _generators(name):
    a, b, a_minus, _, _ = _tables()[name]
    m_plus = mpmath.matrix([[0, a], [0, 0]])
    m_c = mpmath.matrix([[b / 2, 0], [0, -b / 2]])
    m_minus = mpmath.matrix([[0, 0], [a_minus, 0]])
    return m_plus, m_c, m_minus


def _check_commutators():
    """[M-, M+] = 2 eps Mc and [Mc, M+-] = +-delta M+- for every table; run once, at import."""
    with mpmath.workdps(DIGITS):
        for name, (_, _, _, eps, delta) in _tables().items():
            m_plus, m_c, m_minus = _generators(name)
            for got, expected in (
                (m_minus * m_plus - m_plus * m_minus, 2 * eps * m_c),
                (m_c * m_plus - m_plus * m_c, delta * m_plus),
                (m_c * m_minus - m_minus * m_c, -delta * m_minus),
            ):
                assert mpmath.mnorm(got - expected, 1) <= mpmath.mpf(10) ** (5 - DIGITS), name


_check_commutators()


def _exponent(name, lp, lc, lm):
    m_plus, m_c, m_minus = _generators(name)
    return lp * m_plus + lc * m_c + lm * m_minus


def exponential(name, lp, lc, lm):
    """exp(lp M+ + lc Mc + lm M-) on algebra ``name`` as a 2x2 mpmath matrix, to ``DIGITS`` digits.

    ``name`` is "su11", "su2" or "so21"; lp, lc and lm are taken exactly as given.
    """
    lp, lc, lm = mpmath.mpc(lp), mpmath.mpc(lc), mpmath.mpc(lm)
    with mpmath.workdps(DIGITS):
        return mpmath.expm(_exponent(name, lp, lc, lm))


def gauss_coordinates(name, lp, lc, lm):
    """(L+, log_c, L-, period) of exp(lp M+ + lc Mc + lm M-) on algebra ``name``, as mpmath numbers.

    ``name`` is "su11", "su2" or "so21"; lp, lc and lm are taken exactly as
    given.  log_c is the principal branch, defined modulo ``period``.
    """
    lp, lc, lm = mpmath.mpc(lp), mpmath.mpc(lc), mpmath.mpc(lm)
    with mpmath.workdps(DIGITS):
        s = mpmath.sqrt(-mpmath.det(_exponent(name, lp, lc, lm)))
        extra = 2 * abs(float(mpmath.re(s))) / math.log(10)
    with mpmath.workdps(DIGITS + math.ceil(extra)):
        a, b, a_minus, _, _ = _tables()[name]
        g = mpmath.expm(_exponent(name, lp, lc, lm))
        g22 = g[1, 1]
        big_plus = g[0, 1] / (a * g22)
        big_minus = g[1, 0] / (a_minus * g22)
        log_c = -(2 / b) * mpmath.log(g22)
        period = 4 * mpmath.pi * _I / b
        return big_plus, log_c, big_minus, period


def _element_matrix(name, coords, magnitudes=False):
    """The 2x2 matrix of the element with Gauss coordinates ``coords`` = (L+, C, L-), as nested lists.

    With ``magnitudes``, each entry is instead the sum of the moduli of its terms,
    the scale against which a product of such matrices loses digits to cancellation.
    """
    a, b, a_minus, _, _ = _tables()[name]
    big_plus, big_c, big_minus = (mpmath.mpc(z) for z in coords)
    p = mpmath.exp(b * big_c / 2)
    corner = a * a_minus * big_plus * big_minus / p
    if magnitudes:
        return [[abs(p) + abs(corner), abs(a * big_plus / p)], [abs(a_minus * big_minus / p), abs(1 / p)]]
    return [[p + corner, a * big_plus / p], [a_minus * big_minus / p, 1 / p]]


def _product(name, elements, magnitudes=False):
    """The matrix product of _element_matrix over ``elements``, earliest first, so later on the left."""
    product = [[1, 0], [0, 1]]
    for coords in elements:
        m = _element_matrix(name, coords, magnitudes)
        product = [[sum(m[i][k] * product[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return product


def product_coordinates(name, coords):
    """(L+, log_c, L-, period) of the product of the elements ``coords`` on algebra ``name``.

    ``coords`` is a sequence of (L+, log_c, L-) triples, earliest first, each
    taken exactly as given; the product is the matrix product of the elements'
    closed-form matrices, later element on the left, read back as
    gauss_coordinates reads exp(M).  log_c is the principal branch, defined
    modulo ``period``.  An entry read back is the sum of terms that can cancel;
    the working precision is ``DIGITS`` plus the digits its largest cancellation
    takes, about -log10|d| for a pair whose denominator d is small.
    """
    a, b, a_minus, _, _ = _tables()[name]
    with mpmath.workdps(DIGITS):
        g, scale = _product(name, coords), _product(name, coords, magnitudes=True)
        lost = [
            float(mpmath.log10(scale[i][j] / abs(g[i][j])))
            for i, j in ((0, 1), (1, 0), (1, 1))
            if g[i][j] != 0
        ]
    with mpmath.workdps(DIGITS + math.ceil(max(lost, default=0.0)) + 5):
        g = _product(name, coords)
        big_plus = g[0][1] / (a * g[1][1])
        big_minus = g[1][0] / (a_minus * g[1][1])
        log_c = -(2 / b) * mpmath.log(g[1][1])
        return big_plus, log_c, big_minus, 4 * mpmath.pi * _I / b


def relative_error(got, expected, period=None):
    """|got - expected| / |expected|, the difference first reduced modulo ``period`` if given."""
    with mpmath.workdps(40):
        diff = mpmath.mpc(got) - expected
        if period is not None:
            diff -= mpmath.nint(mpmath.re(diff / period)) * period
        return float(abs(diff) / abs(expected))


def worst_relative_error(name, lp, lc, lm, got):
    """The largest relative_error of got = (L+, log_c, L-) against gauss_coordinates(name, lp, lc, lm).

    log_c is compared modulo its period.
    """
    big_plus, log_c, big_minus, period = gauss_coordinates(name, lp, lc, lm)
    return max(
        relative_error(got[0], big_plus),
        relative_error(got[1], log_c, period),
        relative_error(got[2], big_minus),
    )
