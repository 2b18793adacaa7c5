import cmath
import decimal
import math
import random

import mpmath
import pytest

from bchkit import (
    AlgebraKind,
    AlgebraMismatch,
    EmptySequence,
    ExponentParams,
    GroupElement,
    Mat2,
    NonFiniteInput,
    SingularDecomposition,
    alpha_continued_fraction,
    compose_many,
    compose_pair,
    disentangle,
    element_matrix,
    exponent_matrix,
    identity_element,
)
from bchkit.compose import _series
from frozen import complex_bits, element_bits, frozen_pair_product, random_complex, random_element, random_params
from reference import CENSUS_BOUND, gauss_coordinates, product_coordinates, relative_error, worst_relative_error


# ---------------------------------------------------------------------------
# disentangle

def test_disentangle_identity():
    result = disentangle(AlgebraKind.SU11, ExponentParams(0, 0, 0))
    assert result.nu == 0
    g = result.element
    assert g.big_plus == 0 and g.big_minus == 0
    assert g.big_c() == 1


def test_disentangle_cartan_only():
    # a pure Cartan exponent passes through: Lambda_c = exp(lambda_c)
    for kind in AlgebraKind:
        for lam_c in (0.5, -0.3 + 0.2j, 1.1j):
            g = disentangle(kind, ExponentParams(0, lam_c, 0)).element
            assert abs(g.big_plus) == 0 and abs(g.big_minus) == 0
            assert abs(g.big_c() - cmath.exp(lam_c)) <= 1e-14 * abs(cmath.exp(lam_c))


def test_disentangle_nilpotent_raising():
    g = disentangle(AlgebraKind.SU11, ExponentParams(0.3, 0, 0)).element
    assert abs(g.big_plus - 0.3) <= 1e-15
    assert g.big_c() == 1
    assert g.big_minus == 0


def test_disentangle_reports_consistent_nu():
    rng = random.Random(5)
    for kind in AlgebraKind:
        eps, delta = kind.epsilon, kind.delta
        for _ in range(50):
            lam = random_params(rng, 0.6)
            result = disentangle(kind, lam)
            target = (delta * lam.lambda_c / 2) ** 2 - delta * eps * lam.lambda_plus * lam.lambda_minus
            assert abs(result.nu**2 - target) <= 1e-12 * max(1.0, abs(target))


def test_disentangle_matches_matrix_oracle():
    rng = random.Random(7)
    for kind in AlgebraKind:
        for _ in range(150):
            lam = random_params(rng, 0.6)
            g = disentangle(kind, lam).element
            gap = abs(element_matrix(g) - exponent_matrix(kind, lam)).max()
            assert gap <= 1e-12
    # an su(2) exponent whose parts are mostly negative
    lam = ExponentParams(-0.3 + 0.1j, 0.5, -0.2 - 0.4j)
    g = disentangle(AlgebraKind.SU2, lam).element
    assert abs(element_matrix(g) - exponent_matrix(AlgebraKind.SU2, lam)).max() <= 1e-12


def test_disentangle_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        disentangle(AlgebraKind.SU2, ExponentParams(math.nan, 0, 0))


@pytest.mark.parametrize("index, name", [(0, "lambda_plus"), (1, "lambda_c"), (2, "lambda_minus")])
def test_disentangle_names_an_integer_beyond_double_range(index, name):
    # refused by name where the exponent is built, not with a bare OverflowError
    lam = [1, 0, 1]
    lam[index] = 10**400
    with pytest.raises(NonFiniteInput, match=f"^{name} must be within double range, got an integer of 1329 bits$"):
        disentangle(AlgebraKind.SU11, ExponentParams(*lam))


def test_disentangle_singular_input_raises():
    # su(1,1) with lambda = (x, 0, x) has w = cos(x); x = pi/2 kills it
    x = math.pi / 2
    with pytest.raises(SingularDecomposition) as excinfo:
        disentangle(AlgebraKind.SU11, ExponentParams(x, 0, x))
    assert excinfo.value.denominator_abs <= 1e-12


def test_disentangle_triangular_exponent_keeps_its_normal_ordered_form():
    # lambda_minus = 0: w = cosh(nu) - sinh(nu) = exp(-nu) exactly, with nu = lc/2, and
    # cosh(nu) - sinh(nu) in double precision loses that to cancellation
    for lc in (10, 20, 25, 30, 60):
        g = disentangle(AlgebraKind.SU11, ExponentParams(1, lc, 0)).element
        assert g.log_c == lc
        assert g.big_plus == pytest.approx(math.expm1(lc) / lc, rel=1e-14)
        assert g.big_minus == 0


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_disentangle_triangular_exponent_keeps_lambda_c_exactly(kind):
    # w = exp(-delta*lc/2) is kept as its principal log, and an angle Im(delta*lc/2)
    # already on that branch stays as it is, so -(2/delta) log w gives back lc bit for bit
    rng = random.Random(73)
    kept = 0
    for _ in range(4000):
        re, im, l = (rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(3))
        lc = complex(re, im)
        if abs((kind.delta * lc).imag) / 2 > math.pi:
            continue
        lam = ExponentParams(l, lc, 0) if kept % 2 else ExponentParams(0, lc, l)
        assert disentangle(kind, lam).element.log_c == lc
        kept += 1
    assert kept > 1000


def test_disentangle_denominator_lost_to_roundoff_raises():
    # su(2) with lambda = (A q, 0, -A/q) has w = cos(A); at A near (k + 1/2) pi, about 1e6,
    # |w| ~ 1e-11 is below the roundoff that rounding A^2 leaves in w
    big_a = (318310 + 0.5) * math.pi
    with pytest.raises(SingularDecomposition, match="disentangling denominator"):
        disentangle(AlgebraKind.SU2, ExponentParams(big_a * 1.1, 0, -big_a / 1.1))


def test_disentangle_overflow_raises_instead_of_returning_nan():
    cases = [
        # nu^2 = 1e400 overflows: nu = inf and w = nan
        (AlgebraKind.SU2, ExponentParams(1e200, 0, 1e200)),
        # x = delta*eps*lp*lm overflows to nan - inf j, and cmath.cosh(nu) raises ValueError
        (
            AlgebraKind.SU11,
            ExponentParams(
                4.870071729863563e199 + 5.256223429309925e199j,
                -0.002 - 0.0007j,
                -2.193879286821749e199 - 3.094071925631383e199j,
            ),
        ),
    ]
    for kind, lam in cases:
        with pytest.raises(NonFiniteInput, match="^normal-ordered coordinates overflow double precision$"):
            disentangle(kind, lam)


def test_disentangle_overflow_within_the_unit_disk_of_nu_raises():
    # nu = 0.5 and w = cosh(0.5) * 1e-6 clears the guard, so the route for |nu| <= 1
    # forms L+ = 1e306 * sinhc(nu)/w, about 1e312, and its shared check raises
    nu = 0.5
    h = nu / math.tanh(nu) * (1 - 1e-6)
    x = h * h - nu * nu
    lam = ExponentParams(1e306, 2 * h, x / 1e306)
    assert abs(cmath.sqrt(0.25 * lam.lambda_c**2 - lam.lambda_plus * lam.lambda_minus) - nu) <= 1e-9
    with pytest.raises(NonFiniteInput, match="^normal-ordered coordinates overflow double precision$"):
        disentangle(AlgebraKind.SU11, lam)


def test_disentangle_triangular_exponent_beyond_exp_range():
    # lambda_plus*lambda_minus = 0: w = exp(-lc/2), past where the general route's
    # sinhc(nu)/w overflows (lc = 800) or cosh(nu) itself does (lc = 1500)
    for kind in (AlgebraKind.SU11, AlgebraKind.SU2):
        for lc in (800, 1500):
            result = disentangle(kind, ExponentParams(0, lc, 0))
            g = result.element
            assert (g.big_plus, g.log_c, g.big_minus) == (0, lc, 0)
            assert result.nu == lc / 2
    # so(2,1): delta = i, so nu = 750i, nothing overflows, and log_c is lc modulo its period 4 pi
    result = disentangle(AlgebraKind.SO21, ExponentParams(0, 1500, 0))
    g = result.element
    assert (g.big_plus, g.big_minus, result.nu) == (0, 0, 750j)
    _, log_c, _, period = gauss_coordinates("so21", 0, 1500, 0)
    assert relative_error(g.log_c, log_c, period) <= 1e-15
    # L+ = l+ (e^800 - 1)/800 is finite although e^800 is not; reference to 50 digits
    with decimal.localcontext() as context:
        context.prec = 50
        exact = decimal.Decimal(1e-300) * (decimal.Decimal(800).exp() - 1) / 800
    g = disentangle(AlgebraKind.SU11, ExponentParams(1e-300, 800, 0)).element
    assert g.big_plus.imag == 0 and g.log_c == 800 and g.big_minus == 0
    assert abs(decimal.Decimal(g.big_plus.real) / exact - 1) <= 1e-15
    # a nonzero coordinate that itself leaves double range still raises
    with pytest.raises(NonFiniteInput, match="^normal-ordered coordinates overflow double precision$"):
        disentangle(AlgebraKind.SU11, ExponentParams(1e-300, 1500, 0))


def test_disentangle_general_exponent_beyond_cosh_range():
    # cosh(nu) overflows with lambda_plus*lambda_minus != 0 (was OverflowError):
    # w = cosh(800) and L+- = l+- tanh(800)/800, references to 50 digits
    log_w = 800 - math.log(2.0)
    for kind, lm in ((AlgebraKind.SU11, -800), (AlgebraKind.SU2, 800)):
        result = disentangle(kind, ExponentParams(800, 0, lm))
        g = result.element
        assert (g.big_plus, g.big_minus, result.nu) == (1, lm / 800, 800)
        assert g.log_c == pytest.approx(-2 * log_w, rel=1e-15)
        assert g.big_c() == 0  # exp(log_c) underflows
    # w cancels to -x sinhc(nu)/(nu + lc/2) on the exp(-nu) scale: L+- = -(nu + lc/2)/l-+
    # and log|w| = log(x) + nu - log(2 nu (nu + lc/2)), nu = lc/2 = 1000
    g = disentangle(AlgebraKind.SU11, ExponentParams(1e-100, 2000, 1e-100)).element
    assert g.big_plus == g.big_minus == pytest.approx(-2e103, rel=1e-15)
    log_abs_w = math.log(1e-200) + 1000 - math.log(2000 * 2000)
    assert g.log_c.real == pytest.approx(-2 * log_abs_w, rel=1e-15)
    assert abs(g.log_c.imag) == pytest.approx(2 * math.pi, rel=1e-15)
    # a coordinate that itself leaves double range still raises
    with pytest.raises(NonFiniteInput, match="^normal-ordered coordinates overflow double precision$"):
        disentangle(AlgebraKind.SU11, ExponentParams(1, 3000, 1e-306))  # L+ = -3000/1e-306


LN2 = math.log(2.0)

# exp(-2 nu) underflows, so w exp(-nu) no longer depends on nu, and a guard whose bound on the
# rounding of nu^2 grows with |nu| would call each row singular.  With lambda_c = 0,
# w = cosh(nu): L+- = l+-/nu and log_c = -(2/delta)(nu - ln 2).  The other rows' values are
# mpmath's, from cosh(nu) - (delta lambda_c/2) sinh(nu)/nu at 80 and 120 digits.
FAR_BEYOND_COSH_RANGE = [
    ("su2", (3e12, 0, 3e12), (1.0, -2 * (3e12 - LN2), 1.0)),
    ("so21", (1e13, 0, 1e13), (math.sqrt(2), 2j * (1e13 / math.sqrt(2) - LN2), math.sqrt(2))),
    ("su11", (1e13, 0, -1e13), (1.0, -2 * (1e13 - LN2), -1.0)),
    ("su2", (1e150, 0, 1e150), (1.0, -2 * (1e150 - LN2), 1.0)),
    ("su11", (2e12, 1, -2e12), (1.00000000000025, -3999999999998.6137056, -1.00000000000025)),
    ("su2", (1, 1e13, 1), (1e13, -9999999999880.2655752, 1e13)),
    ("su2", (1, -1e13, 1), (1e-13, -1e13, 1e-13)),
]


@pytest.mark.parametrize(
    "name, lam, expected",
    FAR_BEYOND_COSH_RANGE,
    ids=[f"{name}-" + ",".join(f"{v:g}" for v in lam) for name, lam, _ in FAR_BEYOND_COSH_RANGE],
)
def test_disentangle_far_beyond_cosh_range_is_not_singular(name, lam, expected):
    g = disentangle(AlgebraKind(name), ExponentParams(*lam)).element
    for got, want in zip((g.big_plus, g.log_c, g.big_minus), expected):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_disentangle_far_beyond_cosh_range_still_reports_an_oscillating_w():
    # nu = 1e13 i and w = cos(1e13): the rounding of nu^2 = -1e26 moves nu by radians
    with pytest.raises(SingularDecomposition, match=r"^no normal-ordered form: .* \|w exp\(-nu\)\| = "):
        disentangle(AlgebraKind.SU11, ExponentParams(1e13, 0, 1e13))


@pytest.mark.xfail(raises=SingularDecomposition, strict=True, reason="lambda_plus*lambda_minus underflows to 0")
def test_disentangle_takes_an_exponent_whose_x_underflows_beyond_cosh_range():
    # x = delta*eps*lp*lm is 0 in double and w exp(-nu), about 1e-604, has no double
    # on that scale, so w is called singular; the reference gives L+- = -3e303
    lam = ExponentParams(1e-300, 3000, 1e-300)
    g = disentangle(AlgebraKind.SU11, lam).element
    coords = (lam.lambda_plus, lam.lambda_c, lam.lambda_minus)
    assert worst_relative_error("su11", *coords, (g.big_plus, g.log_c, g.big_minus)) <= CENSUS_BOUND


def test_cosh_sinhc_is_even():
    rng = random.Random(13)
    for scale in (1e-6, 1e-4, 0.5, 2.0):
        for _ in range(20):
            nu = scale * random_complex(rng)
            assert _series(nu) == _series(-nu)
            assert (cmath.cosh(nu), cmath.sinh(nu) / nu) == (cmath.cosh(-nu), cmath.sinh(-nu) / -nu)


def test_cosh_sinhc_series_joins_smoothly():
    # values straddling the series threshold must agree to roundoff
    for nu in (9.99e-5 + 0j, 9.99e-5j, (7e-5) * cmath.exp(0.4j)):
        below = _series(nu)
        above = cmath.cosh(nu), cmath.sinh(nu) / nu
        assert abs(below[0] - above[0]) <= 1e-15
        assert abs(below[1] - above[1]) <= 1e-15


# ---------------------------------------------------------------------------
# compose_pair

def test_compose_pair_cartan_subgroup():
    a, b = 0.3 - 0.1j, -0.2 + 0.4j
    g1 = GroupElement(AlgebraKind.SU11, 0j, a, 0j)
    g2 = GroupElement(AlgebraKind.SU11, 0j, b, 0j)
    combined = compose_pair(g2, g1)
    assert combined.log_c == a + b
    assert combined.big_plus == 0 and combined.big_minus == 0


def test_compose_pair_matches_matrix_product():
    rng = random.Random(17)
    for kind in AlgebraKind:
        for _ in range(150):
            g1 = random_element(rng, kind)
            g2 = random_element(rng, kind)
            left = element_matrix(compose_pair(g2, g1))
            right = element_matrix(g2) @ element_matrix(g1)
            assert abs(left - right).max() <= 1e-12


def test_compose_pair_adds_phases():
    g1 = GroupElement(AlgebraKind.SU11, 0.1j, 0j, 0.05, phase=0.2j)
    g2 = GroupElement(AlgebraKind.SU11, -0.05, 0.1, 0j, phase=-0.1 + 0.3j)
    assert compose_pair(g2, g1).phase == g1.phase + g2.phase


def test_compose_pair_associativity_in_components():
    rng = random.Random(19)
    for kind in AlgebraKind:
        for _ in range(40):
            g1 = random_element(rng, kind)
            g2 = random_element(rng, kind)
            g3 = random_element(rng, kind)
            left = compose_pair(g3, compose_pair(g2, g1))
            right = compose_pair(compose_pair(g3, g2), g1)
            # logs may differ by a branch winding; the coordinates must not
            assert abs(left.big_plus - right.big_plus) <= 1e-10
            assert abs(left.big_c() - right.big_c()) <= 1e-10
            assert abs(left.big_minus - right.big_minus) <= 1e-10


def test_overflowing_product_raises_instead_of_returning_non_finite():
    su11 = AlgebraKind.SU11
    cases = [
        # exp(800) of the first element's log_c leaves double range inside the step
        [GroupElement(su11, 0j, 800 + 0j, 0j), GroupElement(su11, 0.1 + 0j, 0j, 0.1 + 0j)],
        # d = 1, and L+ = 1e300 + 1e300 exp(700) leaves double range
        [GroupElement(su11, 1e300 + 0j, 700 + 0j, 0j)] * 2,
        # on every algebra, L+ = 2.5e308 leaves double range at step 2 after the edge route;
        # taken on, it would make step 3 divide by zero
        *(
            [GroupElement(kind, 1e308 + 0j, 0j, 0j), GroupElement(kind, 1.5e308 + 0j, 0j, 0j),
             GroupElement(kind, 0.1 + 0j, 0j, 0j)]
            for kind in AlgebraKind
        ),
    ]
    for elements in cases:
        with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
            compose_many(elements)
        if len(elements) == 2:
            with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
                compose_pair(*elements[::-1])


# (algebra, pair) where d = 1 - delta eps L1+ L2-, or the continued fraction's partial
# denominator, leaves double range or passes the bound of Smith's division, though the
# product is in range
EDGE_STEPS = {
    # L+ = 1e200 followed by L- = 1e200: d = 1 - 1e400 is not finite
    "d-not-finite": ("su11", ((1e200 + 0j, 0j, 0j), (0j, 0j, 1e200 + 0j))),
    # d is finite, but |d| is about 2.1e308
    "d-modulus-beyond": ("su11", ((1.5e300 + 0j, 0j, 0j), (0j, 0j, 1e8 + 1e8j))),
    # d = 1 - 1e308: below the largest double, past the bound of Smith's division
    "d-beyond-smith-bound": ("su11", ((1e300 + 0j, 0.5j, 0.2 + 0j), (0.1 - 0.3j, 2 + 0j, 1e8 + 0j))),
    # |d| is above half the largest double: Python's division forms Smith's denominator
    # b.imag + b.real*(b.real/b.imag), which overflows, and gave the fold's term as 0, so
    # the fold returned the second element's L+
    "so21-smith-overflow": ("so21", (
        (-6.911499537148892e262 - 4.2824235975023426e262j, 0.6068014566628955 - 0.2631619903046233j,
         3.9674193721644396e23 - 2.6645798166502327e23j),
        (-8.640622430809308e-181 + 3.259397406621332e-181j, -25.447963758613422 - 32.87611304502988j,
         2.854701438310627e45 + 3.342754478235407e45j),
    )),
    # the same overflow in the fraction's partial denominator 1.7e308(1+i) - 1 gave L+ = 0
    "fraction-smith-overflow": ("su11", ((1.0 + 0j, 0j, 0j), (0j, 100 + 0j, 1.7e308 + 1.7e308j))),
}


@pytest.mark.parametrize("name, pair", list(EDGE_STEPS.values()), ids=list(EDGE_STEPS))
def test_edge_steps_match_the_matrix_product(name, pair):
    # the fold takes each term divided through by its coordinate where d is not finite, and
    # scaled operands past 2**1022, as the fraction does; mpmath's product of the two element
    # matrices gives every coordinate (log_c modulo its period)
    kind = AlgebraKind(name)
    elements = [GroupElement(kind, *coords) for coords in pair]
    big_plus, log_c, big_minus, period = product_coordinates(name, pair)
    g = compose_many(elements)
    assert relative_error(g.big_plus, big_plus) <= 1e-15
    assert relative_error(g.log_c, log_c, period) <= 1e-15
    assert relative_error(g.big_minus, big_minus) <= 1e-15
    assert relative_error(alpha_continued_fraction(elements), big_plus) <= 1e-15
    assert element_bits(compose_pair(elements[1], elements[0])) == element_bits(g)


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_fold_appends_the_principal_log_of_a_d_that_is_not_finite(kind):
    # arg(L1+) + arg(L2-) = 6 > pi: log d, taken apart as log(-delta eps) + log L1+ + log L2-
    # + ..., is brought back to the principal branch, so log_c gains -(2/delta) Log d exactly
    # as the plain step appends it; the period alone would not tell the branches apart
    first, second = (1e200 * cmath.exp(3j), 0.1j, 0.2 + 0j), (0.3 + 0j, -0.2 + 0j, 1e200 * cmath.exp(3j))
    g = compose_many([GroupElement(kind, *first), GroupElement(kind, *second)])
    with mpmath.workdps(40):
        d = 1 - mpmath.mpc(kind.delta * kind.epsilon) * mpmath.mpc(first[0]) * mpmath.mpc(second[2])
        expected = first[1] + second[1] - (2 / mpmath.mpc(kind.delta)) * mpmath.log(d)
    assert relative_error(g.log_c, expected) <= 1e-15


def test_fold_takes_a_product_whose_division_intermediate_overflows():
    # p1 * pow_c2 / d forms a.real + a.imag*r on the way, about 2e308, though the
    # product is in range, so the step forms the term again with its operands scaled;
    # the continued fraction never forms it, and mpmath at 40 digits confirms its -9.9
    su11 = AlgebraKind.SU11
    elements = [GroupElement(su11, 1e308 + 1e308j, 0j, 0j), GroupElement(su11, 0.1 + 0j, 0j, 0.1 + 0j)]
    alpha = alpha_continued_fraction(elements)
    assert abs(alpha - (-9.9 + 0j)) <= 1e-15 * 9.9
    assert abs(compose_many(elements).big_plus - alpha) <= 1e-15 * abs(alpha)


def test_fold_takes_a_product_whose_numerator_overflows():
    # p1 * pow_c2 = 1e300 exp(700) leaves double range, the term p1 * pow_c2 / d with
    # d = 1 - 1e300 does not, so the step forms it again with its operands scaled;
    # mpmath at 40 digits gives each coordinate, and the continued fraction agrees
    su11 = AlgebraKind.SU11
    elements = [GroupElement(su11, 1e300 + 0j, 0j, 0j), GroupElement(su11, 0.1 + 0j, 700 + 0j, 1 + 0j)]
    g = compose_many(elements)
    expected = (-1.0142320547350045e304, complex(-681.5510557964274, -2 * math.pi), -1e-300)
    for got, want in zip((g.big_plus, g.log_c, g.big_minus), expected):
        assert abs(got - want) <= 1e-15 * abs(want)
    assert abs(alpha_continued_fraction(elements) - g.big_plus) <= 1e-15 * abs(g.big_plus)


def test_huge_coordinates_are_not_singular():
    # d = 1 and w = 1 exactly; only a guard scaled by |L+| = 1e13 called them singular
    big = disentangle(AlgebraKind.SU11, ExponentParams(1e13, 0, 0)).element
    assert (big.big_plus, big.log_c, big.big_minus) == (1e13, 0, 0)
    ident = identity_element(AlgebraKind.SU11)
    for product in (compose_pair(ident, big), compose_many([big, ident])):
        assert (product.big_plus, product.log_c, product.big_minus) == (1e13, 0, 0)


def test_power_that_scales_an_exact_zero_is_no_overflow():
    # exp(delta*log_c) leaves double range inside the step, but the term it scales is exactly 0
    su11 = AlgebraKind.SU11
    cases = [
        ((0j, 800 + 0j, 0j), (0.1 + 0j, 0j, 0j), (0.1, 800, 0)),
        ((0j, 800 + 0j, 0j), (0.1 + 0j, -200 + 0j, 0j), (0.1, 600, 0)),
        ((0j, 0j, 0.1 + 0j), (0j, 800 + 0j, 0j), (0, 800, 0.1)),
    ]
    for coords1, coords2, expected in cases:
        first, second = GroupElement(su11, *coords1), GroupElement(su11, *coords2)
        for product in (compose_many([first, second]), compose_pair(second, first)):
            assert (product.big_plus, product.log_c, product.big_minus) == expected

    # a nonzero term whose power overflows is taken by logs where it is in range, to within
    # the rounding of its exponent, about 800 ulps ...
    product = compose_many([GroupElement(su11, 0j, 800 + 0j, 0j), GroupElement(su11, 0j, 0j, 1e-300 + 0j)])
    assert (product.big_plus, product.log_c) == (0, 800)
    assert abs(product.big_minus / (1e-300 * math.exp(400) * math.exp(400)) - 1) < 1e-12
    # ... and raises where it is not
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([GroupElement(su11, 0j, 800 + 0j, 0j), GroupElement(su11, 0j, 0j, 0.1 + 0j)])


def test_compose_pair_singular_denominator():
    # compose_pair is compose_many of two: it names the step and keeps the fold's message as the cause
    g1 = GroupElement(AlgebraKind.SU11, 1.0 + 0j, 0j, 0j)
    g2 = GroupElement(AlgebraKind.SU11, 0j, 0j, 1.0 + 0j)
    for compose in (lambda: compose_pair(g2, g1), lambda: compose_many([g1, g2])):
        with pytest.raises(SingularDecomposition) as excinfo:
            compose()
        exc = excinfo.value
        assert exc.denominator_abs == 0.0
        assert str(exc) == "composition is singular at element 2 of 2"
        assert exc.step == 2 and exc.time is None
        assert str(exc.__cause__) == (
            "no normal-ordered form: composition denominator |d| = 0.000e+00 is singular"
        )


# ---------------------------------------------------------------------------
# compose_many and the continued fraction

def test_compose_many_single_element_passthrough():
    rng = random.Random(23)
    g = random_element(rng, AlgebraKind.SO21)
    assert compose_many([g]) is g


def test_phases_add_left_to_right_bit_for_bit():
    # 1e16 + 1 rounds back to 1e16, so only the left-to-right order gives 0 here;
    # signed zeros survive only where every summand's zero has the same sign
    phases = [complex(-0.0, -0.0), complex(-0.0, 0.0), 1e16 + 0j, 1.0 - 0j, -1e16 - 0j, 2.5e-300j]
    elements = [GroupElement(AlgebraKind.SO21, 0j, 0j, 0j, phase) for phase in phases]
    for count in range(2, len(phases) + 1):
        expected = phases[0]
        for phase in phases[1:count]:
            expected = expected + phase
        assert complex_bits(compose_many(elements[:count]).phase) == complex_bits(expected)
    for g1 in elements:
        for g2 in elements:
            assert complex_bits(compose_pair(g2, g1).phase) == complex_bits(g1.phase + g2.phase)
    assert complex_bits(compose_many(elements[:2]).phase) == complex_bits(complex(-0.0, 0.0))


def test_non_finite_phase_raises_at_its_element_before_a_later_singular_pair():
    # two finite phases whose sum is not: the sum raises at the second, and a
    # singular pair ahead of it raises first
    kind = AlgebraKind.SU11
    ident = identity_element(kind)
    big = GroupElement(kind, 0j, 0j, 0j, complex(0, 1e308))
    raiser = GroupElement(kind, 1.0 + 0j, 0j, 0j)
    lowerer = GroupElement(kind, 0j, 0j, 1.0 + 0j)
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([ident, big, big, raiser, lowerer])
    with pytest.raises(SingularDecomposition, match="at element 3 of 5"):
        compose_many([ident, raiser, lowerer, big, big])
    with pytest.raises(NonFiniteInput):
        compose_pair(big, big)


def test_single_element_with_nan_phase_raises():
    # refused where it is built: no element compose_many could be handed has a NaN phase
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([GroupElement(AlgebraKind.SU2, 0j, 0j, 0j, complex(math.nan, 0))])


def test_overflowing_phase_sum_raises_at_its_element():
    # every phase is finite, their running sum is not from the second element on:
    # an error there, before the singular pair that follows
    kind = AlgebraKind.SU11
    big = GroupElement(kind, 0j, 0j, 0j, 1e308 + 0j)
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_pair(big, big)
    raiser = GroupElement(kind, 1.0 + 0j, 0j, 0j)
    lowerer = GroupElement(kind, 0j, 0j, 1.0 + 0j)
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([big, big, raiser, lowerer])
    # integer phases that each fit a double, whose exact sum does not
    huge = GroupElement(kind, 0j, 0j, 0j, 10**308)
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([huge, huge])
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([huge, huge, raiser, lowerer])


def test_compose_many_of_identities():
    for kind in AlgebraKind:
        ident = identity_element(kind)
        for count in (3, 6):
            combined = compose_many([ident] * count)
            assert combined.big_plus == 0 and combined.big_minus == 0
            assert combined.big_c() == 1


def test_compose_many_matches_matrix_product():
    rng = random.Random(29)
    for _ in range(40):
        elements = [random_element(rng, AlgebraKind.SU2, 0.4) for _ in range(5)]
        product = Mat2(1, 0, 0, 1)
        for g in elements:
            product = element_matrix(g) @ product
        gap = abs(element_matrix(compose_many(elements)) - product).max()
        assert gap <= 1e-11


def test_compose_many_empty_rejected():
    with pytest.raises(EmptySequence):
        compose_many([])


def test_continued_fraction_single_element():
    rng = random.Random(37)
    g = random_element(rng, AlgebraKind.SU11)
    assert alpha_continued_fraction([g]) == g.big_plus


def test_continued_fraction_never_returns_non_finite():
    su11 = AlgebraKind.SU11
    h = GroupElement(su11, 0.1 + 0j, 0j, 0.1 + 0j)
    cases = [
        # was (nan+0j); a NaN coordinate is now refused where the element is built
        lambda: [GroupElement(AlgebraKind.SU2, complex(math.nan, 0), 0j, 0j)],
        lambda: [GroupElement(su11, 1e300 + 0j, 700 + 0j, 0j)] * 2,  # was (inf+0j)
        lambda: [h, GroupElement(su11, 0.1 + 0j, 800 + 0j, 0.1 + 0j), h],  # exp(800): was OverflowError
    ]
    for elements in cases:
        with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
            alpha_continued_fraction(elements())


def test_continued_fraction_matches_pair_composition():
    rng = random.Random(41)
    for kind in AlgebraKind:
        for _ in range(60):
            g1 = random_element(rng, kind)
            g2 = random_element(rng, kind)
            expected = compose_pair(g2, g1).big_plus
            assert abs(alpha_continued_fraction([g1, g2]) - expected) <= 1e-12


def test_continued_fraction_matches_fold_for_long_products():
    rng = random.Random(43)
    for kind in AlgebraKind:
        for _ in range(30):
            elements = [random_element(rng, kind, 0.4) for _ in range(8)]
            expected = compose_many(elements).big_plus
            assert abs(alpha_continued_fraction(elements) - expected) <= 1e-10
    # five su(1,1) elements disentangled from random.Random(101) exponents
    draw = random.Random(101)
    elements = [random_element(draw, AlgebraKind.SU11) for _ in range(5)]
    assert abs(alpha_continued_fraction(elements) - compose_many(elements).big_plus) <= 1e-10


def test_continued_fraction_survives_identity_seed():
    # a zero innermost term is removable, not singular
    rng = random.Random(47)
    kind = AlgebraKind.SU11
    elements = [identity_element(kind)] + [random_element(rng, kind) for _ in range(3)]
    expected = compose_many(elements).big_plus
    assert abs(alpha_continued_fraction(elements) - expected) <= 1e-12


# mpmath at 40 digits: 0.1 + 1e-309 * exp(700) / (1 - delta*eps * 1e-309 * 0.1)
TINY_SEED_ALPHA = 0.10001014232054735


@pytest.mark.parametrize(
    "seed, power, big_minus, alpha",
    # 1.0 / seed overflows: 1/1e-309 to inf, which dropped the term (0.1 instead of
    # 0.10001...), and 1/(5e-324+5e-324j) to a nan part, which raised NonFiniteInput;
    # abs() of the last seed overflows though both its parts are finite, which raised
    # NonFiniteInput where the fold returns the seed plus 0.1, that is the seed
    [
        (1e-309 + 0j, 700, 0.1 + 0j, TINY_SEED_ALPHA),
        (5e-324 + 5e-324j, 0, 0.1 + 0j, 0.1 + 5e-324j),
        (1.5e308 + 1.5e308j, 0, 0j, 1.5e308 + 1.5e308j),
    ],
    ids=["1e-309", "complex-subnormal", "modulus-beyond-double-range"],
)
@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_continued_fraction_takes_a_value_whose_reciprocal_leaves_double_range(kind, seed, power, big_minus, alpha):
    log_c = power / complex(kind.delta)  # exp(delta*log_c) = exp(power)
    elements = [GroupElement(kind, seed, 0j, 0j), GroupElement(kind, 0.1 + 0j, log_c, big_minus)]
    got = alpha_continued_fraction(elements)
    # the subnormal imaginary part too; on the last row the term takes the fold's step
    assert complex_bits(got) == complex_bits(alpha) == complex_bits(compose_many(elements).big_plus)


@pytest.mark.parametrize(
    "seed, alpha",
    # exp(710) leaves double range though the term it scales does not: the fold takes that
    # term by logs, and the continued fraction raised NonFiniteInput on both
    [(1e-300 + 0j, 223399476.7161764), (1e-309 + 0j, 0.3233994766161702)],
    ids=["1e-300", "1e-309"],
)
def test_continued_fraction_takes_an_overflowing_power_by_logs(seed, alpha):
    kind = AlgebraKind.SU11
    elements = [GroupElement(kind, seed, 0j, 0j), GroupElement(kind, 0.1 + 0j, 710 + 0j, 0.1 + 0j)]
    assert compose_many(elements).big_plus == alpha
    assert abs(alpha_continued_fraction(elements) - alpha) <= 1e-15 * alpha


def test_continued_fraction_follows_the_fold_back_from_an_overflowing_power():
    # a third element brings the product of the row above down by exp(-200): the two
    # routes agree to the rounding of exponents near 710 taken through exp, 1.32e-14
    kind = AlgebraKind.SU11
    elements = [
        GroupElement(kind, 1e-300 + 0j, 0j, 0j),
        GroupElement(kind, 0.1 + 0j, 710 + 0j, 0.1 + 0j),
        GroupElement(kind, 0j, -200 + 0j, 0j),
    ]
    alpha = compose_many(elements).big_plus
    assert 0 < abs(alpha_continued_fraction(elements) - alpha) <= 2e-14 * abs(alpha)


@pytest.mark.parametrize("kind, big_minus", [(AlgebraKind.SU11, 2.0**1023), (AlgebraKind.SU2, -(2.0**1023))])
def test_continued_fraction_zero_partial_after_a_value_whose_reciprocal_leaves_double_range(kind, big_minus):
    # delta*eps * 2**-1023 * big_minus == 1 exactly: the same singular partial, not a ZeroDivisionError
    elements = [GroupElement(kind, 2.0**-1023 + 0j, 0j, 0j), GroupElement(kind, 0.1 + 0j, 0j, big_minus + 0j)]
    with pytest.raises(SingularDecomposition, match="^continued fraction hit a zero partial denominator$") as excinfo:
        alpha_continued_fraction(elements)
    assert excinfo.value.denominator_abs == 0.0


def test_continued_fraction_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch, match="^cannot compose so21 with su11$"):
        alpha_continued_fraction(
            [identity_element(AlgebraKind.SU11), identity_element(AlgebraKind.SO21)]
        )
    with pytest.raises(EmptySequence):
        alpha_continued_fraction([])


def parity_rows():
    """(id, build) where build() gives the elements on which the continued fraction must
    raise as compose_many does.

    Every row reaches both routes: an element with a NaN or inf coordinate or
    phase is refused where it is built (test_algebra.py pins that per field),
    so what is left to compare is a sum of finite phases that overflows,
    a running product that leaves double range (where the fraction's 1/value
    is 0, no zero partial denominator), mixed algebras and an empty sequence.
    """
    su11 = AlgebraKind.SU11
    ident = identity_element(su11)
    h = GroupElement(su11, 0.1 + 0j, 0j, 0.1 + 0j)
    big_phase = GroupElement(su11, 0j, 0j, 0j, 1e308 + 0j)
    overflowing = [
        (f"overflowing-product-{kind.value}", lambda kind=kind: [
            GroupElement(kind, 1e308 + 0j, 0j, 0j), GroupElement(kind, 1.5e308 + 0j, 0j, 0j),
            GroupElement(kind, 0.1 + 0j, 0j, 0j),
        ])
        for kind in AlgebraKind
    ]
    return [
        ("overflowing-phase-sum", lambda: [h, big_phase, big_phase, h]),
        *overflowing,
        ("mixed-algebras", lambda: [ident, h, identity_element(AlgebraKind.SO21)]),
        ("empty", lambda: []),
    ]


def raised(evaluate, build):
    with pytest.raises(Exception) as excinfo:
        evaluate(build())
    return type(excinfo.value), str(excinfo.value)


@pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in parity_rows()])
def test_continued_fraction_rejects_what_the_fold_rejects(build):
    assert raised(alpha_continued_fraction, build) == raised(compose_many, build)


def test_continued_fraction_takes_a_value_beyond_double_range_as_the_fold_does():
    # both parts are finite, |big_plus| is not: the fraction takes the term the fold's way,
    # and both divide past the intermediate of the complex division that overflows, to the
    # double nearest mpmath's -9.89999999999999943934 at 40 digits
    su11 = AlgebraKind.SU11
    elements = [GroupElement(su11, 1.5e308 + 1.5e308j, 0j, 0j), GroupElement(su11, 0.1 + 0j, 0j, 0.1 + 0j)]
    expected = complex_bits(-9.899999999999999 + 0j)
    assert complex_bits(alpha_continued_fraction(elements)) == expected
    assert complex_bits(compose_many(elements).big_plus) == expected
    assert complex_bits(compose_pair(*elements[::-1]).big_plus) == expected


def frozen_alpha_continued_fraction(elements):
    """The continued fraction as first written, over GroupElement attributes; a fixed reference."""
    if len(elements) == 0:
        raise EmptySequence("need at least one element")
    algebra = elements[0].algebra
    for g in elements[1:]:
        if g.algebra is not algebra:
            raise AlgebraMismatch("all elements must share one algebra")
    eps, delta = algebra.epsilon, algebra.delta
    value = elements[0].big_plus
    for g in elements[1:]:
        if value == 0:
            value = g.big_plus
            continue
        partial = eps * delta * g.big_minus - 1.0 / value
        if partial == 0:
            raise SingularDecomposition(
                "continued fraction hit a zero partial denominator",
                denominator_abs=0.0,
            )
        value = g.big_plus - cmath.exp(delta * g.log_c) / partial
    return value


# big_minus that makes eps*delta*big_minus - 1/2 exactly zero after a running value of 2
ZERO_PARTIAL_MINUS = {AlgebraKind.SU11: 0.5 + 0j, AlgebraKind.SU2: -0.5 + 0j, AlgebraKind.SO21: -1.0 + 0j}


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_continued_fraction_is_bit_for_bit_the_attribute_loop(kind):
    rng = random.Random(53)
    ident = identity_element(kind)
    for length in (1, 2, 3, 8, 40):
        for _ in range(20):
            elements = [random_element(rng, kind, 0.4) for _ in range(length)]
            # a zero running value, once at the seed and twice in a row
            for sequence in (elements, [ident] + elements, [ident, ident] + elements):
                expected = frozen_alpha_continued_fraction(sequence)
                assert complex_bits(alpha_continued_fraction(sequence)) == complex_bits(expected)

    seed = GroupElement(kind, 2.0 + 0j, 0j, 0j)
    stall = GroupElement(kind, 0.3 + 0j, 0.1j, ZERO_PARTIAL_MINUS[kind])
    tail = random_element(rng, kind)
    outcomes = []
    for evaluate in (frozen_alpha_continued_fraction, alpha_continued_fraction):
        with pytest.raises(SingularDecomposition) as excinfo:
            evaluate([seed, stall, tail])
        outcomes.append((str(excinfo.value), excinfo.value.denominator_abs))
    assert outcomes[0] == outcomes[1] == ("continued fraction hit a zero partial denominator", 0.0)


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_pair_product_is_bit_for_bit_the_first_formula(kind):
    rng = random.Random(59)
    # signed zeros: negative-zero Cartan coordinates meet a log(d) of zero
    zeros = [GroupElement(kind, 0j, complex(-0.0, -0.0), 0j, complex(-0.0, 0.0)), identity_element(kind)]
    elements = zeros + [random_element(rng, kind) for _ in range(30)]
    for g1 in elements:
        for g2 in elements:
            assert element_bits(compose_pair(g2, g1)) == element_bits(frozen_pair_product(g2, g1))
    acc = elements[0]
    for g in elements[1:]:
        acc = frozen_pair_product(g, acc)
    assert element_bits(compose_many(elements)) == element_bits(acc)
