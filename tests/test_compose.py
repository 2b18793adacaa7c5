import cmath
import decimal
import math
import struct

import numpy as np
import pytest

from bchkit import (
    AlgebraKind,
    AlgebraMismatch,
    EmptySequence,
    ExponentParams,
    GroupElement,
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
from bchkit.compose import _cosh_sinhc, _disentangle_raw, _scaled


def random_params(rng, scale=0.5):
    parts = rng.uniform(-scale, scale, 6)
    return ExponentParams(
        complex(parts[0], parts[1]),
        complex(parts[2], parts[3]),
        complex(parts[4], parts[5]),
    )


def random_element(rng, kind, scale=0.5):
    return disentangle(kind, random_params(rng, scale)).element


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
    rng = np.random.default_rng(5)
    for kind in AlgebraKind:
        eps, delta = kind.epsilon, kind.delta
        for _ in range(50):
            lam = random_params(rng, 0.6)
            result = disentangle(kind, lam)
            target = (delta * lam.lambda_c / 2) ** 2 - delta * eps * lam.lambda_plus * lam.lambda_minus
            assert abs(result.nu**2 - target) <= 1e-12 * max(1.0, abs(target))


def test_disentangle_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for kind in AlgebraKind:
        for _ in range(150):
            lam = random_params(rng, 0.6)
            g = disentangle(kind, lam).element
            gap = np.max(np.abs(element_matrix(g) - exponent_matrix(kind, lam)))
            assert gap <= 1e-12


def test_disentangle_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        disentangle(AlgebraKind.SU2, ExponentParams(math.nan, 0, 0))


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
        assert g.log_c == pytest.approx(lc, rel=1e-14)
        assert g.big_plus == pytest.approx(math.expm1(lc) / lc, rel=1e-14)
        assert g.big_minus == 0


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_disentangle_triangular_exponent_keeps_lambda_c_exactly(kind):
    # w = exp(-delta*lc/2) is kept as its principal log, and an angle Im(delta*lc/2)
    # already on that branch stays as it is, so -(2/delta) log w gives back lc bit for bit
    rng = np.random.default_rng(73)
    kept = 0
    for re, im, l in rng.uniform(-2 * math.pi, 2 * math.pi, (4000, 3)):
        lc = complex(re, im)
        if abs((kind.delta * lc).imag) / 2 > math.pi:
            continue
        l = float(l)
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


def test_disentangle_triangular_exponent_beyond_exp_range():
    # lambda_plus*lambda_minus = 0: w = exp(-lc/2), past where the general route's
    # sinhc(nu)/w overflows (lc = 800) or cosh(nu) itself does (lc = 1500)
    for kind in (AlgebraKind.SU11, AlgebraKind.SU2):
        for lc in (800, 1500):
            result = disentangle(kind, ExponentParams(0, lc, 0))
            g = result.element
            assert (g.big_plus, g.log_c, g.big_minus) == (0, lc, 0)
            assert result.nu == lc / 2
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


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_scaled_route_is_the_plain_one_where_both_are_in_range(kind):
    # _scaled carries w as exp(nu)*w_s; where cosh(nu) is finite it must give the plain
    # route's coordinates, also where w cancels and is taken as exp(-nu) - x sinhc(nu)/(nu + lc/2)
    rng = np.random.default_rng(67)
    _, half_delta, delta_eps, _, minus_two_over_delta = kernel = kind._kernel
    period = minus_two_over_delta * 2j * math.pi  # log_c is fixed up to this
    compared = 0
    # lambda_c and lambda_plus-minus of one size, where w does not cancel, or a tiny
    # lambda_plus*lambda_minus under |Re lambda_c| >= 300, where w cancels past every digit
    # and is taken in the second form
    for scale, small in [(3, 3), (30, 30), (300, 300), (600, 1e-30)] * 50:
        parts = rng.uniform(-1, 1, 6)
        lp, lm = small * complex(*parts[0:2]), small * complex(*parts[4:6])
        lc = scale * complex(math.copysign(0.5 + abs(parts[2]) / 2, parts[2]), parts[3])
        try:
            plain = _disentangle_raw(kernel, lp, lc, lm)
        except (SingularDecomposition, NonFiniteInput):
            continue
        half_c, x = half_delta * lc, delta_eps * lp * lm
        scaled = _scaled(plain[3], half_c, x, lp, lm, minus_two_over_delta)
        for got, want in ((scaled[0], plain[0]), (scaled[2], plain[2])):
            assert abs(got - want) <= 1e-12 * abs(want)
        turns = round(((scaled[1] - plain[1]) / period).real)
        assert abs(scaled[1] - turns * period - plain[1]) <= 1e-12 * max(1.0, abs(plain[1]))
        compared += 1
    assert compared >= 190


def test_cosh_sinhc_is_even():
    rng = np.random.default_rng(13)
    for scale in (1e-6, 1e-4, 0.5, 2.0):
        for _ in range(20):
            nu = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert _cosh_sinhc(nu) == _cosh_sinhc(-nu)


def test_cosh_sinhc_series_joins_smoothly():
    # values straddling the series threshold must agree to roundoff
    for nu in (9.99e-5 + 0j, 9.99e-5j, (7e-5) * cmath.exp(0.4j)):
        below = _cosh_sinhc(nu)
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
    rng = np.random.default_rng(17)
    for kind in AlgebraKind:
        for _ in range(150):
            g1 = random_element(rng, kind)
            g2 = random_element(rng, kind)
            left = element_matrix(compose_pair(g2, g1))
            right = element_matrix(g2) @ element_matrix(g1)
            assert np.max(np.abs(left - right)) <= 1e-12


def test_compose_pair_adds_phases():
    g1 = GroupElement(AlgebraKind.SU11, 0.1j, 0j, 0.05, phase=0.2j)
    g2 = GroupElement(AlgebraKind.SU11, -0.05, 0.1, 0j, phase=-0.1 + 0.3j)
    assert compose_pair(g2, g1).phase == g1.phase + g2.phase


def test_compose_pair_associativity_in_components():
    rng = np.random.default_rng(19)
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


def test_compose_pair_rejects_mixed_algebras():
    g1 = identity_element(AlgebraKind.SU11)
    g2 = identity_element(AlgebraKind.SU2)
    with pytest.raises(AlgebraMismatch):
        compose_pair(g2, g1)


def test_compose_pair_rejects_non_finite():
    g1 = GroupElement(AlgebraKind.SU11, complex(math.inf, 0), 0j, 0j)
    with pytest.raises(NonFiniteInput):
        compose_pair(identity_element(AlgebraKind.SU11), g1)


def test_overflowing_product_raises_instead_of_returning_non_finite():
    cases = [
        # L+ = 1e200 followed by L- = 1e200: each finite, the product is not
        ((1e200 + 0j, 0j, 0j), (0j, 0j, 1e200 + 0j)),
        # exp(800) of the first element's log_c leaves double range inside the step
        ((0j, 800 + 0j, 0j), (0.1 + 0j, 0j, 0.1 + 0j)),
        # d = 1 - L1+ L2- is finite, but |d| is about 2.1e308
        ((1.5e300 + 0j, 0j, 0j), (0j, 0j, 1e8 + 1e8j)),
    ]
    for coords1, coords2 in cases:
        first = GroupElement(AlgebraKind.SU11, *coords1)
        second = GroupElement(AlgebraKind.SU11, *coords2)
        with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
            compose_pair(second, first)
        with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
            compose_many([first, second])


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
    with pytest.raises(SingularDecomposition) as excinfo:
        compose_pair(g2, g1)
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
    rng = np.random.default_rng(23)
    g = random_element(rng, AlgebraKind.SO21)
    assert compose_many([g]) is g


def phase_bits(z):
    return struct.pack("<dd", z.real, z.imag)


def test_phases_add_left_to_right_bit_for_bit():
    # 1e16 + 1 rounds back to 1e16, so only the left-to-right order gives 0 here;
    # signed zeros survive only where every summand's zero has the same sign
    phases = [complex(-0.0, -0.0), complex(-0.0, 0.0), 1e16 + 0j, 1.0 - 0j, -1e16 - 0j, 2.5e-300j]
    elements = [GroupElement(AlgebraKind.SO21, 0j, 0j, 0j, phase) for phase in phases]
    for count in range(2, len(phases) + 1):
        expected = phases[0]
        for phase in phases[1:count]:
            expected = expected + phase
        assert phase_bits(compose_many(elements[:count]).phase) == phase_bits(expected)
    for g1 in elements:
        for g2 in elements:
            assert phase_bits(compose_pair(g2, g1).phase) == phase_bits(g1.phase + g2.phase)
    assert phase_bits(compose_many(elements[:2]).phase) == phase_bits(complex(-0.0, 0.0))


def test_non_finite_phase_raises_at_its_element_before_a_later_singular_pair():
    kind = AlgebraKind.SU11
    ident = identity_element(kind)
    nan_phase = GroupElement(kind, 0j, 0j, 0j, complex(0, math.nan))
    raiser = GroupElement(kind, 1.0 + 0j, 0j, 0j)
    lowerer = GroupElement(kind, 0j, 0j, 1.0 + 0j)
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([ident, nan_phase, raiser, lowerer])
    with pytest.raises(SingularDecomposition, match="at element 3 of 4"):
        compose_many([ident, raiser, lowerer, nan_phase])
    with pytest.raises(NonFiniteInput):
        compose_pair(nan_phase, ident)


def test_single_element_with_nan_phase_raises():
    bad = GroupElement(AlgebraKind.SU2, 0j, 0j, 0j, complex(math.nan, 0))
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([bad])


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


def test_compose_many_of_identities():
    for kind in AlgebraKind:
        ident = identity_element(kind)
        combined = compose_many([ident] * 6)
        assert combined.big_plus == 0 and combined.big_minus == 0
        assert combined.big_c() == 1


def test_compose_many_matches_matrix_product():
    rng = np.random.default_rng(29)
    for _ in range(40):
        elements = [random_element(rng, AlgebraKind.SU2, 0.4) for _ in range(5)]
        product = np.eye(2, dtype=complex)
        for g in elements:
            product = element_matrix(g) @ product
        gap = np.max(np.abs(element_matrix(compose_many(elements)) - product))
        assert gap <= 1e-11


def test_compose_many_is_the_left_fold():
    rng = np.random.default_rng(31)
    elements = [random_element(rng, AlgebraKind.SU11) for _ in range(7)]
    acc = elements[0]
    for g in elements[1:]:
        acc = compose_pair(g, acc)
    folded = compose_many(elements)
    assert folded.big_plus == acc.big_plus
    assert folded.log_c == acc.log_c
    assert folded.big_minus == acc.big_minus


def test_compose_many_empty_rejected():
    with pytest.raises(EmptySequence):
        compose_many([])


def test_compose_many_reports_failing_step():
    kind = AlgebraKind.SU11
    good = identity_element(kind)
    raiser = GroupElement(kind, 1.0 + 0j, 0j, 0j)
    lowerer = GroupElement(kind, 0j, 0j, 1.0 + 0j)
    with pytest.raises(SingularDecomposition) as excinfo:
        compose_many([good, raiser, lowerer])
    assert excinfo.value.step == 3
    assert excinfo.value.denominator_abs == 0.0


def test_continued_fraction_single_element():
    rng = np.random.default_rng(37)
    g = random_element(rng, AlgebraKind.SU11)
    assert alpha_continued_fraction([g]) == g.big_plus


def test_continued_fraction_never_returns_non_finite():
    su11 = AlgebraKind.SU11
    h = GroupElement(su11, 0.1 + 0j, 0j, 0.1 + 0j)
    cases = [
        [GroupElement(AlgebraKind.SU2, complex(math.nan, 0), 0j, 0j)],  # was (nan+0j)
        [GroupElement(su11, 1e300 + 0j, 700 + 0j, 0j)] * 2,  # was (inf+0j)
        [h, GroupElement(su11, 0.1 + 0j, 800 + 0j, 0.1 + 0j), h],  # exp(800): was OverflowError
    ]
    for elements in cases:
        with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
            alpha_continued_fraction(elements)


def test_continued_fraction_matches_pair_composition():
    rng = np.random.default_rng(41)
    for kind in AlgebraKind:
        for _ in range(60):
            g1 = random_element(rng, kind)
            g2 = random_element(rng, kind)
            expected = compose_pair(g2, g1).big_plus
            assert abs(alpha_continued_fraction([g1, g2]) - expected) <= 1e-12


def test_continued_fraction_matches_fold_for_long_products():
    rng = np.random.default_rng(43)
    for kind in AlgebraKind:
        for _ in range(30):
            elements = [random_element(rng, kind, 0.4) for _ in range(8)]
            expected = compose_many(elements).big_plus
            assert abs(alpha_continued_fraction(elements) - expected) <= 1e-10


def test_continued_fraction_survives_identity_seed():
    # a zero innermost term is removable, not singular
    rng = np.random.default_rng(47)
    kind = AlgebraKind.SU11
    elements = [identity_element(kind)] + [random_element(rng, kind) for _ in range(3)]
    expected = compose_many(elements).big_plus
    assert abs(alpha_continued_fraction(elements) - expected) <= 1e-12


def test_continued_fraction_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch, match="^cannot compose so21 with su11$"):
        alpha_continued_fraction(
            [identity_element(AlgebraKind.SU11), identity_element(AlgebraKind.SO21)]
        )
    with pytest.raises(EmptySequence):
        alpha_continued_fraction([])


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


def complex_bits(z):
    return struct.pack("<dd", z.real, z.imag)


# big_minus that makes eps*delta*big_minus - 1/2 exactly zero after a running value of 2
ZERO_PARTIAL_MINUS = {AlgebraKind.SU11: 0.5 + 0j, AlgebraKind.SU2: -0.5 + 0j, AlgebraKind.SO21: -1.0 + 0j}


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_continued_fraction_is_bit_for_bit_the_attribute_loop(kind):
    rng = np.random.default_rng(53)
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


def frozen_pair_product(g2, g1):
    """compose_pair's arithmetic as first written, on one pair of elements; a fixed reference."""
    eps, delta = g1.algebra.epsilon, g1.algebra.delta
    d = 1.0 - eps * delta * g1.big_plus * g2.big_minus
    pow_c1 = cmath.exp(delta * g1.log_c)
    pow_c2 = cmath.exp(delta * g2.log_c)
    return GroupElement(
        g1.algebra,
        g2.big_plus + g1.big_plus * pow_c2 / d,
        g1.log_c + g2.log_c - (2.0 / delta) * cmath.log(d),
        g1.big_minus + g2.big_minus * pow_c1 / d,
        g1.phase + g2.phase,
    )


def element_bits(g):
    return tuple(complex_bits(z) for z in (g.big_plus, g.log_c, g.big_minus, g.phase))


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_pair_product_is_bit_for_bit_the_first_formula(kind):
    rng = np.random.default_rng(59)
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
