import cmath
import math
import random

import mpmath
import pytest

from bchkit import (
    AlgebraKind,
    DisentangleResult,
    GroupElement,
    NonFiniteInput,
    NotFactorizable,
    RotationParams,
    SqueezeParams,
    SqueezeRotationFactorization,
    compose_pair,
    compose_squeezes,
    element_matrix,
    factor_squeeze_rotation,
    identity_element,
    rotation_element,
    squeeze_element,
)
from bchkit.compose import _principal
from frozen import complex_bits


def random_squeeze(rng, r_max=3.0):
    return SqueezeParams(rng.uniform(0, r_max), rng.uniform(-math.pi, math.pi))


# ---------------------------------------------------------------------------
# parameter types

def test_angles_reduce_to_the_half_open_interval():
    # the ends of [-50, 50], signed zeros, the smallest subnormals, and each odd
    # multiple of pi in range (15 pi < 50 < 17 pi) with its two neighbouring doubles;
    # a negative r turns the phase by a half turn
    edges = [-50.0, 50.0, -0.0, 0.0, -5e-324, 5e-324]
    for k in range(-15, 16, 2):
        edges += [math.nextafter(k * math.pi, -math.inf), k * math.pi, math.nextafter(k * math.pi, math.inf)]
    rng = random.Random(3)
    draws = [rng.uniform(-50.0, 50.0) for _ in range(2000)]
    for theta in edges + draws:
        turn = cmath.exp(1j * theta)
        for angle, want in (
            (RotationParams(theta).angle, turn),
            (SqueezeParams(0.5, theta).phi, turn),
            (SqueezeParams(-0.5, theta).phi, -turn),
        ):
            assert -math.pi < angle <= math.pi, theta
            assert abs(cmath.exp(1j * angle) - want) <= 1e-15, theta
        # an angle already in range is kept as it is
        if -math.pi < theta <= math.pi:
            assert RotationParams(theta).angle == SqueezeParams(0.5, theta).phi == theta


def test_angle_tie_goes_positive():
    for theta in (math.pi, -math.pi):
        assert RotationParams(theta).angle == SqueezeParams(0.5, theta).phi == math.pi
    # mpmath: 3 pi_d - 2 pi = 3.14159265358979287..., one ulp below pi_d
    assert RotationParams(3 * math.pi).angle == 3.1415926535897927
    # a negative r folds its sign by a half turn in range and takes the same tie
    assert SqueezeParams(-0.5, math.pi) == SqueezeParams(0.5)
    for phi in (1e-17, 5e-324, 0.0, -0.0):
        assert SqueezeParams(-0.5, phi).phi == math.pi, phi


@pytest.mark.parametrize("theta", [s * m for m in (1e3, 1e6, 1e10, 1e15, 1e308) for s in (1, -1)])
def test_angles_reduce_exactly_at_any_magnitude(theta):
    # the reduction is exact for the double given, as cmath.exp(1j * theta) is; 1e308
    # needs about 310 digits of pi
    with mpmath.workdps(400):
        turn = mpmath.expj(theta)
        for angle in (RotationParams(theta).angle, SqueezeParams(0.5, theta).phi):
            assert abs(mpmath.expj(angle) - turn) <= 1e-15
        want = -turn * mpmath.tanh(0.5)
        assert abs(squeeze_element(SqueezeParams(0.5, theta)).big_plus - want) <= 1e-15 * abs(want)
    # mpmath: 2.67102031456246519...
    assert RotationParams(1e308).angle == 2.6710203145624654


def test_squeeze_params_normalize_negative_magnitude():
    p = SqueezeParams(-0.7, 0.3)
    assert p.r == 0.7
    assert abs(p.phi - (0.3 - math.pi)) <= 1e-15
    # the represented complex number is unchanged by the normalization
    assert abs(p.z - (-0.7) * cmath.exp(0.3j)) <= 1e-15


def test_rotation_params_wrap():
    assert RotationParams(2 * math.pi + 0.25).angle == pytest.approx(0.25)


def test_squeeze_value_types_compare_frozen_and_default():
    p = SqueezeParams(0.5)
    assert p.phi == 0.0 and p == SqueezeParams(r=0.5, phi=0.0)
    assert p == SqueezeParams(-0.5, math.pi) and hash(p) == hash(SqueezeParams(-0.5, math.pi))
    assert p != SqueezeParams(0.5, 1.0)
    # the same field values in another value class are not equal
    assert p != DisentangleResult(0.5, 0.0)
    factorization = SqueezeRotationFactorization(p, RotationParams(angle=0.25))
    assert factorization.phase_shift == 0j and factorization.residual is None
    with pytest.raises(NonFiniteInput):
        SqueezeParams(0.5, math.inf)
    assert repr(factorization) == (
        "SqueezeRotationFactorization(squeeze=SqueezeParams(r=0.5, phi=0.0), "
        "rotation=RotationParams(angle=0.25), phase_shift=0j, residual=None)"
    )


# ---------------------------------------------------------------------------
# elements

def test_squeeze_element_zero_is_identity():
    g = squeeze_element(SqueezeParams(0.0, 1.2))
    assert g == identity_element(AlgebraKind.SU11)


def test_squeeze_element_unit_magnitude():
    g = squeeze_element(SqueezeParams(1.0, 0.0))
    assert g.big_plus == pytest.approx(-0.7615941559557649)
    assert g.big_c() == pytest.approx(0.41997434161402614)
    assert g.big_minus == pytest.approx(0.7615941559557649)


def test_squeeze_element_beyond_cosh_range():
    # log cosh r = r - ln 2 where cosh r overflows; below that the bits are log(cosh(r))'s
    for r in (709.0, 710.0, 710.47):
        assert squeeze_element(SqueezeParams(r)).log_c == -2.0 * math.log(math.cosh(r))
    for r in (710.5, 800.0, 1e6, 1e300):
        g = squeeze_element(SqueezeParams(r, 0.3))
        assert g.log_c == -2.0 * (r - math.log(2.0))
        assert g.big_plus == -cmath.exp(0.3j) and g.big_minus == cmath.exp(-0.3j)
    below, above = (squeeze_element(SqueezeParams(r)).log_c for r in (710.47, 710.5))
    assert above - below == pytest.approx(-0.06, rel=1e-9)
    # from r of about 9e307, log_c = -2 (r - ln 2) itself leaves double range
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        squeeze_element(SqueezeParams(1e308))


def test_squeeze_fingerprint():
    # |L+| = |L-| and |L+|^2 + |Lambda_c| = 1 for every squeeze
    rng = random.Random(53)
    for _ in range(300):
        g = squeeze_element(random_squeeze(rng))
        assert abs(abs(g.big_plus) - abs(g.big_minus)) <= 1e-12
        assert abs(abs(g.big_plus) ** 2 + abs(g.big_c()) - 1.0) <= 1e-12


def test_squeeze_matrix_is_unimodular():
    rng = random.Random(59)
    for _ in range(50):
        m = element_matrix(squeeze_element(random_squeeze(rng)))
        assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12


def test_rotation_element_coordinates():
    assert rotation_element(RotationParams(0.0)) == identity_element(AlgebraKind.SU11)
    quarter = rotation_element(RotationParams(math.pi / 2))
    assert quarter.big_plus == 0 and quarter.big_minus == 0
    assert quarter.big_c() == pytest.approx(-1.0)
    assert quarter.phase == -0.25j * math.pi
    # the angle is wrapped where RotationParams is built, so 2j * angle stays in range
    wrapped = RotationParams(1e308).angle
    far = rotation_element(RotationParams(1e308))
    assert (far.log_c, far.phase) == (2j * wrapped, -0.5j * wrapped)


def test_recompose_refuses_a_non_finite_phase_shift():
    # the factorization refuses it where it is built, so recompose never adds it to a phase
    for shift in (complex(math.nan, 0), complex(0, math.inf)):
        with pytest.raises(NonFiniteInput, match="^phase shift must be finite$"):
            SqueezeRotationFactorization(SqueezeParams(0.5), RotationParams(0.5), shift)


def test_rotations_compose_additively():
    a, b = 0.7, -1.9
    combined = compose_pair(rotation_element(RotationParams(b)), rotation_element(RotationParams(a)))
    direct = rotation_element(RotationParams(a + b))
    assert abs(combined.big_c() - direct.big_c()) <= 1e-15
    # phases add without wrapping, so compare the scalars they generate
    assert abs(cmath.exp(combined.phase) - cmath.exp(-0.5j * (a + b))) <= 1e-15


# ---------------------------------------------------------------------------
# composition of two squeezes

def _two_squeeze_coordinates(z2, z1):
    # closed forms for the product of two squeezes, written out independently
    t1, t2 = math.tanh(z1.r), math.tanh(z2.r)
    e1, e2 = cmath.exp(1j * z1.phi), cmath.exp(1j * z2.phi)
    denom = 1 + e1 / e2 * t1 * t2
    alpha = -(e2 * t2 + e1 * t1) / denom
    beta = (1 - t1 * t1) * (1 - t2 * t2) / denom**2
    gamma = (t2 / e2 + t1 / e1) / denom
    return alpha, beta, gamma


def test_two_squeezes_match_closed_forms():
    # capped below the worst-conditioned denominators so 1e-12 is attainable
    rng = random.Random(61)
    for _ in range(200):
        z1, z2 = random_squeeze(rng, 2.0), random_squeeze(rng, 2.0)
        g = compose_squeezes(z2, z1)
        alpha, beta, gamma = _two_squeeze_coordinates(z2, z1)
        assert abs(g.big_plus - alpha) <= 1e-12
        assert abs(g.big_c() - beta) <= 1e-12
        assert abs(g.big_minus - gamma) <= 1e-12


def test_two_squeezes_match_matrix_product():
    rng = random.Random(67)
    for _ in range(100):
        z1, z2 = random_squeeze(rng, 2.5), random_squeeze(rng, 2.5)
        left = element_matrix(compose_squeezes(z2, z1))
        right = element_matrix(squeeze_element(z2)) @ element_matrix(squeeze_element(z1))
        assert abs(left - right).max() <= 1e-12


def test_equal_phase_squeezes_add_magnitudes():
    rng = random.Random(71)
    for _ in range(100):
        r1, r2 = rng.uniform(0, 3), rng.uniform(0, 3)
        phi = rng.uniform(-math.pi, math.pi)
        combined = compose_squeezes(SqueezeParams(r2, phi), SqueezeParams(r1, phi))
        direct = squeeze_element(SqueezeParams(r1 + r2, phi))
        assert abs(combined.big_plus - direct.big_plus) <= 1e-12
        assert abs(combined.big_c() - direct.big_c()) <= 1e-12
        assert abs(combined.big_minus - direct.big_minus) <= 1e-12


def test_trivial_first_squeeze_echoes_second():
    z2 = SqueezeParams(0.9, -0.4)
    combined = compose_squeezes(z2, SqueezeParams(0.0, 0.0))
    direct = squeeze_element(z2)
    assert combined.big_plus == direct.big_plus
    assert combined.big_minus == direct.big_minus
    assert abs(combined.big_c() - direct.big_c()) <= 1e-15


# ---------------------------------------------------------------------------
# factorization

def test_factorization_round_trip():
    rng = random.Random(73)
    for _ in range(300):
        g = compose_squeezes(random_squeeze(rng), random_squeeze(rng))
        factored = factor_squeeze_rotation(g)
        assert factored.residual <= 1e-8
        redone = factored.recompose()
        assert abs(redone.big_plus - g.big_plus) <= 1e-10
        assert abs(redone.big_c() - g.big_c()) <= 1e-10
        assert abs(redone.big_minus - g.big_minus) <= 1e-10
        assert abs(cmath.exp(redone.phase) - cmath.exp(g.phase)) <= 1e-10
    # a product of moderate magnitudes factors to a residual near roundoff, with |L+| = |L-|
    g = compose_squeezes(SqueezeParams(0.5, -1.1), SqueezeParams(0.7, 0.3))
    assert factor_squeeze_rotation(g).residual <= 1e-10
    assert abs(abs(g.big_plus) - abs(g.big_minus)) <= 1e-12


def test_factorization_closed_form_angles():
    rng = random.Random(79)
    for _ in range(200):
        z1, z2 = random_squeeze(rng), random_squeeze(rng)
        t1, t2 = math.tanh(z1.r), math.tanh(z2.r)
        denom = 1 + cmath.exp(1j * (z1.phi - z2.phi)) * t1 * t2
        factored = factor_squeeze_rotation(compose_squeezes(z2, z1))
        # squeeze part: e^{i phi} tanh r equals the quoted ratio
        lhs = cmath.exp(1j * factored.squeeze.phi) * math.tanh(factored.squeeze.r)
        rhs = (cmath.exp(1j * z2.phi) * t2 + cmath.exp(1j * z1.phi) * t1) / denom
        assert abs(lhs - rhs) <= 1e-12
        # rotation part: e^{i angle} is the unit-modulus conjugate of the denominator
        assert abs(cmath.exp(1j * factored.rotation.angle) - denom.conjugate() / abs(denom)) <= 1e-12
        # the leftover scalar is exactly half the rotation angle
        assert abs(factored.phase_shift - 0.5j * factored.rotation.angle) <= 1e-15


def test_factorization_of_equal_phase_product_has_no_rotation():
    # (z2, z1, the product's squeeze); a trivial first squeeze shares any phase
    for z2, z1, r, phi in (((0.4, 0.2), (1.1, 0.2), 1.5, 0.2), ((0.9, -0.4), (0.0, 0.0), 0.9, -0.4)):
        factored = factor_squeeze_rotation(compose_squeezes(SqueezeParams(*z2), SqueezeParams(*z1)))
        assert abs(factored.rotation.angle) <= 1e-12
        assert factored.squeeze.r == pytest.approx(r)
        assert factored.squeeze.phi == pytest.approx(phi)
        assert factored.residual <= 1e-10


def test_factorization_of_pure_rotation():
    for angle in (-2.9, -1.0, 0.3, math.pi / 2, 2.5, math.pi):
        factored = factor_squeeze_rotation(rotation_element(RotationParams(angle)))
        assert factored.squeeze.r == 0.0
        assert factored.rotation.angle == pytest.approx(angle)
        assert abs(factored.phase_shift) <= 1e-12


@pytest.mark.parametrize("phase", [800, -800, 709.8 + 1j, 5e307], ids=lambda z: f"phase={z}")
def test_factorization_takes_any_finite_phase(phase):
    # exp(phase) is no double from Re phase 709.78 on, and the factorization takes none
    squeeze = squeeze_element(SqueezeParams(0.5, 0.3))
    g = GroupElement(AlgebraKind.SU11, squeeze.big_plus, squeeze.log_c, squeeze.big_minus, phase)
    factored = factor_squeeze_rotation(g)
    assert factored.residual <= 1e-15
    assert factored.recompose() == g
    # a product of two squeezes rebuilds its coordinates to roundoff, its phase exactly
    product = compose_squeezes(SqueezeParams(0.9, 0.2), SqueezeParams(0.6, 0.4))
    g = GroupElement(AlgebraKind.SU11, product.big_plus, product.log_c, product.big_minus, phase)
    factored = factor_squeeze_rotation(g)
    assert factored.residual <= 1e-15
    assert factored.recompose().phase == g.phase


def frozen_rotation_choice(g):
    """factor_squeeze_rotation's (rotation, phase_shift) by the rule first written: of the two
    rotations a half turn apart, the one whose exp(phase_shift) is nearer 1."""
    half = 0.5 * _principal(g.log_c.imag)
    candidates = []
    for angle in (half, half + math.pi):
        rotation = RotationParams(angle)
        shift = g.phase + 0.5j * rotation.angle
        candidates.append((abs(cmath.exp(shift) - 1.0), rotation, shift))
    _, rotation, shift = min(candidates, key=lambda c: c[0])
    return rotation, shift


def test_rotation_choice_is_bit_for_bit_the_first_formula():
    # squeeze products, rotations, and squeeze-rotation products with a phase; beyond
    # |Re phase| of about 20 the two |exp(shift) - 1| differ by less than their rounding,
    # so the first formula picks by roundoff there, and the cosine by the exact order
    rng = random.Random(89)
    for i in range(3000):
        z = SqueezeParams(rng.uniform(0, 3), rng.uniform(-math.pi, math.pi))
        rotation = RotationParams(rng.uniform(-10, 10))
        if i % 3 == 0:
            g = compose_squeezes(z, SqueezeParams(rng.uniform(0, 3), rng.uniform(-math.pi, math.pi)))
        elif i % 3 == 1:
            g = rotation_element(rotation)
        else:
            product = compose_pair(squeeze_element(z), rotation_element(rotation))
            phase = product.phase + complex(rng.uniform(-20, 20), rng.uniform(-50, 50))
            g = GroupElement(AlgebraKind.SU11, product.big_plus, product.log_c, product.big_minus, phase)
        factored = factor_squeeze_rotation(g)
        rotation, shift = frozen_rotation_choice(g)
        assert factored.rotation == rotation and complex_bits(factored.phase_shift) == complex_bits(shift)


def test_product_satisfies_closing_identity():
    # beta = alpha*gamma*(1 - 1/|alpha*gamma|) on the squeeze-rotation orbit
    rng = random.Random(83)
    for _ in range(200):
        g = compose_squeezes(random_squeeze(rng), SqueezeParams(rng.uniform(0.1, 3), rng.uniform(-3, 3)))
        product = g.big_plus * g.big_minus
        if abs(product) < 1e-12:
            continue
        assert abs(g.big_c() - product * (1 - 1 / abs(product))) <= 1e-12


def test_factorization_rejects_unbalanced_magnitudes():
    lopsided = GroupElement(AlgebraKind.SU11, 0.5 + 0j, 0j, 0.2 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(lopsided)


def test_factorization_rejects_overlong_coordinates():
    too_big = GroupElement(AlgebraKind.SU11, 1.2 + 0j, 0j, 1.2 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(too_big)


def test_factorization_rejects_other_algebras():
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(identity_element(AlgebraKind.SU2))


def test_factorization_rejects_off_orbit_elements():
    # balanced magnitudes but a Cartan coordinate no squeeze-rotation pair has
    warped = GroupElement(AlgebraKind.SU11, 0.5 + 0j, 0.4 + 0j, 0.5 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(warped)


@pytest.mark.parametrize("r", [1e-8, 1e-3, 0.3, 1, 3, 8, 12, 15, 19])
def test_factorization_reads_back_a_squeeze_of_any_magnitude(r):
    # r is read from sinh r = |L+| cosh r, which loses no digits as tanh r nears 1
    factored = factor_squeeze_rotation(squeeze_element(SqueezeParams(r, 0.3)))
    assert abs(factored.squeeze.r - r) <= 1e-15 * r
    assert factored.squeeze.phi == pytest.approx(0.3, abs=1e-15) and factored.rotation.angle == 0.0


@pytest.mark.parametrize("r", [19.1, 20, 30, 800, 1e5])
def test_factorization_names_a_squeeze_whose_magnitude_rounds_to_one(r):
    # |L+| = tanh r rounds to 1 from r of about 19.06, and cosh r overflows from about 710;
    # log cosh r = -Re(log_c)/2 still holds r
    g = squeeze_element(SqueezeParams(r, 0.3))
    assert abs(g.big_plus) == 1.0
    factored = factor_squeeze_rotation(g)
    assert abs(factored.squeeze.r - r) <= 1e-15 * r
    assert factored.residual <= 1e-15


def test_factored_magnitude_of_two_squeezes_matches_extended_precision():
    # cosh r = |cosh r1 cosh r2 + sinh r1 sinh r2 e^{i(phi2 - phi1)}| for the product's squeeze
    rng = random.Random(5)
    for _ in range(500):
        z1, z2 = random_squeeze(rng), random_squeeze(rng)
        r = factor_squeeze_rotation(compose_squeezes(z2, z1)).squeeze.r
        with mpmath.workdps(40):
            r1, r2 = mpmath.mpf(z1.r), mpmath.mpf(z2.r)
            mixed = mpmath.sinh(r1) * mpmath.sinh(r2) * mpmath.expj(mpmath.mpf(z2.phi) - z1.phi)
            exact = mpmath.acosh(abs(mpmath.cosh(r1) * mpmath.cosh(r2) + mixed))
            assert abs(r - exact) <= 1e-15 * exact, (z1, z2)


def _wigner_gap(z1, z2, half_epsilon):
    """How far the product's rotation angle is from half_epsilon, modulo pi."""
    angle = factor_squeeze_rotation(compose_squeezes(z2, z1)).rotation.angle
    return abs(math.remainder(angle - half_epsilon, math.pi))


def test_rotation_of_two_squeezes_is_half_the_thomas_wigner_angle():
    # two squeezes are two 2+1 boosts of rapidities 2 r1, 2 r2 at relative angle
    # phi = phi2 - phi1, whose Thomas-Wigner rotation epsilon has
    # tan(epsilon/2) = sin phi / (coth r1 coth r2 + cos phi) (Kim & Noz, Theory and
    # Applications of the Poincare Group, 1986); on SU(1,1) the rotation is epsilon/2
    rng = random.Random(5)
    for _ in range(2000):
        z1 = SqueezeParams(rng.uniform(0.01, 3), rng.uniform(-math.pi, math.pi))
        z2 = SqueezeParams(rng.uniform(0.01, 3), rng.uniform(-math.pi, math.pi))
        phi = z2.phi - z1.phi
        coth_product = 1.0 / (math.tanh(z1.r) * math.tanh(z2.r))
        assert _wigner_gap(z1, z2, math.atan2(math.sin(phi), coth_product + math.cos(phi))) <= 1e-14, (z1, z2)


@pytest.mark.parametrize(
    "r1, r2, phi",
    [(r1, r2, phi) for r1, r2 in ((20, 20), (20, 0.5), (10, 15), (3, 20)) for phi in (1, -1, 3, -3)]
    + [(r1, r2, phi) for r1, r2 in ((20, 0.5), (3, 20)) for phi in (math.pi - 1e-6, 1e-6 - math.pi)],
)
def test_rotation_of_two_large_squeezes_is_half_the_thomas_wigner_angle(r1, r2, phi):
    # coth r is 1 to double precision from r of about 19; the angle is taken in extended precision
    z1, z2 = SqueezeParams(r1, 0.0), SqueezeParams(r2, phi)
    with mpmath.workdps(40):
        relative = mpmath.mpf(z2.phi) - z1.phi
        denominator = mpmath.coth(z1.r) * mpmath.coth(z2.r) + mpmath.cos(relative)
        half_epsilon = float(mpmath.atan2(mpmath.sin(relative), denominator))
    assert _wigner_gap(z1, z2, half_epsilon) <= 1e-14


@pytest.mark.parametrize("log_c", [700, 710, 1e5], ids=lambda x: f"log_c={x:g}")
def test_factorization_rejects_a_cartan_coordinate_beyond_double_range(log_c):
    # |Lambda_c| = exp(log_c) is far above sech^2 r <= 1; from about 709.8 it is no double
    # at all, and that is reported like the residual that rejects it below
    g = GroupElement(AlgebraKind.SU11, 0.5 + 0j, complex(log_c, 0.5), 0.5 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: SqueezeParams(bad),
        lambda bad: SqueezeParams(0.5, bad),
        lambda bad: RotationParams(bad),
    ],
    ids=["r", "phi", "angle"],
)
@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="int-beyond-double")]
)
def test_squeeze_value_types_refuse_non_finite_input(make, bad):
    with pytest.raises(NonFiniteInput):
        make(bad)
