import cmath
import math
import random

import mpmath
import pytest

from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    Mat2,
    NonFiniteInput,
    RotationParams,
    element_matrix,
    exponent_matrix,
    generators_for,
    identity_element,
    mat_exp,
    rotation_element,
)
from frozen import assert_close, random_complex, random_params
from reference import exponential

# Bound on exponent_matrix's entrywise error against the mpmath matrix, relative to
# the reference's largest entry, for exponents up to 10 in each coordinate part.
EXPONENT_MATRIX_BOUND = 1e-14

IDENTITY = Mat2(1, 0, 0, 1)


def _commutator(a, b):
    return a @ b - b @ a


def test_generator_commutation_relations():
    for kind in AlgebraKind:
        gens = generators_for(kind)
        eps, delta = kind.epsilon, kind.delta
        assert_close(_commutator(gens.m_minus, gens.m_plus), 2 * eps * gens.m_c, atol=1e-15)
        assert_close(_commutator(gens.m_c, gens.m_plus), delta * gens.m_plus, atol=1e-15)
        assert_close(_commutator(gens.m_c, gens.m_minus), -delta * gens.m_minus, atol=1e-15)
        for m in (gens.m_plus, gens.m_c, gens.m_minus):
            assert abs(m.a + m.d) <= 1e-15


def test_mat_exp_trivial_cases():
    assert_close(mat_exp(Mat2(0j, 0j, 0j, 0j)), IDENTITY)
    a = 0.7 - 0.4j
    assert_close(mat_exp(Mat2(a, 0j, 0j, -a)), Mat2(cmath.exp(a), 0, 0, cmath.exp(-a)), atol=1e-15)


def _taylor_exp(m, terms=30):
    out = power = IDENTITY
    for k in range(1, terms):
        power = power @ m / k
        out = out + power
    return out


def _traceless(rng, bound):
    """A traceless Mat2 whose entries' real and imaginary parts are uniform on [-bound, bound]."""
    a, b, c = (random_complex(rng, bound) for _ in range(3))
    return Mat2(a, b, c, -a)


def test_mat_exp_matches_taylor_series():
    rng = random.Random(23)
    for _ in range(200):
        m = _traceless(rng, 1)
        assert_close(mat_exp(m), _taylor_exp(m), atol=1e-13)


def test_mat_exp_small_angle_branch():
    # entries chosen so |s| falls below the series threshold
    rng = random.Random(29)
    for _ in range(50):
        m = _traceless(rng, 1e-5)
        assert_close(mat_exp(m), _taylor_exp(m, terms=10), atol=1e-15)


def test_mat_exp_inverse_pairs():
    rng = random.Random(31)
    for _ in range(100):
        m = _traceless(rng, 2)
        assert_close(mat_exp(m) @ mat_exp(-m), IDENTITY, atol=1e-12)


def test_mat_exp_general_trace():
    m = Mat2(0.3 + 0.1j, 0.2, -0.1j, 0.5 - 0.2j)
    # exp(m) = exp(tr/2) exp(m - tr/2 I); cross-check against the series
    assert_close(mat_exp(m), _taylor_exp(m), atol=1e-13)


def test_mat_exp_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        mat_exp(Mat2(complex(math.inf), 0j, 0j, 0j))


@pytest.mark.parametrize(
    "call, message",
    [
        # mat_exp takes raw matrices; its conversion to float would raise a bare OverflowError
        (lambda: mat_exp([[10**400, 0], [0, 0]]), "matrix entries must be finite"),
    ],
    ids=["mat_exp"],
)
def test_oracle_rejects_an_integer_beyond_double_range(call, message):
    with pytest.raises(NonFiniteInput, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mat_exp([[2000, 0], [0, 0]]), "matrix exponential"),
        (lambda: element_matrix(GroupElement(AlgebraKind.SU11, 0, 2000, 0)), "matrix exponential"),
        (lambda: exponent_matrix(AlgebraKind.SU11, ExponentParams(0, 2000, 0)), "matrix exponential"),
        (lambda: element_matrix(GroupElement(AlgebraKind.SU11, 0, 0, 0, 800)), "group element matrix"),
    ],
    ids=["mat_exp", "element_matrix", "exponent_matrix", "element_matrix-phase"],
)
def test_oracle_rejects_a_finite_input_whose_matrix_leaves_double_range(call, message):
    # cosh(1000), or exp(800) of the phase, would raise a bare OverflowError
    with pytest.raises(NonFiniteInput, match=f"^{message} leaves double range$"):
        call()


def test_element_matrix_identity():
    for kind in AlgebraKind:
        assert_close(element_matrix(identity_element(kind)), IDENTITY)


def test_exponent_matrix_cartan_is_diagonal():
    lam_c = 0.4 - 0.3j
    expected = Mat2(cmath.exp(lam_c / 2), 0, 0, cmath.exp(-lam_c / 2))
    got = exponent_matrix(AlgebraKind.SU2, ExponentParams(0, lam_c, 0))
    assert_close(got, expected, atol=1e-15)


def test_rotation_matrix_has_phase_prefactor():
    phi = 0.8
    expected = cmath.exp(-0.5j * phi) * Mat2(cmath.exp(1j * phi), 0, 0, cmath.exp(-1j * phi))
    assert_close(element_matrix(rotation_element(RotationParams(phi))), expected, atol=1e-15)


def test_element_determinant_tracks_phase():
    rng = random.Random(37)
    for kind in AlgebraKind:
        for _ in range(30):
            parts = [rng.uniform(-0.6, 0.6) for _ in range(8)]
            g = GroupElement(
                kind,
                complex(parts[0], parts[1]),
                complex(parts[2], parts[3]),
                complex(parts[4], parts[5]),
                phase=complex(parts[6], parts[7]),
            )
            m = element_matrix(g)
            det = m.a * m.d - m.b * m.c
            assert abs(det - cmath.exp(2 * g.phase)) <= 1e-12 * abs(cmath.exp(2 * g.phase))


def test_parameter_map_is_injective_near_identity():
    # distinct coordinate draws must give visibly distinct matrices, otherwise
    # matrix-level checks could not stand in for parameter-level ones
    rng = random.Random(41)
    for kind in AlgebraKind:
        for _ in range(50):
            lam_a, lam_b = random_params(rng, 0.6), random_params(rng, 0.6)
            gap = abs(exponent_matrix(kind, lam_a) - exponent_matrix(kind, lam_b)).max()
            assert gap > 1e-8


def test_mat2_works_with_numpy_arrays():
    # perfbench mixes oracle matrices with ndarrays: each operation must give
    # the ndarray result, whichever side the ndarray is on
    np = pytest.importorskip("numpy")
    m = element_matrix(GroupElement(AlgebraKind.SU11, 0.3 - 0.1j, 0.2 + 0.4j, -0.5j, phase=0.1j))
    assert isinstance(m, Mat2)
    a = np.asarray(m)
    assert a.shape == (2, 2) and a.dtype == complex
    assert [[m[i, j] for j in range(2)] for i in range(2)] == a.tolist()
    n = np.array([[1.0, 2j], [-0.5, 0.25 - 1j]])
    for got, expected in (
        (m @ n, a @ n),
        (n @ m, n @ a),
        (m - n, a - n),
        (n - m, n - a),
        (m + n, a + n),
        (n + m, n + a),
    ):
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_allclose(m @ m, a @ a, rtol=0, atol=1e-15)  # numpy may sum with FMA
    np.testing.assert_array_equal(m.conj().T, a.conj().T)
    # abs() of a complex and np.abs may round the modulus differently in the last bit
    assert abs(m).max() == pytest.approx(np.abs(a).max(), rel=1e-15)
    assert np.max(np.abs(m)) == np.abs(a).max()
    np.testing.assert_array_equal(-m, -a)
    np.testing.assert_array_equal(2 * m, m * 2)
    np.testing.assert_array_equal(m / 2, a / 2)
    assert np.linalg.det(m) == pytest.approx(np.linalg.det(a), rel=1e-15)
    assert np.trace(m) == m[0, 0] + m[1, 1]


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda a: a.value)
def test_exponent_matrix_matches_the_reference(kind):
    rng = random.Random(43)
    worst, where = 0.0, None
    for scale in (1e-5, 0.1, 0.6, 3, 10):  # 1e-5 takes mat_exp's series branch
        for _ in range(20):
            parts = [scale * rng.uniform(-1, 1) for _ in range(6)]
            lp, lc, lm = complex(parts[0], parts[1]), complex(parts[2], parts[3]), complex(parts[4], parts[5])
            got = exponent_matrix(kind, ExponentParams(lp, lc, lm))
            ref = exponential(kind.value, lp, lc, lm)
            entries = [(i, j) for i in range(2) for j in range(2)]
            size = max(abs(ref[i, j]) for i, j in entries)
            gap = float(max(abs(mpmath.mpc(got[i, j]) - ref[i, j]) for i, j in entries) / size)
            if gap > worst:
                worst, where = gap, (lp, lc, lm)
    assert worst <= EXPONENT_MATRIX_BOUND, (worst, where)
