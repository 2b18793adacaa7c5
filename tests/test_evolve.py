import cmath
import math
import struct

import numpy as np
import pytest

from bchkit import (
    AlgebraKind,
    HamiltonianSchedule,
    InvalidFrequency,
    SingularDecomposition,
    compose_many,
    default_checkpoint_stride,
    disentangle,
    element_matrix,
    evolve,
    exponent_matrix,
    ExponentParams,
    generators_for,
    identity_element,
    mat_exp,
    oscillator_schedule,
    step_element,
)


def _components(g):
    return np.array([g.big_plus, g.big_c(), g.big_minus])


def _gap(a, b):
    return float(np.max(np.abs(_components(a) - _components(b))))


# ---------------------------------------------------------------------------
# single steps

def test_step_element_zero_coefficients():
    g = step_element(AlgebraKind.SU11, (0, 0, 0), 0.1)
    assert g.big_plus == 0 and g.big_minus == 0 and g.big_c() == 1


def test_step_element_cartan_only():
    omega, tau = 1.7, 0.05
    g = step_element(AlgebraKind.SU2, (0, omega, 0), tau)
    assert abs(g.big_c() - cmath.exp(-1j * omega * tau)) <= 1e-15
    assert g.big_plus == 0 and g.big_minus == 0


def test_step_element_matches_short_time_oracle():
    tau = 0.01
    eta = (0.2, 1.0, 0.2)
    g = step_element(AlgebraKind.SU11, eta, tau)
    gens = generators_for(AlgebraKind.SU11)
    h = eta[0] * gens.m_plus + eta[1] * gens.m_c + eta[2] * gens.m_minus
    np.testing.assert_allclose(element_matrix(g), mat_exp(-1j * tau * h), atol=1e-13)


# ---------------------------------------------------------------------------
# evolve

def _constant_schedule(kind, eta):
    return HamiltonianSchedule(kind, lambda t: eta, 3.0)


def test_constant_coefficients_are_step_count_independent():
    triples = {
        AlgebraKind.SU11: (0.2 + 0.1j, 1.0, 0.3 - 0.05j),
        AlgebraKind.SU2: (0.4, 0.9, 0.4),
        AlgebraKind.SO21: (0.1, 0.8 + 0.2j, -0.2j),
    }
    for kind, eta in triples.items():
        schedule = _constant_schedule(kind, eta)
        single = evolve(schedule, 1)
        split = evolve(schedule, 64)
        assert _gap(single.element, split.element) <= 1e-11


def test_cartan_schedule_gives_pure_phase():
    omega, t_final = 1.3, 2.0
    schedule = HamiltonianSchedule(AlgebraKind.SU2, lambda t: (0, omega, 0), t_final)
    for steps in (1, 7, 128):
        result = evolve(schedule, steps)
        assert abs(result.element.big_c() - cmath.exp(-1j * omega * t_final)) <= 1e-12
        assert result.element.big_plus == 0 and result.element.big_minus == 0
        assert result.element.log_c.real == 0


def test_evolve_equals_composed_step_sequence():
    schedule = oscillator_schedule(1.0, lambda t: 1.0 + 0.2 * math.sin(t), 4.0)
    steps = 50
    tau = schedule.t_final / steps
    elements = [
        step_element(schedule.algebra, schedule.eta(j * tau), tau)
        for j in range(1, steps + 1)
    ]
    folded = compose_many(elements)
    evolved = evolve(schedule, steps).element
    assert evolved.big_plus == folded.big_plus
    assert evolved.log_c == folded.log_c
    assert evolved.big_minus == folded.big_minus


def test_evolve_validates_arguments():
    schedule = _constant_schedule(AlgebraKind.SU11, (0, 1.0, 0))
    with pytest.raises(ValueError, match="steps"):
        evolve(schedule, 0)
    with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.0$"):
        evolve(schedule, 2.0)
    with pytest.raises(ValueError, match="^steps must be within double range"):
        evolve(schedule, 10**400)
    # a numpy count runs as the plain int it stands for, down to the type of tau
    wide, plain = evolve(schedule, np.int64(64)), evolve(schedule, 64)
    assert type(wide.tau) is float and type(wide.steps) is int
    assert (wide.tau, wide.element) == (plain.tau, plain.element)
    with pytest.raises(ValueError, match="stride"):
        evolve(schedule, 10, checkpoint_every=0)
    bad = HamiltonianSchedule(AlgebraKind.SU11, lambda t: (0, 1.0, 0), -2.0)
    with pytest.raises(ValueError, match="t_final"):
        evolve(bad, 4)


@pytest.mark.parametrize(
    "t_final", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="int-beyond-double")]
)
def test_non_finite_t_final_is_rejected_by_name(t_final):
    # before any slice is built, so the error names the field instead of a coordinate
    # (an integer too large for a float would otherwise fail in t_final / steps)
    bad = HamiltonianSchedule(AlgebraKind.SU11, lambda t: (0, 1.0, 0), t_final)
    with pytest.raises(ValueError, match=r"^t_final must be positive and finite, got"):
        evolve(bad, 4)
    with pytest.raises(ValueError, match=r"^t_final must be positive and finite, got"):
        oscillator_schedule(1.0, lambda t: 1.0, t_final)


def test_trajectory_checkpoints():
    schedule = _constant_schedule(AlgebraKind.SU11, (0.1, 1.0, 0.1))
    result = evolve(schedule, 10, checkpoint_every=4)
    assert result.trajectory is not None
    times = [t for t, _ in result.trajectory]
    assert times == [0.0, 4 * result.tau, 8 * result.tau, 10 * result.tau]
    t0, g0 = result.trajectory[0]
    assert g0 == identity_element(AlgebraKind.SU11)
    t_last, g_last = result.trajectory[-1]
    assert t_last == pytest.approx(schedule.t_final)
    assert _gap(g_last, result.element) == 0.0
    # no checkpointing requested: no trajectory stored
    assert evolve(schedule, 10).trajectory is None


def test_default_checkpoint_stride():
    assert default_checkpoint_stride(5) == 1
    assert default_checkpoint_stride(100) == 1
    assert default_checkpoint_stride(1000) == 10
    assert default_checkpoint_stride(4096) == 40


def test_first_order_self_convergence():
    schedule = oscillator_schedule(1.0, lambda t: 1.0 * (1.0 + 0.3 * math.sin(t)), 5.0)
    finals = {n: evolve(schedule, n).element for n in (64, 128, 256, 512)}
    gaps = [_gap(finals[n], finals[2 * n]) for n in (64, 128, 256)]
    for wide, tight in zip(gaps, gaps[1:]):
        assert 1.7 <= wide / tight <= 2.3


def test_midpoint_sampling_is_second_order():
    # documented extension: midpoint coefficients halve the error twice per
    # doubling instead of once
    schedule = oscillator_schedule(1.0, lambda t: 1.0 * (1.0 + 0.3 * math.sin(t)), 5.0)
    finals = {n: evolve(schedule, n, midpoint=True).element for n in (128, 256, 512)}
    gaps = [_gap(finals[128], finals[256]), _gap(finals[256], finals[512])]
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


@pytest.mark.parametrize("tau", [0.0, -0.1])
@pytest.mark.parametrize("algebra", list(AlgebraKind), ids=lambda a: a.value)
def test_step_element_takes_any_tau_as_disentangle_does(algebra, tau):
    # step_element is evolve's slice and validates nothing: tau = 0 and tau < 0 keep working
    eta = (0.3 + 0.1j, 1.2, -0.4j)
    lam = ExponentParams(*(-1j * tau * complex(v) for v in eta))
    expected = disentangle(algebra, lam).element
    got = step_element(algebra, eta, tau)
    parts = lambda g: [struct.pack("<dd", z.real, z.imag) for z in (g.big_plus, g.log_c, g.big_minus, g.phase)]
    assert got.algebra is algebra
    assert parts(got) == parts(expected)


def test_singular_step_carries_position_and_time():
    # the third step's exponent works out to (pi/2, 0, pi/2), whose
    # normal-ordered form does not exist in the su(1,1) chart
    def eta(t):
        strength = 2 * math.pi if t > 0.5 else 0.1
        return (1j * strength, 0, 1j * strength)

    schedule = HamiltonianSchedule(AlgebraKind.SU11, eta, 1.0)
    with pytest.raises(SingularDecomposition) as excinfo:
        evolve(schedule, 4)
    assert excinfo.value.step == 3
    assert excinfo.value.time == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# checkpoints fold chunk by chunk

# 10 steps of tau = 0.1: a stride of 3 folds steps 1-3, 4-6, 7-9 and 10, each chunk after
# the first seeded with the product so far
CHUNK_STEPS, CHUNK_TAU = 10, 0.1
STRIDES = [None, 1, 3, CHUNK_STEPS]


def _bits(g):
    return [struct.pack("<dd", z.real, z.imag) for z in (g.big_plus, g.log_c, g.big_minus, g.phase)]


def _table_schedule(algebra, table):
    """A schedule whose eta at the right endpoint j*tau is table[j - 1]."""
    at = {j * CHUNK_TAU: eta for j, eta in enumerate(table, start=1)}
    return HamiltonianSchedule(algebra, at.__getitem__, CHUNK_STEPS * CHUNK_TAU)


def _drive_table(algebra, seed):
    rng = np.random.default_rng(seed)
    return [tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(3)) for _ in range(CHUNK_STEPS)]


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("algebra", list(AlgebraKind), ids=lambda a: a.value)
def test_chunked_trajectory_is_compose_many_over_prefixes(algebra, stride):
    table = _drive_table(algebra, 61)
    elements = [step_element(algebra, eta, CHUNK_TAU) for eta in table]
    result = evolve(_table_schedule(algebra, table), CHUNK_STEPS, checkpoint_every=stride)
    assert result.tau == CHUNK_TAU
    assert _bits(result.element) == _bits(compose_many(elements))
    if stride is None:
        assert result.trajectory is None
        return
    rows = [0] + [j for j in range(1, CHUNK_STEPS + 1) if j % stride == 0 or j == CHUNK_STEPS]
    assert [t for t, _ in result.trajectory] == [j * CHUNK_TAU if j else 0.0 for j in rows]
    assert result.trajectory[0][1] == identity_element(algebra)
    for (_, g), j in zip(result.trajectory[1:], rows[1:]):
        assert _bits(g) == _bits(compose_many(elements[:j]))


def _singular_at(kind, step):
    """A su(1,1) table that breaks at ``step``, and the per-element route's error there.

    A "slice" is itself singular, exp(pi/2 (T+ + T-)) with w = cos(pi/2); a "pair" is a
    pure-lowering slice whose product with the steps before it has d = 1 - L+ L- = 0
    to roundoff.
    """
    algebra = AlgebraKind.SU11
    table = _drive_table(algebra, 67)
    if kind == "slice":
        strength = 1j * math.pi / (2 * CHUNK_TAU)
        table[step - 1] = (strength, 0j, strength)
        with pytest.raises(SingularDecomposition) as reference:
            step_element(algebra, table[step - 1], CHUNK_TAU)
        cause = reference.value
    else:
        prefix = compose_many([step_element(algebra, eta, CHUNK_TAU) for eta in table[: step - 1]])
        table[step - 1] = (0j, 0j, 1j / (CHUNK_TAU * prefix.big_plus))
        elements = [step_element(algebra, eta, CHUNK_TAU) for eta in table[:step]]
        with pytest.raises(SingularDecomposition) as reference:
            compose_many(elements)
        assert reference.value.step == step
        cause = reference.value.__cause__
    return _table_schedule(algebra, table), cause


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize(
    "kind, step",
    # step 1, the last step of a chunk of 3, the first of the next, inside one, the final step;
    # a pair needs a step before it, so its first position is step 2
    [("slice", s) for s in (1, 3, 4, 5, 10)] + [("pair", s) for s in (2, 3, 4, 5, 10)],
)
def test_chunked_error_names_the_step_of_the_per_element_route(kind, step, stride):
    schedule, cause = _singular_at(kind, step)
    with pytest.raises(SingularDecomposition) as excinfo:
        evolve(schedule, CHUNK_STEPS, checkpoint_every=stride)
    exc = excinfo.value
    assert str(exc) == f"evolution singular at step {step} of {CHUNK_STEPS} (t = {step * CHUNK_TAU:.6g})"
    assert (exc.step, exc.time) == (step, step * CHUNK_TAU)
    assert exc.denominator_abs == cause.denominator_abs
    assert str(exc.__cause__) == str(cause)
    assert exc.__cause__.step == step


def test_checkpoint_stride_must_be_an_integer():
    schedule = _constant_schedule(AlgebraKind.SU11, (0, 1.0, 0))
    with pytest.raises(ValueError, match=r"^checkpoint stride must be an integer, got 2\.0$"):
        evolve(schedule, 10, checkpoint_every=2.0)
    wide = evolve(schedule, 10, checkpoint_every=10**30)
    assert [t for t, _ in wide.trajectory] == [0.0, 10 * wide.tau]
    assert evolve(schedule, 10, checkpoint_every=np.int64(4)).trajectory == evolve(
        schedule, 10, checkpoint_every=4
    ).trajectory


class _Complex(complex):
    pass


# eta values of each type evolve may be handed, signed zeros included
ETA_VALUES = {
    "float": [(0.3, -0.0, 1.25), (-0.0, 0.7, -0.2), (0.0, -1.5, -0.0)],
    "int": [(1, 0, -2), (0, 3, 1), (-1, 2, 0)],
    "complex128": [
        (np.complex128(complex(-0.0, 0.4)), np.complex128(0.9), np.complex128(complex(0.2, -0.0))),
        (np.complex128(complex(-0.0, -0.0)), np.complex128(complex(1.1, 0.3)), np.complex128(-0.5j)),
    ],
    "complex": [
        (complex(-0.0, 0.5), complex(0.3, -0.0), complex(-0.0, -0.0)),
        (complex(0.0, -0.0), complex(-0.0, 1.2), complex(0.4, 0.1)),
    ],
    "subclass": [(_Complex(-0.0, 0.5), _Complex(0.8, -0.0), _Complex(-0.0, -0.0))],
}


@pytest.mark.parametrize("kind", sorted(ETA_VALUES))
@pytest.mark.parametrize("algebra", list(AlgebraKind), ids=lambda a: a.value)
def test_slices_take_each_eta_value_as_complex_of_it(algebra, kind):
    # a slice exponent is -1j*tau times complex(v), bit for bit, whatever the type of v
    values = ETA_VALUES[kind]
    table = [values[j % len(values)] for j in range(CHUNK_STEPS)]
    elements = []
    for eta in table:
        lam = ExponentParams(*((-1j * CHUNK_TAU) * complex(v) for v in eta))
        elements.append(disentangle(algebra, lam).element)
        assert _bits(step_element(algebra, eta, CHUNK_TAU)) == _bits(elements[-1])
    result = evolve(_table_schedule(algebra, table), CHUNK_STEPS, checkpoint_every=1)
    assert _bits(result.element) == _bits(compose_many(elements))
    for (_, g), j in zip(result.trajectory[1:], range(1, CHUNK_STEPS + 1)):
        assert _bits(g) == _bits(compose_many(elements[:j]))


# ---------------------------------------------------------------------------
# the oscillator preset

def test_oscillator_schedule_static_case():
    schedule = oscillator_schedule(2.0, lambda t: 2.0, 1.0)
    assert schedule.algebra is AlgebraKind.SU11
    assert schedule.eta(0.3) == (0, 4.0, 0)


def test_oscillator_coefficients_reproduce_the_hamiltonian():
    # p^2/2 + omega^2 q^2/2 written in the generator matrices equals the
    # eta-weighted combination, exactly, for arbitrary omega(t)
    omega0 = 1.3
    schedule = oscillator_schedule(omega0, lambda t: 1.0 + 0.4 * math.sin(3 * t), 10.0)
    gens = generators_for(AlgebraKind.SU11)
    q_sq = (gens.m_plus + gens.m_minus + 2 * gens.m_c) / omega0
    p_sq = omega0 * (2 * gens.m_c - gens.m_plus - gens.m_minus)
    rng = np.random.default_rng(89)
    for t in rng.uniform(0, 10, 10):
        omega = 1.0 + 0.4 * math.sin(3 * t)
        eta_plus, eta_c, eta_minus = schedule.eta(t)
        direct = 0.5 * p_sq + 0.5 * omega**2 * q_sq
        combined = eta_plus * gens.m_plus + eta_c * gens.m_c + eta_minus * gens.m_minus
        np.testing.assert_allclose(combined, direct, atol=1e-14)


def test_sudden_jump_squeezing_magnitude():
    # frequency jump omega0 -> omega1 at t = 0; the evolution is exact for
    # every N, and the raising coordinate peaks at tanh(2 r_jump) with
    # r_jump = |ln(omega1/omega0)| / 2 a quarter period after the jump
    omega0, omega1 = 1.0, 2.3
    quarter = math.pi / (2 * omega1)
    schedule = oscillator_schedule(omega0, lambda t: omega1, quarter)
    result = evolve(schedule, 1)
    assert _gap(result.element, evolve(schedule, 257).element) <= 1e-11

    r_jump = abs(math.log(omega1 / omega0)) / 2
    assert abs(abs(result.element.big_plus) - math.tanh(2 * r_jump)) <= 1e-12

    # matrix oracle for the same constant Hamiltonian
    eta = schedule.eta(0.0)
    lam = ExponentParams(
        -1j * quarter * eta[0], -1j * quarter * eta[1], -1j * quarter * eta[2]
    )
    gap = np.max(
        np.abs(element_matrix(result.element) - exponent_matrix(AlgebraKind.SU11, lam))
    )
    assert gap <= 1e-12


def test_invalid_frequencies_rejected():
    with pytest.raises(InvalidFrequency):
        oscillator_schedule(-1.0, lambda t: 1.0, 1.0)
    schedule = oscillator_schedule(1.0, lambda t: 1.0 - 2.0 * t, 1.0)
    with pytest.raises(InvalidFrequency):
        evolve(schedule, 8)
    # an integer beyond double range is no frequency, as a reference or from omega(t)
    for huge in (10**400, -(10**5000)):
        with pytest.raises(InvalidFrequency, match="^reference frequency is beyond double range$"):
            oscillator_schedule(huge, lambda t: 1.0, 1.0)
    with pytest.raises(InvalidFrequency, match=r"^omega\(0\.125\) is beyond double range$"):
        evolve(oscillator_schedule(1.0, lambda t: 10**400, 1.0), 8)
    with pytest.raises(ValueError, match="t_final"):
        oscillator_schedule(1.0, lambda t: 1.0, 0.0)
