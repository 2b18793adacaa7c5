import cmath
import math
import random

import pytest

from bchkit import (
    AlgebraKind,
    HamiltonianSchedule,
    InvalidFrequency,
    NonFiniteInput,
    SingularDecomposition,
    compose_many,
    default_checkpoint_stride,
    disentangle,
    element_matrix,
    evolve,
    exponent_matrix,
    ExponentParams,
    generators_for,
    mat_exp,
    oscillator_schedule,
    step_element,
)
from frozen import Float, assert_close, complex_bits, element_bits, random_complex


def _components(g):
    return (g.big_plus, g.big_c(), g.big_minus)


def _gap(a, b):
    return max(abs(x - y) for x, y in zip(_components(a), _components(b)))


class _Index:
    """An integer known only by ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class _Real:
    """A real number known only by ``__float__``."""

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


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
    assert_close(element_matrix(g), mat_exp(-1j * tau * h), atol=1e-13)


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
    # the oscillator with omega0 = 1 held at omega = 1.3
    schedule = oscillator_schedule(1.0, lambda t: 1.3, 3.0)
    single, split = evolve(schedule, 1), evolve(schedule, 100)
    assert (single.steps, split.steps) == (1, 100)
    assert _gap(single.element, split.element) <= 1e-11


def test_cartan_schedule_gives_pure_phase():
    t_final = 2.0
    for omega, steps in ((1.3, 1), (1.3, 7), (1.3, 128), (0.9, 64)):
        schedule = HamiltonianSchedule(AlgebraKind.SU2, lambda t: (0, omega, 0), t_final)
        result = evolve(schedule, steps)
        assert abs(result.element.big_c() - cmath.exp(-1j * omega * t_final)) <= 1e-12
        assert result.element.big_plus == 0 and result.element.big_minus == 0
        assert result.element.log_c.real == 0


def test_evolve_validates_arguments():
    schedule = _constant_schedule(AlgebraKind.SU11, (0, 1.0, 0))
    with pytest.raises(ValueError, match="steps"):
        evolve(schedule, 0)
    with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.0$"):
        evolve(schedule, 2.0)
    with pytest.raises(NonFiniteInput, match="^steps must be within double range, got an integer of 1329 bits$"):
        evolve(schedule, 10**400)
    with pytest.raises(NonFiniteInput, match="^checkpoint stride must be within double range, got an integer of 1329 bits$"):
        evolve(schedule, 10, checkpoint_every=-(10**400))
    # a count known by __index__ runs as the plain int it stands for, and a float subclass
    # t_final as the float it stands for, down to the type of tau and of every checkpoint time
    wide, plain = evolve(schedule, _Index(64)), evolve(schedule, 64)
    assert type(wide.tau) is float and type(wide.steps) is int
    assert (wide.tau, wide.element) == (plain.tau, plain.element)
    subclass_t = HamiltonianSchedule(schedule.algebra, schedule.eta, Float(schedule.t_final))
    wide, plain = evolve(subclass_t, 64, checkpoint_every=8), evolve(schedule, 64, checkpoint_every=8)
    assert type(wide.tau) is float and {type(t) for t, _ in wide.trajectory} == {float}
    assert (wide.tau, wide.trajectory) == (plain.tau, plain.trajectory)
    with pytest.raises(ValueError, match="stride"):
        evolve(schedule, 10, checkpoint_every=0)
    with pytest.raises(ValueError, match="t_final"):
        evolve(HamiltonianSchedule(AlgebraKind.SU11, lambda t: (0, 1.0, 0), -2.0), 4)


def _constant_in(t_final):
    return HamiltonianSchedule(AlgebraKind.SU11, lambda t: (0, 1.0, 0), t_final)


@pytest.mark.parametrize(
    "build, t_final, message",
    [
        pytest.param(_constant_in, math.inf, "positive and finite, got inf", id="inf"),
        pytest.param(_constant_in, -math.inf, "positive and finite, got -inf", id="-inf"),
        pytest.param(_constant_in, math.nan, "positive and finite, got nan", id="nan"),
        pytest.param(_constant_in, 0, "positive and finite, got 0", id="zero"),
        pytest.param(_constant_in, -2.5, "positive and finite, got -2.5", id="negative"),
        pytest.param(_constant_in, 10**400, "within double range, got an integer of 1329 bits", id="int-beyond-double"),
        # more digits than str() converts: the message gives the size instead
        pytest.param(_constant_in, 10**5000, "within double range, got an integer of 16610 bits", id="int-beyond-str"),
        pytest.param(
            _constant_in, -(10**5000), "within double range, got an integer of 16610 bits", id="negative-int-beyond-str"
        ),
        # the route that builds a schedule for the caller passes t_final on as it is
        pytest.param(
            lambda t_final: oscillator_schedule(1.0, lambda t: 1.0, t_final),
            math.nan,
            "positive and finite, got nan",
            id="oscillator_schedule",
        ),
    ],
)
def test_non_finite_t_final_is_rejected_by_name(build, t_final, message):
    # refused where the schedule is built, so evolve never meets it and no slice is made
    with pytest.raises(ValueError, match=f"^t_final must be {message}$"):
        build(t_final)


def test_default_checkpoint_stride():
    assert default_checkpoint_stride(5) == 1
    assert default_checkpoint_stride(100) == 1
    assert default_checkpoint_stride(1000) == 10
    assert default_checkpoint_stride(4096) == 40


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
    assert got.algebra is algebra
    assert element_bits(got) == element_bits(expected)


@pytest.mark.parametrize("tau", [10**400, -(10**400)], ids=["positive", "negative"])
def test_step_element_names_a_tau_beyond_double_range(tau):
    # -1j * tau would overflow with a bare OverflowError that names nothing
    with pytest.raises(NonFiniteInput, match=r"^tau must be within double range, got an integer of 1329 bits$"):
        step_element(AlgebraKind.SU11, (1, 0, 1), tau)


@pytest.mark.parametrize("index, name", [(0, "eta_plus"), (1, "eta_c"), (2, "eta_minus")])
def test_step_element_names_an_eta_beyond_double_range(index, name):
    # complex() of the integer would raise a bare OverflowError that names nothing
    eta = [1, 0, 1]
    eta[index] = -(10**400)
    with pytest.raises(NonFiniteInput, match=rf"^{name}\(0\.5\) must be within double range, got an integer of 1329 bits$"):
        step_element(AlgebraKind.SU11, tuple(eta), 0.5)


def test_evolve_names_an_eta_beyond_double_range():
    schedule = HamiltonianSchedule(AlgebraKind.SU2, lambda t: (0.1, 10**400 if t > 0.5 else 0.2, 0.1), 1.0)
    with pytest.raises(NonFiniteInput, match=r"^eta_c\(0\.75\) must be within double range, got an integer of 1329 bits$"):
        evolve(schedule, 4, checkpoint_every=1)


# ---------------------------------------------------------------------------
# checkpoints fold chunk by chunk

# 10 steps of tau = 0.1: a stride of 3 folds steps 1-3, 4-6, 7-9 and 10, a stride of 4
# steps 1-4, 5-8 and 9-10, each chunk after the first seeded with the product so far
CHUNK_STEPS, CHUNK_TAU = 10, 0.1
STRIDES = [None, 1, 3, 4, CHUNK_STEPS]


def _table_schedule(algebra, table):
    """A schedule whose eta at the right endpoint j*tau is table[j - 1]."""
    at = {j * CHUNK_TAU: eta for j, eta in enumerate(table, start=1)}
    return HamiltonianSchedule(algebra, at.__getitem__, CHUNK_STEPS * CHUNK_TAU)


def _drive_table(algebra, seed):
    rng = random.Random(seed)
    return [tuple(random_complex(rng) for _ in range(3)) for _ in range(CHUNK_STEPS)]


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
        assert reference.value.step == 1  # step_element's slice is step 1 of a one-step run
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


@pytest.mark.parametrize("steps", [2, 3, 4, 8])
def test_evolve_carries_a_cartan_coordinate_beyond_double_range(steps):
    # eta_c = 1000i gives log_c = 1000, whose exp() is no double; from 4 steps on the running
    # log_c passes 709.8 inside the fold, where exp(delta*log_c) scales exact 0 coordinates
    schedule = HamiltonianSchedule(AlgebraKind.SU11, lambda t: (0j, 1000j, 0j), 1.0)
    g = evolve(schedule, steps).element
    assert (g.big_plus, g.log_c, g.big_minus) == (0, 1000, 0)


def test_checkpoint_stride_must_be_an_integer():
    schedule = _constant_schedule(AlgebraKind.SU11, (0, 1.0, 0))
    with pytest.raises(ValueError, match=r"^checkpoint stride must be an integer, got 2\.0$"):
        evolve(schedule, 10, checkpoint_every=2.0)
    wide = evolve(schedule, 10, checkpoint_every=10**30)
    assert [t for t, _ in wide.trajectory] == [0.0, 10 * wide.tau]
    assert evolve(schedule, 10, checkpoint_every=_Index(4)).trajectory == evolve(
        schedule, 10, checkpoint_every=4
    ).trajectory


class _Complex(complex):
    pass


# eta values of each type evolve may be handed, signed zeros included
ETA_VALUES = {
    "float": [(0.3, -0.0, 1.25), (-0.0, 0.7, -0.2), (0.0, -1.5, -0.0)],
    "int": [(1, 0, -2), (0, 3, 1), (-1, 2, 0)],
    # numpy's complex128 is a complex subclass too: these values stand where its values
    # stood, and like them fail _slices' class test and take the conversion
    "complex128": [
        (_Complex(-0.0, 0.4), _Complex(0.9), _Complex(0.2, -0.0)),
        (_Complex(-0.0, -0.0), _Complex(1.1, 0.3), _Complex(-0.5j)),
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
        assert element_bits(step_element(algebra, eta, CHUNK_TAU)) == element_bits(elements[-1])
    result = evolve(_table_schedule(algebra, table), CHUNK_STEPS, checkpoint_every=1)
    assert element_bits(result.element) == element_bits(compose_many(elements))
    for (_, g), j in zip(result.trajectory[1:], range(1, CHUNK_STEPS + 1)):
        assert element_bits(g) == element_bits(compose_many(elements[:j]))


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
    q_sq = (1 / omega0) * (gens.m_plus + gens.m_minus + 2 * gens.m_c)
    p_sq = omega0 * (2 * gens.m_c - gens.m_plus - gens.m_minus)
    rng = random.Random(89)
    for t in [rng.uniform(0, 10) for _ in range(10)]:
        omega = 1.0 + 0.4 * math.sin(3 * t)
        eta_plus, eta_c, eta_minus = schedule.eta(t)
        direct = 0.5 * p_sq + 0.5 * omega**2 * q_sq
        combined = eta_plus * gens.m_plus + eta_c * gens.m_c + eta_minus * gens.m_minus
        assert_close(combined, direct, atol=1e-14)


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
    for steps in (1, 16):
        g = evolve(schedule, steps).element
        assert abs(element_matrix(g) - exponent_matrix(AlgebraKind.SU11, lam)).max() <= 1e-12


def frozen_oscillator_eta(omega0, omega):
    """oscillator_schedule's eta as first written, for a valid omega; a fixed reference."""
    omega0, omega = float(omega0), float(omega)
    coupling = (omega * omega - omega0 * omega0) / (2.0 * omega0)
    cartan = (omega * omega + omega0 * omega0) / omega0
    return (complex(coupling), complex(cartan), complex(coupling))


def test_oscillator_eta_is_bit_for_bit_the_first_formula():
    rng = random.Random(97)
    spread = [rng.uniform(1.0, 10.0) * 10.0**e for e in range(-150, 151, 10) for _ in range(2)]
    frequencies = [1, 2, 7, Float(1.3), Float(0.25), _Real(0.7), *spread]
    for omega0 in frequencies:
        schedule = oscillator_schedule(omega0, lambda t: frequencies[int(t)], len(frequencies))
        for k, omega in enumerate(frequencies):
            got = schedule.eta(float(k))
            expected = frozen_oscillator_eta(omega0, omega)
            assert [complex_bits(z) for z in got] == [complex_bits(z) for z in expected], (omega0, omega)


@pytest.mark.parametrize(
    "omega, error, message",
    [
        (math.nan, InvalidFrequency, "omega(0.25) = nan is not positive"),
        (math.inf, InvalidFrequency, "omega(0.25) = inf is not positive"),
        (-math.inf, InvalidFrequency, "omega(0.25) = -inf is not positive"),
        (0, InvalidFrequency, "omega(0.25) = 0.0 is not positive"),
        (-1, InvalidFrequency, "omega(0.25) = -1.0 is not positive"),
        # refused where it becomes a float, before it is tested as a frequency
        (10**400, NonFiniteInput, "omega(0.25) must be within double range, got an integer of 1329 bits"),
    ],
    ids=["nan", "inf", "-inf", "0", "-1", "10**400"],
)
def test_oscillator_eta_names_an_invalid_frequency(omega, error, message):
    schedule = oscillator_schedule(1.0, lambda t: omega, 1.0)
    with pytest.raises(error) as excinfo:
        schedule.eta(0.25)
    assert str(excinfo.value) == message


def test_invalid_frequencies_rejected():
    with pytest.raises(InvalidFrequency):
        oscillator_schedule(-1.0, lambda t: 1.0, 1.0)
    schedule = oscillator_schedule(1.0, lambda t: 1.0 - 2.0 * t, 1.0)
    with pytest.raises(InvalidFrequency):
        evolve(schedule, 8)
    with pytest.raises(ValueError, match="t_final"):
        oscillator_schedule(1.0, lambda t: 1.0, 0.0)
