"""What the command line adds to the library: exit codes 0, 2 and 3, strict JSON bodies,
argument and file errors, schedule parsing, checkpoints and CSV, ``python -m`` and a
start without numpy or typing.  The library tests and the census pin the numbers;
test_main_prints_what_the_library_gives runs each input, ordinary or at an edge, through
main and checks the exit code and the whole stdout against the library's result on the
same input.  Needs pytest and nothing else."""

import bisect
import cmath
import functools
import gc
import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    SingularDecomposition,
    SqueezeParams,
    alpha_continued_fraction,
    compose_many,
    compose_squeezes,
    disentangle,
    evolve,
    factor_squeeze_rotation,
    oscillator_schedule,
)
import bchkit
from bchkit.cli import _render, load_schedule, main
from frozen import Float, complex_bits, random_element, random_params

# json.dumps writes this as a 401-digit integer, far beyond double range
HUGE = int("9" * 401)


def refuse_constant(name):
    raise ValueError(f"non-finite {name} in output")


def check_body(out):
    """Fail unless out is one strict JSON object (no NaN or Infinity) with no bare "math range error"."""
    assert isinstance(json.loads(out, parse_constant=refuse_constant), dict), out
    assert "math range error" not in out, out


def run_cli(capsys, *argv):
    """main's exit code and stdout; a nonempty stdout must pass check_body."""
    code = main(list(argv))
    out = capsys.readouterr().out
    if out:
        check_body(out)
    return code, out


def test_run_cli_checks_every_body():
    check_body('{"alpha": [0.1, 0]}\n')
    for out in ('{"error": "math range error"}\n', '{"alpha": [NaN, 0]}\n', '[0.1, 0]\n', '{} {}\n'):
        with pytest.raises((AssertionError, ValueError)):
            check_body(out)


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def element_entry(g):
    """An element file entry of g's coordinates."""
    return {"Lambda_plus": pair(g.big_plus), "log_c": pair(g.log_c), "Lambda_minus": pair(g.big_minus)}


def as_complex(value):
    return complex(value[0], value[1])


def entry_element(algebra, entry):
    """The element a valid entry stands for, read field by field."""
    if "log_c" in entry:
        log_c = as_complex(entry["log_c"])
    else:
        log_c = cmath.log(as_complex(entry["Lambda_c"]))
    return GroupElement(
        algebra, as_complex(entry["Lambda_plus"]), log_c, as_complex(entry["Lambda_minus"])
    )


# ---------------------------------------------------------------------------
# every command: main's exit code and whole stdout are what the library gives

PACKAGE_ERRORS = tuple(getattr(bchkit.errors, name) for name in bchkit.errors.__all__)


def library_outcome(fields):
    """main's exit code and stdout where the library gives fields(): 3 and what a
    SingularDecomposition names, 2 and the message of any other error of the package,
    the Cartan one of GroupElement.big_c() included."""
    try:
        return 0, _render(fields()) + "\n"
    except SingularDecomposition as exc:
        named = {"denominator_abs": exc.denominator_abs, "step": exc.step, "time": exc.time}
        body = {"error": str(exc), **{key: value for key, value in named.items() if value is not None}}
        return 3, _render(body) + "\n"
    except PACKAGE_ERRORS as exc:
        return 2, _render({"error": str(exc)}) + "\n"


def element_fields(g):
    """The "alpha", "beta", "gamma" and "log_c" fields that compose and evolve print first."""
    return {"alpha": g.big_plus, "beta": g.big_c(), "gamma": g.big_minus, "log_c": g.log_c}


def compose_fields(algebra, entries, continued_fraction):
    elements = [entry_element(algebra, entry) for entry in entries]
    fields = element_fields(compose_many(elements))
    if continued_fraction:
        alpha_cf = alpha_continued_fraction(elements)
        fields.update(alpha_continued_fraction=alpha_cf, alpha_abs_difference=abs(alpha_cf - fields["alpha"]))
    return fields


def evolve_fields(schedule, steps, midpoint=False):
    result = evolve(schedule, steps, midpoint=midpoint)
    return dict(element_fields(result.element), steps=result.steps, tau=result.tau)


def disentangle_row(row_id, algebra, *lam):
    """A disentangle row; each of ``lam`` is a number or an "re,im" token as the command line spells it."""
    tokens = [z if isinstance(z, str) else f"{complex(z).real!r},{complex(z).imag!r}" for z in lam]
    argv = ["disentangle", "--algebra", algebra, "--lambda", *tokens]

    def fields(path):
        lam = (complex(*map(float, token.split(","))) for token in tokens)
        result = disentangle(AlgebraKind(algebra), ExponentParams(*lam))
        g = result.element
        return {
            "Lambda_plus": g.big_plus, "Lambda_c": g.big_c(), "log_c": g.log_c, "nu": result.nu,
            "Lambda_minus": g.big_minus,
        }

    return pytest.param(argv, None, fields, id=row_id)


def compose_row(row_id, algebra, entries, *flags):
    fields = lambda path: compose_fields(AlgebraKind(algebra), entries, bool(flags))
    return pytest.param(["compose", "--algebra", algebra, *flags, "{file}"], entries, fields, id=row_id)


def squeeze_row(row_id, z1, z2):
    argv = ["squeeze-compose", "--z1", f"{z1[0]!r},{z1[1]!r}", "--z2", f"{z2[0]!r},{z2[1]!r}"]

    def fields(path):
        product = compose_squeezes(SqueezeParams(*z2), SqueezeParams(*z1))
        factored = factor_squeeze_rotation(product)
        squeeze, angle = factored.squeeze, factored.rotation.angle
        factorization = {"r": squeeze.r, "phi": squeeze.phi, "rotation_angle": angle}
        coordinates = {"alpha": product.big_plus, "beta": product.big_c(), "gamma": product.big_minus}
        return dict(coordinates, factorization=factorization, recomposition_residual=factored.residual)

    return pytest.param(argv, None, fields, id=row_id)


def evolve_row(row_id, schedule, steps, *flags):
    argv = ["evolve", "--schedule", "{file}", "--steps", str(steps), *flags]
    midpoint = "--midpoint" in flags
    fields = lambda path: evolve_fields(load_schedule(path), steps, midpoint)
    return pytest.param(argv, schedule, fields, id=row_id)


def entry(big_plus, log_c, big_minus):
    return {"Lambda_plus": big_plus, "log_c": log_c, "Lambda_minus": big_minus}


def seed_then_one(seed, log_c, minus):
    """An element file: L+ = seed alone, then L+ = 0.1 with the given log_c and L-."""
    return [entry(seed, [0.0, 0.0], [0.0, 0.0]), entry([0.1, 0.0], log_c, minus)]


def oscillator_with(profile, t_final=1.0):
    return {
        "format": 1, "algebra": "su11", "t_final": t_final,
        "preset": {"name": "oscillator", "omega0": 1.0, "omega_profile": profile},
    }


ZERO = [0, 0]
CF = "--continued-fraction"
BIG_A = (318310 + 0.5) * math.pi
RANDOM = random_params(random.Random(97))
# exp(800) overflows inside the step but scales the second element's exact 0 L-
POWER_OF_ZERO = [entry(ZERO, [800, 0], ZERO), entry([0.1, 0], [-200, 0], ZERO)]
# eta_c = 1000i: log_c = 1000, whose exp() is no double
CARTAN_DRIVE = {
    "format": 1, "algebra": "su11", "t_final": 1.0,
    "samples": [{"t": t, "eta_plus": ZERO, "eta_c": [0, 1000], "eta_minus": ZERO} for t in (0.0, 1.0)],
}
CONSTANT_OSCILLATOR = oscillator_with({"type": "constant", "omega": 1.3}, t_final=3.0)
SU2_CARTAN = {
    "format": 1, "algebra": "su2", "t_final": 2.0,
    "samples": [{"t": t, "eta_plus": ZERO, "eta_c": [0.9, 0], "eta_minus": ZERO} for t in (0.0, 2.0)],
}
# eta is 0 up to t = 1.5 and eta_plus = eta_minus = 2 pi i at t = 1.75: with tau = 0.25 the
# slice of step 7, the first of the third chunk of 3, is exp(pi/2 (T+ + T-)), which has no
# normal-ordered form
QUIET = {"eta_plus": ZERO, "eta_c": ZERO, "eta_minus": ZERO}
KICK = dict(QUIET, t=1.75, eta_plus=[0, 2 * math.pi], eta_minus=[0, 2 * math.pi])
KICK_AT_STEP_7 = {
    "format": 1, "algebra": "su11", "t_final": 2.5, "samples": [dict(QUIET, t=0), dict(QUIET, t=1.5), KICK],
}
# |d| is above half the largest double, where Smith's denominator overflows
SMITH_PAIR = [
    entry([-6.911499537148892e262, -4.2824235975023426e262], [0.6068014566628955, -0.2631619903046233],
          [3.9674193721644396e23, -2.6645798166502327e23]),
    entry([-8.640622430809308e-181, 3.259397406621332e-181], [-25.447963758613422, -32.87611304502988],
          [2.854701438310627e45, 3.342754478235407e45]),
]
# d = 1 - L1+ L2- has finite parts and a modulus beyond double range
D_MODULUS_BEYOND = [entry([1.5e300, 0], ZERO, ZERO), entry(ZERO, ZERO, [1e8, 1e8])]
# the continued fraction's partial denominator is 1.7e308(1+i) - 1
FRACTION_SMITH = [entry([1, 0], ZERO, ZERO), entry(ZERO, [100, 0], [1.7e308, 1.7e308])]
IDENTITY_ENTRY = {"Lambda_plus": ZERO, "Lambda_c": [1, 0], "Lambda_minus": ZERO}
FRACTION_DRAW = random.Random(101)
FRACTION_ENTRIES = [element_entry(random_element(FRACTION_DRAW, AlgebraKind.SU11)) for _ in range(5)]

# Ordinary inputs of every command, then inputs at the edges of double range; the library
# tests pin the numbers of each
ROWS = [
    disentangle_row("disentangle-identity", "su11", 0, 0, 0),
    disentangle_row("disentangle-cartan", "su2", 0, 0.5, 0),
    # tokens such as "-0.3,0.1", which argparse would take for options
    disentangle_row("disentangle-negative-pairs", "su2", -0.3 + 0.1j, 0.5, -0.2 - 0.4j),
    # and negative non-finite tokens, in each spelling float() reads
    disentangle_row("disentangle-negative-inf", "su11", "-inf,0", 0, 0),
    disentangle_row("disentangle-negative-nan", "su2", 0, "-NaN,1", 0),
    disentangle_row("disentangle-negative-infinity", "so21", 0, 0, "-Infinity,0"),
    disentangle_row("disentangle-general", "su11", 0.1 + 0.2j, -0.4, 0.3 + 0.3j),
    # w = cos(pi/2)
    disentangle_row("disentangle-singular", "su11", math.pi / 2, 0, math.pi / 2),
    compose_row(
        "compose-one-entry", "su11", [{"Lambda_plus": [0.2, 0.1], "Lambda_c": [1.1, 0], "Lambda_minus": [-0.1, 0.05]}],
    ),
    compose_row("compose-identities", "su2", [IDENTITY_ENTRY] * 3),
    compose_row("compose-fraction-of-five", "su11", FRACTION_ENTRIES, CF),
    # d = 1 - L+ L- = 0 at the second element
    compose_row("compose-singular", "su11", [entry([1.0, 0], ZERO, ZERO), entry(ZERO, ZERO, [1.0, 0])]),
    squeeze_row("squeeze-equal-phases", (1.1, 0.2), (0.4, 0.2)),
    squeeze_row("squeeze-trivial-first", (0.0, 0.0), (0.9, -0.4)),
    # unequal phases: z2 after z1 is not z1 after z2
    squeeze_row("squeeze-generic", (0.7, 0.3), (0.5, -1.1)),
    evolve_row("evolve-constant-1", CONSTANT_OSCILLATOR, 1),
    evolve_row("evolve-constant-100", CONSTANT_OSCILLATOR, 100),
    evolve_row("evolve-su2-cartan", SU2_CARTAN, 64),
    # a quarter period of the frequency omega jumps to at t = 0
    evolve_row(
        "evolve-jump", oscillator_with({"type": "jump", "omega_before": 1.0, "omega_after": 2.3}, math.pi / 4.6), 16,
    ),
    # endpoint and midpoint samples of this omega(t) differ
    evolve_row(
        "evolve-midpoint", oscillator_with({"type": "table", "points": [[0.0, 1.0], [1.0, 1.2], [2.0, 0.9]]}, 2.0),
        32, "--midpoint",
    ),
    evolve_row("evolve-singular-step-7", KICK_AT_STEP_7, 10, "--csv", "{csv}", "--checkpoints", "3"),
    # at the edges of double range
    # cosh(nu) = cosh(800) overflows on the general route
    disentangle_row("disentangle-beyond-cosh-range", "su11", 800, 0, -800),
    # exp(-2 nu) underflows at nu = 3e12, where w exp(-nu) = 1/2 is far from singular
    disentangle_row("disentangle-far-beyond-cosh-range", "su2", 3e12, 0, 3e12),
    # w = 1 exactly, next to a coordinate of 1e13
    disentangle_row("disentangle-huge-coordinate", "su11", 1e13, 0, 0),
    disentangle_row("disentangle-triangular-25", "su11", 1, 25, 0),
    disentangle_row("disentangle-triangular-30", "su11", 1, 30, 0),
    # nu = 750i, so nothing overflows, and w = exp(-750i) is taken in that exact form
    disentangle_row("disentangle-triangular-so21", "so21", 0, 1500, 0),
    # lambda_plus*lambda_minus = 1e-20 next to (lambda_c/2)^2: w cancels down to about exp(-nu)
    disentangle_row("disentangle-near-triangular", "su11", 1, 25, 1e-20),
    disentangle_row(
        "disentangle-large-nu", "su11", 0.15522507714800948 - 0.03746370018883782j,
        1054.6045162172938 + 1154.7775871381216j, 0.04263016461507618 + 0.2077347678254593j,
    ),
    disentangle_row("disentangle-random", "so21", RANDOM.lambda_plus, RANDOM.lambda_c, RANDOM.lambda_minus),
    # w = cos(A) at A near (k + 1/2) pi, about 1e6, is below the roundoff of A^2
    disentangle_row("disentangle-lost-to-roundoff", "su2", BIG_A * 1.1, 0, -BIG_A / 1.1),
    # the coordinates overflow: nu^2 = 1e400, and x = delta*eps*lp*lm to nan - inf j
    disentangle_row("disentangle-overflow-su2", "su2", 1e200, 0, 1e200),
    disentangle_row(
        "disentangle-overflow-su11", "su11", 4.870071729863563e199 + 5.256223429309925e199j,
        -0.002 - 0.0007j, -2.193879286821749e199 - 3.094071925631383e199j,
    ),
    # finite coordinates whose exp(log_c) leaves double range, in each command that prints
    # it; from 4 steps on, evolve's running log_c passes 709.8 inside the fold
    disentangle_row("disentangle-cartan-overflow", "su11", 0, 800, 0),
    compose_row("compose-cartan-overflow", "su11", [entry(ZERO, [750, 0], ZERO)]),
    *(evolve_row(f"evolve-cartan-overflow-{steps}", CARTAN_DRIVE, steps) for steps in (2, 3, 4, 8)),
    evolve_row("evolve-cartan-overflow-csv", CARTAN_DRIVE, 2, "--csv", "{csv}"),
    # 1.0 / seed leaves double range, or the seed's modulus does though both its parts are
    # finite, and the fold adds 0.1 to it without a trace
    compose_row("fraction-1e-309", "su11", seed_then_one([1e-309, 0], [700, 0], [0.1, 0]), CF),
    compose_row("fraction-complex-subnormal", "su11", seed_then_one([5e-324, 5e-324], [0, 0], [0.1, 0]), CF),
    *(
        compose_row(f"fraction-modulus-{name}", name, seed_then_one([1.5e308, 1.5e308], [0, 0], [0, 0]), CF)
        for name in ("su11", "su2", "so21")
    ),
    # exp(710) of the second element leaves double range; the term it scales does not,
    # and the third element brings the product back down
    compose_row(
        "fraction-power-by-logs", "su11",
        [*seed_then_one([1e-300, 0.0], [710.0, 0.0], [0.1, 0.0]), entry([0.0, 0.0], [-200.0, 0.0], [0.0, 0.0])], CF,
    ),
    # two finite elements whose product leaves double range, and an exp(log_c) = exp(800)
    # that overflows inside the step
    compose_row("compose-overflowing-product", "su11", [entry([1e300, 0], [700, 0], ZERO)] * 2),
    compose_row("compose-overflowing-power", "su11", [entry(ZERO, [800, 0], ZERO), entry([0.1, 0], ZERO, [0.1, 0])]),
    compose_row("compose-power-of-zero", "su11", POWER_OF_ZERO),
    compose_row("compose-power-of-zero-fraction", "su11", POWER_OF_ZERO, CF),
    # p1 * pow_c2 / d overflows in the complex division's intermediate, or in p1 * pow_c2,
    # where the product does not
    compose_row("compose-division-intermediate", "su11", seed_then_one([1e308, 1e308], ZERO, [0.1, 0]), CF),
    compose_row("compose-numerator-overflow", "su11", seed_then_one([1e300, 0], [700, 0], [1.0, 0]), CF),
    # d = 1 - L1+ L2- is not finite, has a modulus beyond double range, or is past the bound
    # of Smith's division, or the continued fraction's partial denominator is, where the
    # product is in range
    compose_row("compose-d-not-finite", "su11", [entry([1e200, 0], ZERO, ZERO), entry(ZERO, ZERO, [1e200, 0])], CF),
    compose_row("compose-d-modulus-beyond", "su11", D_MODULUS_BEYOND, CF),
    compose_row("compose-d-beyond-smith-bound", "so21", SMITH_PAIR, CF),
    compose_row("fraction-beyond-smith-bound", "su11", FRACTION_SMITH, CF),
    compose_row("compose-huge-then-identity", "su11", [entry([1e13, 0], ZERO, ZERO), entry(ZERO, ZERO, ZERO)]),
    # |L+| = tanh r rounds to 1 from r of about 19.06, and cosh(800) overflows; each factors
    squeeze_row("squeeze-large-12", (12.0, 0.0), (0.5, 1.0)),
    squeeze_row("squeeze-large-20", (20.0, 0.0), (0.5, 1.0)),
    squeeze_row("squeeze-large-30", (30.0, 0.0), (0.0, 0.0)),
    squeeze_row("squeeze-large-800", (800.0, 0.0), (0.0, 0.0)),
    # a phase of 1e15 is reduced exactly, as cmath.exp(1e15j) sees it
    squeeze_row("squeeze-large-phase", (0.5, 1e15), (0.3, 0.0)),
]


@pytest.mark.parametrize("argv, content, fields", ROWS)
def test_main_prints_what_the_library_gives(tmp_path, capsys, argv, content, fields):
    path, csv_path = tmp_path / "input.json", tmp_path / "trajectory.csv"
    if content is not None:
        path.write_text(json.dumps(content))
    argv = [token.format(file=path, csv=csv_path) for token in argv]
    code, out = run_cli(capsys, *argv)
    assert (code, out) == library_outcome(lambda: fields(str(path)))
    if "--csv" in argv:  # a trajectory is written only by a run that succeeds
        assert csv_path.exists() == (code == 0)


# ---------------------------------------------------------------------------
# disentangle

def test_bad_pair_syntax_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["disentangle", "--algebra", "su11", "--lambda", "0,0", "nope", "0,0"])
    assert excinfo.value.code == 2
    for z1 in ("inf,0", "nan,0", "0,nan"):
        with pytest.raises(SystemExit) as excinfo:
            main(["squeeze-compose", "--z1", z1, "--z2", "0.4,0"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --z1: r,phi must be finite but got {z1!r}\n")


# ---------------------------------------------------------------------------
# compose

def test_compose_consumes_disentangle_output(tmp_path, capsys):
    code, out = run_cli(capsys, "disentangle", "--algebra", "su11", "--lambda", "0.2,0.1", "0.1,0", "0.3,-0.2")
    assert code == 0
    element = json.loads(out)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps([element]))
    code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == element["Lambda_plus"]
    assert payload["log_c"] == element["log_c"]


def test_compose_input_problems_exit_2(tmp_path, capsys):
    absent, bad = tmp_path / "absent.json", tmp_path / "bad.json"
    bad.write_text("not json at all")
    for path, message in (
        (absent, f"[Errno 2] No such file or directory: '{absent}'"),
        (bad, "Expecting value: line 1 column 1 (char 0)"),
    ):
        code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
        assert (code, out) == (2, _render({"error": message}) + "\n")


def test_compose_restores_garbage_collection(tmp_path, capsys):
    # the element file is parsed with the cyclic collector paused, and its state is restored
    good = write_schedule(tmp_path, [{"Lambda_plus": [0.1, 0], "log_c": [0, 0], "Lambda_minus": [0, 0]}], name="good.json")
    bad = write_schedule(tmp_path, [{"Lambda_plus": [0.1, 0]}], name="bad.json")
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert run_cli(capsys, "compose", "--algebra", "su11", good)[0] == 0
            assert gc.isenabled() is enabled
            assert run_cli(capsys, "compose", "--algebra", "su11", bad)[0] == 2
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# squeeze-compose

def test_squeeze_compose_rejects_negative_magnitude(capsys):
    # "-inf,0" as well, which argparse would take for an option
    for z1, shown in (("-0.5,0", "-0.5"), ("-inf,0", "-inf")):
        with pytest.raises(SystemExit) as excinfo:
            main(["squeeze-compose", "--z1", z1, "--z2", "0.4,0"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --z1: squeeze magnitude must be >= 0, got {shown}\n")


def test_squeeze_compose_prints_a_large_magnitude_to_the_last_digit(capsys):
    # mpmath: acosh|cosh 12 cosh 0.5 + sinh 12 sinh 0.5 e^{i}| = 12.389213739331686
    code, out = run_cli(capsys, "squeeze-compose", "--z1", "12,0", "--z2", "0.5,1")
    assert code == 0
    assert json.loads(out)["factorization"]["r"] == pytest.approx(12.389213739331686, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# evolve

def write_schedule(tmp_path, payload, name="schedule.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def constant_oscillator(tmp_path):
    return write_schedule(tmp_path, CONSTANT_OSCILLATOR)


def test_evolve_jump_preset_switches_at_t_jump(tmp_path, capsys):
    profile = {"type": "jump", "omega_before": 1.0, "omega_after": 1.7, "t_jump": 1.3}
    sched = write_schedule(tmp_path, oscillator_with(profile, t_final=3.0))
    code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "16")
    schedule = oscillator_schedule(1.0, lambda t: 1.0 if t < 1.3 else 1.7, 3.0)
    assert (code, out) == (0, _render(evolve_fields(schedule, 16)) + "\n")
    del profile["t_jump"]  # switches at t = 0 instead
    sched = write_schedule(tmp_path, oscillator_with(profile, t_final=3.0), name="at_zero.json")
    code, out_at_zero = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "16")
    assert code == 0 and out_at_zero != out


def test_evolve_csv_trajectory(tmp_path, capsys):
    sched = constant_oscillator(tmp_path)
    csv_path = tmp_path / "trajectory.csv"
    code, out = run_cli(
        capsys,
        "evolve", "--schedule", sched, "--steps", "20", "--checkpoints", "5", "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,alpha_re,alpha_im,beta_re,beta_im,gamma_re,gamma_im"
    assert len(lines) == 6  # header, t=0, then steps 5, 10, 15, 20
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    # final row reproduces the JSON result bit for bit
    payload = json.loads(out)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1:3] == payload["alpha"]
    assert last[3:5] == payload["beta"]
    assert last[5:7] == payload["gamma"]


def test_evolve_default_checkpoint_stride_with_csv(tmp_path, capsys):
    sched = constant_oscillator(tmp_path)
    csv_path = tmp_path / "t.csv"
    code, _ = run_cli(
        capsys, "evolve", "--schedule", sched, "--steps", "300", "--csv", str(csv_path)
    )
    assert code == 0
    # stride 3 gives 100 checkpoints plus the t = 0 row and the header
    assert len(csv_path.read_text().splitlines()) == 102


def test_evolve_records_checkpoints_only_for_csv(tmp_path, capsys, monkeypatch):
    sched = constant_oscillator(tmp_path)
    csv_path = str(tmp_path / "t.csv")
    strides = []

    def recording_evolve(schedule, steps, checkpoint_every=None, midpoint=False):
        strides.append(checkpoint_every)
        return bchkit.evolve(schedule, steps, checkpoint_every, midpoint)

    monkeypatch.setattr(bchkit.cli, "evolve", recording_evolve)
    outputs = [
        run_cli(capsys, "evolve", "--schedule", sched, "--steps", "50", *extra)
        for extra in ([], ["--checkpoints", "1"], ["--checkpoints", "7", "--csv", csv_path])
    ]
    assert strides == [None, None, 7]
    assert outputs[0] == outputs[1] == outputs[2]
    for extra in ([], ["--csv", csv_path]):
        argv = ["evolve", "--schedule", sched, "--steps", "50", "--checkpoints", "0", *extra]
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "checkpoint stride must be >= 1, got 0"}
    assert len(strides) == 3


def one_sample(**fields):
    entry = {"t": 0.0, "eta_plus": [0, 0], "eta_c": [1, 0], "eta_minus": [0, 0]}
    return dict(entry, **fields)


# (schedule file, the exact error it gets); the cases run with --steps 4
SCHEDULE_ERRORS = [
    (
        {"format": 2, "algebra": "su11", "t_final": 1.0, "samples": []},
        'schedule "format" must be the number 1',
    ),
    (
        {"format": 1, "algebra": "su11", "t_final": 1.0},
        'schedule needs exactly one of "preset" or "samples"',
    ),
    (
        dict(oscillator_with({"type": "constant", "omega": 1.0}), samples=[]),
        'schedule needs exactly one of "preset" or "samples"',
    ),
    (oscillator_with({"type": "sawtooth"}), "unknown omega_profile type 'sawtooth'"),
    (
        dict(oscillator_with({"type": "constant", "omega": 1.0}), algebra="su2"),
        'the oscillator preset requires algebra "su11"',
    ),
    (
        {"format": 1, "algebra": "su11", "t_final": 1.0,
         "samples": [one_sample(t=0.5), one_sample(t=0.25)]},
        '"samples" times must be strictly increasing',
    ),
    (
        {"format": 1, "algebra": "su11", "t_final": 1.0,
         "samples": [one_sample(t=0.0), one_sample(t=4.0)]},
        '"t_final" must not precede the last sample time',
    ),
    (oscillator_with({"type": "constant", "omega": -2.0}), "omega(0.25) = -2.0 is not positive"),
    (
        oscillator_with({"type": "table", "points": [[0, 1.2], [math.inf, 1]]}),
        "omega_profile point 2 must be finite",
    ),
    (
        oscillator_with({"type": "table", "points": [[-math.inf, 1.2], [1, 1]]}),
        "omega_profile point 1 must be finite",
    ),
    (
        oscillator_with({"type": "table", "points": [[0, 1.2], [math.nan, 1]]}),
        "omega_profile point 2 must be finite",
    ),
    (
        oscillator_with({"type": "table", "points": [[0, 1.2], [1, HUGE]]}),
        "omega_profile point 2 must be finite",
    ),
    (
        oscillator_with({"type": "table", "points": [[0, 1.2], [1, "fast"]]}),
        "omega_profile point 2 must be a [t, omega] pair",
    ),
    (
        oscillator_with({"type": "constant", "omega": 1.0}, t_final=HUGE),
        'schedule: "t_final" must be a finite number',
    ),
    (
        {"format": 1, "algebra": "su2", "t_final": 1.0, "samples": [one_sample(eta_c=[1, -HUGE])]},
        'sample 1: "eta_c" must be finite',
    ),
]


# (element file, the exact error it gets)
ELEMENT_ERRORS = [
    ([], "element file must hold a nonempty JSON list"),
    (
        [{"Lambda_plus": [0, 0], "log_c": [0, 0], "Lambda_minus": [0, 0]}, 3],
        "element 2 must be an object",
    ),
    ([{"Lambda_plus": [0.1, 0], "Lambda_minus": [0, 0]}], 'element 1 needs "log_c" or "Lambda_c"'),
    (
        [{"Lambda_plus": [0.1, 0], "Lambda_c": [0, 0], "Lambda_minus": [0, 0]}],
        'element 1: "Lambda_c" must be nonzero',
    ),
    (
        [{"Lambda_plus": [0.1], "Lambda_c": [1, 0], "Lambda_minus": [0, 0]}],
        'element 1: "Lambda_plus" must be a [re, im] pair',
    ),
    (
        [{"Lambda_plus": [0.1, 0], "Lambda_c": [1, 0], "Lambda_minus": [0, True]}],
        'element 1: "Lambda_minus" must be a [re, im] pair',
    ),
    ([{"Lambda_plus": [0.1, 0]}], 'element 1: "Lambda_minus" must be a [re, im] pair'),
    ([entry([HUGE, 0], ZERO, ZERO)], 'element 1: "Lambda_plus" must be finite'),
    ([entry([0.1, 0], [0, -HUGE], ZERO)], 'element 1: "log_c" must be finite'),
]


@pytest.mark.parametrize(
    "command, content, message",
    [("evolve", payload, message) for payload, message in SCHEDULE_ERRORS]
    + [("compose", payload, message) for payload, message in ELEMENT_ERRORS],
)
def test_input_error_bodies(tmp_path, capsys, command, content, message):
    path = write_schedule(tmp_path, content, name="input.json")
    if command == "evolve":
        code, out = run_cli(capsys, "evolve", "--schedule", path, "--steps", "4")
    else:
        code, out = run_cli(capsys, "compose", "--algebra", "su11", path)
    assert code == 2
    assert json.loads(out) == {"error": message}


# 100,000 nested lists: deeper than the JSON parser goes (Python 3.13 on Linux allows 10,000
# C-level calls), and json.dumps cannot write them either
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param("compose", TOO_DEEP, id="compose"),
        pytest.param(
            "evolve", '{"format": 1, "algebra": "su11", "t_final": 1.0, "samples": ' + TOO_DEEP + "}", id="evolve"
        ),
    ],
)
def test_a_file_nested_too_deep_for_the_parser_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    if command == "evolve":
        code, out = run_cli(capsys, "evolve", "--schedule", str(path), "--steps", "4")
    else:
        code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
    assert code == 2
    body = json.loads(out)
    assert list(body) == ["error"] and body["error"].startswith("maximum recursion depth exceeded"), body


def test_schedule_format_is_the_number_one(tmp_path, capsys):
    # JSON has one number type, so 1.0 is the number 1; true is no number, though True == 1
    schedule = oscillator_with({"type": "constant", "omega": 1.0})
    assert load_schedule(write_schedule(tmp_path, dict(schedule, format=1.0))).t_final == 1.0
    path = write_schedule(tmp_path, dict(schedule, format=True))
    code, out = run_cli(capsys, "evolve", "--schedule", path, "--steps", "4")
    assert (code, json.loads(out)) == (2, {"error": 'schedule "format" must be the number 1'})


def test_schedule_interpolation_values(tmp_path):
    table = load_schedule(write_schedule(
        tmp_path, oscillator_with({"type": "table", "points": [[1.0, 1.0], [2.0, 2.0], [4.0, 1.5]]}, 5.0),
        name="table.json",
    ))

    def oscillator_eta(omega):  # omega0 = 1
        coupling = complex((omega * omega - 1.0) / 2.0)
        return (coupling, complex(omega * omega + 1.0), coupling)

    # before the first knot, at knots, between knots, after the last knot
    for t, omega in ((0.5, 1.0), (1.0, 1.0), (1.5, 1.5), (2.0, 2.0), (3.0, 1.75), (4.0, 1.5), (5.0, 1.5)):
        assert table.eta(t) == oscillator_eta(omega), t

    knots = [
        (1.0, (0.5, 1.0 + 0.25j, -1j)),
        (3.0, (1.5 + 1j, 2.0 + 0.25j, 1.0)),
        (5.0, (0.5, 0.0, 2.0 - 1j)),
    ]
    samples = load_schedule(write_schedule(
        tmp_path,
        {
            "format": 1, "algebra": "su2", "t_final": 6.0,
            "samples": [
                {"t": t, "eta_plus": pair(p), "eta_c": pair(c), "eta_minus": pair(m)}
                for t, (p, c, m) in knots
            ],
        },
        name="samples.json",
    ))
    expected = [
        (0.0, knots[0][1]),
        (1.0, knots[0][1]),
        (2.0, (1.0 + 0.5j, 1.5 + 0.25j, 0.5 - 0.5j)),
        (3.0, knots[1][1]),
        (4.0, (1.0 + 0.5j, 1.0 + 0.125j, 1.5 - 0.5j)),
        (5.0, knots[2][1]),
        (6.0, knots[2][1]),
    ]
    for t, eta in expected:
        assert samples.eta(t) == tuple(complex(v) for v in eta), t


def frozen_samples_eta(times, triples, t):
    """The samples schedule's eta as first written, blending through tuple(); a fixed reference."""
    if t <= times[0]:
        return triples[0]
    if t >= times[-1]:
        return triples[-1]
    i = bisect.bisect_right(times, t) - 1
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return tuple(x + (y - x) * frac for x, y in zip(triples[i], triples[i + 1]))


def test_samples_eta_is_bit_for_bit_the_first_blend(tmp_path):
    rng = random.Random(101)
    times = [0, *itertools.accumulate(rng.uniform(0.1, 2.0) for _ in range(11))]  # an int first knot
    knots = [[[rng.uniform(-3, 3) for _ in range(2)] for _ in range(3)] for _ in times]
    knots[1] = [[1, -2], [0, 3], [-1, 0]]  # integer components
    path = write_schedule(
        tmp_path,
        {
            "format": 1, "algebra": "su2", "t_final": times[-1] + 1.0,
            "samples": [
                {"t": t, "eta_plus": p, "eta_c": c, "eta_minus": m} for t, (p, c, m) in zip(times, knots)
            ],
        },
    )
    schedule = load_schedule(path)
    triples = [tuple(complex(*v) for v in knot) for knot in knots]
    between = [rng.uniform(-1.0, times[-1] + 1.0) for _ in range(200)]
    for t in [*times, *between, *map(Float, between[:20])]:
        got = schedule.eta(t)
        assert [complex_bits(z) for z in got] == [complex_bits(z) for z in frozen_samples_eta(times, triples, t)], t


def test_evolve_rejects_bad_steps(tmp_path, capsys):
    sched = constant_oscillator(tmp_path)
    for steps, message in (("0", "--steps must be >= 1, got 0"), (str(HUGE), "--steps is too large")):
        code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", steps)
        assert code == 2
        assert json.loads(out) == {"error": message}


# ---------------------------------------------------------------------------
# element files: entries of finite float pairs against every other entry

FILE_LENGTH = 2000
ODD_POSITIONS = {"first": 0, "middle": FILE_LENGTH // 2, "last": FILE_LENGTH - 1}


@functools.lru_cache(maxsize=None)
def float_entries(algebra):
    """FILE_LENGTH element file entries with "log_c" and float pairs only."""
    rng = random.Random(211)
    return tuple(element_entry(random_element(rng, algebra, 0.4)) for _ in range(FILE_LENGTH))


def with_odd_entry(algebra, make_odd, position):
    entries = list(float_entries(algebra))
    if position is not None:
        index = ODD_POSITIONS[position]
        entries[index] = make_odd(dict(entries[index]))
    return entries


# valid entries that are not three pairs of floats under the "log_c" names
VALID_ODD = {
    "integer-parts": lambda e: dict(e, Lambda_plus=[0, 1], log_c=[0, 0]),
    "Lambda_c": lambda e: {
        "Lambda_plus": e["Lambda_plus"], "Lambda_c": [1.1, -0.2], "Lambda_minus": e["Lambda_minus"]
    },
    "log_c-and-Lambda_c": lambda e: dict(e, Lambda_c=[7.0, 3.0]),
    "extra-keys": lambda e: dict(e, note="not read", phase=[1.0, 2.0]),
}


def mixed_entries(algebra):
    """float_entries with a "Lambda_c" entry every 7th (k % 7 == 3) and an integer-parts
    entry every 11th (k % 11 == 5, where no "Lambda_c" entry is): a long file of every kind."""
    entries = list(float_entries(algebra))
    for k, entry in enumerate(entries):
        if k % 7 == 3:
            entries[k] = VALID_ODD["Lambda_c"](entry)
        elif k % 11 == 5:
            entries[k] = VALID_ODD["integer-parts"](entry)
    return entries


# invalid entries and the error each gets; {pos} is the entry's 1-based position
INVALID_ODD = {
    "true-in-pair": (
        lambda e: dict(e, Lambda_minus=[True, 0.0]),
        'element {pos}: "Lambda_minus" must be a [re, im] pair',
    ),
    "three-item-pair": (
        lambda e: dict(e, log_c=[0.1, 0.2, 0.3]),
        'element {pos}: "log_c" must be a [re, im] pair',
    ),
    "Infinity": (
        lambda e: dict(e, Lambda_plus=[-math.inf, 0.0]),
        'element {pos}: "Lambda_plus" must be finite',
    ),
    "NaN": (lambda e: dict(e, log_c=[0.0, math.nan]), 'element {pos}: "log_c" must be finite'),
    "401-digit-integer": (
        lambda e: dict(e, Lambda_minus=[0.0, HUGE]),
        'element {pos}: "Lambda_minus" must be finite',
    ),
    "non-object": (lambda e: [e["Lambda_plus"], e["log_c"]], "element {pos} must be an object"),
}


@pytest.mark.parametrize(
    "odd, position",
    [("none", None), ("mixed", None)]
    + [(odd, position) for odd in sorted(VALID_ODD) for position in ODD_POSITIONS],
)
@pytest.mark.parametrize("algebra", list(AlgebraKind), ids=lambda a: a.value)
def test_compose_file_prints_the_library_fold(tmp_path, capsys, algebra, odd, position):
    if odd == "mixed":
        entries = mixed_entries(algebra)
    else:
        entries = with_odd_entry(algebra, VALID_ODD.get(odd), position)
    path = tmp_path / "elements.json"
    path.write_text(json.dumps(entries))
    code, out = run_cli(capsys, "compose", "--algebra", algebra.value, "--continued-fraction", str(path))
    assert (code, out) == (0, _render(compose_fields(algebra, entries, True)) + "\n")


@pytest.mark.parametrize("position", sorted(ODD_POSITIONS))
@pytest.mark.parametrize("odd", sorted(INVALID_ODD))
def test_compose_file_rejects_odd_entry_by_position(tmp_path, capsys, odd, position):
    make_odd, message = INVALID_ODD[odd]
    entries = with_odd_entry(AlgebraKind.SU11, make_odd, position)
    path = tmp_path / "elements.json"
    path.write_text(json.dumps(entries))
    if odd in ("Infinity", "NaN"):
        assert odd in path.read_text()
    code, out = run_cli(capsys, "compose", "--algebra", "su11", "--continued-fraction", str(path))
    assert code == 2
    assert json.loads(out) == {"error": message.format(pos=ODD_POSITIONS[position] + 1)}


def test_compose_validates_every_entry_before_folding(tmp_path, capsys):
    # elements 1 and 2 have a zero composition denominator; element 3 is malformed
    singular = [
        {"Lambda_plus": [1.0, 0.0], "log_c": [0.0, 0.0], "Lambda_minus": [0.0, 0.0]},
        {"Lambda_plus": [0.0, 0.0], "log_c": [0.0, 0.0], "Lambda_minus": [1.0, 0.0]},
    ]
    path = tmp_path / "elements.json"
    path.write_text(json.dumps(singular))
    code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
    assert code == 3 and json.loads(out)["step"] == 2
    path.write_text(json.dumps(singular + [{"Lambda_plus": [0.1], "log_c": [0, 0], "Lambda_minus": [0, 0]}]))
    code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
    assert code == 2
    assert json.loads(out) == {"error": 'element 3: "Lambda_plus" must be a [re, im] pair'}


# ---------------------------------------------------------------------------
# python -m entry points

@pytest.mark.parametrize("module", ["bchkit", "bchkit.cli"])
def test_python_dash_m_prints_what_main_prints(module, capsys):
    argv = ["disentangle", "--algebra", "su11", "--lambda", "0.2,0.1", "0.1,0", "0.3,-0.2"]
    code, expected = run_cli(capsys, *argv)
    assert code == 0 and expected.strip()
    src = os.path.dirname(os.path.dirname(os.path.abspath(bchkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


# ---------------------------------------------------------------------------
# a numpy-free start

def run_python(*args):
    """Run a fresh interpreter that imports bchkit from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bchkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


# Blocks numpy before bchkit.cli is imported: ``import numpy`` then raises.  After the
# command, the matrix oracle checks a disentangling on every algebra, still without numpy.
WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from bchkit.cli import main
code = main(sys.argv[1:])
from bchkit import AlgebraKind, ExponentParams, disentangle, element_matrix, exponent_matrix
lam = ExponentParams(0.3 - 0.2j, 0.5 + 0.1j, -0.4 + 0.3j)
for kind in AlgebraKind:
    gap = abs(element_matrix(disentangle(kind, lam).element) - exponent_matrix(kind, lam)).max()
    assert gap <= 1e-12, (kind, gap)
sys.exit(code)
"""


def test_every_subcommand_runs_without_numpy(tmp_path, capsys):
    entry = {"Lambda_plus": [0.1, 0.2], "Lambda_c": [1.1, 0], "Lambda_minus": [-0.3, 0]}
    elements = tmp_path / "elements.json"
    elements.write_text(json.dumps([entry, entry, entry]))
    cases = [
        ["disentangle", "--algebra", "su2", "--lambda", "-0.3,0.1", "0.5,0", "-0.2,-0.4"],
        ["compose", "--algebra", "su11", "--continued-fraction", str(elements)],
        ["squeeze-compose", "--z1", "0.7,0.3", "--z2", "0.5,-1.1"],
        ["evolve", "--schedule", constant_oscillator(tmp_path), "--steps", "64"],
    ]
    for argv in cases:
        code, expected = run_cli(capsys, *argv)
        assert code == 0
        proc = run_python("-c", WITHOUT_NUMPY, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


LAZY_ORACLE = """\
import sys
import bchkit
assert "numpy" not in sys.modules, "import bchkit loaded numpy"
import bchkit.cli
for module in ("numpy", "dataclasses", "inspect", "bchkit.squeeze"):
    assert module not in sys.modules, f"import bchkit.cli loaded {module}"
for name in bchkit.__all__:
    getattr(bchkit, name)
assert bchkit.element_matrix is bchkit.oracle.element_matrix
assert bchkit.SqueezeParams is bchkit.squeeze.SqueezeParams
bchkit.element_matrix(bchkit.identity_element(bchkit.AlgebraKind.SU11))
for module in ("numpy", "dataclasses"):
    assert module not in sys.modules, f"the oracle loaded {module}"
"""


def test_import_bchkit_leaves_numpy_unloaded_until_the_oracle_is_used():
    proc = run_python("-c", LAZY_ORACLE)
    assert proc.returncode == 0, proc.stderr


def test_import_bchkit_cli_leaves_typing_unloaded():
    # -S: a site hook may load typing before any user code runs, and then this check
    # could not see what bchkit imports
    proc = run_python("-S", "-c", "import sys, bchkit.cli; assert 'typing' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_the_package_lists_only_its_lazy_names_and_reexports_the_rest():
    eager = {name: importlib.import_module(f"bchkit.{name}") for name in ("algebra", "compose", "errors", "evolve")}
    lazy = {name: importlib.import_module(f"bchkit.{name}") for name in ("oracle", "squeeze")}
    assert bchkit._LAZY == {name: module for module in lazy for name in lazy[module].__all__}
    assert len(bchkit.__all__) == len(set(bchkit.__all__))
    listed = [(name, module) for module in eager.values() for name in module.__all__]
    assert sorted(bchkit.__all__) == sorted([name for name, _ in listed] + [*bchkit._LAZY, "__version__"])
    for name, module in listed:
        assert getattr(bchkit, name) is getattr(module, name), name
