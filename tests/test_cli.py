import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    SqueezeParams,
    compose_squeezes,
    disentangle,
    element_matrix,
    exponent_matrix,
    factor_squeeze_rotation,
)
import bchkit
from bchkit.cli import load_schedule, main

# json.dumps writes this as a 401-digit integer, far beyond double range
HUGE = int("9" * 401)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def as_complex(value):
    return complex(value[0], value[1])


# ---------------------------------------------------------------------------
# disentangle

def test_disentangle_identity_output(capsys):
    code, out = run_cli(capsys, "disentangle", "--algebra", "su11", "--lambda", "0,0", "0,0", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["Lambda_plus", "Lambda_c", "log_c", "nu", "Lambda_minus"]
    assert as_complex(payload["Lambda_plus"]) == 0
    assert as_complex(payload["Lambda_c"]) == 1
    assert as_complex(payload["nu"]) == 0


def test_disentangle_cartan_output(capsys):
    code, out = run_cli(capsys, "disentangle", "--algebra", "su2", "--lambda", "0,0", "0.5,0", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert as_complex(payload["Lambda_c"]) == pytest.approx(math.exp(0.5))


def test_disentangle_matches_library_bitwise(capsys):
    rng = np.random.default_rng(97)
    parts = rng.uniform(-0.5, 0.5, 6)
    lam = ExponentParams(
        complex(parts[0], parts[1]), complex(parts[2], parts[3]), complex(parts[4], parts[5])
    )
    args = [f"{v.real!r},{v.imag!r}" for v in (lam.lambda_plus, lam.lambda_c, lam.lambda_minus)]
    code, out = run_cli(capsys, "disentangle", "--algebra", "so21", "--lambda", *args)
    assert code == 0
    payload = json.loads(out)
    expected = disentangle(AlgebraKind.SO21, lam)
    assert as_complex(payload["Lambda_plus"]) == expected.element.big_plus
    assert as_complex(payload["log_c"]) == expected.element.log_c
    assert as_complex(payload["Lambda_minus"]) == expected.element.big_minus
    assert as_complex(payload["nu"]) == expected.nu


def test_disentangle_accepts_negative_pairs(capsys):
    code, out = run_cli(
        capsys, "disentangle", "--algebra", "su2", "--lambda", "-0.3,0.1", "0.5,0", "-0.2,-0.4"
    )
    assert code == 0
    assert json.loads(out)["Lambda_plus"][0] != 0


def test_disentangle_output_is_deterministic(capsys):
    argv = ("disentangle", "--algebra", "su11", "--lambda", "0.1,0.2", "-0.4,0", "0.3,0.3")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_disentangle_overflow_exits_2(capsys):
    code, out = run_cli(capsys, "disentangle", "--algebra", "su11", "--lambda", "800,0", "0,0", "-800,0")
    assert code == 2
    assert json.loads(out) == {"error": "math range error"}


def test_disentangle_singular_exits_3(capsys):
    half_pi = repr(math.pi / 2)
    code, out = run_cli(
        capsys, "disentangle", "--algebra", "su11", "--lambda", f"{half_pi},0", "0,0", f"{half_pi},0"
    )
    assert code == 3
    payload = json.loads(out)
    assert "error" in payload
    assert payload["denominator_abs"] <= 1e-12


def test_bad_pair_syntax_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["disentangle", "--algebra", "su11", "--lambda", "0,0", "nope", "0,0"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# compose

def test_compose_single_element_echoes(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([
        {"Lambda_plus": [0.2, 0.1], "Lambda_c": [1.1, 0.0], "Lambda_minus": [-0.1, 0.05]}
    ]))
    code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
    assert code == 0
    payload = json.loads(out)
    assert as_complex(payload["alpha"]) == 0.2 + 0.1j
    assert as_complex(payload["beta"]) == pytest.approx(1.1)
    assert as_complex(payload["gamma"]) == -0.1 + 0.05j


def test_compose_identity_list(tmp_path, capsys):
    ident = {"Lambda_plus": [0, 0], "Lambda_c": [1, 0], "Lambda_minus": [0, 0]}
    path = tmp_path / "idents.json"
    path.write_text(json.dumps([ident, ident, ident]))
    code, out = run_cli(capsys, "compose", "--algebra", "su2", str(path))
    assert code == 0
    payload = json.loads(out)
    assert as_complex(payload["alpha"]) == 0
    assert as_complex(payload["beta"]) == 1
    assert as_complex(payload["gamma"]) == 0


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


def test_compose_continued_fraction_agreement(tmp_path, capsys):
    rng = np.random.default_rng(101)
    entries = []
    for _ in range(5):
        parts = rng.uniform(-0.5, 0.5, 6)
        lam = ExponentParams(
            complex(parts[0], parts[1]), complex(parts[2], parts[3]), complex(parts[4], parts[5])
        )
        g = disentangle(AlgebraKind.SU11, lam).element
        entries.append(
            {"Lambda_plus": pair(g.big_plus), "log_c": pair(g.log_c), "Lambda_minus": pair(g.big_minus)}
        )
    path = tmp_path / "five.json"
    path.write_text(json.dumps(entries))
    code, out = run_cli(capsys, "compose", "--algebra", "su11", "--continued-fraction", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_abs_difference"] <= 1e-10
    assert as_complex(payload["alpha_continued_fraction"]) == pytest.approx(as_complex(payload["alpha"]))


def test_compose_input_problems_exit_2(tmp_path, capsys):
    code, _ = run_cli(capsys, "compose", "--algebra", "su11", str(tmp_path / "absent.json"))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert run_cli(capsys, "compose", "--algebra", "su11", str(bad))[0] == 2

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run_cli(capsys, "compose", "--algebra", "su11", str(empty))[0] == 2

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"Lambda_plus": [0.1, 0]}]))
    assert run_cli(capsys, "compose", "--algebra", "su11", str(partial))[0] == 2

    huge = tmp_path / "huge.json"
    for key, value in (("Lambda_plus", [HUGE, 0]), ("log_c", [0, -HUGE])):
        entry = {"Lambda_plus": [0.1, 0], "log_c": [0, 0], "Lambda_minus": [0, 0], key: value}
        huge.write_text(json.dumps([entry]))
        code, out = run_cli(capsys, "compose", "--algebra", "su11", str(huge))
        assert code == 2
        assert json.loads(out) == {"error": f'element 1: "{key}" must be finite'}


def test_compose_singular_exits_3(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps([
        {"Lambda_plus": [1.0, 0], "Lambda_c": [1.0, 0], "Lambda_minus": [0, 0]},
        {"Lambda_plus": [0, 0], "Lambda_c": [1.0, 0], "Lambda_minus": [1.0, 0]},
    ]))
    code, out = run_cli(capsys, "compose", "--algebra", "su11", str(path))
    assert code == 3
    payload = json.loads(out)
    assert payload["step"] == 2
    assert payload["denominator_abs"] == 0


# ---------------------------------------------------------------------------
# squeeze-compose

def test_squeeze_compose_equal_phases(capsys):
    code, out = run_cli(capsys, "squeeze-compose", "--z1", "1.1,0.2", "--z2", "0.4,0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["factorization"]["r"] == pytest.approx(1.5)
    assert abs(payload["factorization"]["rotation_angle"]) <= 1e-12
    assert payload["recomposition_residual"] <= 1e-10


def test_squeeze_compose_trivial_first_factor(capsys):
    code, out = run_cli(capsys, "squeeze-compose", "--z1", "0,0", "--z2", "0.9,-0.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["factorization"]["r"] == pytest.approx(0.9)
    assert payload["factorization"]["phi"] == pytest.approx(-0.4)
    assert abs(payload["factorization"]["rotation_angle"]) <= 1e-12


def test_squeeze_compose_generic(capsys):
    code, out = run_cli(capsys, "squeeze-compose", "--z1", "0.7,0.3", "--z2", "0.5,-1.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["recomposition_residual"] <= 1e-10
    factored = factor_squeeze_rotation(compose_squeezes(SqueezeParams(0.5, -1.1), SqueezeParams(0.7, 0.3)))
    assert payload["recomposition_residual"] == factored.residual
    alpha, gamma = as_complex(payload["alpha"]), as_complex(payload["gamma"])
    assert abs(abs(alpha) - abs(gamma)) <= 1e-12


def test_squeeze_compose_rejects_negative_magnitude(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["squeeze-compose", "--z1", "-0.5,0", "--z2", "0.4,0"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# evolve

def write_schedule(tmp_path, payload, name="schedule.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def constant_oscillator(tmp_path, omega=1.3, t_final=3.0):
    return write_schedule(
        tmp_path,
        {
            "format": 1,
            "algebra": "su11",
            "t_final": t_final,
            "preset": {
                "name": "oscillator",
                "omega0": 1.0,
                "omega_profile": {"type": "constant", "omega": omega},
            },
        },
    )


def test_evolve_constant_is_step_count_independent(tmp_path, capsys):
    sched = constant_oscillator(tmp_path)
    code, out_one = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "1")
    assert code == 0
    code, out_many = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "100")
    assert code == 0
    one, many = json.loads(out_one), json.loads(out_many)
    for key in ("alpha", "beta", "gamma"):
        assert abs(as_complex(one[key]) - as_complex(many[key])) <= 1e-11
    assert one["steps"] == 1 and many["steps"] == 100


def test_evolve_su2_cartan_samples(tmp_path, capsys):
    omega, t_final = 0.9, 2.0
    sched = write_schedule(
        tmp_path,
        {
            "format": 1,
            "algebra": "su2",
            "t_final": t_final,
            "samples": [
                {"t": 0.0, "eta_plus": [0, 0], "eta_c": [omega, 0], "eta_minus": [0, 0]},
                {"t": 2.0, "eta_plus": [0, 0], "eta_c": [omega, 0], "eta_minus": [0, 0]},
            ],
        },
    )
    code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "64")
    assert code == 0
    payload = json.loads(out)
    assert as_complex(payload["beta"]) == pytest.approx(cmath.exp(-1j * omega * t_final), abs=1e-12)
    assert as_complex(payload["alpha"]) == 0


def test_evolve_jump_preset_matches_matrix_oracle(tmp_path, capsys):
    omega0, omega1 = 1.0, 2.3
    t_final = math.pi / (2 * omega1)
    sched = write_schedule(
        tmp_path,
        {
            "format": 1,
            "algebra": "su11",
            "t_final": t_final,
            "preset": {
                "name": "oscillator",
                "omega0": omega0,
                "omega_profile": {"type": "jump", "omega_before": omega0, "omega_after": omega1},
            },
        },
    )
    code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "16")
    assert code == 0
    payload = json.loads(out)
    element = GroupElement(
        AlgebraKind.SU11,
        as_complex(payload["alpha"]),
        as_complex(payload["log_c"]),
        as_complex(payload["gamma"]),
    )
    coupling = (omega1**2 - omega0**2) / (2 * omega0)
    cartan = (omega1**2 + omega0**2) / omega0
    lam = ExponentParams(
        -1j * t_final * coupling, -1j * t_final * cartan, -1j * t_final * coupling
    )
    gap = np.max(np.abs(element_matrix(element) - exponent_matrix(AlgebraKind.SU11, lam)))
    assert gap <= 1e-10


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


def test_evolve_midpoint_flag(tmp_path, capsys):
    sched = write_schedule(
        tmp_path,
        {
            "format": 1,
            "algebra": "su11",
            "t_final": 2.0,
            "preset": {
                "name": "oscillator",
                "omega0": 1.0,
                "omega_profile": {
                    "type": "table",
                    "points": [[0.0, 1.0], [1.0, 1.2], [2.0, 0.9]],
                },
            },
        },
    )
    code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "32", "--midpoint")
    assert code == 0
    assert "alpha" in json.loads(out)


def oscillator_with(profile, t_final=1.0):
    return {
        "format": 1, "algebra": "su11", "t_final": t_final,
        "preset": {"name": "oscillator", "omega0": 1.0, "omega_profile": profile},
    }


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


def test_evolve_schema_violations_exit_2(tmp_path, capsys):
    for index, (payload, _) in enumerate(SCHEDULE_ERRORS):
        sched = write_schedule(tmp_path, payload, name=f"case{index}.json")
        code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "4")
        assert code == 2, f"case {index} should be rejected"
        assert "error" in json.loads(out)


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


def test_evolve_rejects_bad_steps(tmp_path, capsys):
    sched = constant_oscillator(tmp_path)
    code, out = run_cli(capsys, "evolve", "--schedule", sched, "--steps", "0")
    assert code == 2
    assert "error" in json.loads(out)


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


# Blocks numpy before bchkit.cli is imported: ``import numpy`` then raises.
WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from bchkit.cli import main
sys.exit(main(sys.argv[1:]))
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
assert "numpy" not in sys.modules, "import bchkit.cli loaded numpy"
for name in bchkit.__all__:
    getattr(bchkit, name)
assert bchkit.element_matrix is bchkit.oracle.element_matrix
"""


def test_import_bchkit_leaves_numpy_unloaded_until_the_oracle_is_used():
    proc = run_python("-c", LAZY_ORACLE)
    assert proc.returncode == 0, proc.stderr
