"""Mutant table: small faults planted in the kernels, each of which some test must catch.

Run from anywhere, with no argument or with the indices of the rows to run:

    python tests/mutants.py [index ...]

Each row names a file under ``src/``, the exact text to replace (it must occur
once), the text to put there, what that breaks, and the test files that must
catch it.  For each row the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, plants the fault in the copy and
runs ``pytest -x`` there on the row's test files, reporting the first test
that fails; a row whose tests still pass has survived.  At most two copies
run at once.  The exit status is 0 only if every row is killed.  The runner
uses the standard library only, and the name has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPOSE = "src/bchkit/compose.py"
SQUEEZE = "src/bchkit/squeeze.py"
ORACLE = "src/bchkit/oracle.py"
EVOLVE = "src/bchkit/evolve.py"
ALGEBRA = "src/bchkit/algebra.py"
CLI = "src/bchkit/cli.py"

# (file, exact old text, new text, what it breaks, test files that must catch it)
MUTANTS = [
    (
        COMPOSE, "        if factor == 0:\n", "        if False:\n",
        "a power beyond double range that scales an exact-zero coordinate raises",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "exponent - cmath.log(d))", "exponent + cmath.log(d))",
        "a term taken by logs multiplies by d instead of dividing",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "    if max(abs(d.real), abs(d.imag)) < _D_EDGE:\n", "    if True:\n",
        "a term divides by a d past Smith's bound in doubles and comes back as 0",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE,
        "ef + ep - eq), math.ldexp(term.imag, ef + ep - eq)",
        "ef - ep - eq), math.ldexp(term.imag, ef - ep - eq)",
        "a scaled term is scaled back by the wrong power of two",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "        if not TOL_SINGULAR < a_d < _D_EDGE:\n", "        if not TOL_SINGULAR < a_d:\n",
        "a fold step whose |d| is past 2**1022 takes the plain division, which returns 0",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "two_over_delta * complex(log_d.real, _principal(log_d.imag))", "two_over_delta * log_d",
        "a d that is not finite appends a log off the principal branch to log_c",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "1.0 / p1 - delta_eps * m2", "1.0 / p1 + delta_eps * m2",
        "the reciprocal form of L+ divides by d/L1+ with the wrong sign",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "_W_CLEAR = 1e-10\n", "_W_CLEAR = 1e-20\n",
        "the disentangling's fast path takes a w within roundoff of 0 without its test",
        ["tests/test_compose.py", "tests/test_fold.py"],
    ),
    (
        COMPOSE, "_SERIES_NU_THRESHOLD = 1e-4\n", "_SERIES_NU_THRESHOLD = 1e-2\n",
        "the cosh and sinhc series is summed where its dropped terms reach a bit",
        ["tests/test_fold.py", "tests/test_compose.py"],
    ),
    (
        COMPOSE, "cmath.log(g) + 2.0 * half_c)", "cmath.log(g) - 2.0 * half_c)",
        "a triangular coordinate taken by logs is off by exp(4 half_c)",
        ["tests/test_compose.py", "tests/test_reference.py"],
    ),
    (
        COMPOSE, "beyond = abs(value) < tiny", "beyond = abs(value) < 0.0",
        "the continued fraction takes 1/value where it leaves double range",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "/ partial or _term(1.0, delta * log_c, partial))", "/ partial)",
        "the continued fraction divides by a partial denominator past Smith's bound in doubles",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE, "            beyond = True\n", "            beyond = False\n",
        "the continued fraction takes 1/value where the modulus of value overflows",
        ["tests/test_compose.py"],
    ),
    (
        SQUEEZE, "    rotation = max(\n", "    rotation = min(\n",
        "the factorization keeps the rotation whose leftover scalar is further from 1",
        ["tests/test_squeeze.py"],
    ),
    (
        SQUEEZE, "log_cosh_r = p.r - _LN2", "log_cosh_r = p.r + _LN2",
        "a squeeze past cosh range takes log cosh r = r + ln 2",
        ["tests/test_squeeze.py"],
    ),
    (
        SQUEEZE, "else _LN2 + y", "else _LN2 - y",
        "a squeeze whose sinh r is past 1e304 is read back with r = ln 2 - log cosh r",
        ["tests/test_squeeze.py"],
    ),
    (
        COMPOSE, "cmath.exp(-2.0 * nu) * (1.0 - 2.0 * nu_lo)", "cmath.exp(-2.0 * nu)",
        "exp(-2 nu) takes nu as rounded, off by a relative 2.2e-16 |nu|",
        ["tests/test_reference.py"],
    ),
    (
        COMPOSE, "root = cmath.sqrt(complex(math.fsum(real), math.fsum(imag)))", "root = nu",
        "nu is the root of the radicand formed in plain double, where its terms cancel",
        ["tests/test_reference.py"],
    ),
    (
        COMPOSE, "_principal(nu.imag) + nu_lo.imag", "nu.imag + nu_lo.imag",
        "log w keeps the rounding of a large |Im nu| where it wraps to near 0",
        ["tests/test_reference.py"],
    ),
    (
        COMPOSE, "TOL_SINGULAR * (a_m + a_t) + tol_w,", "TOL_SINGULAR * (a_m + a_t) + 1e9 * tol_w,",
        "beyond |nu| = 1 the guard refuses a clear w, far from roundoff of w = 0",
        ["tests/test_fold.py"],
    ),
    (
        EVOLVE, "shift = 0.5 * tau if midpoint", "shift = 0.25 * tau if midpoint",
        "midpoint samples are taken a quarter step early instead of half",
        ["tests/test_fold.py", "tests/test_evolve.py"],
    ),
    (
        EVOLVE, "islice(slices, stride), acc, done)", "islice(slices, stride), None, done)",
        "each checkpoint chunk folds from its own first slice, not from the product so far",
        ["tests/test_fold.py", "tests/test_evolve.py"],
    ),
    (
        EVOLVE, "acc = _fold(algebra, slices, acc, done)", "acc = _fold(algebra, slices, acc, 0)",
        "the last chunk numbers its steps from 1, so a singular step is misreported",
        ["tests/test_evolve.py"],
    ),
    (
        EVOLVE, "t_right = exc.step * tau", "t_right = (exc.step - 1) * tau",
        "a singular evolution reports the left end of its step as the time",
        ["tests/test_evolve.py"],
    ),
    (
        EVOLVE, "            step=exc.step,\n", "            step=exc.step - 1,\n",
        "a singular evolution reports the step before the one that broke",
        ["tests/test_evolve.py"],
    ),
    (
        ALGEBRA, "return x if x.__class__ is float else", "return x if isinstance(x, float) else",
        "a float subclass enters the package unconverted",
        ["tests/test_algebra.py", "tests/test_evolve.py"],
    ),
    (
        ALGEBRA, "            return cmath.exp(self.log_c)\n        except OverflowError:\n",
        "            return cmath.exp(self.log_c)\n        except ZeroDivisionError:\n",
        "a Cartan coordinate beyond double range leaks a bare OverflowError from big_c()",
        ["tests/test_algebra.py"],
    ),
    (
        CLI, "            EXIT_SINGULAR,\n", "            EXIT_INPUT,\n",
        "a singular result exits with the input-error code 2 instead of 3",
        ["tests/test_cli.py"],
    ),
    (
        COMPOSE,
        "            if not (isfinite(p) and isfinite(lc) and isfinite(m)):\n                raise",
        "            if False:\n                raise",
        "a fold step whose edge route leaves double range hands an infinite L+ to the next step",
        ["tests/test_compose.py"],
    ),
    (
        COMPOSE,
        "        if not isfinite(value):  # 1.0 / value is 0",
        "        if False:  # 1.0 / value is 0",
        "the continued fraction calls a value beyond double range a zero partial denominator",
        ["tests/test_compose.py"],
    ),
    (
        SQUEEZE, "        phi = _principal(phi)\n", "        phi = math.remainder(phi, math.tau)\n",
        "a squeeze phase is reduced by the double nearest 2 pi, off by 3.9e-17 |phi|",
        ["tests/test_squeeze.py"],
    ),
    (
        SQUEEZE, "_set_angle(self, math.pi if angle == -math.pi else angle)", "_set_angle(self, angle)",
        "a rotation angle of -pi is kept, outside (-pi, pi]",
        ["tests/test_squeeze.py"],
    ),
    (
        SQUEEZE, "_set_phi(self, math.pi if phi == -math.pi else phi)", "_set_phi(self, phi)",
        "a negative r with a tiny positive phase folds to -pi, outside (-pi, pi]",
        ["tests/test_squeeze.py"],
    ),
    (
        ORACLE, "if abs(s) < _SERIES_S_THRESHOLD:", "if abs(s) > _SERIES_S_THRESHOLD:",
        "the oracle's exponential sums the short series away from s = 0 and divides by s = 0",
        ["tests/test_oracle.py"],
    ),
]


def run(row) -> tuple:
    """('killed', first failing test), ('survived', '') or an error for one row, in a fresh copy of the tree."""
    path, old, new, _, tests = row
    with tempfile.TemporaryDirectory(prefix="bchkit-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"error: the old text occurs {text.count(old)} times", ""
        target.write_text(text.replace(old, new))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, capture_output=True, text=True,
        )
    failed = [line.split()[1] for line in result.stdout.splitlines() if line.startswith("FAILED ")]
    outcome = {0: "survived", 1: "killed"}.get(result.returncode, f"error: pytest exit {result.returncode}")
    return outcome, failed[0] if failed else ""


def main(argv) -> int:
    indices = [int(arg) for arg in argv] or range(len(MUTANTS))
    rows = [MUTANTS[i] for i in indices]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run, rows))
    for index, row, (outcome, failed) in zip(indices, rows, outcomes):
        print(f"{index:2d} {outcome:8s} {row[0]}: {row[3]}" + (f"\n   by {failed}" if failed else ""))
    killed = [outcome for outcome, _ in outcomes].count("killed")
    print(f"{killed} of {len(rows)} killed")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
