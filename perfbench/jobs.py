"""Run, trace and check the jobs of each workload.

Each workload class has four entry points:

* ``run(job)``: the untraced work whose time is the job latency;
* ``run_traced(job, tracer)``: the same work with a span around every public
  bchkit call, inside a ``job`` span, plus probes outside it for layers the
  job calls only indirectly;
* ``check(job, out)``: raises ``CheckFailed`` on a wrong, empty or
  unexpected output and otherwise returns the job's accuracy gap (any other
  exception it raises also counts the job as failed);
* ``layer_metrics(tracer)``: the per-layer numbers this workload is home to.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import inputs as inp
from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    SingularDecomposition,
    SqueezeParams,
    alpha_continued_fraction,
    compose_many,
    compose_pair,
    compose_squeezes,
    default_checkpoint_stride,
    disentangle,
    element_matrix,
    evolve,
    exponent_matrix,
    factor_squeeze_rotation,
    generators_for,
    identity_element,
    mat_exp,
    squeeze_element,
    step_element,
)
from bchkit.cli import load_schedule

GAP_TOL = 1e-10  # the acceptance gates' tolerance for every oracle and fold gap
TIME_TOL = 1e-12


class CheckFailed(Exception):
    """A job's output was wrong, empty or an unexpected exception."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _unexpected(out) -> None:
    if isinstance(out, CheckFailed):
        raise out
    if isinstance(out, BaseException):
        raise CheckFailed(f"unexpected {type(out).__name__}: {out}")


def _bits(g: GroupElement) -> tuple:
    return tuple(
        float.hex(part)
        for z in (g.big_plus, g.log_c, g.big_minus, g.phase)
        for part in (z.real, z.imag)
    )


def _matrix_gap(a, b) -> float:
    return float(abs(a - b).max())


def _oracle_gap(closed, reference) -> float:
    """Entrywise gap relative to the reference's size (at least 1).

    Roundoff in a 2x2 product grows with its entries; squeezes up to r = 3
    reach entries of a few hundred, where an absolute 1e-10 would test the
    magnitude rather than the identity.
    """
    return _matrix_gap(closed, reference) / max(1.0, float(abs(reference).max()))


# ---------------------------------------------------------------------------
# evolve-drive

class EvolveDrive:
    """Stream of evolve() jobs; the traced run replays each from public pieces."""

    def __init__(self):
        import numpy as np  # checks only; kept out of inputs.build()

        self._sigma3 = np.diag([1.0, -1.0]).astype(complex)
        self._eye = np.eye(2, dtype=complex)

    def run(self, job):
        spec = job.spec
        return evolve(spec["schedule"], spec["steps"], checkpoint_every=spec["checkpoint_every"])

    def check(self, job, out) -> float:
        spec = job.spec
        singular = spec["singular_step"]
        if singular is not None:
            _require(isinstance(out, SingularDecomposition), f"expected a singular step, got {out!r}")
            _require(out.step == singular, f"singular at step {out.step}, expected {singular}")
            _require(
                out.time is not None and abs(out.time - math.pi / 2) <= TIME_TOL,
                f"singular at t = {out.time}, expected pi/2",
            )
            return 0.0
        _unexpected(out)
        result = out
        _require(result.steps == spec["steps"], "wrong step count")
        matrix = element_matrix(result.element)
        if spec["family"] == "su2-hermitian":
            gap = _matrix_gap(matrix.conj().T @ matrix, self._eye)
        else:
            # su(1,1) and the su(1,1)-embedded so(2,1) drive preserve sigma_3
            magnitude = max(1.0, float(abs(matrix).max()) ** 2)
            gap = _matrix_gap(matrix.conj().T @ self._sigma3 @ matrix, self._sigma3) / magnitude
        if spec["constant"]:
            # constant H: one exact slice and N slices are the same group element
            gap = max(gap, _oracle_gap(matrix, element_matrix(evolve(spec["schedule"], 1).element)))
        stride = spec["checkpoint_every"]
        if stride is not None:
            trajectory = result.trajectory
            steps = spec["steps"]
            rows = 1 + sum(1 for j in range(1, steps + 1) if j % stride == 0 or j == steps)
            _require(trajectory is not None and len(trajectory) == rows, "wrong checkpoint count")
            _require(trajectory[0] == (0.0, identity_element(result.element.algebra)), "bad first checkpoint")
            _require(trajectory[-1][1] == result.element, "last checkpoint differs from the result")
        _require(gap <= GAP_TOL, f"accuracy gap {gap:.3e} exceeds {GAP_TOL:.0e}")
        return gap

    def _replay(self, schedule, steps, tracer):
        """evolve() rebuilt from schedule.eta, step_element and compose_pair."""
        algebra, tau, call = schedule.algebra, schedule.t_final / steps, tracer.call
        acc = None
        for j in range(1, steps + 1):
            try:
                eta_j = call("evolve.eta", schedule.eta, j * tau)
                g = call("evolve.step_element", step_element, algebra, eta_j, tau)
                acc = g if acc is None else call("compose.compose_pair", compose_pair, g, acc)
            except SingularDecomposition:
                return ("singular", j)
        return acc

    def run_traced(self, job, tracer):
        spec = job.spec
        schedule, steps = spec["schedule"], spec["steps"]
        tracer.begin("job")
        replayed = self._replay(schedule, steps, tracer)
        tracer.end(items=job.items)

        tracer.begin("evolve.evolve")
        try:
            out = self.run(job)
        except SingularDecomposition as exc:
            out = exc
        tracer.end(items=job.items)
        if isinstance(out, SingularDecomposition):
            _require(replayed == ("singular", out.step), f"replay broke at {replayed}, evolve at {out.step}")
        else:
            _require(
                isinstance(replayed, GroupElement) and _bits(replayed) == _bits(out.element),
                "replay is not bit-identical to evolve()",
            )

        # disentangle on the slices this job takes, classified by the returned nu
        algebra, tau = schedule.algebra, schedule.t_final / steps
        last = replayed if isinstance(replayed, GroupElement) else identity_element(algebra)
        limit = steps if spec["singular_step"] is None else spec["singular_step"] - 1
        for j in range(1, limit + 1, max(1, limit // 64)):
            eta_plus, eta_c, eta_minus = (complex(v) for v in schedule.eta(j * tau))
            lam = ExponentParams(-1j * tau * eta_plus, -1j * tau * eta_c, -1j * tau * eta_minus)
            tracer.begin("compose.disentangle")
            result = disentangle(algebra, lam)
            series = abs(result.nu) < inp.SERIES_NU_THRESHOLD
            tracer.end("compose.disentangle.series" if series else "compose.disentangle.closed")
            tracer.begin("algebra.group_element")
            GroupElement(algebra, last.big_plus, last.log_c, last.big_minus, last.phase)
            tracer.end()
        return out

    def layer_metrics(self, tracer) -> dict:
        closed = tracer.calls("compose.disentangle.closed")
        series = tracer.calls("compose.disentangle.series")
        per_step = tracer.self_us_per_item("evolve.evolve")
        eta = tracer.self_us_per_item("evolve.eta")
        step = tracer.self_us_per_item("evolve.step_element")
        pair = tracer.self_us_per_item("compose.compose_pair")
        return {
            "compose.disentangle.closed_us": (tracer.self_us_per_item("compose.disentangle.closed"), "us"),
            "compose.disentangle.series_us": (tracer.self_us_per_item("compose.disentangle.series"), "us"),
            "compose.disentangle.series_share": (series / max(1, closed + series), "ratio"),
            "compose.disentangle.calls": (closed + series, "count"),
            "compose.compose_pair.us": (pair, "us"),
            "compose.compose_pair.calls": (tracer.calls("compose.compose_pair"), "count"),
            "algebra.group_element.us": (tracer.self_us_per_item("algebra.group_element"), "us"),
            "evolve.us_per_step": (per_step, "us"),
            "evolve.steps": (tracer.totals.get("evolve.evolve", [0, 0])[1], "count"),
            "evolve.eta_us": (eta, "us"),
            "evolve.step_element_us": (step, "us"),
            "evolve.loop_self_us_per_step": (per_step - eta - step - pair, "us"),
        }


# ---------------------------------------------------------------------------
# fold-chain

class FoldChain:
    """compose_many over prebuilt sequences, cross-checked by the continued fraction."""

    def run(self, job):
        elements = job.spec["elements"]
        return compose_many(elements).big_plus, alpha_continued_fraction(elements)

    def run_traced(self, job, tracer):
        elements = job.spec["elements"]
        tracer.begin("job")
        folded = tracer.call("compose.compose_many", compose_many, elements, items=job.items)
        alpha = tracer.call("compose.alpha_continued_fraction", alpha_continued_fraction, elements, items=job.items)
        tracer.end(items=job.items)
        return folded.big_plus, alpha

    def check(self, job, out) -> float:
        _unexpected(out)
        folded, alpha = out
        gap = abs(folded - alpha)
        _require(gap <= GAP_TOL, f"|alpha_fold - alpha_cf| = {gap:.3e} exceeds {GAP_TOL:.0e}")
        return gap

    def layer_metrics(self, tracer) -> dict:
        return {
            "compose.compose_many.us_per_element": (tracer.self_us_per_item("compose.compose_many"), "us"),
            "compose.compose_many.calls": (tracer.calls("compose.compose_many"), "count"),
            "compose.alpha_continued_fraction.us_per_element": (
                tracer.self_us_per_item("compose.alpha_continued_fraction"), "us"),
            "compose.alpha_continued_fraction.calls": (
                tracer.calls("compose.alpha_continued_fraction"), "count"),
        }


# ---------------------------------------------------------------------------
# oracle-verify

_ORACLE_SPANS = ("oracle.element_matrix", "oracle.exponent_matrix")


class OracleVerify:
    """The acceptance gates' checks: a closed form against the 2x2 matrix oracle."""

    @staticmethod
    def _plain(name, fn, *args):
        return fn(*args)

    def _work(self, job, call):
        spec = job.spec
        if job.kind == "disentangle":
            algebra, lam = spec["algebra"], spec["lam"]
            result = call("compose.disentangle", disentangle, algebra, lam)
            closed = call("oracle.element_matrix", element_matrix, result.element)
            return _oracle_gap(closed, call("oracle.exponent_matrix", exponent_matrix, algebra, lam))
        if job.kind == "compose_pair":
            g1, g2 = spec["g1"], spec["g2"]
            combined = call("compose.compose_pair", compose_pair, g2, g1)
            closed = call("oracle.element_matrix", element_matrix, combined)
            m2 = call("oracle.element_matrix", element_matrix, g2)
            m1 = call("oracle.element_matrix", element_matrix, g1)
            return _oracle_gap(closed, m2 @ m1)
        z1, z2 = spec["z1"], spec["z2"]
        product = call("squeeze.compose_squeezes", compose_squeezes, z2, z1)
        factored = call("squeeze.factor_squeeze_rotation", factor_squeeze_rotation, product)
        rebuilt = call("squeeze.recompose", factored.recompose)
        closed = call("oracle.element_matrix", element_matrix, rebuilt)
        m2 = call("oracle.element_matrix", element_matrix, squeeze_element(z2))
        m1 = call("oracle.element_matrix", element_matrix, squeeze_element(z1))
        return _oracle_gap(closed, m2 @ m1)

    def run(self, job):
        return self._work(job, self._plain)

    def run_traced(self, job, tracer):
        tracer.begin("job")
        gap = self._work(job, tracer.call)
        tracer.end()
        # the oracle's inner pieces, timed on this job's algebra and exponent
        spec = job.spec
        gens = tracer.call("oracle.generators_for", generators_for, spec.get("algebra", AlgebraKind.SU11))
        lam = spec.get("lam")
        if lam is not None:
            combined = lam.lambda_plus * gens.m_plus + lam.lambda_c * gens.m_c + lam.lambda_minus * gens.m_minus
            tracer.call("oracle.mat_exp", mat_exp, combined)
        return gap

    def check(self, job, out) -> float:
        _unexpected(out)
        _require(out <= GAP_TOL, f"oracle gap {out:.3e} exceeds {GAP_TOL:.0e}")
        return out

    def layer_metrics(self, tracer) -> dict:
        oracle_ns = sum(tracer.total_ns(name) for name in _ORACLE_SPANS)
        return {
            "oracle.element_matrix_us": (tracer.self_us_per_item("oracle.element_matrix"), "us"),
            "oracle.exponent_matrix_us": (tracer.self_us_per_item("oracle.exponent_matrix"), "us"),
            "oracle.generators_for_us": (tracer.self_us_per_item("oracle.generators_for"), "us"),
            "oracle.mat_exp_us": (tracer.self_us_per_item("oracle.mat_exp"), "us"),
            "oracle.share": (oracle_ns / max(1, tracer.total_ns("job")), "ratio"),
            "oracle.calls": (sum(tracer.calls(name) for name in _ORACLE_SPANS), "count"),
            "squeeze.compose_squeezes_us": (tracer.self_us_per_item("squeeze.compose_squeezes"), "us"),
            "squeeze.factor_squeeze_rotation_us": (
                tracer.self_us_per_item("squeeze.factor_squeeze_rotation"), "us"),
            "squeeze.recompose_us": (tracer.self_us_per_item("squeeze.recompose"), "us"),
        }


# ---------------------------------------------------------------------------
# cli-batch

CLI_BOOT = "import sys; from bchkit.cli import main; sys.exit(main())"
SUBCOMMANDS = ("disentangle", "compose", "squeeze-compose", "evolve")
EXIT_OK, EXIT_SINGULAR = 0, 3
STARTUP_REPS = 3  # fresh processes per start-up probe; the median is reported

_SINGULAR_COMPOSE = [
    {"Lambda_plus": [1.0, 0.0], "Lambda_c": [1.0, 0.0], "Lambda_minus": [0.0, 0.0]},
    {"Lambda_plus": [0.0, 0.0], "Lambda_c": [1.0, 0.0], "Lambda_minus": [1.0, 0.0]},
]


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _arg_pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _is_number(value) -> bool:
    # .17g renders 0.0 as "0", which JSON reads back as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value) -> complex:
    _require(
        isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value),
        f"not a [re, im] pair: {value!r}",
    )
    return complex(value[0], value[1])


def _same(payload, expected: dict) -> None:
    """Field order and every value equal to the library's, bit for bit."""
    _require(isinstance(payload, dict), f"not a JSON object: {payload!r}")
    _require(list(payload)[: len(expected)] == list(expected), f"fields {list(payload)}")
    for key, want in expected.items():
        got = payload[key]
        if isinstance(want, complex):
            got = _as_complex(got)
        _require(got == want, f"{key}: CLI {got!r} != library {want!r}")


class CliBatch:
    """Sequential CLI processes started through bchkit.cli.main with PYTHONPATH=src."""

    def __init__(self, inputs: inp.Inputs, work_dir: str, src_dir: str):
        self.inputs = inputs
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.argv: dict[int, list] = {}
        self.paths: dict[int, str] = {}
        self.refs: dict = {}
        self.probes_done = False
        self._write_inputs()

    # -- inputs -------------------------------------------------------------

    def _write(self, name: str, payload) -> str:
        path = os.path.join(self.work_dir, name)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(payload, fh)
        return path

    def _write_inputs(self) -> None:
        for r, jobs in enumerate(self.inputs.rounds):
            for job in jobs:
                self.argv[id(job)] = self._argv(job, f"r{r}s{job.slot}")

    def _argv(self, job, tag: str) -> list:
        spec, kind = job.spec, job.kind
        if kind == "disentangle":
            lam = spec["lam"]
            return ["disentangle", "--algebra", spec["algebra"].value, "--lambda",
                    *(_arg_pair(v) for v in (lam.lambda_plus, lam.lambda_c, lam.lambda_minus))]
        if kind == "squeeze-compose":
            (r1, p1), (r2, p2) = spec["z1"], spec["z2"]
            return ["squeeze-compose", "--z1", f"{r1!r},{p1!r}", "--z2", f"{r2!r},{p2!r}"]
        if kind in ("compose", "compose-long"):
            name = spec.get("file_id", tag)
            payload = [
                {"Lambda_plus": _pair(g.big_plus), "log_c": _pair(g.log_c), "Lambda_minus": _pair(g.big_minus)}
                for g in spec["elements"]
            ]
            path = self._write(f"{name}.elements.json", payload)
            flags = ["--continued-fraction"] if spec["continued_fraction"] else []
            return ["compose", "--algebra", spec["algebra"].value, *flags, path]
        if kind == "compose-singular":
            return ["compose", "--algebra", "su11", self._write("singular.elements.json", _SINGULAR_COMPOSE)]
        name = spec.get("file_id", tag)
        path = self._write(f"{name}.schedule.json", spec["schedule"])
        self.paths[id(job)] = path
        argv = ["evolve", "--schedule", path, "--steps", str(spec["steps"])]
        if spec.get("midpoint"):
            argv.append("--midpoint")
        if spec.get("csv"):
            argv += ["--csv", os.path.join(self.work_dir, f"{name}.csv")]
        return argv

    # -- work ---------------------------------------------------------------

    def run(self, job):
        return subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *self.argv[id(job)]],
            capture_output=True, text=True, env=self.env, timeout=150,
        )

    def run_traced(self, job, tracer):
        if not self.probes_done:
            self._startup_probes()
            self.probes_done = True
        out = tracer.call("job", self.run, job)
        # the same call in-process: no process start, no interpreter, no imports
        from bchkit.cli import main

        argv = self.argv[id(job)]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            tracer.call(f"cli.main.{argv[0]}", main, list(argv))
        _require(buffer.getvalue() == out.stdout, "in-process output differs from the process's")
        return out

    def _startup_probes(self) -> None:
        snippets = {
            "cli.interpreter": "pass",
            "cli.import": "import time; t = time.perf_counter(); import bchkit.cli; print(time.perf_counter() - t)",
            "cli.import_numpy": "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)",
        }
        self.startup = {}
        for name, code in snippets.items():
            samples = []
            for _ in range(STARTUP_REPS):
                start = time.perf_counter()
                done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                      env=self.env, timeout=60, check=True)
                elapsed = time.perf_counter() - start
                samples.append(float(done.stdout) if done.stdout.strip() else elapsed)
            samples.sort()
            self.startup[name] = samples[len(samples) // 2] * 1e3

    # -- checks -------------------------------------------------------------

    def _reference(self, job):
        key = job.spec.get("file_id") or id(job)
        if key not in self.refs:
            self.refs[key] = self._library(job)
        return self.refs[key]

    def _library(self, job):
        spec, kind = job.spec, job.kind
        if kind == "disentangle":
            result = disentangle(spec["algebra"], spec["lam"])
            g = result.element
            return {"Lambda_plus": g.big_plus, "Lambda_c": g.big_c(), "log_c": g.log_c,
                    "nu": result.nu, "Lambda_minus": g.big_minus}
        if kind == "squeeze-compose":
            product = compose_squeezes(SqueezeParams(*spec["z2"]), SqueezeParams(*spec["z1"]))
            factored = factor_squeeze_rotation(product)
            return ({"alpha": product.big_plus, "beta": product.big_c(), "gamma": product.big_minus},
                    {"r": factored.squeeze.r, "phi": factored.squeeze.phi,
                     "rotation_angle": factored.rotation.angle})
        if kind in ("compose", "compose-long"):
            elements = spec["elements"]
            combined = compose_many(elements)
            expected = {"alpha": combined.big_plus, "beta": combined.big_c(),
                        "gamma": combined.big_minus, "log_c": combined.log_c}
            if spec["continued_fraction"]:
                alpha = alpha_continued_fraction(elements)
                expected["alpha_continued_fraction"] = alpha
                expected["alpha_abs_difference"] = abs(alpha - combined.big_plus)
            return expected
        steps = spec["steps"]
        stride = default_checkpoint_stride(steps) if spec["csv"] else None
        result = evolve(load_schedule(self.paths[id(job)]), steps, checkpoint_every=stride,
                        midpoint=spec["midpoint"])
        g = result.element
        expected = {"alpha": g.big_plus, "beta": g.big_c(), "gamma": g.big_minus, "log_c": g.log_c,
                    "steps": result.steps, "tau": result.tau}
        return expected, result.trajectory

    def check(self, job, out) -> float:
        _unexpected(out)
        _require(out.stdout.strip() != "", f"empty stdout (exit {out.returncode})")
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            raise CheckFailed(f"stdout is not JSON: {out.stdout[:80]!r}") from None
        _require(isinstance(payload, dict), f"not a JSON object: {payload!r}")
        kind = job.kind
        if kind.endswith("-singular"):
            _require(out.returncode == EXIT_SINGULAR, f"exit {out.returncode}, expected 3")
            _require(isinstance(payload.get("error"), str), "singular body lacks an error")
            _require(_is_number(payload.get("denominator_abs")), "singular body lacks denominator_abs")
            if kind == "compose-singular":
                _require(payload.get("step") == 2, f"singular at {payload.get('step')}, expected 2")
            else:
                _require(payload.get("step") == inp.CLI_RESONANT_STEPS // 2, f"singular at {payload.get('step')}")
                t = payload.get("time")
                _require(_is_number(t) and abs(t - math.pi / 2) <= TIME_TOL, f"singular at t = {t}")
            return 0.0
        _require(out.returncode == EXIT_OK, f"exit {out.returncode}: {out.stdout[:120]!r}")
        reference = self._reference(job)
        if kind == "disentangle":
            _same(payload, reference)
            return 0.0
        if kind == "squeeze-compose":
            product, factorization = reference
            _same(payload, product)
            _same(payload["factorization"], factorization)
            residual = payload["recomposition_residual"]
            _require(_is_number(residual) and 0 <= residual <= 1e-8, f"residual {residual!r}")
            return residual
        if kind.startswith("compose"):
            _same(payload, reference)
            return payload.get("alpha_abs_difference", 0.0)
        expected, trajectory = reference
        _same(payload, expected)
        if job.spec["csv"]:
            self._check_csv(job, trajectory)
        return 0.0

    def _check_csv(self, job, trajectory) -> None:
        path = self.argv[id(job)][-1]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows and rows[0] == ["t", "alpha_re", "alpha_im", "beta_re", "beta_im", "gamma_re", "gamma_im"],
                 "bad CSV header")
        _require(len(rows) == len(trajectory) + 1, f"CSV has {len(rows) - 1} rows, expected {len(trajectory)}")
        t, g = trajectory[-1]
        beta = g.big_c()
        want = [t, g.big_plus.real, g.big_plus.imag, beta.real, beta.imag, g.big_minus.real, g.big_minus.imag]
        _require([float(v) for v in rows[-1]] == want, "last CSV row differs from the library trajectory")

    def layer_metrics(self, tracer) -> dict:
        startup = getattr(self, "startup", {})
        metrics = {
            "cli.interpreter_ms": (startup.get("cli.interpreter", float("nan")), "ms"),
            "cli.import_ms": (startup.get("cli.import", float("nan")), "ms"),
            "cli.import_numpy_ms": (startup.get("cli.import_numpy", float("nan")), "ms"),
        }
        for sub in SUBCOMMANDS:
            metrics[f"cli.main.{sub}_ms"] = (tracer.self_us_per_item(f"cli.main.{sub}") / 1e3, "ms")
        metrics["cli.main.calls"] = (sum(tracer.calls(f"cli.main.{sub}") for sub in SUBCOMMANDS), "count")
        return metrics


def make(workload: str, inputs: inp.Inputs, work_dir: str, src_dir: str):
    if workload == "cli-batch":
        return CliBatch(inputs, work_dir, src_dir)
    return {"evolve-drive": EvolveDrive, "fold-chain": FoldChain, "oracle-verify": OracleVerify}[workload]()
