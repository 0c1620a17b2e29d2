"""Correctness checks on the files and exit code of one CLI invocation.

Each check returns a list of problems; an operation with any problem counts
as failed.  Only the program's written outputs are read, never its Python
objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import GRADIENT_CHECK_MAX_REL_ERROR, REFERENCE, REL_TOL

# OptimizerConfig's default, used when the resolved config names none.
DEFAULT_OPTIMIZER_TOLERANCE = 1e-9


class _Missing(Exception):
    pass


def _load(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise _Missing(f"{path.name}: {exc}") from exc


def _reference(key: str, value: float) -> list:
    if key not in REFERENCE:
        return []
    ref = REFERENCE[key]
    if not math.isfinite(value) or abs(value - ref) > REL_TOL * abs(ref):
        return [f"value {value!r} differs from reference {ref!r}"]
    return []


def _check_optimize(key, out: Path, manifest: dict) -> list:
    report = _load(out / "report.json")
    tol = manifest["config"].get("optimizer", {}).get("tolerance",
                                                      DEFAULT_OPTIMIZER_TOLERANCE)
    problems = []
    if report.get("converged") is not True:
        problems.append(f"optimize did not converge ({report.get('message', '')})")
    if not report["residual"] <= tol:
        problems.append(f"residual {report['residual']:.3e} above tolerance {tol:g}")
    return problems + _reference(key, report["cost"]["total"])


def _check_solve_forward(key, out: Path, manifest: dict) -> list:
    return _reference(key, _load(out / "summary.json")["state_norm_discounted"])


def _check_gradient(key, out: Path, manifest: dict) -> list:
    sweep = _load(out / "gradient_check.json")["sweep"]
    best = min(s["rel_error"] for s in sweep)
    if not best <= GRADIENT_CHECK_MAX_REL_ERROR:
        return [f"best relative gradient error {best:.3e} above "
                f"{GRADIENT_CHECK_MAX_REL_ERROR:g}"]
    return []


def _check_horizon(key, out: Path, manifest: dict) -> list:
    fit = _load(out / "fit.json")
    problems = []
    if fit["rate_status"] != "pass":
        problems.append(f"rate_status is {fit['rate_status']!r}")
    if fit["monotone_ok"] is not True:
        problems.append("control errors are not monotone")
    if fit["cost_check_ok"] is not True:
        problems.append("a horizon cost exceeds its reference cost")
    return problems + _reference(key, fit["slope"])


def _check_socheck(key, out: Path, manifest: dict) -> list:
    report = _load(out / "socheck.json")
    tol = manifest["config"].get("optimizer", {}).get("tolerance",
                                                      DEFAULT_OPTIMIZER_TOLERANCE)
    problems = []
    form = report["min_normalized_form"]
    if form is None or not form > 0:
        problems.append(f"minimum normalized form {form!r} is not positive")
    if not report["growth"]["kappa"] > 0:
        problems.append(f"growth kappa {report['growth']['kappa']!r} is not positive")
    if not report["stationarity_residual"] <= tol:
        problems.append(f"stationarity residual {report['stationarity_residual']:.3e} "
                        f"above tolerance {tol:g}")
    return problems


_COMMAND_CHECKS = {
    "optimize": _check_optimize,
    "solve-forward": _check_solve_forward,
    "gradient-check": _check_gradient,
    "horizon-study": _check_horizon,
    "socheck": _check_socheck,
}


def check_op(op, rc, out: Path | None) -> list:
    """Problems with one finished invocation; ``rc`` is None if it raised."""
    if rc is None:
        return ["raised an exception"]
    problems = []
    if rc != op.expect_rc:
        problems.append(f"exit code {rc}, expected {op.expect_rc}")
    if out is None:
        return problems
    try:
        manifest = _load(out / "manifest.json")
        if manifest.get("status") != "complete":
            problems.append(f"manifest status is {manifest.get('status')!r}")
        check = _COMMAND_CHECKS.get(op.argv[0])
        if check is not None:
            problems += check(op.key, out, manifest)
    except _Missing as exc:
        problems.append(f"missing or unreadable output {exc}")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def output_digests(out: Path | None) -> dict:
    """SHA-256 of the byte-reproducible outputs: every ``*.csv`` and ``fit.json``."""
    if out is None or not out.is_dir():
        return {}
    files = sorted(out.glob("*.csv")) + sorted(out.glob("fit.json"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
