"""Command-line front end.

Subcommands: validate, solve-forward, gradient-check, optimize,
horizon-study, socheck.  ``main`` runs each one the same way and owns its
manifest: it records the resolved configuration before doing work and
finalizes the manifest with timings afterwards, as ``failed`` on any error.
Numerical CSV outputs are formatted at 17 significant digits and carry a
schema version header, so repeated runs with fixed seeds are byte-identical;
wall-clock times appear only in manifest.json and report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, apply_overrides, build_horizon_config,
                     build_optimizer_config, build_problem, load_config)
from .horizon import run_horizon_study
from .objective import (SecondOrderModel, cost, gradient_with_state,
                        multiplier_and_cone, sample_critical_directions)
from .optimizer import LineSearchError, optimize, verify_growth
from .problem import AssumptionError, validate_assumptions
from .solvers import SolverError, solve_forward
from .spaces import Trajectory, weighted_l2_norm, write_csv

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2

# gradient-check fails when the best relative error over the sweep exceeds this
GRADIENT_TOLERANCE = 1e-7


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as RFC 8259 JSON: a non-finite float, which that
    standard has no number for, is written as the string "NaN", "Infinity"
    or "-Infinity"."""
    # Python's encoder writes those three as bare tokens, which its decoder
    # hands back to parse_constant as the same names
    plain = json.loads(json.dumps(payload, default=_json_default), parse_constant=str)
    with open(path, "w") as fh:
        json.dump(plain, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


class Manifest:
    """Run record: resolved config, seeds, versions, outputs, timings.

    Used as a context manager: an exception escaping the ``with`` block
    finalizes the manifest as ``failed`` with the error message (and the
    residual history of a solver error) before it propagates.  Without an
    output directory (``validate`` without ``--out``) nothing is written.
    """

    def __init__(self, out_dir: str | None, command: str):
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.payload = {
            "schema": "horizonopt-manifest v1",
            "command": command,
            "config": None,
            "seed": None,
            "versions": {
                "horizonopt": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "outputs": [],
            "timings": {},
            "status": "running",
        }
        self._clock = time.perf_counter()
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def begin(self, cfg: dict, seed: int | None):
        """Record the resolved configuration and the command's ``--seed``
        (None for a command that takes none), and write the manifest as
        ``running``."""
        self.payload["config"] = cfg
        self.payload["seed"] = seed
        self._write()

    def output(self, name: str) -> Path:
        """Path of the output file ``name`` in the run directory, recorded in
        the manifest; the null device when there is no run directory."""
        if self.out_dir is None:
            return Path(os.devnull)
        path = self.out_dir / name
        self.payload["outputs"].append(str(path))
        return path

    def stage(self, name: str):
        now = time.perf_counter()
        self.payload["timings"][name] = now - self._clock
        self._clock = now

    def finalize(self, status: str = "complete"):
        self.payload["status"] = status
        self._write()

    def _write(self):
        if self.out_dir is not None:
            write_json(self.out_dir / "manifest.json", self.payload)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.payload["error"] = str(exc)
            if getattr(exc, "history", None):
                self.payload["history"] = exc.history
            self.finalize("failed")


def _svg_decay_plot(horizons, errors) -> str | None:
    """Minimal hand-rolled log-linear scatter/line plot of the decay sweep, as
    SVG text; None when fewer than two errors are positive."""
    pts = [(h, e) for h, e in zip(horizons, errors) if e > 0]
    if len(pts) < 2:
        return None
    width, height, margin = 480, 320, 48
    hs = [p[0] for p in pts]
    ys = [np.log10(p[1]) for p in pts]
    h0, h1 = min(hs), max(hs)
    y0, y1 = min(ys), max(ys)
    y0, y1 = y0 - 0.2, y1 + 0.2

    def sx(h):
        return margin + (h - h0) / (h1 - h0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
             f'stroke="black"/>']
    path_d = " ".join(f"{'M' if i == 0 else 'L'}{sx(h):.2f},{sy(y):.2f}"
                      for i, (h, y) in enumerate(zip(hs, ys)))
    lines.append(f'<path d="{path_d}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    for h, y in zip(hs, ys):
        lines.append(f'<circle cx="{sx(h):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
        lines.append(f'<text x="{sx(h):.2f}" y="{height - margin + 16}" font-size="10" '
                     f'text-anchor="middle">{h:g}</text>')
    lines.append(f'<text x="{width / 2}" y="{height - 8}" font-size="11" '
                 f'text-anchor="middle">horizon</text>')
    lines.append(f'<text x="12" y="{height / 2}" font-size="11" '
                 f'transform="rotate(-90 12 {height / 2})" '
                 f'text-anchor="middle">log10 control error</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_validate(args, spec, optimizer, study, manifest) -> int:
    report = validate_assumptions(spec)
    for item in report.items:
        print(item)
    print(f"overall: {'pass' if report.passed else 'fail'}")
    write_json(manifest.output("validation.json"), report.to_dict())
    manifest.stage("validate")
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_solve_forward(args, spec, optimizer, study, manifest) -> int:
    state = solve_forward(spec, spec.zero_control())
    manifest.stage("solve")
    state.to_csv(manifest.output("state.csv"))
    write_json(manifest.output("summary.json"), {
        "schema": "horizonopt-forward v1",
        "final_time": spec.grid.horizon,
        "state_norm_discounted": weighted_l2_norm(
            state, spec.discounts.state_rate, spec.operators.mass),
    })
    manifest.stage("write")
    return EXIT_OK


def cmd_gradient_check(args, spec, optimizer, study, manifest) -> int:
    rng = np.random.default_rng(args.seed)
    shape = (spec.grid.n_steps + 1, spec.control_count)
    u = Trajectory(spec.grid, spec.project(0.3 * rng.standard_normal(shape)), "control")
    v = Trajectory(spec.grid, rng.standard_normal(shape), "control")
    grad, state, _ = gradient_with_state(spec, u)
    adj_value = spec.control_inner(grad.values, v.values)
    sweep = []
    for eps in args.epsilons:
        up = Trajectory(spec.grid, u.values + eps * v.values, "control")
        dn = Trajectory(spec.grid, u.values - eps * v.values, "control")
        fd = (cost(spec, up).total - cost(spec, dn).total) / (2.0 * eps)
        rel = abs(adj_value - fd) / max(abs(adj_value), 1e-300)
        sweep.append({"epsilon": eps, "fd_value": fd, "adjoint_value": adj_value,
                      "rel_error": rel})
    manifest.stage("sweep")
    write_json(manifest.output("gradient_check.json"),
               {"schema": "horizonopt-gradcheck v1", "seed": args.seed, "sweep": sweep})
    best = min(s["rel_error"] for s in sweep)
    print(f"best relative error over sweep: {best:.3e}")
    return EXIT_OK if best <= GRADIENT_TOLERANCE else EXIT_FAILED


def cmd_optimize(args, spec, optimizer, study, manifest) -> int:
    u, report = optimize(spec, optimizer)
    manifest.stage("optimize")
    for name, traj in (("u_star", u), ("state", report.state), ("adjoint", report.adjoint)):
        traj.to_csv(manifest.output(f"{name}.csv"))
    write_json(manifest.output("report.json"),
               {"schema": "horizonopt-solve v1", **report.to_dict()})
    manifest.stage("write")
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual={report.residual:.3e} cost={report.cost.total:.6e}")
    return EXIT_OK if report.converged else EXIT_FAILED


def cmd_horizon_study(args, spec, optimizer, study, manifest) -> int:
    report = run_horizon_study(spec, study, optimizer)
    manifest.stage("sweep")
    # every column after T is the record attribute of the same name
    columns = ["T", "control_error", "state_error_energy", "state_error_sup",
               "bound_terminal", "bound_target_tail", "bound_source_tail",
               "bound_total", "cost_optimal", "cost_reference", "cost_gap"]
    rows = [[r.horizon] + [getattr(r, c) for c in columns[1:]] for r in report.records]
    write_csv(manifest.output("sweep.csv"), "horizonopt csv v1 kind=horizon-sweep",
              columns, rows)
    write_json(manifest.output("fit.json"),
               {**report.to_dict(), "schema": "horizonopt-horizon-fit v1"})
    if args.plot:
        svg = _svg_decay_plot([r.horizon for r in report.records],
                              [r.control_error for r in report.records])
        if svg is not None:
            manifest.output("decay.svg").write_text(svg)
    manifest.stage("write")
    print(f"slope={report.slope:.4f} rate_status={report.rate_status} "
          f"monotone={report.monotone_ok} cost_check={report.cost_check_ok}")
    return EXIT_OK


def cmd_socheck(args, spec, optimizer, study, manifest) -> int:
    u, report = optimize(spec, optimizer)
    manifest.stage("optimize")
    adjoint = report.adjoint
    model = SecondOrderModel(spec, u, state=report.state, adjoint=adjoint)
    payload = {"schema": "horizonopt-socheck v1",
               "stationarity_residual": report.residual,
               "admissible_kind": spec.admissible.kind}

    multiplier = None
    if spec.admissible.kind == "ball":
        multiplier = multiplier_and_cone(spec, u, adjoint)
        rows = [[t, m, float(a)] for t, m, a in zip(
            spec.grid.times, multiplier.values, multiplier.activity)]
        write_csv(manifest.output("multiplier.csv"), "horizonopt csv v1 kind=ball-multiplier",
                  ["t", "multiplier", "activity"], rows)
    directions = sample_critical_directions(
        spec, u, adjoint, multiplier, count=args.directions, seed=args.seed)
    # one batched linearized march for all directions
    if spec.admissible.kind == "ball":
        values = model.lagrangian_form(directions, multiplier)
    else:
        values = model.quadratic_form(directions, directions)
    forms = [val / max(spec.control_norm(v.values) ** 2, 1e-300)
             for v, val in zip(directions, values)]
    payload["directions_sampled"] = len(directions)
    payload["min_normalized_form"] = min(forms) if forms else None
    growth = verify_growth(spec, u, radius=args.radius, samples=args.samples,
                           seed=args.seed, state=report.state)
    payload["growth"] = growth.to_dict()
    manifest.stage("checks")
    write_json(manifest.output("socheck.json"), payload)
    print(f"min normalized quadratic form: {payload['min_normalized_form']}, "
          f"growth kappa: {growth.kappa:.6g}")
    return EXIT_OK


def positive_float(text: str) -> float:
    """argparse type for a step or a radius: a positive finite float."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"not a positive finite number: {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type for a count: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizonopt",
        description="Discounted long-horizon parabolic optimal control toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # ``gated`` commands rest on the paper's standing assumptions and refuse a
    # problem that fails them; the others check the discretization itself,
    # and validate is the report
    def command(name, summary, func, gated, needs_out=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="configuration JSON file")
        p.add_argument("--set", action="append", default=[],
                       metavar="PATH=VALUE",
                       help="override a config field with a JSON value")
        p.add_argument("--out", required=needs_out, help="output directory")
        p.set_defaults(func=func, gated=gated)
        return p

    command("validate", "check the standing assumptions", cmd_validate, gated=False,
            needs_out=False)
    command("solve-forward", "forward solve with zero control", cmd_solve_forward,
            gated=False)

    p = command("gradient-check", "adjoint vs central differences", cmd_gradient_check,
                gated=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilons", type=positive_float, nargs="+",
                   default=[1e-3, 1e-4, 1e-5, 1e-6])

    command("optimize", "projected-gradient solve", cmd_optimize, gated=True)

    p = command("horizon-study", "finite-horizon convergence sweep", cmd_horizon_study,
                gated=True)
    p.add_argument("--plot", action="store_true", help="write decay.svg")

    p = command("socheck", "second-order checks at an optimum", cmd_socheck, gated=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directions", type=positive_int, default=50)
    p.add_argument("--samples", type=positive_int, default=50)
    p.add_argument("--radius", type=positive_float, default=0.1)
    return parser


def main(argv=None) -> int:
    """Run one subcommand: load the configuration, build the problem, the
    optimizer controls and the horizon study, refuse the problem when the
    command is gated and the standing assumptions fail, run the command body
    and finalize the manifest.  A failure at any step finalizes the manifest
    as ``failed`` and maps to the documented exit code."""
    args = build_parser().parse_args(argv)
    manifest = Manifest(args.out, args.command)
    try:
        with manifest:
            cfg = load_config(args.config)
            if args.set:
                cfg = apply_overrides(cfg, args.set)
            manifest.begin(cfg, getattr(args, "seed", None))
            spec = build_problem(cfg)
            # every command checks every section before its first solve
            optimizer = build_optimizer_config(cfg)
            study = (build_horizon_config(cfg) if "horizon_study" in cfg
                     or args.command == "horizon-study" else None)
            if args.gated:
                failures = validate_assumptions(spec).failures()
                for item in failures:
                    print(item, file=sys.stderr)
                if failures:
                    raise AssumptionError("standing assumptions fail: "
                                          + ", ".join(item.key for item in failures))
            code = args.func(args, spec, optimizer, study, manifest)
            manifest.finalize()
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LineSearchError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
