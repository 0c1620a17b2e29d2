"""Command-line front end.

Subcommands: validate, solve-forward, gradient-check, optimize,
horizon-study, socheck.  Every run writes a manifest with the resolved
configuration before doing work and finalizes it with timings afterwards.
Numerical CSV outputs are formatted at 17 significant digits and carry a
schema version header, so repeated runs with fixed seeds and any thread
count are byte-identical; wall-clock times appear only in manifest.json
and report.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .admissible import project_values
from .config import (ConfigError, apply_overrides, build_horizon_config,
                     build_optimizer_config, build_problem, load_config)
from .horizon import run_horizon_study
from .objective import (SecondOrderModel, cost, gradient_with_state,
                        multiplier_and_cone, sample_critical_directions)
from .optimizer import LineSearchError, optimize, verify_growth
from .problem import validate_assumptions
from .solvers import SolverError, solve_forward
from .spaces import FLOAT_FMT, Trajectory, weighted_inner, weighted_l2_norm

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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, kind: str, columns: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# horizonopt csv v1 kind={kind}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


class Manifest:
    """Run record: resolved config, seeds, versions, outputs, timings.

    Used as a context manager: an exception escaping the ``with`` block
    finalizes the manifest as ``failed`` with the error message (and the
    residual history of a solver error) before it propagates.
    """

    def __init__(self, out_dir: Path, command: str, cfg: dict):
        self.path = out_dir / "manifest.json"
        self.payload = {
            "schema": "horizonopt-manifest v1",
            "command": command,
            "config": cfg,
            "seed": cfg.get("seed", 0),
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
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.path, self.payload)

    def add_output(self, path: Path):
        self.payload["outputs"].append(str(path))

    def stage(self, name: str):
        now = time.perf_counter()
        self.payload["timings"][name] = now - self._clock
        self._clock = now

    def finalize(self, status: str = "complete"):
        self.payload["status"] = status
        write_json(self.path, self.payload)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.payload["error"] = str(exc)
            if getattr(exc, "history", None):
                self.payload["history"] = exc.history
            self.finalize("failed")


def _svg_decay_plot(path: Path, horizons, errors) -> None:
    """Minimal hand-rolled log-linear scatter/line plot of the decay sweep."""
    pts = [(h, e) for h, e in zip(horizons, errors) if e > 0]
    if len(pts) < 2:
        return
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
    path.write_text("\n".join(lines) + "\n")


def _load(args) -> dict:
    cfg = load_config(args.config)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return cfg


def cmd_validate(args) -> int:
    cfg = _load(args)
    spec = build_problem(cfg)
    report = validate_assumptions(spec)
    for item in report.items:
        tag = "PASS" if item.passed else "FAIL"
        print(f"{tag} {item.key}: {item.requirement} [{item.detail}]")
    print(f"overall: {'pass' if report.passed else 'fail'}")
    if args.out:
        out = Path(args.out)
        with Manifest(out, "validate", cfg) as manifest:
            path = out / "validation.json"
            write_json(path, report.to_dict())
            manifest.add_output(path)
            manifest.stage("validate")
            manifest.finalize()
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_solve_forward(args) -> int:
    cfg = _load(args)
    spec = build_problem(cfg)
    out = Path(args.out)
    with Manifest(out, "solve-forward", cfg) as manifest:
        state = solve_forward(spec, spec.zero_control())
        manifest.stage("solve")
        path = out / "state.csv"
        state.to_csv(path)
        manifest.add_output(path)
        summary = out / "summary.json"
        write_json(summary, {
            "schema": "horizonopt-forward v1",
            "final_time": spec.grid.horizon,
            "state_norm_discounted": weighted_l2_norm(
                state, spec.discounts.state_rate, spec.operators.mass),
        })
        manifest.add_output(summary)
        manifest.stage("write")
        manifest.finalize()
    return EXIT_OK


def cmd_gradient_check(args) -> int:
    cfg = _load(args)
    spec = build_problem(cfg)
    out = Path(args.out)
    with Manifest(out, "gradient-check", cfg) as manifest:
        manifest.payload["seed"] = args.seed
        rng = np.random.default_rng(args.seed)
        shape = (spec.grid.n_steps + 1, spec.control_count)
        u_vals = project_values(spec.admissible, 0.3 * rng.standard_normal(shape),
                                spec.operators.control_weights)
        u = Trajectory(spec.grid, u_vals, "control")
        v = Trajectory(spec.grid, rng.standard_normal(shape), "control")
        grad, state, _ = gradient_with_state(spec, u)
        adj_value = weighted_inner(grad, v, spec.discounts.control_rate,
                                   spec.operators.control_weights)
        sweep = []
        for eps in args.epsilons:
            up = Trajectory(spec.grid, u.values + eps * v.values, "control")
            dn = Trajectory(spec.grid, u.values - eps * v.values, "control")
            fd = (cost(spec, up).total - cost(spec, dn).total) / (2.0 * eps)
            rel = abs(adj_value - fd) / max(abs(adj_value), 1e-300)
            sweep.append({"epsilon": eps, "fd_value": fd, "adjoint_value": adj_value,
                          "rel_error": rel})
        manifest.stage("sweep")
        path = out / "gradient_check.json"
        write_json(path, {"schema": "horizonopt-gradcheck v1", "seed": args.seed,
                          "sweep": sweep})
        manifest.add_output(path)
        manifest.finalize()
    best = min(s["rel_error"] for s in sweep)
    print(f"best relative error over sweep: {best:.3e}")
    return EXIT_OK if best <= GRADIENT_TOLERANCE else EXIT_FAILED


def cmd_optimize(args) -> int:
    cfg = _load(args)
    spec = build_problem(cfg)
    report_v = validate_assumptions(spec)
    if not report_v.passed:
        for item in report_v.failures():
            print(f"FAIL {item.key}: {item.requirement} [{item.detail}]", file=sys.stderr)
        return EXIT_FAILED
    out = Path(args.out)
    with Manifest(out, "optimize", cfg) as manifest:
        ocfg = build_optimizer_config(cfg)
        u, report = optimize(spec, ocfg)
        manifest.stage("optimize")
        for name, traj in (("u_star", u), ("state", report.state), ("adjoint", report.adjoint)):
            path = out / f"{name}.csv"
            traj.to_csv(path)
            manifest.add_output(path)
        path = out / "report.json"
        write_json(path, {"schema": "horizonopt-solve v1", **report.to_dict()})
        manifest.add_output(path)
        manifest.stage("write")
        manifest.finalize()
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual={report.residual:.3e} cost={report.cost.total:.6e}")
    return EXIT_OK if report.converged else EXIT_FAILED


def cmd_horizon_study(args) -> int:
    cfg = _load(args)
    spec = build_problem(cfg)
    out = Path(args.out)
    with Manifest(out, "horizon-study", cfg) as manifest:
        hcfg = build_horizon_config(cfg)
        report = run_horizon_study(spec, hcfg, threads=args.threads)
        manifest.stage("sweep")
        columns = ["T", "control_error", "state_error_energy", "state_error_sup",
                   "bound_terminal", "bound_target_tail", "bound_source_tail",
                   "bound_total", "cost_optimal", "cost_reference", "cost_gap"]
        rows = [[r.horizon, r.control_error, r.state_error_energy, r.state_error_sup,
                 r.bound_terminal, r.bound_target_tail, r.bound_source_tail,
                 r.bound_total, r.cost_optimal, r.cost_reference, r.cost_gap]
                for r in report.records]
        sweep_path = out / "sweep.csv"
        write_csv(sweep_path, "horizon-sweep", columns, rows)
        manifest.add_output(sweep_path)
        fit_path = out / "fit.json"
        payload = report.to_dict()
        payload["schema"] = "horizonopt-horizon-fit v1"
        write_json(fit_path, payload)
        manifest.add_output(fit_path)
        if args.plot:
            svg_path = out / "decay.svg"
            _svg_decay_plot(svg_path, [r.horizon for r in report.records],
                            [r.control_error for r in report.records])
            manifest.add_output(svg_path)
        manifest.stage("write")
        manifest.finalize()
    print(f"slope={report.slope:.4f} rate_status={report.rate_status} "
          f"monotone={report.monotone_ok} cost_check={report.cost_check_ok}")
    return EXIT_OK


def cmd_socheck(args) -> int:
    cfg = _load(args)
    spec = build_problem(cfg)
    out = Path(args.out)
    with Manifest(out, "socheck", cfg) as manifest:
        manifest.payload["seed"] = args.seed
        ocfg = build_optimizer_config(cfg)
        u, report = optimize(spec, ocfg)
        manifest.stage("optimize")
        adjoint = report.adjoint
        model = SecondOrderModel(spec, u, state=report.state, adjoint=adjoint)
        w = spec.operators.control_weights
        payload = {"schema": "horizonopt-socheck v1",
                   "stationarity_residual": report.residual,
                   "admissible_kind": spec.admissible.kind}

        multiplier = None
        if spec.admissible.kind == "ball":
            multiplier = multiplier_and_cone(spec, u, adjoint)
            rows = [[t, m, float(a)] for t, m, a in zip(
                spec.grid.times, multiplier.values, multiplier.activity)]
            mpath = out / "multiplier.csv"
            write_csv(mpath, "ball-multiplier", ["t", "multiplier", "activity"], rows)
            manifest.add_output(mpath)
        directions = sample_critical_directions(
            spec, u, adjoint, multiplier, count=args.directions, seed=args.seed)
        forms = []
        for v in directions:
            nrm2 = weighted_l2_norm(v, spec.discounts.control_rate, w) ** 2
            if spec.admissible.kind == "ball":
                val = model.lagrangian_form(v, multiplier)
            else:
                val = model.quadratic_form(v, v)
            forms.append(val / max(nrm2, 1e-300))
        payload["directions_sampled"] = len(directions)
        payload["min_normalized_form"] = min(forms) if forms else None
        growth = verify_growth(spec, u, radius=args.radius, samples=args.samples,
                               seed=args.seed, newton=ocfg.newton, state=report.state)
        payload["growth"] = growth.to_dict()
        manifest.stage("checks")
        path = out / "socheck.json"
        write_json(path, payload)
        manifest.add_output(path)
        manifest.finalize()
    print(f"min normalized quadratic form: {payload['min_normalized_form']}, "
          f"growth kappa: {growth.kappa:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizonopt",
        description="Discounted long-horizon parabolic optimal control toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="configuration JSON file")
        p.add_argument("--set", action="append", default=[],
                       metavar="PATH=VALUE", help="override a scalar config field")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("validate", help="check the standing assumptions")
    common(p, needs_out=False)
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-forward", help="forward solve with zero control")
    common(p)
    p.set_defaults(func=cmd_solve_forward)

    p = sub.add_parser("gradient-check", help="adjoint vs central differences")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilons", type=float, nargs="+",
                   default=[1e-3, 1e-4, 1e-5, 1e-6])
    p.set_defaults(func=cmd_gradient_check)

    p = sub.add_parser("optimize", help="projected-gradient solve")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("horizon-study", help="finite-horizon convergence sweep")
    common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="parallel solves (default: HORIZONOPT_THREADS or 1)")
    p.add_argument("--plot", action="store_true", help="write decay.svg")
    p.set_defaults(func=cmd_horizon_study)

    p = sub.add_parser("socheck", help="second-order checks at an optimum")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directions", type=int, default=50)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--radius", type=float, default=0.1)
    p.set_defaults(func=cmd_socheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LineSearchError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
