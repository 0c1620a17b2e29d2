"""In-memory span tracer for the traced benchmark run, and the arithmetic on
its spans.

``Tracer.install`` replaces horizonopt's public functions, in every
horizonopt module that holds them, with wrappers that record a span (layer
name, start, end, parent span) per call.  It also wraps the scipy entry
points the solvers call: ``scipy.sparse.linalg.splu`` gets a span, while the
per-step ``gtsv`` and SuperLU ``solve`` calls are only counted, because a
span around a 3 microsecond call would distort the trace.  Spans stay in
memory, grouped by CLI command, until the worker writes them out at exit.

Spans of one command form a tree rooted at a ``cli.command`` span, so parents
precede their children in each command's span list.  The wrappers assume one
thread, which the harness enforces with HORIZONOPT_THREADS=1.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

ROOT_LAYER = "cli.command"
STEP_SOLVE = "solvers.step_solve"
FACTOR = "solvers.factor"

# layer -> wrapped targets, "module:attribute" or "module:Class.method"
LAYERS = {
    "config": ("horizonopt.config:load_config", "horizonopt.config:apply_overrides",
               "horizonopt.config:build_problem"),
    "problem.assemble": ("horizonopt.problem:assemble_operators",),
    "problem.validate": ("horizonopt.problem:validate_assumptions",),
    "solvers.forward": ("horizonopt.solvers:solve_forward",),
    "solvers.adjoint": ("horizonopt.solvers:solve_adjoint_from_residual",),
    "solvers.linearized": ("horizonopt.solvers:solve_linearized",
                           "horizonopt.solvers:solve_second_order"),
    "optimizer": ("horizonopt.optimizer:optimize",),
    "optimizer.growth": ("horizonopt.optimizer:verify_growth",),
    "objective.cost": ("horizonopt.objective:cost_from_state", "horizonopt.objective:cost"),
    "objective.gradient": ("horizonopt.objective:riesz_gradient",),
    "objective.second_order": ("horizonopt.objective:SecondOrderModel.quadratic_form",
                               "horizonopt.objective:SecondOrderModel.lagrangian_form",
                               "horizonopt.objective:multiplier_and_cone",
                               "horizonopt.objective:sample_critical_directions"),
    "admissible.project": ("horizonopt.admissible:project_values",),
    "admissible.stationarity": ("horizonopt.admissible:stationarity_residual",),
    "spaces.norm": ("horizonopt.spaces:weighted_l2_norm", "horizonopt.spaces:weighted_lp_norm",
                    "horizonopt.spaces:weighted_sup_norm", "horizonopt.spaces:weighted_inner",
                    "horizonopt.spaces:quad_energies"),
    "descriptors.tail": ("horizonopt.descriptors:tail_norm",),
    "horizon.study": ("horizonopt.horizon:run_horizon_study",),
    FACTOR: ("scipy.sparse.linalg:splu",),
    STEP_SOLVE: ("scipy.linalg:get_lapack_funcs",),
}

TIMED = ("config", "problem.assemble", "problem.validate", "solvers.forward",
         "solvers.adjoint", "solvers.linearized", FACTOR, "optimizer.growth",
         "objective.cost", "objective.gradient", "objective.second_order",
         "admissible.project", "admissible.stationarity", "spaces.norm", "descriptors.tail")
CALLED = ("solvers.forward", "solvers.adjoint", "solvers.linearized", FACTOR,
          "admissible.project", "spaces.norm")
MARCHES = ("solvers.forward", "solvers.adjoint", "solvers.linearized")

# derived metrics -> the layers they are computed from
DERIVED = {
    "solvers.resolve.calls": ("optimizer", "solvers.forward", "solvers.adjoint"),
    "solvers.step_solve.calls": (STEP_SOLVE,),
    "optimizer.iterations": ("optimizer",),
    "optimizer.trials": ("optimizer", "solvers.forward"),
    "optimizer.accept_ratio": ("optimizer", "solvers.forward"),
    "horizon.reference.s": ("horizon.study", "optimizer"),
}

SPAN_METRICS = (tuple(f"{layer}.s" for layer in TIMED)
                + tuple(f"{layer}.calls" for layer in CALLED)
                + tuple(f"{layer}.step_us" for layer in MARCHES)
                + tuple(DERIVED))


def _fingerprint(traj):
    try:
        return hash(traj.values.tobytes())
    except AttributeError:
        return None


def _n_steps(spec):
    return getattr(getattr(spec, "grid", None), "n_steps", None)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Records spans and counts for the commands run between begin/end_op."""

    def __init__(self):
        self.ops = []
        self.missing = []
        self._patches = []
        self._spans = None
        self._stack = []
        self._counts = Counter()
        self._optimize_depth = 0
        self._known_controls = set()
        self._known_states = set()

    # -- command boundaries ---------------------------------------------------

    def begin_op(self, tag) -> None:
        self._tag = tag
        self._spans = [[ROOT_LAYER, time.perf_counter(), 0.0, -1, None]]
        self._stack = [0]
        self._counts = Counter()
        self._known_controls.clear()
        self._known_states.clear()

    def end_op(self) -> None:
        self._spans[0][2] = time.perf_counter()
        self.ops.append({"tag": self._tag, "spans": self._spans,
                         "counts": dict(self._counts)})
        self._spans = None
        self._stack = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            info = before(args, kwargs) if before else None
            rec = [layer, 0.0, 0.0, self._stack[-1], info]
            self._stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if after:
                    after(info, result)
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[STEP_SOLVE] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _march_info(self, extra_steps):
        def before(args, kwargs):
            n = _n_steps(_arg(args, kwargs, 0, "spec"))
            return {"steps": None if n is None else n + extra_steps}
        return before

    # A re-solve is a forward solve, outside optimize, of a control that an
    # optimize of the same command returned, or an adjoint solve around the
    # state of such a re-solve.  Trajectories are matched by their bytes.
    def _forward_before(self, args, kwargs):
        info = self._march_info(0)(args, kwargs)
        if self._optimize_depth == 0 and self._known_controls:
            if _fingerprint(_arg(args, kwargs, 1, "control")) in self._known_controls:
                info["resolve"] = True
        return info

    def _forward_after(self, info, result):
        if info.get("resolve") and result is not None:
            self._known_states.add(_fingerprint(result))

    def _adjoint_before(self, args, kwargs):
        # the adjoint recursion solves at every node i = N..0
        info = self._march_info(1)(args, kwargs)
        if self._optimize_depth == 0 and self._known_states:
            if _fingerprint(_arg(args, kwargs, 1, "base_state")) in self._known_states:
                info["resolve"] = True
        return info

    def _optimize_before(self, args, kwargs):
        self._optimize_depth += 1
        return {}

    def _optimize_after(self, info, result):
        self._optimize_depth -= 1
        if result is None:
            return
        info["iterations"] = next((r.iterations for r in result
                                   if hasattr(r, "iterations")), None)
        self._known_controls.add(_fingerprint(result[0]))

    def _wrapper_for(self, layer, fn):
        if layer == "solvers.forward":
            return self._span(layer, fn, self._forward_before, self._forward_after)
        if layer == "solvers.adjoint":
            return self._span(layer, fn, self._adjoint_before)
        if layer == "solvers.linearized":
            return self._span(layer, fn, self._march_info(0))
        if layer == "optimizer":
            return self._span(layer, fn, self._optimize_before, self._optimize_after)
        if layer == FACTOR:
            traced = self._span(layer, fn)
            counted = self._counted

            @functools.wraps(fn)
            def splu(*args, **kwargs):
                return _CountingLU(traced(*args, **kwargs), counted)
            return splu
        if layer == STEP_SOLVE:
            @functools.wraps(fn)
            def get_lapack_funcs(names, *args, **kwargs):
                funcs = fn(names, *args, **kwargs)
                if isinstance(funcs, (list, tuple)):
                    return type(funcs)(self._wrap_gtsv(f) for f in funcs)
                return self._wrap_gtsv(funcs)
            return get_lapack_funcs
        return self._span(layer, fn)

    def _wrap_gtsv(self, func):
        if getattr(func, "__name__", "").endswith("gtsv"):
            return self._counted(func)
        return func

    # -- installation -----------------------------------------------------------

    def install(self) -> list:
        """Wrap every target; returns the targets that no longer exist."""
        self.missing = []
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._install_target(layer, target):
                    self.missing.append(target)
        return self.missing

    def _install_target(self, layer, target) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = self._wrapper_for(layer, original)
        owners = [owner]
        if not owner_path:
            # names imported with "from .x import f" are separate bindings
            owners += [m for name, m in list(sys.modules.items())
                       if m is not None and m is not owner
                       and name.split(".")[0] == "horizonopt"]
        for obj in owners:
            for name, value in list(vars(obj).items()):
                if value is original:
                    self._patches.append((obj, name, original))
                    setattr(obj, name, wrapper)
        return True

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches = []


class _CountingLU:
    """SuperLU proxy whose ``solve`` calls are counted as step solves."""

    def __init__(self, lu, counted):
        self._lu = lu
        self.solve = counted(lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans) -> dict:
    """Seconds per layer spent in its own spans minus the time covered by
    their direct children."""
    child = [0.0] * len(spans)
    for layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (layer, t0, t1, _, _) in enumerate(spans):
        out[layer] += (t1 - t0) - child[i]
    return dict(out)


def layer_metrics(op_traces) -> dict:
    """Per-layer metrics of one repetition, summed over its commands."""
    self_s = defaultdict(float)
    calls = Counter()
    inclusive = defaultdict(float)
    steps = Counter()
    counts = Counter()
    resolve = iterations = trials = 0
    reference_s = 0.0
    for op in op_traces:
        spans = op["spans"]
        counts.update(op["counts"])
        for layer, secs in self_times(spans).items():
            self_s[layer] += secs
        under_optimize = [False] * len(spans)
        study_seen_optimize = set()
        for i, (layer, t0, t1, parent, info) in enumerate(spans):
            calls[layer] += 1
            if parent >= 0:
                parent_layer = spans[parent][0]
                under_optimize[i] = under_optimize[parent] or parent_layer == "optimizer"
                if (layer == "optimizer" and parent_layer == "horizon.study"
                        and parent not in study_seen_optimize):
                    study_seen_optimize.add(parent)
                    reference_s += t1 - t0
            if layer in MARCHES and info and info.get("steps"):
                inclusive[layer] += t1 - t0
                steps[layer] += info["steps"]
            if info:
                resolve += bool(info.get("resolve"))
                iterations += info.get("iterations") or 0
            trials += layer == "solvers.forward" and under_optimize[i]
    out = {f"{layer}.s": self_s.get(layer, 0.0) for layer in TIMED}
    out.update({f"{layer}.calls": calls.get(layer, 0) for layer in CALLED})
    out.update({f"{layer}.step_us": 1e6 * inclusive[layer] / steps[layer]
                if steps[layer] else 0.0 for layer in MARCHES})
    out["solvers.resolve.calls"] = resolve
    out["solvers.step_solve.calls"] = counts.get(STEP_SOLVE, 0)
    out["optimizer.iterations"] = iterations
    out["optimizer.trials"] = trials
    out["optimizer.accept_ratio"] = iterations / trials if trials else 0.0
    out["horizon.reference.s"] = reference_s
    return out


def missing_metrics(missing_targets) -> list:
    """Metrics that cannot be measured because every target of a layer they
    depend on is gone."""
    gone = {layer for layer, targets in LAYERS.items()
            if all(t in missing_targets for t in targets)}
    out = []
    for name in SPAN_METRICS:
        needs = DERIVED.get(name, (name.rsplit(".", 1)[0],))
        if gone.intersection(needs):
            out.append(name)
    return out


def self_time_shares(rep_traces) -> dict:
    """Median share of each layer in the self time of a repetition."""
    shares = defaultdict(list)
    for ops in rep_traces:
        totals = defaultdict(float)
        for op in ops:
            for layer, secs in self_times(op["spans"]).items():
                totals[layer] += secs
        whole = sum(totals.values()) or 1.0
        for layer, secs in totals.items():
            shares[layer].append(secs / whole)
    return dict(sorted(((layer, statistics.median(v)) for layer, v in shares.items()),
                       key=lambda kv: -kv[1]))
