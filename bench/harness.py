"""Closed-loop benchmark of the horizonopt CLI: one client, one workload.

The program is driven only through its command line: a fresh
``python -m horizonopt.cli`` per command for fresh-process workloads, or
``horizonopt.cli.main(argv)`` in one warm worker process otherwise.  Each
repetition runs the workload's commands one after another; a further
repetition starts only while it is expected to end within the requested
seconds (at least MIN_REPS run).  End-to-end numbers come from untraced
repetitions only.  With tracing on, repetitions alternate untraced and
traced, and the traced ones give the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
from checks import check_op, output_digests
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

SETUP_SAMPLES = 5
MIN_REPS = 2
MIN_TAIL_BEYOND = 10
# a run must finish well inside the three minutes a caller allows it
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"HORIZONOPT_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# per-layer metrics the harness adds to those computed from spans
RUN_LAYER_METRICS = ("import.s", "cli.write.s", "trace.overhead_frac")
PER_LAYER_METRICS = tracer.SPAN_METRICS + RUN_LAYER_METRICS
MEASUREMENT_NOTE = ("only the benchmark's own processes are measured: no page-cache "
                    "dropping and no system-wide tracing")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_DEADLINE_S:g} s")
    return left


class Worker:
    """A ``bench/worker.py`` process speaking JSON lines."""

    def __init__(self, log, deadline, setup=None, trace_file=None):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py")]
        if trace_file:
            cmd += ["--trace-file", str(trace_file)]
        if setup:
            cmd += ["--setup", *setup]
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log, text=True)
        ready = self._read()
        self.setup_s = time.perf_counter() - t0
        self.import_s = ready["import_s"]

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], _remaining(self.deadline))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise BenchError("worker ended or timed out without replying")
        return json.loads(line)

    def run(self, argv, trace=False, tag=None) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace, "tag": tag}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        self.proc.stdin.close()
        final = self._read()
        self.proc.wait(timeout=_remaining(self.deadline))
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _fresh_cli(argv, log, deadline) -> dict:
    c0, t0 = _children_cpu(), time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "horizonopt.cli", *argv], cwd=ROOT,
                          env=_env(), stdout=subprocess.DEVNULL, stderr=log,
                          timeout=_remaining(deadline))
    return {"rc": proc.returncode, "wall": time.perf_counter() - t0,
            "cpu": _children_cpu() - c0}


def _traced_fresh_cli(argv, log, deadline, trace_file, tag) -> tuple:
    c0, t0 = _children_cpu(), time.perf_counter()
    worker = Worker(log, deadline, trace_file=trace_file)
    try:
        reply = worker.run(argv, trace=True, tag=tag)
        reply["wall"] = time.perf_counter() - t0
        worker.close()
    finally:
        worker.kill()
    reply["cpu"] = _children_cpu() - c0
    return reply, worker.import_s


def _setup_args(argv) -> list:
    """Config path and overrides of a command, as worker.py --setup takes them."""
    argv = list(argv)
    out = [argv[argv.index("--config") + 1]]
    out += [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
    return out


def _manifest_write_s(out) -> float:
    try:
        with open(out / "manifest.json") as fh:
            return float(json.load(fh)["timings"].get("write", 0.0))
    except (OSError, ValueError, KeyError):
        return 0.0


def tail_percentile(samples, min_beyond=MIN_TAIL_BEYOND):
    """Highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``: the order statistic with exactly
    ``min_beyond`` samples after it in sorted order, or None when there are
    too few samples for any percentile to have that many beyond it.
    """
    n = len(samples)
    if n <= min_beyond:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - min_beyond) / n, ordered[n - min_beyond - 1]


def failure_summary(op_results) -> tuple:
    """(attempted, failed, failed_frac) over operation results."""
    attempted = len(op_results)
    failed = sum(1 for r in op_results if r["problems"])
    return attempted, failed, failed / attempted if attempted else 0.0


def metric_unit(name: str) -> str:
    if name.endswith(".step_us"):
        return "us"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run_metadata(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "threads": THREAD_ENV,
        "src_lines": _src_lines(),
        "note": MEASUREMENT_NOTE,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    with open(work / "stderr.log", "w") as log:
        run = _Run(workload, seed, trace, work, log)
        try:
            run.setup()
            start = time.monotonic()
            # stop before a repetition that would likely end after the time asked
            while (len(run.reps) < MIN_REPS
                   or (time.monotonic() - start) * (1 + 1 / len(run.reps)) <= seconds):
                run.repetition()
            peak_rss_kb = run.finish()
        finally:
            run.stop()
    return _report(run, peak_rss_kb)


class _Run:
    """State of one benchmark run: its worker, repetitions and operation results."""

    def __init__(self, workload, seed, trace, work, log):
        self.workload = workload
        self.seed = seed
        self.ops = workload.build_ops(seed)
        self.trace = trace
        self.work = work
        self.log = log
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.worker = None
        self.setups, self.imports, self.missing = [], [], []
        self.reps, self.op_results, self.trace_files = [], [], []
        self.first_digests = {}

    def setup(self) -> None:
        """Time SETUP_SAMPLES fresh set-ups; the last worker stays for the run."""
        if self.workload.fresh_process:
            for _ in range(SETUP_SAMPLES):
                reply = _fresh_cli(list(self.workload.setup_argv), self.log, self.deadline)
                if reply["rc"] != 0:
                    raise BenchError(f"set-up command exited {reply['rc']}")
                self.setups.append(reply["wall"])
            return
        setup = _setup_args(self.ops[0].argv)
        trace_file = self.work / "trace.json" if self.trace else None
        for k in range(SETUP_SAMPLES):
            if self.worker is not None:
                self.worker.close()
            self.worker = Worker(self.log, self.deadline, setup=setup, trace_file=trace_file)
            self.setups.append(self.worker.setup_s)
            self.imports.append(self.worker.import_s)
        if trace_file:
            self.trace_files.append(trace_file)

    def repetition(self) -> None:
        index = len(self.reps)
        traced = self.trace and index % 2 == 1
        rep = {"traced": traced, "wall": 0.0, "cpu": 0.0, "write_s": 0.0}
        for i, op in enumerate(self.ops):
            out = self.work / "out" / f"{i:02d}-{op.argv[0]}" if op.writes_out else None
            if out:
                shutil.rmtree(out, ignore_errors=True)
            reply = self._invoke(list(op.argv) + (["--out", str(out)] if out else []),
                                 traced, [index, i])
            problems = check_op(op, reply["rc"], out)
            if reply.get("error"):
                problems.append(reply["error"])
            digests = output_digests(out)
            expected = self.first_digests.setdefault(i, digests)
            changed = sorted(f for f in set(digests) | set(expected)
                             if digests.get(f) != expected.get(f))
            if changed:
                problems.append(f"outputs differ from the first repetition: {changed}")
            rep["wall"] += reply["wall"]
            rep["cpu"] += reply["cpu"]
            rep["write_s"] += _manifest_write_s(out) if out else 0.0
            self.op_results.append({"rep": index, "op": op.key, "rc": reply["rc"],
                                    "wall": reply["wall"], "problems": problems})
        self.reps.append(rep)
        _remaining(self.deadline)

    def _invoke(self, argv, traced, tag) -> dict:
        if self.worker is not None:
            return self.worker.run(argv, trace=traced, tag=tag)
        if not traced:
            return _fresh_cli(argv, self.log, self.deadline)
        trace_file = self.work / f"trace-r{tag[0]}-o{tag[1]}.json"
        reply, import_s = _traced_fresh_cli(argv, self.log, self.deadline, trace_file, tag)
        self.imports.append(import_s)
        self.trace_files.append(trace_file)
        return reply

    def finish(self) -> float:
        """Close the worker; returns the peak resident set in KiB."""
        if self.worker is None:
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        final = self.worker.close()
        self.worker = None
        return final["maxrss_kb"]

    def stop(self) -> None:
        if self.worker is not None:
            self.worker.kill()

    def traces(self) -> list:
        ops = []
        for path in self.trace_files:
            with open(path) as fh:
                data = json.load(fh)
            self.missing = data["missing"]
            ops += data["ops"]
        return ops


def _report(run, peak_rss_kb) -> dict:
    workload = run.workload
    plain = [r for r in run.reps if not r["traced"]]
    walls = [r["wall"] for r in plain]
    attempted, failed, failed_frac = failure_summary(run.op_results)
    end_to_end = {
        "setup_s": statistics.median(run.setups),
        "rep_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu"] for r in plain),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    report = {
        "workload": workload.name,
        "trace": run.trace,
        "meta": run_metadata(run.seed),
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "predictions": list(workload.predictions),
        "repetitions": len(plain),
        "setup_samples": run.setups,
        "rep_walls": walls,
        "rep_tail_s": tail_percentile(walls),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "end_to_end": end_to_end,
        "failures": [r for r in run.op_results if r["problems"]],
    }
    if run.trace:
        by_rep = {}
        for op in run.traces():
            by_rep.setdefault(op["tag"][0], []).append(op)
        rep_traces = [by_rep[k] for k in sorted(by_rep)]
        per_rep = [tracer.layer_metrics(ops) for ops in rep_traces]
        # counts keep an observed whole number; times take the plain median
        layers = {name: (statistics.median_low if isinstance(v, int) else statistics.median)(
                      [m[name] for m in per_rep]) for name, v in per_rep[0].items()}
        traced = [r for r in run.reps if r["traced"]]
        layers["import.s"] = statistics.median(run.imports)
        layers["cli.write.s"] = statistics.median(r["write_s"] for r in traced)
        layers["trace.overhead_frac"] = (statistics.median(r["wall"] for r in traced)
                                         / statistics.median(walls) - 1.0)
        gone = tracer.missing_metrics(run.missing)
        report["missing_targets"] = run.missing
        report["missing_metrics"] = gone
        report["per_layer"] = {k: v for k, v in layers.items() if k not in gone}
        report["self_time_share"] = tracer.self_time_shares(rep_traces)
    return report


def result_line(report: dict) -> dict:
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()}}


def summary_lines(report: dict) -> list:
    e2e = report["end_to_end"]
    n = report["repetitions"]
    lines = [f"workload {report['workload']}  seed {report['meta']['seed']}  "
             f"trace {int(report['trace'])}  untraced repetitions {n}"]
    for key in ("setup_s", "rep_s"):
        lines.append(f"  {key:<12} {e2e[key]:.6f} s")
    tail = report["rep_tail_s"]
    if tail is None:
        lines.append(f"  {'rep_tail_s':<12} n/a s  ({n} repetitions: no percentile has "
                     f"{MIN_TAIL_BEYOND} beyond it; max {max(report['rep_walls']):.6f} s; "
                     "not gated)")
    else:
        lines.append(f"  {'rep_tail_s':<12} {tail[1]:.6f} s  (p{tail[0]:.1f} of {n} "
                     "repetitions; not gated)")
    lines.append(f"  {'cpu_s':<12} {e2e['cpu_s']:.6f} s")
    lines.append(f"  {'peak_rss_mb':<12} {e2e['peak_rss_mb']:.3f} MB")
    lines.append(f"  {'failed_frac':<12} {report['failed_frac']:.6f} ratio  "
                 f"({report['failed']}/{report['attempted']} operations; not gated)")
    for failure in report["failures"][:10]:
        lines.append(f"  FAILED rep {failure['rep']} {failure['op']}: "
                     f"{'; '.join(failure['problems'])}")
    if report["trace"]:
        for name, value in report["per_layer"].items():
            lines.append(f"  {name:<32} {value:.6g} {metric_unit(name)}")
        for name in report["missing_metrics"]:
            lines.append(f"  {name:<32} missing")
        lines.append("  self-time share per layer (median over traced repetitions):")
        for name, share in report["self_time_share"].items():
            lines.append(f"    {name:<28} {100.0 * share:6.2f} %")
    return lines
