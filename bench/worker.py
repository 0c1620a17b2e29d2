"""Benchmark worker: one fresh interpreter that imports horizonopt, sets up
once, then runs CLI commands through ``horizonopt.cli.main`` on request.

Protocol: one JSON object per line.  The worker first writes
``{"import_s"}`` when it is ready.  Each request
``{"argv": [...], "trace": bool, "tag": [rep, op]}`` gets the reply
``{"rc", "wall", "cpu", "error"}``, where ``rc`` is None if the
command raised.  At end of input the worker writes its traced spans to the
``--trace-file`` given, replies ``{"maxrss_kb"}`` and exits.

Usage: python bench/worker.py [--trace-file PATH] [--setup CONFIG [PATH=VALUE ...]]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback


def _send(payload: dict) -> None:
    sys.__stdout__.write(json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def _setup(config: str, overrides: list) -> None:
    """What every command pays before its work: config load with overrides,
    build_problem, operator assembly and validate_assumptions."""
    from horizonopt.config import apply_overrides, build_problem, load_config
    from horizonopt.problem import validate_assumptions
    cfg = load_config(config)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    spec = build_problem(cfg)
    spec.operators  # assembled on first access
    validate_assumptions(spec)


def _run(cli, argv: list) -> dict:
    rc, error = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        # keep the command's output off the protocol channel
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error:
        print(error, file=sys.stderr, flush=True)
    return {"rc": rc, "wall": wall, "cpu": cpu,
            "error": error and error.strip().splitlines()[-1]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-file")
    parser.add_argument("--setup", nargs="+", metavar="ARG")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import horizonopt.cli as cli
    import_s = time.perf_counter() - t0
    if args.setup:
        _setup(args.setup[0], args.setup[1:])

    tracer = None
    if args.trace_file:
        from tracer import Tracer
        tracer = Tracer()
    _send({"import_s": import_s})

    for line in sys.stdin:
        request = json.loads(line)
        traced = tracer is not None and request.get("trace")
        if traced:
            tracer.install()
            tracer.begin_op(request.get("tag"))
        reply = _run(cli, request["argv"])
        if traced:
            tracer.end_op()
            tracer.uninstall()
        _send(reply)

    if tracer is not None:
        with open(args.trace_file, "w") as fh:
            json.dump({"missing": tracer.missing, "ops": tracer.ops}, fh,
                      separators=(",", ":"))
    _send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
