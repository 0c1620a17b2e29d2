"""Compare every byte-compared output of horizonopt against a git revision.

    python tools/compare_outputs.py REV [--work DIR]

exports the ``src/`` of revision REV with ``git archive`` and runs each
command of ``COMMANDS`` twice, once on that tree and once on this checkout's
``src/``, each run in a fresh interpreter with its own run directory.  Both
trees read the same documents, this checkout's ``configs/``.  For every
command it compares the exit code, stdout, stderr and every file the run
wrote, and prints one line per item: ``identical``, or the largest absolute
and relative difference between the numbers of two texts that differ only in
numbers.  JSON files are compared without their ``wall_time``, ``timings``
and ``versions`` keys, and a run directory's path reads the same in both
trees.  The exit code is 0 when every item is identical and 1 otherwise.
Only local git is needed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _cfg(name):
    return ["--config", str(ROOT / "configs" / f"{name}.json")]


def _mesh_2d(size, box=False):
    """Overrides that put a shipped 1D document on a size x size mesh; a box
    document also needs its observation region as a box."""
    out = ["--set", "mesh.dimension=2", "--set", f"mesh.shape=[{size},{size}]",
           "--set", "mesh.control.box=[[0.2,0.8],[0.2,0.8]]"]
    return out + (["--set", "mesh.observation.box=[[0.0,0.6],[0.0,0.6]]"] if box else [])


_SHIPPED = ("ball_cubic", "box_cubic", "horizon_compact", "lq_small",
            "invalid_aux_rate_boundary", "invalid_control_discount",
            "invalid_second_order", "invalid_state_discount")

# (label, arguments of ``python -m horizonopt.cli`` before ``--out``)
COMMANDS = (
    *((f"optimize-{name}", ["optimize", *_cfg(name)])
      for name in ("ball_cubic", "box_cubic", "lq_small", "horizon_compact")),
    ("optimize-ball_cubic-2d", ["optimize", *_cfg("ball_cubic"), *_mesh_2d(8)]),
    ("optimize-box_cubic-2d", ["optimize", *_cfg("box_cubic"), *_mesh_2d(8, box=True)]),
    ("optimize-source100", ["optimize", *_cfg("ball_cubic"), "--set",
                            "data.source.template=constant", "--set", "data.source.value=100"]),
    ("socheck-ball_cubic-seed1", ["socheck", *_cfg("ball_cubic"), "--seed", "1"]),
    ("socheck-ball_cubic-seed3", ["socheck", *_cfg("ball_cubic"), "--seed", "3"]),
    ("socheck-box_cubic", ["socheck", *_cfg("box_cubic"), "--seed", "2"]),
    # more samples than one forward march takes, so the batch is split
    ("socheck-ball_cubic-130", ["socheck", *_cfg("ball_cubic"), "--samples", "130"]),
    ("socheck-ball_cubic-16x16", ["socheck", *_cfg("ball_cubic"), *_mesh_2d(16),
                                  "--directions", "10", "--samples", "10"]),
    ("socheck-box_cubic-8x8", ["socheck", *_cfg("box_cubic"), *_mesh_2d(8, box=True),
                               "--directions", "10", "--samples", "10"]),
    ("horizon-study", ["horizon-study", *_cfg("horizon_compact"), "--plot"]),
    ("gradient-check-ball_cubic", ["gradient-check", *_cfg("ball_cubic")]),
    ("gradient-check-ball_cubic-2d", ["gradient-check", *_cfg("ball_cubic"), *_mesh_2d(8)]),
    ("gradient-check-horizon_compact", ["gradient-check", *_cfg("horizon_compact")]),
    ("solve-forward-lq_small", ["solve-forward", *_cfg("lq_small")]),
    ("solve-forward-horizon_compact", ["solve-forward", *_cfg("horizon_compact")]),
    ("solve-forward-diffusion-1", ["solve-forward", *_cfg("ball_cubic"),
                                   "--set", "operator.diffusion=-1"]),
    *((f"validate-{name}", ["validate", *_cfg(name)]) for name in _SHIPPED),
    ("validate-diffusion-1", ["validate", *_cfg("ball_cubic"), "--set", "operator.diffusion=-1"]),
)

SKIPPED_KEYS = {"wall_time", "timings", "versions"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:NaN|-?Infinity|nan|-?inf)\b")


def export_tree(rev: str, dest: Path) -> None:
    """Write the ``src/`` of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_commands(src: Path, runs: Path) -> None:
    """Run every command on the package under ``src``: ``runs/<label>`` gets
    the files ``exit``, ``stdout`` and ``stderr`` and the directory ``out``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    for label, argv in COMMANDS:
        run = runs / label
        run.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "horizonopt.cli", *argv, "--out", "out"],
                              cwd=run, env=env, capture_output=True, text=True)
        (run / "exit").write_text(f"{done.returncode}\n")
        (run / "stdout").write_text(done.stdout)
        (run / "stderr").write_text(done.stderr)


def _strip(node):
    if isinstance(node, dict):
        return {key: _strip(value) for key, value in node.items() if key not in SKIPPED_KEYS}
    if isinstance(node, list):
        return [_strip(value) for value in node]
    return node


def _text(path: Path, root: Path) -> str:
    text = path.read_text().replace(str(root), "<run>")
    if path.suffix == ".json":
        text = json.dumps(_strip(json.loads(text)), indent=1, sort_keys=True)
    return text


def verdict(a: str, b: str) -> str:
    """``identical``, the largest differences of two texts that differ only in
    their numbers, or ``differs in more than numbers``."""
    if a == b:
        return "identical"
    x, y = NUMBER.findall(a), NUMBER.findall(b)
    if len(x) != len(y) or NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "differs in more than numbers"
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        gap = np.where(same, 0.0, np.abs(x - y))
        rel = np.where(same, 0.0, gap / np.maximum(np.abs(x), np.abs(y)))
    return f"differs: max abs {gap.max():.3e}, max rel {rel.max():.3e}"


def compare_runs(base: Path, change: Path) -> list:
    """(``label/item``, verdict) for the exit code, stdout, stderr and every
    output file of each command run under ``base`` or ``change``."""
    rows = []
    for label in sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()}):
        a, b = base / label, change / label
        names = sorted({p.relative_to(d).as_posix() for d in (a, b) if d.is_dir()
                        for p in d.rglob("*") if p.is_file()})
        for name in names:
            pa, pb = a / name, b / name
            if not (pa.is_file() and pb.is_file()):
                rows.append((f"{label}/{name}", "only in " + ("base" if pa.is_file() else "change")))
            elif name == "exit":
                codes = pa.read_text().strip(), pb.read_text().strip()
                rows.append((f"{label}/exit", "identical" if codes[0] == codes[1]
                             else f"differs: {codes[0]} -> {codes[1]}"))
            else:
                rows.append((f"{label}/{name}", verdict(_text(pa, base), _text(pb, change))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--work", help="new directory for the exported tree and the runs "
                                       "(default: a temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    if args.work and Path(args.work).exists():
        parser.error(f"--work {args.work} already exists")
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(args.work or scratch).resolve()
        export_tree(args.rev, work / "tree")
        run_commands(work / "tree" / "src", work / "base")
        run_commands(ROOT / "src", work / "change")
        rows = compare_runs(work / "base", work / "change")
    width = max(len(item) for item, _ in rows)
    for item, result in rows:
        print(f"{item:<{width}}  {result}")
    same = sum(result == "identical" for _, result in rows)
    print(f"{same} of {len(rows)} items identical "
          f"({len(COMMANDS)} commands against {args.rev})")
    return 0 if same == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
