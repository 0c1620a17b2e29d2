import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "# horizonopt trajectory v1 kind=state columns=2\nt,node_0,node_1\n0,1.5,2\n0.5,0.25,-3\n"


def write_run(root, label="optimize", code=0, csv=CSV, wall_time=1.0):
    """A hand-made run directory as ``run_commands`` leaves it."""
    run = root / label
    (run / "out").mkdir(parents=True)
    (run / "exit").write_text(f"{code}\n")
    (run / "stdout").write_text("converged=True iterations=3\n")
    (run / "stderr").write_text("")
    (run / "out" / "state.csv").write_text(csv)
    (run / "out" / "manifest.json").write_text(json.dumps({
        "outputs": [str(run / "out" / "state.csv")], "status": "complete",
        "timings": {"optimize": wall_time}, "versions": {"numpy": str(wall_time)}}))
    (run / "out" / "report.json").write_text(json.dumps({"cost": 0.5, "wall_time": wall_time}))
    return run


class TestCompareRuns:
    def test_identical_runs_differ_nowhere_but_in_skipped_keys_and_paths(self, tmp_path):
        # timings, versions, wall_time and the run directories differ
        write_run(tmp_path / "base", wall_time=1.0)
        write_run(tmp_path / "change", wall_time=2.0)
        rows = compare_outputs.compare_runs(tmp_path / "base", tmp_path / "change")
        assert [item for item, _ in rows] == [
            "optimize/exit", "optimize/out/manifest.json", "optimize/out/report.json",
            "optimize/out/state.csv", "optimize/stderr", "optimize/stdout"]
        assert all(result == "identical" for _, result in rows)

    def test_changed_csv_entry_reports_its_differences(self, tmp_path):
        write_run(tmp_path / "base")
        write_run(tmp_path / "change", csv=CSV.replace("0.25", "0.2500000001"))
        rows = dict(compare_outputs.compare_runs(tmp_path / "base", tmp_path / "change"))
        assert rows.pop("optimize/out/state.csv") == "differs: max abs 1.000e-10, max rel 4.000e-10"
        assert set(rows.values()) == {"identical"}

    def test_changed_exit_code_is_reported(self, tmp_path):
        write_run(tmp_path / "base", code=0)
        write_run(tmp_path / "change", code=1)
        rows = dict(compare_outputs.compare_runs(tmp_path / "base", tmp_path / "change"))
        assert rows.pop("optimize/exit") == "differs: 0 -> 1"
        assert set(rows.values()) == {"identical"}

    def test_missing_file_and_changed_text_are_reported(self, tmp_path):
        write_run(tmp_path / "base")
        run = write_run(tmp_path / "change")
        (run / "out" / "report.json").unlink()
        (run / "stdout").write_text("converged=False iterations=3\n")
        rows = dict(compare_outputs.compare_runs(tmp_path / "base", tmp_path / "change"))
        assert rows["optimize/out/report.json"] == "only in base"
        assert rows["optimize/stdout"] == "differs in more than numbers"


@pytest.mark.parametrize("a, b, expected", [
    ("x=1.0", "x=1.0", "identical"),
    ("x=2,y=-4e-3", "x=2,y=-4.4e-3", "differs: max abs 4.000e-04, max rel 9.091e-02"),
    ("x=NaN,y=1", "x=NaN,y=3", "differs: max abs 2.000e+00, max rel 6.667e-01"),
    ("x=1", "x=1,y=1", "differs in more than numbers"),
])
def test_verdict(a, b, expected):
    assert compare_outputs.verdict(a, b) == expected


def test_every_command_writes_under_its_own_label():
    labels = [label for label, _ in compare_outputs.COMMANDS]
    assert len(labels) == len(set(labels))
    assert all("--out" not in argv for _, argv in compare_outputs.COMMANDS)
