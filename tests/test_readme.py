"""README's library example runs as written, so a renamed or re-signed entry
point shows up as a failing test rather than as stale documentation."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    # the example reads configs/ relative to the repository root
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["report"].converged
    assert [r.horizon for r in namespace["study"].records] == [2.0, 3.0, 4.0]
