"""The README's library sketch runs as written, in a fresh interpreter, so
that deleting or moving a name it documents fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_sketch_runs_and_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert any(line.endswith("# True") for line in sketch.splitlines())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", sketch], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    golden = (ROOT / "tests" / "golden" / "yb_ya_j3_depth12.csv").read_text(encoding="utf-8")
    assert run.stdout == "True\n" + golden + "\n"
