"""Each demo prints exactly its committed demos/expected/<name>.txt, with no
numeric warning and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    assert DEMOS and {p.stem for p in DEMOS} == {p.stem for p in (ROOT / "demos" / "expected").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_unchanged(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env, cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
