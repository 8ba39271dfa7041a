"""What a reader runs as written: each demo prints exactly its committed
demos/expected/<name>.txt, with no numeric warning and nothing on stderr;
README's library quick start runs with no numeric warning; and the package
exports exactly the names `__all__` lists."""

import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import frustoval

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


def test_readme_library_quick_start_runs(capsys):
    # the README's first python block as written: it prints the median
    # translation error, the MASE and the subspace diameter
    block = re.search(r"## Library quick start.*?```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(v) > 0 for v in printed), printed


def test_exports_match_all():
    # every listed name is bound by a star import, and every public name the
    # package binds, its submodules aside, is listed
    star = {}
    exec("from frustoval import *", star)
    assert set(frustoval.__all__) <= star.keys()
    public = {name for name, value in vars(frustoval).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(frustoval.__all__), sorted(public - set(frustoval.__all__))
