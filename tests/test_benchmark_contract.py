"""What the benchmark needs from the program: every stage of its chains
parses as a command line, and after the imports perfbench/run.py makes,
every module and function perfbench/tracing.py wraps by name, and every
module attribute its traced run uses, is there. All of these are read from
those files."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# run in a fresh interpreter, so no module another test imported is loaded
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from frustoval import {imports}
missing = []
for short, names in json.loads(sys.argv[2]).items():
    module = sys.modules.get("frustoval." + short)
    if module is None:
        missing.append("frustoval." + short)
    else:
        missing += ["frustoval.%s.%s" % (short, n) for n in names if not callable(getattr(module, n, None))]
print(json.dumps(missing))
"""

# builds every workload's chain in a temporary directory and parses each
# stage's argv as the command line would
CHAIN_PROBE = """
import json, sys, tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import run
from frustoval import cli
refused = []
with tempfile.TemporaryDirectory() as tmp:
    for workload in sorted(run.WORKLOADS):
        (Path(tmp) / workload).mkdir()
        for stage in run.build(workload, 1, Path(tmp) / workload).stages:
            try:
                with redirect_stderr(StringIO()) as err:
                    cli.build_parser().parse_args(stage.argv)
            except SystemExit:
                refused.append([workload, stage.argv, err.getvalue()])
print(json.dumps({"workloads": sorted(run.WORKLOADS), "refused": refused}))
"""


def wrapped_names() -> dict:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"])


def traced_run_imports() -> str:
    found = re.findall(r"^\s*from frustoval import ([\w, ]+)", (BENCH / "run.py").read_text(), re.M)
    assert len(found) == 1, found
    return found[0].strip()


def test_traced_run_finds_every_wrapped_function():
    wrapped = wrapped_names()
    assert "metrics" in wrapped and "dataset" in wrapped
    proc = subprocess.run([sys.executable, "-c", PROBE.format(imports=traced_run_imports()), str(ROOT / "src"),
                           json.dumps(wrapped)], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []


def test_every_chain_stage_parses():
    proc = subprocess.run([sys.executable, "-c", CHAIN_PROBE, str(BENCH), str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["workloads"] == ["indoor-dense", "outdoor-sparse", "walk-split"]
    assert got["refused"] == []


def test_traced_run_attributes_resolve():
    modules = traced_run_imports().replace(" ", "").split(",")
    tree = ast.parse((BENCH / "run.py").read_text())
    traced_run = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "traced_run")
    used = {(node.value.id, node.attr) for node in ast.walk(traced_run)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert ("dataset", "read_poses") in used and ("cli", "main") in used
    missing = [f"{m}.{name}" for m, name in sorted(used)
               if not hasattr(importlib.import_module(f"frustoval.{m}"), name)]
    assert missing == []
