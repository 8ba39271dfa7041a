"""What the benchmark's traced run needs from the program: after the imports
perfbench/run.py makes, every module and function perfbench/tracing.py wraps
by name is loaded and callable. Both lists are read from those files."""

import ast
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
