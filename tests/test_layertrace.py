"""The per-layer benchmark trace still finds every hook it rebinds.

``perfbench/layertrace.py`` rebinds functions of the package by name from
outside ``src/``; a rename there would make a traced benchmark run fail.
This runs three small CLI commands under its tracer in a fresh process
(its rebinding is process-wide) and checks the hooks recorded calls.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")

SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
from vermalab import cli
tracer = layertrace.Tracer()
layertrace.install(tracer)
codes = [
    cli.run(["verify-gl", "--n", "3", "--max-degree", "1", "--out", sys.argv[2] + "/gl.json"]),
    cli.run(["qc-check", "--n", "3", "--degree", "1,1", "--out", sys.argv[2] + "/qc.json"]),
    cli.run(["whittaker", "--n", "3", "--degree", "1,1", "--out", sys.argv[2] + "/wh.json"]),
]
print(json.dumps({"codes": codes, "calls": {k: s.calls for k, s in tracer.stats.items()}}))
"""


def test_benchmark_hooks_record_calls(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench", "layertrace.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    for hook in ("verma.eij_block", "shiftarg.qc_block", "whittaker.component", "ring.exact_div"):
        assert out["calls"].get(hook, 0) > 0, hook
