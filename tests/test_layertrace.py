"""The per-layer benchmark trace still finds every hook it rebinds.

``perfbench/layertrace.py`` rebinds functions of the package by name from
outside ``src/``; a rename there would make a traced benchmark run fail.
This runs four small CLI commands under its tracer in a fresh process
(its rebinding is process-wide) and checks the hooks recorded calls, and
that the block cache the tracer inspects recorded hits.
"""

import cmath
import json
import math
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
    cli.run(["monodromy", "--n", "3", "--degree", "1,1", "--spec", "x1=0,x2=1,x3=2,h=1",
             "--path", sys.argv[2] + "/loop.json", "--out", sys.argv[2] + "/mono.json"]),
]
print(json.dumps({
    "codes": codes,
    "calls": {k: s.calls for k, s in tracer.stats.items()},
    "block_hits": tracer.stats["verma.eij_block"].extra["hits"],
}))
"""


def test_benchmark_hooks_record_calls(tmp_path):
    # a three-segment loop of q2 around 0, the fewest segments a loop takes
    pts = [0.3 * cmath.exp(2j * math.pi * k / 3) for k in range(4)]
    loop = [{"from": [[a.real, a.imag]], "to": [[b.real, b.imag]]} for a, b in zip(pts, pts[1:])]
    (tmp_path / "loop.json").write_text(json.dumps({"segments": loop}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench", "layertrace.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0]
    for hook in (
        "verma.eij_block", "shiftarg.qc_block", "whittaker.component", "ring.exact_div",
        "shiftarg.transport", "ring.evaluate", "field.evaluate_complex",
    ):
        assert out["calls"].get(hook, 0) > 0, hook
    # the hit count reads VermaContext._blocks under ("E", a, b, d); a
    # change of that key would zero verma.eij_block.hit_ratio unnoticed
    assert out["block_hits"] > 0
