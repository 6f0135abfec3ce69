"""Record the reference verdicts that perfbench/run.py checks every run against.

Run from the root of a checkout whose verdicts are known to be right:

    python3 perfbench/record_references.py

It runs each workload once (each monodromy base phase once) and writes
``perfbench/references.json``: the exit code and item statuses of every
workload, the sha256 of the report and its side files for the exact
workloads, and the transported matrix for the monodromy loop.
"""

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    co = run.Checkout(root, "references")
    refs = {}
    try:
        jobs = [(name, 0) for name in run.WORKLOADS if name != "monodromy-transport"]
        jobs += [("monodromy-transport", i) for i in range(len(run.MONODROMY_PHASES))]
        for name, seed in jobs:
            cli_args, key = run.workload_args(name, seed, co.work)
            out_path = co.work / "out.json"
            run.clear_outputs(out_path)
            rec = co.spawn(cli_args, run.HARD_LIMIT_S)
            if "error" in rec:
                print(f"{key}: {rec['error']}", file=sys.stderr)
                return 1
            ref = {"exit_code": rec["exit_code"], "statuses": run.parse_statuses(rec["stdout"])}
            if name == "monodromy-transport":
                got = json.loads(out_path.read_text(encoding="utf-8"))
                ref.update(matrix_re=got["matrix_re"], matrix_im=got["matrix_im"], error_estimate=got["error_estimate"])
            else:
                ref["sha256"] = run.output_digests(out_path)
            refs[key] = ref
            print(f"{key}: exit {rec['exit_code']}, {len(ref['statuses'])} items, {rec['verdict_s']:.2f} s")
    finally:
        co.close()
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
