"""verma-lab benchmark: cold-process time to verdict on four suite workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gl-relations --seed 1 --seconds 30 --trace 0

Each repetition is a fresh single-threaded ``python3`` process that imports
``vermalab.cli`` from ``src/`` and dispatches one CLI command; it is a
closed loop with one client and one run at a time.

``--trace 0`` repeats the workload until ``--seconds`` are used (at least
``MIN_RUNS`` times) and reports the medians of

* ``verdict_s``: from ``vermalab.cli.run`` dispatch until the report is
  written;
* ``setup_s``: from spawning the process until it is ready to dispatch
  (interpreter start plus ``import vermalab.cli``), also sampled by
  set-up-only processes in the rest of the window;
* ``peak_rss_mb``: the process's ``ru_maxrss``.

Both times are seconds at the reference host speed (see ``hostspeed.py``).
The child times a fixed probe kernel every 50 ms while the CLI runs, and
``verdict_s`` is the run's wall time, less the probes' own time, times
``hostspeed.REFERENCE_S`` over the mean probe time.  ``setup_s`` is scaled
by probes run back to back right after set-up.  On a shared host the wall
time of one run drifts by tens of percent within a minute; the scaled
time drifts far less and still moves in proportion to any change in the
program.  The unscaled medians are printed too.

``--trace 1`` makes one untraced and two traced runs and reports the
per-layer counts and self times (see ``layertrace.py``), the tracing
overhead, and checks that the two traced runs count exactly the same.

The seed picks the base phase of the monodromy loop and, with
``--trace 1``, whether the untraced run goes first or last; the other
three workloads are fixed exact configurations.

Every run's verdict is checked against ``references.json``; a run whose
exit code, item statuses or report bytes differ counts in ``failed``.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3  # verdict samples per untraced run, even past the window
MIN_SETUPS = 5  # set-up-only samples per untraced run
MAX_SETUPS = 40
MIN_PROBES = 10  # host-speed probes a verdict run must have had to be scaled
HARD_LIMIT_S = 170.0  # a run must end within 180 s

MONODROMY_SPEC = "x1=0,x2=1/3,x3=5/7,x4=3/2,h=1"
# Base phases of the monodromy loop.  The loop is the same circle in
# (q2, q3) for every phase, but the integrator's work depends on where it
# starts: from 815k to 1.2M polynomial evaluations over one turn.  These
# four phases all cost 1.018-1.021M evaluations, so the seed changes the
# input without changing the amount of work.
MONODROMY_PHASES = tuple(0.7 + i * math.pi / 16 for i in (18, 19, 20, 21))

WORKLOADS = {
    "gl-relations": {
        "argv": ["verify-gl", "--n", "4", "--max-degree", "3"],
        "why": "hinted field path fed by linalg matmul and the verma commutator ladder; small exact_div operands, mostly block-cache hits, no gcd",
        "hot": ["ring.exact_div", "ring.mul", "field.add", "field.mul", "linalg.matmul", "verma.eij_block"],
        "cold": ["ring.poly_gcd"],
    },
    "qc-deformed": {
        "argv": ["qc-check", "--n", "5", "--degree", "1,1,0,0"],
        "why": "same hinted path in the 8-variable quantum ring with larger exact_div operands, where heap division and packed exponents show most",
        "hot": ["ring.exact_div", "ring.mul", "field.add", "field.mul", "linalg.matmul", "shiftarg.qc_block"],
        "cold": [],
    },
    "whittaker-solve": {
        "argv": ["whittaker", "--n", "4", "--degree", "3,2,1"],
        "why": "solve_linear on the generic field path; the only workload where poly_gcd dominates and the hinted path is bypassed",
        "hot": ["ring.poly_gcd", "linalg.solve_linear", "field.add", "field.mul", "whittaker.component"],
        "cold": [],
    },
    "monodromy-transport": {
        "argv": ["monodromy", "--n", "4", "--degree", "1,1,1", "--spec", MONODROMY_SPEC, "--kappa", "1/2"],
        "why": "shiftarg integrator dominated by MultiPoly.evaluate; a layout that speeds arithmetic but slows evaluation shows here",
        "hot": ["ring.evaluate", "field.evaluate_complex", "shiftarg.transport", "shiftarg.qc_block"],
        "cold": [],
    },
}


class Checkout:
    """The source tree under test and this run's scratch directory."""

    def __init__(self, root: Path, tag: str):
        self.root = root
        self.work = root / ".bench_build" / "perfbench" / f"{tag}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            VERMALAB_THREADS="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.count = 0

    def spawn(
        self, cli_args: list[str], timeout: float, setup_only: bool = False, spans: Path | None = None, sample: bool = False
    ) -> dict:
        """Start one cold process; return its record, or one with
        ``error`` set when the process did not finish normally."""
        self.count += 1
        record_path = self.work / f"record-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(record_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--trace", str(spans)]
        if sample:
            cmd.append("--sample")
        cmd += ["--", *cli_args]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s", "wall_s": time.monotonic() - spawned}
        wall = time.monotonic() - spawned
        if proc.returncode != 0 or not record_path.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}", "wall_s": wall}
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
        module = Path(record["module"]).resolve()
        if self.root.resolve() / "src" not in module.parents:
            return {"error": f"imported vermalab from {module}, not from this checkout", "wall_s": wall}
        record["setup_s"] = record["ready"] - spawned
        record["wall_s"] = wall
        return record

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def workload_args(name: str, seed: int, work: Path) -> tuple[list[str], str]:
    """CLI arguments of one repetition and the key of its reference."""
    argv = list(WORKLOADS[name]["argv"])
    key = name
    if name == "monodromy-transport":
        index = seed % len(MONODROMY_PHASES)
        path = work / "loop.json"
        path.write_text(json.dumps({"segments": loop_segments(MONODROMY_PHASES[index])}), encoding="utf-8")
        argv += ["--path", str(path)]
        key = f"{name}/phase{index}"
    return argv + ["--out", str(work / "out.json")], key


def loop_segments(phase: float) -> list[dict]:
    """Four quarter turns of q2 on radius 0.3 and q3 on radius 0.5."""
    pts = [
        [0.3 * cmath.exp(1j * (phase + k * math.pi / 2)), 0.5 * cmath.exp(1j * (phase + k * math.pi / 2))]
        for k in range(4)
    ]
    pts.append(pts[0])
    as_pairs = [[[z.real, z.imag] for z in p] for p in pts]
    return [{"from": as_pairs[k], "to": as_pairs[k + 1]} for k in range(4)]


def parse_statuses(stdout: str) -> list[list[str]]:
    """Item labels and statuses from the report text the CLI prints."""
    marks = {"ok": "pass", "FAIL": "fail", "vacuous": "vacuous", "FINDING": "finding"}
    out = []
    for line in stdout.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and "]" in stripped:
            mark, label = stripped[1:].split("]", 1)
            if mark.strip() in marks:
                out.append([label.strip(), marks[mark.strip()]])
    return out


def verdict(record: dict, out_path: Path, ref: dict) -> str | None:
    """None when the run's verdict matches the reference, else why not."""
    if "error" in record:
        return record["error"]
    if record["exit_code"] != ref["exit_code"]:
        return f"exit code {record['exit_code']}, reference {ref['exit_code']}"
    if parse_statuses(record["stdout"]) != ref["statuses"]:
        return "item statuses differ from the reference"
    if "sha256" in ref:
        digests = output_digests(out_path)
        if digests != ref["sha256"]:
            return f"output bytes differ from the reference: {digests} vs {ref['sha256']}"
        return None
    # monodromy: numbers within the run's own error estimate
    if not out_path.exists():
        return "no matrix written"
    got = json.loads(out_path.read_bytes())
    est = got["error_estimate"]
    for part in ("matrix_re", "matrix_im"):
        if len(got[part]) != len(ref[part]):
            return f"{part} has another shape"
    worst = max(
        abs(complex(gr, gi) - complex(rr, ri))
        for grow, girow, rrow, rirow in zip(got["matrix_re"], got["matrix_im"], ref["matrix_re"], ref["matrix_im"])
        for gr, gi, rr, ri in zip(grow, girow, rrow, rirow)
    )
    return None if worst <= est else f"matrix entry off by {worst:.3e} > error estimate {est:.3e}"


def output_digests(out_path: Path) -> dict[str, str]:
    """sha256 of the report and of its side files (``out.json.*``)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_path.parent.glob(out_path.name + "*"))
    }


def clear_outputs(out_path: Path) -> None:
    for p in out_path.parent.glob(out_path.name + "*"):
        p.unlink()


def tail_text(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct < 50:
        return f"no tail percentile (n={n}; one needs at least 20 samples)"
    rank = -(-pct * n // 100)
    return f"p{pct} {sorted(values)[rank - 1]:.4f} (n={n})"


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(root: Path, args) -> dict:
    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "loop": "closed, one client, one cold process at a time",
    }


def measure(co: Checkout, args, refs: dict) -> tuple[dict, int, int, list[str]]:
    begin = time.monotonic()
    deadline = begin + args.seconds
    cli_args, key = workload_args(args.workload, args.seed, co.work)
    ref = refs[key]
    out_path = co.work / "out.json"
    co.spawn([], HARD_LIMIT_S, setup_only=True)  # warm the page cache and bytecode
    verdicts, setups, rss, problems, walls = [], [], [], [], []
    raw = {"verdict_s": [], "setup_s": []}
    attempted = failed = 0
    while True:
        left = HARD_LIMIT_S - (time.monotonic() - begin)
        clear_outputs(out_path)
        rec = co.spawn(cli_args, left, sample=True)
        attempted += 1
        walls.append(rec["wall_s"])
        why = verdict(rec, out_path, ref)
        if why is not None:
            failed += 1
            problems.append(why)
        if "error" not in rec and rec["run_probes"] < MIN_PROBES:
            rec = {"error": f"only {rec['run_probes']} host-speed probes during the run"}
            failed += 1
            problems.append(rec["error"])
        if "error" not in rec:
            verdicts.append(at_reference_speed(rec["verdict_s"], rec["run_probe_s"]))
            setups.append(at_reference_speed(rec["setup_s"], rec["setup_probe_s"]))
            raw["verdict_s"].append(rec["verdict_s"])
            raw["setup_s"].append(rec["setup_s"])
            rss.append(rec["peak_rss_mb"])
        now = time.monotonic()
        if now + max(walls) > begin + HARD_LIMIT_S - 5 or "error" in rec:
            break
        if attempted >= MIN_RUNS and now + max(walls) > deadline:
            break
    setup_only = 0
    while setup_only < MAX_SETUPS:
        if setup_only >= MIN_SETUPS and time.monotonic() + 1.0 > deadline:
            break
        rec = co.spawn([], HARD_LIMIT_S - (time.monotonic() - begin), setup_only=True)
        if "error" in rec:
            problems.append(f"set-up-only run: {rec['error']}")
            break
        setups.append(at_reference_speed(rec["setup_s"], rec["setup_probe_s"]))
        raw["setup_s"].append(rec["setup_s"])
        setup_only += 1
    samples = {"verdict_s": verdicts, "setup_s": setups, "peak_rss_mb": rss}
    units = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"{name}: median {med:.4f} {units[name]}, {tail_text(values)}")
        print(f"  samples: {' '.join(f'{v:.4f}' for v in values)}")
    for name, values in raw.items():
        if values:
            print(f"unscaled {name}: median {statistics.median(values):.4f} s")
    print(f"verdict_errors: {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics, attempted, failed, problems


def at_reference_speed(wall_s: float, probe_s: float) -> float:
    """A time measured while one probe took ``probe_s``, at the speed
    where it takes ``hostspeed.REFERENCE_S``."""
    return wall_s * hostspeed.REFERENCE_S / probe_s


def trace(co: Checkout, args, refs: dict) -> tuple[dict, int, int, list[str]]:
    cli_args, key = workload_args(args.workload, args.seed, co.work)
    ref = refs[key]
    out_path = co.work / "out.json"
    spec = WORKLOADS[args.workload]
    # the seed decides whether the untraced run goes first or last
    order = ["plain", "traced", "traced"] if args.seed % 2 == 0 else ["traced", "traced", "plain"]
    begin = time.monotonic()
    plain, traced, problems = None, [], []
    attempted = failed = 0
    for kind in order:
        clear_outputs(out_path)
        spans = None
        if kind == "traced":
            spans = co.root / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}-{len(traced)}.jsonl"
        rec = co.spawn(cli_args, HARD_LIMIT_S - (time.monotonic() - begin), spans=spans)
        attempted += 1
        why = verdict(rec, out_path, ref)
        if why is not None:
            failed += 1
            problems.append(f"{kind}: {why}")
            continue
        if kind == "plain":
            plain = rec
        else:
            traced.append(rec)
    metrics = {}
    if len(traced) == 2:
        first, second = traced
        if first["counts"] != second["counts"]:
            problems.append("the two traced runs counted differently")
        for name in spec["hot"]:
            if first["layers"][f"{name}.calls"] == 0:
                problems.append(f"hook {name} recorded no calls on {args.workload}, where it is hot")
        for name in spec["cold"]:
            if first["layers"][f"{name}.calls"] != 0:
                print(f"note: {name} was called {first['layers'][f'{name}.calls']} times; expected none")
        if first["spans_dropped"]:
            print(f"note: {first['spans_dropped']} spans over the in-memory limit were counted but not kept")
        for name, value in first["layers"].items():
            if name.endswith("_s"):
                value = (value + second["layers"][name]) / 2
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        traced_s = statistics.mean(r["verdict_s"] for r in traced)
        metrics["trace.verdict_s"] = {"value": traced_s, "unit": "s"}
        if plain is not None:
            overhead = traced_s - plain["verdict_s"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"tracing overhead: traced {traced_s:.3f} s - untraced {plain['verdict_s']:.3f} s = {overhead:.3f} s")
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    return metrics, attempted, failed, problems


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    if stat.startswith("dividend_terms"):
        return "terms"
    return "count"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "vermalab" / "cli.py").is_file():
        print(f"error: {root} holds no verma-lab source (src/vermalab/cli.py); run from the root of a checkout", file=sys.stderr)
        return 2
    print("record: " + json.dumps(run_record(root, args), sort_keys=True))
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    co = Checkout(root, f"{args.workload}-seed{args.seed}")
    try:
        metrics, attempted, failed, problems = (trace if args.trace else measure)(co, args, refs)
    finally:
        co.close()
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
