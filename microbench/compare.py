"""Put pytest-benchmark runs of two checkouts side by side.

Run from the root of a checkout, after timing the same microbenchmark
file once or more with each checkout's ``src`` on ``PYTHONPATH``:

    python3 microbench/compare.py BENCH_x.json parent=p1.json change=c1.json change=c2.json parent=p2.json

Each ``SIDE=FILE`` argument is one ``--benchmark-json`` output; the order
given is recorded as the run order.  For every benchmark the result holds
each side's round count, minimum, quartiles and per-run medians in
milliseconds, and the ratio of the change's median to the parent's.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(out_path: str, runs: list[str]) -> int:
    sides: dict[str, list[dict]] = {}
    for arg in runs:
        side, path = arg.split("=", 1)
        with open(path, encoding="utf-8") as fh:
            sides.setdefault(side, []).append(json.load(fh))
    first = next(iter(sides.values()))[0]
    info = first["machine_info"]
    samples: dict[str, dict[str, list[list[float]]]] = {}
    for side, blobs in sides.items():
        for blob in blobs:
            for bench in blob["benchmarks"]:
                data = [x * 1e3 for x in bench["stats"]["data"]]
                samples.setdefault(bench["fullname"], {}).setdefault(side, []).append(data)
    results = {}
    for name, by_side in samples.items():
        summary = {}
        for side, per_run in by_side.items():
            values = sorted(v for run in per_run for v in run)
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[side] = {
                "rounds": len(values),
                "min": round(values[0], 3),
                "q1": round(q1, 3),
                "median": round(median, 3),
                "q3": round(q3, 3),
                "run_medians": [round(statistics.median(run), 3) for run in per_run],
            }
        if "parent" in summary and "change" in summary:
            summary["median_ratio_change_over_parent"] = round(summary["change"]["median"] / summary["parent"]["median"], 4)
        results[name] = summary
    record = {
        "unit": "ms per round",
        "run_order": [arg.split("=", 1)[0] for arg in runs],
        "pytest_benchmark": first["version"],
        "machine": {
            "cpu": info["cpu"].get("brand_raw"),
            "cpus": info["cpu"].get("count"),
            "python": info["python_version"],
            "system": info["system"],
        },
        "benchmarks": results,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
