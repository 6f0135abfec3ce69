"""One cold verma-lab run, as a user's shell would start it.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py RECORD [--trace SPANS] [--sample] [--setup-only] -- CLI-ARGS...

The process imports ``vermalab.cli`` (set-up), stamps the monotonic
clock, then times ``vermalab.cli.run(CLI-ARGS)`` from dispatch until the
report is written.  It writes RECORD as JSON: the ready stamp, the
verdict time, the exit code, the captured stdout and the peak RSS.  With
``--trace`` the layers are traced and the per-layer counts are added to
RECORD, and the spans are written to SPANS.

Right after set-up the process times ``SETUP_PROBES`` probes of the host's
speed (``hostspeed.py``).  With ``--sample`` it also probes the host's
speed while the CLI runs; the verdict time then excludes the probes'
own time.
"""

import contextlib
import io
import json
import resource
import sys
import time

import vermalab.cli

READY = time.monotonic()

import hostspeed  # noqa: E402  (benchmark code, not part of set-up)

SETUP_PROBES = 50


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    record_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    record = {"ready": READY, "module": vermalab.cli.__file__, "setup_probe_s": hostspeed.seconds(SETUP_PROBES)}
    if "--setup-only" not in opts:
        tracer = None
        if spans_path:
            import layertrace

            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        out = io.StringIO()
        sampler = hostspeed.Sampler() if "--sample" in opts else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), sampler:
            start = time.perf_counter()
            code = vermalab.cli.run(cli_args)
            record["verdict_s"] = time.perf_counter() - start
        if "--sample" in opts:
            record["verdict_s"] -= sampler.total_s
            record["run_probes"] = sampler.count
            record["run_probe_s"] = sampler.total_s / max(sampler.count, 1)
        record["exit_code"] = code
        record["stdout"] = out.getvalue()
        if tracer is not None:
            record["layers"] = layertrace.layer_metrics(tracer)
            record["counts"] = layertrace.exact_counts(tracer)
            record["spans_dropped"] = tracer.spans_dropped
            tracer.write_spans(spans_path)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
