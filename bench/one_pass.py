"""One pass of a workload in a fresh interpreter; started by run.py.

Imports symlie first and stamps the monotonic clock, so the parent can
time set-up from spawn to the end of ``import symlie``.  Then it runs the
workload's verdicts in the order given by ``--order`` (with ``--prefix``,
only the leading ones), checks each against the recorded answers, and
prints one JSON record as its last line.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import symlie  # noqa: E402,F401  (set-up ends here)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

sys.path.insert(1, HERE)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import symlie.cli  # noqa: E402,F401  (loaded before tracing so the tracer wraps it)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run(args) -> dict:
    with open(args.answers) as fh:
        answers = json.load(fh)
    verdicts = workloads.ordered(workloads.plan(args.workload, args.size, answers), random.Random(args.order))
    if args.prefix is not None:
        verdicts = verdicts[: args.prefix]
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    records = []
    output_bytes = 0
    first = None
    for label, call, check in verdicts:
        t0 = time.perf_counter()
        try:
            result = tracer.verdict(label, call) if tracer else call()
        except Exception:
            result, error = None, traceback.format_exc().strip().splitlines()[-1]
        else:
            error = None
        t1 = time.perf_counter()
        first = t0 if first is None else first
        if error is None:
            try:
                error = check(result)
            except Exception:
                error = "check raised " + traceback.format_exc().strip().splitlines()[-1]
        if isinstance(result, workloads.CliResult):
            output_bytes += len(result.out.encode())
        records.append({"verdict": label, "seconds": t1 - t0, "error": error})
    out = {
        "ready": READY,
        "wall_s": t1 - first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": records,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["layers"]["cli.output_bytes"] = output_bytes
        tracer.write_spans(args.trace_out)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--order", default="0", help="seed of the verdict order")
    ap.add_argument("--answers", required=True, help="recorded answers to check against")
    ap.add_argument("--trace-out", default="", help="trace this pass and write its spans here")
    ap.add_argument("--prefix", type=int, help="run only this many leading verdicts; 0 stops after import symlie")
    args = ap.parse_args()
    out = {"ready": READY} if args.prefix == 0 else run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
