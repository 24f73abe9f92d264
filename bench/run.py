"""The symlie benchmark: one workload, measured end to end or per layer.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass of the workload runs in a fresh
interpreter (bench/one_pass.py), one after another: a closed loop with one
caller that issues the next verdict only when the previous one returned,
always with jobs=1.  Passes repeat while the next one is expected to end
no more than half a pass after ``--seconds``.  The seed fixes only the
order of the verdicts, and every pass of a run uses that order, so every
pass does the same work.

Times are reported as the upper decile over the run's passes, and set-up
as the upper decile of extra spawns spread across the run.  Those spawns
also run the pass's cheapest leading verdicts, as extra latency samples.
On a shared host the CPU holds a usual speed and runs faster than it in
bursts of seconds to a minute.  A median moves with the share of the run
that such bursts cover; the upper decile tracks the usual speed.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics,
writing each traced pass's spans under .bench_out/.  Every verdict is
checked against bench/answers.json.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import SIZES, WORKLOADS  # noqa: E402

# A run must end within 180 s; no pass is started after this point.
DEADLINE_S = 170.0
# Set-up spawns before each pass, on top of the pass's own spawn.
SETUP_SPAWNS_PER_PASS = 2
# A set-up spawn then runs the pass's leading verdicts that took at most this
# share of the last pass's wall_s.  Each one is the same computation as in a
# full pass, from the same fresh state, so it adds a latency sample; the
# small verdicts of scan-dense all run within a few tens of ms of a pass and
# would otherwise get one sample of the host's speed per pass.
PREFIX_SHARE = 0.025

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "partitions.self_s": "s",
    "partitions.enumerated": "count",
    "partitions.interned": "count",
    "symfunc.self_s": "s",
    "symfunc.to_schur_s": "s",
    "symfunc.to_schur_calls": "count",
    "symfunc.peak_support": "terms",
    "symfunc.char_hits": "count",
    "symfunc.char_misses": "count",
    "symfunc.char_hit_ratio": "ratio",
    "symfunc.char_entries": "count",
    "symfunc.mul_calls": "count",
    "symfunc.mul_term_pairs": "count",
    "plethysm.self_s": "s",
    "plethysm.pleth_calls": "count",
    "plethysm.series_mul_calls": "count",
    "plethysm.exp_calls": "count",
    "families.self_s": "s",
    "families.members_built": "count",
    "verify.self_s": "s",
    "verify.verdicts": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's stamp compares with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = _now()
        self.setups: list[float] = []
        self.prefixes: list[dict] = []  # records of the set-up spawns' leading verdicts
        self.prefix = 0  # how many leading verdicts a set-up spawn runs

    def spawn(self, *argv: str) -> dict:
        """Run one child to completion and return its record plus its set-up time."""
        left = DEADLINE_S - (_now() - self.started)
        if left <= 0:
            raise BenchError(f"no time left for another pass within {DEADLINE_S:.0f} s")
        cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--answers", self.args.answers, *argv]
        t0 = _now()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass did not finish within {DEADLINE_S:.0f} s of the run's start") from None
        if proc.returncode != 0:
            raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec["ready"] - t0
        return rec

    def one_pass(self, index: int, traced: bool) -> dict:
        a = self.args
        argv = ["--workload", a.workload, "--size", a.size, "--order", str(a.seed)]
        for _ in range(SETUP_SPAWNS_PER_PASS):
            rec = self.spawn(*argv, "--prefix", str(self.prefix))
            self.setups.append(rec["setup_s"])
            if self.prefix:
                self.prefixes.append(rec)
        if traced:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            argv += ["--trace-out", os.path.join(out_dir, f"trace-{a.workload}-seed{a.seed}-pass{index}.json")]
        rec = self.spawn(*argv)
        if not traced:
            self.setups.append(rec["setup_s"])
            self.prefix = _prefix_length(rec)
        return rec

    def run(self) -> tuple[list[dict], list[dict]]:
        """Untraced (and with --trace 1, traced) passes until the run's time is used."""
        self.spawn("--prefix", "0")  # warm-up: writes the byte-code caches
        plain, traced = [], []
        t0 = _now()
        index = 0
        while True:
            start = _now()
            plain.append(self.one_pass(index, traced=False))
            index += 1
            if self.args.trace:
                traced.append(self.one_pass(index, traced=True))
                index += 1
            # Runs end near --seconds on average, not a whole pass past it.
            if _now() - t0 + (_now() - start) / 2 > self.args.seconds:
                return plain, traced


def _prefix_length(rec: dict) -> int:
    """How many leading verdicts of a pass took at most PREFIX_SHARE of its wall_s."""
    budget, spent = PREFIX_SHARE * rec["wall_s"], 0.0
    for k, v in enumerate(rec["verdicts"]):
        spent += v["seconds"]
        if spent > budget:
            return k
    return len(rec["verdicts"])


def _quantile(values, q):
    """Quantile q of values, interpolated between order statistics."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _upper(values):
    """The upper decile: a time at the host's usual speed, not in a fast burst."""
    return _quantile(values, 0.9)


def verdict_latencies(passes: list[dict]) -> list[float]:
    """Each verdict's upper-decile time over the records, which all share one order.

    One figure per verdict, rather than every sample pooled, keeps a quantile
    that falls in a gap between verdicts (inverse-deep has eight) from being
    set by the slowest or fastest copy of one of them.
    """
    times: dict[str, list[float]] = {}
    for rec in passes:
        for v in rec["verdicts"]:
            times.setdefault(v["verdict"], []).append(v["seconds"])
    return [_upper(t) for t in times.values()]


def end_to_end(runner: Runner, plain: list[dict]) -> tuple[dict, list[str]]:
    latencies = verdict_latencies(plain + runner.prefixes)
    samples = len(plain + runner.prefixes)
    values = {
        "setup_s": _upper(runner.setups),
        "wall_s": _upper(rec["wall_s"] for rec in plain),
        "verdict_s.p50": _quantile(latencies, 0.5),
        "verdict_s.p90": _quantile(latencies, 0.9),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in plain),
    }
    notes = {
        "setup_s": f"upper decile of {len(runner.setups)} spawns",
        "wall_s": f"upper decile of {len(plain)} passes",
        "verdict_s.p50": f"{len(latencies)} verdicts, each the upper decile of up to {samples} samples",
        "verdict_s.p90": f"{len(latencies)} verdicts, each the upper decile of up to {samples} samples",
        "peak_rss_mb": f"median of {len(plain)} passes",
    }
    lines = [f"{k:<28} {v:14.6f} {END_TO_END_UNITS[k]:<6} {notes[k]}" for k, v in values.items()]
    return values, lines


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    first = traced[0]["layers"]
    values = {}
    for k in PER_LAYER_UNITS:
        if k == "trace.overhead_s":
            values[k] = _upper(r["wall_s"] for r in traced) - _upper(r["wall_s"] for r in plain)
        elif k.endswith("_s"):
            values[k] = _upper(r["layers"][k] for r in traced)
        else:
            values[k] = first[k]  # counts repeat exactly: every pass does the same work
    lines = [f"{k:<28} {v:14.6f} {PER_LAYER_UNITS[k]:<6}" for k, v in values.items()]
    lines.append(f"(times: upper decile of {len(traced)} traced passes; trace.overhead_s: traced minus untraced wall_s)")
    return values, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symlie benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for the smoke test")
    ap.add_argument("--answers", default=os.path.join(HERE, "answers.json"), help="recorded answers to check against")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "symlie", "__init__.py")):
        print(f"error: no symlie sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        plain, traced = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [v for rec in plain + traced + runner.prefixes for v in rec["verdicts"]]
    failures = [v for v in records if v["error"] is not None]
    for v in failures[:20]:
        print(f"FAILED {v['verdict']}: {v['error']}")
    if args.trace:
        metrics, lines = per_layer(plain, traced)
        units = PER_LAYER_UNITS
    else:
        metrics, lines = end_to_end(runner, plain)
        units = END_TO_END_UNITS
    failed_share = len(failures) / len(records)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"{'failed_share':<28} {failed_share:14.6f} {'ratio':<6} {len(failures)} of {len(records)} verdicts")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
