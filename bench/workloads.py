"""The three workloads: their fixed verdict lists and the check of each verdict.

A verdict is one call into the public API that returns a pass/fail or
positive/negative answer.  Every verdict is checked against the answers
recorded in ``answers.json``; a mismatch or an exception counts as failed.
Calls look up their function on the module at call time, so the tracer's
rebinding is seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from functools import partial
from typing import NamedTuple

WORKLOADS = ("catalog", "inverse-deep", "scan-dense")

INVERSE_DEEP_IDS = (
    "lie-inv",
    "lie2-inv",
    "conj-inverse",
    "lieq-inverse",
    "cadogan-inverse",
    "lie2-cadogan-inverse",
    "conj-psums",
    "pp-frac",
)

# (family, parameter) for the dense scans; each degree is its own verdict.
SCANS = (("fT-product", "T=all"), ("symLSbar-sum", "S=2"), ("mod1k-product", "k=3"))
DENSE_SCAN = "fT-product"  # its support is every partition of n

# The full job, and the tiny one the smoke test runs.
SIZES = {
    "full": {"catalog": None, "inverse_N": 12, "scan_n": 19, "lifts": ((3, 28), (5, 26))},
    "tiny": {"catalog": ("HE", "pq", "regdecomp", "thrall"), "inverse_N": 5, "scan_n": 7, "lifts": ((3, 10), (5, 10))},
}


def _mod(name):
    return importlib.import_module(f"symlie.{name}")


def _api(module, fname, *args, **kwargs):
    return getattr(_mod(module), fname)(*args, **kwargs)


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    """``symlie.cli.main(argv)`` in-process, with what it prints captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _api("cli", "main", argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def _scan(family, param, n):
    key, value = param.split("=", 1)
    if key == "T":
        params = {"T": _mod("families").PartSet.parse(value)}
    elif key == "S":
        params = {"S": _mod("partitions").PrimeSet.from_text(value)}
    else:
        params = {key: int(value)}
    return _api("verify", "scan_positivity", family, [n], params, jobs=1)


def _check_cli(res: CliResult, want: str):
    if res.rc != 0 or res.err:
        return f"exit {res.rc}: {res.err.strip()}"
    return None if res.out == want else "output differs from the recorded bytes"


def _check_identity(report, want: str, n: int):
    got = (report.status, report.N, report.first_mismatch)
    return None if got == (want, n, None) else f"got {got}, recorded {want!r} at N={n}"


def _check_scan(report, want: dict, n: int):
    (v,) = report.verdicts
    got = {repr(k): str(c) for k, c in v.witnesses.items()}
    if v.n != n or v.positive != (not want) or got != want:
        return f"n={v.n} positive={v.positive} witnesses={got}, recorded {want}"
    return None


def _check_lift(report, want: list, n_max: int):
    want = [m for m in want if m <= n_max]
    got = report.negatives()
    return None if got == want else f"negatives {got}, recorded {want}"


def plan(workload: str, size: str, answers: dict) -> list[list]:
    """The workload's verdicts as blocks of (label, call, check).

    Blocks run in the order given; the seed orders the verdicts inside each
    block.  ``call()`` is the timed part.  ``check(result)`` returns None when
    the result matches the recorded answer, else a message.
    """
    sz = SIZES[size]
    if workload == "catalog":
        recorded = answers["catalog"]
        block = []
        for ident in sz["catalog"] or sorted(recorded):
            argv = ["verify", "--id", ident, "--format", "json"]
            block.append((f"verify {ident}", partial(run_cli, argv), partial(_check_cli, want=recorded[ident])))
        return [block]
    if workload == "inverse-deep":
        n = sz["inverse_N"]
        block = []
        for ident in INVERSE_DEEP_IDS:
            call = partial(_api, "verify", "verify", ident, None, n)
            check = partial(_check_identity, want=answers["inverse-deep"][ident], n=n)
            block.append((f"verify {ident} N={n}", call, check))
        return [block]
    if workload == "scan-dense":
        # The scans share one character memo, and so do the two lifting
        # checks, so the verdict that runs first at a degree pays for the
        # characters the others reuse.  Each scan keeps its natural ascending
        # degree order with the dense family first at every degree, and q=3
        # lifts before q=5: which verdict pays is then fixed, and the seed
        # orders only the two sparse families within each degree.
        blocks = []
        for n in range(1, sz["scan_n"] + 1):
            dense, sparse = [], []
            for family, param in SCANS:
                want = answers["scan-dense"][f"{family} {param}"].get(str(n), {})
                verdict = (f"scan {family} {param} n={n}", partial(_scan, family, param, n), partial(_check_scan, want=want, n=n))
                (dense if family == DENSE_SCAN else sparse).append(verdict)
            blocks += [dense, sparse]
        for q, n_max in sz["lifts"]:
            call = partial(_api, "verify", "lifting_check", q, n_max, jobs=1)
            check = partial(_check_lift, want=answers["lifting"][str(q)], n_max=n_max)
            blocks.append([(f"lifting q={q} n_max={n_max}", call, check)])
        return blocks
    raise ValueError(f"unknown workload {workload!r}")


def ordered(blocks: list[list], rng) -> list:
    """The verdicts of all blocks in block order, shuffled by ``rng`` within each block."""
    out = []
    for block in blocks:
        block = list(block)
        rng.shuffle(block)
        out.extend(block)
    return out
