"""Time catalog identities and Schur expansions, one point per fresh interpreter.

    PYTHONPATH=src python3 scripts/bench_meta.py [--table NAME] [label=SRC_DIR ...]

``--table meta`` (the default) times the five length-graded ``meta-*``
identities at N = 8..14 (BENCH_7.json) and, since BENCH_22.json,
``extLieConj3``, whose left side sums Thrall's higher modules
H_lam[Lie] over the partitions lam; ``--table inverse`` times the seven
ids on the log routes of ``plethysm``: the four of the Lie, L^(2), L^(q)
and Conj inverses, the two Cadogan inverses and ``conj-psums``, at
N = 12, 16, 20, 24 and 32 (BENCH_29.json; BENCH_19.json and BENCH_18.json
ran the first six at N <= 24, BENCH_13.json the first four at N = 10..24
and BENCH_8.json at N = 10..16); ``--table powers`` times
identities whose left sides are power series of modules at N = 12..24:
``solomon`` and ``fT-sym`` (H[F]), ``extLieConj2`` (E[F]),
``conj-inverse`` (E^pm[F]) and, since BENCH_25.json, ``lie2-hpm``
(H^pm[F]), so each of the four has a point (BENCH_9.json).  These three
time cold ``verify(id, N=N)`` calls at the id's default parameters and
record the status.
``--table routes`` expands the degree-n slice of ``fT-product T=all``, the
product prod_m (1 - p_m)^{-1} whose support is every partition of n, by the
rim-hook DP ``product_slice_schur`` and by ``to_schur(product_slice(...))``
(BENCH_6.json), the slices of the sparse scans ``mod1k-product k=3`` (the
parts m = 1 mod 3) and ``symLSbar-sum S=2`` (the odd parts) by the DP
(BENCH_16.json), and ``lie(32)`` by ``to_schur`` (BENCH_17.json,
BENCH_20.json).  ``to_schur`` is Horner's rule on the forward ribbon walk
since BENCH_17.json; a tree before it sums characters over every partition
of n, filling ``_char``.  Since BENCH_20.json the walk keys every shape by
its beta-set integer.  The DP is imported from the package, which has it
from ``symfunc`` since BENCH_21.json and from ``plethysm`` before.
``--table scans`` runs ``scan_positivity`` over n = 1..20 with S = {2, 3}
for ``symLS-even-sum``, which averages the DP's expansion with its omega
image, and for ``symLS-sum``, the same slices without it, and records the
negatives (BENCH_21.json).  ``--table lifting`` runs ``lifting_check(q, n, budget=n)``
for q = 3 at n = 20..40 and q = 5 at n = 26..40, and records its negatives
(BENCH_14.json and BENCH_20.json; BENCH_10.json ran n <= 32); ``--table partitions`` enumerates
``partitions_of(k)`` for every k <= n from a cold memo (BENCH_12.json);
``--table catalog`` verifies all 58 catalog ids in one cold interpreter at
their default windows and at windows raised by 6 and by 10 (``lifting`` at
``n_max`` = N, at most its budget), and records the ids that did not pass
and the three slowest of the last untraced run (BENCH_24.json).
``--table basis`` builds ``h_of(n)`` and ``e_of(n)`` from a cold memo at
n = 24, 30, 36 and 40 and records their numbers of terms (BENCH_30.json).
Each ``label=SRC_DIR`` names a source tree to import ``symlie`` from (for
example ``parent=../parent/src change=src`` to compare two checkouts); with
none, the tree on PYTHONPATH is timed under the label ``here``.  Every
point runs on every tree before the next point starts: each of its REPEATS
untraced rounds, and then its traced round, runs once on each tree, and the
tree that goes first rotates from one point to the next, so host drift
does not land on one tree alone.  Each entry records the wall times of the
cold untraced calls (``wall_runs_s``) and their median (``wall_s``), the
median over those calls of the interpreter's peak resident set size
(``peak_rss_mb``, ``ru_maxrss``, imports included; BENCH_19.json and
earlier do not record it), the sizes of the ``_char`` and ``_power_schur``
memos (``power_entries`` is null in a tree without that memo) and the
number of interned partitions the last call leaves, and the peak memory
tracemalloc traces in one more cold call (BENCH_18.json and earlier time
each point once, one tree after the other).  A call that runs past
TIMEOUT_S seconds is stopped, and its point records ``"timeout":
"untraced"`` with the wall times before it or, when only the traced call
ran too long, the untraced figures and ``"timeout": "traced"``
(BENCH_17.json and earlier record either case as status ``timeout``
alone).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

TIMEOUT_S = 60
REPEATS = 3


def _verify_points(ids, ns):
    return [{"id": id, "N": n} for id in ids for n in ns]


TABLES = {
    "meta": (
        "verify(meta-*, N) at weight mu, and verify(extLieConj3, N)",
        _verify_points(("meta-sym", "meta-ext", "meta-altext", "meta-altsym", "meta-equiv", "extLieConj3"), (8, 10, 12, 14)),
    ),
    "inverse": (
        "verify(inverse id, N) at default parameters",
        _verify_points(
            ("lie-inv", "lie2-inv", "lieq-inverse", "conj-inverse", "cadogan-inverse", "lie2-cadogan-inverse", "conj-psums"),
            (12, 16, 20, 24, 32),
        ),
    ),
    "powers": (
        "verify(power-series id, N) at default parameters",
        _verify_points(("solomon", "extLieConj2", "fT-sym", "conj-inverse", "lie2-hpm"), (12, 16, 20, 24)),
    ),
    "routes": (
        "the degree-n slice of three product scans by the Schur DP, and of fT-product T=all and lie(n) by to_schur",
        [{"route": "dp", "scan": "fT-product T=all", "n": n} for n in (16, 20, 24, 28, 32)]
        + [{"route": "dp", "scan": scan, "n": n} for scan in ("mod1k-product k=3", "symLSbar-sum S=2") for n in (20, 28, 32)]
        + [{"route": "to_schur", "scan": "fT-product T=all", "n": n} for n in (16, 18, 20, 22, 24, 28, 32)]
        + [{"route": "to_schur", "scan": "lie", "n": 32}],
    ),
    "scans": (
        "scan_positivity(scan, range(1, 21), {'S': PrimeSet((2, 3))})",
        [{"scan": scan, "S": "2,3", "n": 20} for scan in ("symLS-even-sum", "symLS-sum")],
    ),
    "lifting": (
        "lifting_check(q, n, budget=n)",
        [{"q": 3, "n": n} for n in (20, 24, 28, 32, 36, 40)] + [{"q": 5, "n": n} for n in (26, 32, 36, 40)],
    ),
    "partitions": ("partitions_of(k) for every k <= n", [{"n": n} for n in (20, 24, 28, 32)]),
    "basis": ("h_of(n) and e_of(n) from a cold memo", [{"basis": b, "n": n} for b in ("h", "e") for n in (24, 30, 36, 40)]),
    "catalog": (
        "verify(id, N=default_N + plus) for all 58 ids in one process, lifting at n_max = N up to its budget",
        [{"plus": plus} for plus in (0, 6, 10)],
    ),
}


def _call(table: str, point: dict) -> dict:
    """Run one point; return what it answered."""
    if table == "routes":
        from symlie import lie, product_slice, product_slice_schur, to_schur

        if point["scan"] == "lie":
            to_schur(lie(point["n"]))
            return {}
        step = {"fT-product T=all": 1, "mod1k-product k=3": 3, "symLSbar-sum S=2": 2}[point["scan"]]
        factors = [(m, -1, -1) for m in range(1, point["n"] + 1, step)]
        if point["route"] == "dp":
            product_slice_schur(factors, point["n"])
        else:
            to_schur(product_slice(factors, point["n"]))
        return {}
    if table == "scans":
        from symlie import PrimeSet, scan_positivity

        S = PrimeSet.from_text(point["S"])
        return {"negatives": scan_positivity(point["scan"], range(1, point["n"] + 1), {"S": S}).negatives()}
    if table == "basis":
        from symlie import e_of, h_of

        return {"terms": len((h_of if point["basis"] == "h" else e_of)(point["n"])._num)}
    if table == "partitions":
        from symlie.partitions import partitions_of

        for k in range(point["n"] + 1):
            partitions_of(k)
        return {}
    if table == "catalog":
        from symlie.verify import DEFAULT_LIFT_BUDGET, list_identities, verify

        failed, times = [], {}
        for entry in list_identities():
            id, n, params = entry["id"], entry["default_N"] + point["plus"], None
            if "n_max" in entry["defaults"]:
                n = min(n, DEFAULT_LIFT_BUDGET)
                params = {"n_max": n}
            t0 = time.perf_counter()
            if not verify(id, params, N=n).passed:
                failed.append(id)
            times[id] = time.perf_counter() - t0
        slowest = sorted(times, key=times.get, reverse=True)[:3]
        return {"failed": failed, "slowest": [[id, round(times[id], 3)] for id in slowest]}
    if table == "lifting":
        from symlie.verify import lifting_check

        return {"negatives": lifting_check(point["q"], point["n"], budget=point["n"]).negatives()}
    from symlie.verify import verify

    return {"status": verify(point["id"], N=point["N"]).status}


def one(table: str, point: dict, traced: bool) -> dict:
    from symlie import symfunc
    from symlie.partitions import _interned
    from symlie.symfunc import _char

    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    answer = _call(table, point)
    wall = time.perf_counter() - t0
    if traced:
        return {"peak_traced_mb": round(tracemalloc.get_traced_memory()[1] / 2**20, 1)}
    memos = {
        "char_entries": _char.cache_info().currsize,
        "power_entries": symfunc._power_schur.cache_info().currsize if hasattr(symfunc, "_power_schur") else None,
        "interned": len(_interned),
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1), **answer, **memos}


def main() -> None:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one(sys.argv[2], json.loads(sys.argv[3]), sys.argv[4] == "1")))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", choices=sorted(TABLES), default="meta")
    ap.add_argument("trees", nargs="*", metavar="label=SRC_DIR")
    args = ap.parse_args()
    workload, points = TABLES[args.table]
    envs = {}
    for label, src in (dict(arg.split("=", 1) for arg in args.trees) or {"here": None}).items():
        envs[label] = dict(os.environ)
        if src is not None:
            envs[label]["PYTHONPATH"] = os.path.abspath(src)
    labels, entries = list(envs), []
    for i, point in enumerate(points):
        k = i % len(labels)
        order = labels[k:] + labels[:k]
        found = {label: {"tree": label, **point} for label in order}
        walls = {label: [] for label in order}
        rss = {label: [] for label in order}
        for traced in ("0",) * REPEATS + ("1",):
            for label in order:
                if "timeout" in found[label]:
                    continue
                argv = [sys.executable, __file__, "--one", args.table, json.dumps(point), traced]
                try:
                    run = subprocess.run(argv, capture_output=True, text=True, check=True, env=envs[label], timeout=TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    found[label]["timeout"] = "traced" if traced == "1" else "untraced"
                    continue
                result = json.loads(run.stdout)
                if traced == "0":
                    walls[label].append(result.pop("wall_s"))
                    rss[label].append(result.pop("peak_rss_mb"))
                found[label].update(result)
        for label in order:
            if walls[label]:
                found[label].update(
                    wall_s=statistics.median(walls[label]), wall_runs_s=walls[label], peak_rss_mb=statistics.median(rss[label])
                )
            entries.append(found[label])
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    workload = f"{workload}, {REPEATS} untraced runs and one traced run per point, each in a cold interpreter, trees alternating"
    report = {"workload": workload, "host": host, "entries": entries}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
