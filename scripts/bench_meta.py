"""Time catalog identities at raised windows, one id and N per fresh interpreter.

    PYTHONPATH=src python3 scripts/bench_meta.py [--table NAME] [label=SRC_DIR ...]

``--table meta`` (the default) times the five length-graded ``meta-*``
identities at N = 8..14 (BENCH_7.json); ``--table inverse`` times the four
plethystic-inverse identities at N = 10..16 (BENCH_8.json); ``--table
powers`` times four identities whose left sides are power series of modules
(``series_exp``) at N = 12..24 (BENCH_9.json).  Each ``label=SRC_DIR``
names a source tree to import ``symlie`` from (for example
``parent=../parent/src change=src`` to compare two checkouts); with none,
the tree on PYTHONPATH is timed under the label ``here``.  Each entry records
the wall time of one cold ``verify(id, N=N)`` at the id's default
parameters, its status, and the peak memory tracemalloc traces in a second
cold call.  A point whose untraced or traced call runs past TIMEOUT_S
seconds is stopped and recorded with status ``timeout`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

TIMEOUT_S = 60

TABLES = {
    "meta": (
        "verify(meta-*, N) at weight mu",
        ("meta-sym", "meta-ext", "meta-altext", "meta-altsym", "meta-equiv"),
        (8, 10, 12, 14),
    ),
    "inverse": (
        "verify(inverse id, N) at default parameters",
        ("lie-inv", "lie2-inv", "lieq-inverse", "conj-inverse"),
        (10, 12, 14, 16),
    ),
    "powers": (
        "verify(power-series id, N) at default parameters",
        ("solomon", "extLieConj2", "fT-sym", "conj-inverse"),
        (12, 16, 20, 24),
    ),
}


def one(id: str, n: int, traced: bool) -> dict:
    from symlie.verify import verify

    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    report = verify(id, N=n)
    wall = time.perf_counter() - t0
    if traced:
        return {"peak_traced_mb": round(tracemalloc.get_traced_memory()[1] / 2**20, 1)}
    return {"wall_s": round(wall, 3), "status": report.status}


def main() -> None:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", choices=sorted(TABLES), default="meta")
    ap.add_argument("trees", nargs="*", metavar="label=SRC_DIR")
    args = ap.parse_args()
    workload, ids, ns = TABLES[args.table]
    trees = dict(arg.split("=", 1) for arg in args.trees) or {"here": None}
    entries = []
    for label, src in trees.items():
        env = dict(os.environ)
        if src is not None:
            env["PYTHONPATH"] = os.path.abspath(src)
        for id in ids:
            for n in ns:
                entry = {"tree": label, "id": id, "N": n}
                for traced in ("0", "1"):
                    argv = [sys.executable, __file__, "--one", id, str(n), traced]
                    try:
                        run = subprocess.run(argv, capture_output=True, text=True, check=True, env=env, timeout=TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        entry = {"tree": label, "id": id, "N": n, "status": "timeout"}
                        break
                    entry.update(json.loads(run.stdout))
                entries.append(entry)
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    report = {"workload": f"{workload}, one id and N per cold interpreter", "host": host, "entries": entries}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
