"""Time the five length-graded ``meta-*`` identities, one id and N per fresh interpreter.

    PYTHONPATH=src python3 scripts/bench_meta.py [label=SRC_DIR ...] > BENCH_7.json

Each ``label=SRC_DIR`` names a source tree to import ``symlie`` from (for
example ``parent=../parent/src change=src`` to compare two checkouts); with
none, the tree on PYTHONPATH is timed under the label ``here``.  Each entry
records the wall time of one cold ``verify(id, N=N)`` at the default weight
mu, its status, and the peak memory tracemalloc traces in a second cold
call.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

IDS = ("meta-sym", "meta-ext", "meta-altext", "meta-altsym", "meta-equiv")
NS = (8, 10, 12, 14)


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
    trees = dict(arg.split("=", 1) for arg in sys.argv[1:]) or {"here": None}
    entries = []
    for label, src in trees.items():
        env = dict(os.environ)
        if src is not None:
            env["PYTHONPATH"] = os.path.abspath(src)
        for id in IDS:
            for n in NS:
                entry = {"tree": label, "id": id, "N": n}
                for traced in ("0", "1"):
                    argv = [sys.executable, __file__, "--one", id, str(n), traced]
                    run = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
                    entry.update(json.loads(run.stdout))
                entries.append(entry)
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    report = {"workload": "verify(meta-*, N) at weight mu, one id and N per cold interpreter", "host": host, "entries": entries}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
