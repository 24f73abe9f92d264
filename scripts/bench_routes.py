"""Time the two Schur routes of the densest product scan, one degree per fresh interpreter.

    PYTHONPATH=src python3 scripts/bench_routes.py > BENCH_6.json

Both routes expand the degree-n slice of ``fT-product T=all``, the product
prod_m (1 - p_m)^{-1} whose support is every partition of n: the rim-hook
DP ``product_slice_schur`` and the character route
``to_schur(product_slice(...))``.  Each entry records the wall time of one
cold call, the peak memory tracemalloc traces in a second cold call, and
the sizes of the ``_strips`` and ``_char`` memos it leaves.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

ROUTES = {"dp": (16, 20, 24, 28), "to_schur": (16, 18, 20)}


def one(route: str, n: int, traced: bool) -> dict:
    from symlie.plethysm import product_slice, product_slice_schur
    from symlie.symfunc import _char, _strips, to_schur

    factors = [(m, -1, -1) for m in range(1, n + 1)]
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    if route == "dp":
        product_slice_schur(factors, n)
    else:
        to_schur(product_slice(factors, n))
    wall = time.perf_counter() - t0
    if traced:
        return {"peak_traced_mb": round(tracemalloc.get_traced_memory()[1] / 2**20, 1)}
    return {
        "wall_s": round(wall, 3),
        "strips_entries": _strips.cache_info().currsize,
        "char_entries": _char.cache_info().currsize,
    }


def main() -> None:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")))
        return
    entries = []
    for route, ns in ROUTES.items():
        for n in ns:
            entry = {"route": route, "n": n}
            for traced in ("0", "1"):
                argv = [sys.executable, __file__, "--one", route, str(n), traced]
                entry.update(json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout))
            entries.append(entry)
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    report = {"workload": "fT-product T=all, one degree n per cold interpreter", "host": host, "entries": entries}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
