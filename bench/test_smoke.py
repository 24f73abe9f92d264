"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines, name):
    """The value printed for ``name``, checking that its unit follows it."""
    return {ln.split()[0]: ln.split()[1:3] for ln in lines if ln.split()}.get(name)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    lines, result = run_bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        value, printed_unit = _printed(lines, name)
        assert printed_unit == unit and float(value) == pytest.approx(result["metrics"][name]["value"], abs=1e-6)
    assert _printed(lines, "failed_share") == ["0.000000", "ratio"]


def test_traces_separate_the_layers_and_repeat():
    _, inverse = run_bench("inverse-deep", 1)
    assert inverse["metrics"]["symfunc.to_schur_calls"]["value"] == 0
    assert inverse["metrics"]["plethysm.pleth_calls"]["value"] > 0
    _, scan = run_bench("scan-dense", 1)
    assert scan["metrics"]["plethysm.pleth_calls"]["value"] == 0
    assert scan["metrics"]["symfunc.to_schur_calls"]["value"] > 0
    _, again = run_bench("scan-dense", 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: scan["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


TAMPER = {
    "catalog": lambda a: a["catalog"].__setitem__("HE", a["catalog"]["HE"].replace("pass", "fail")),
    "inverse-deep": lambda a: a["inverse-deep"].__setitem__("lie-inv", "fail"),
    "scan-dense": lambda a: a["lifting"].__setitem__("3", [3, 4]),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_recorded_answer_counts_as_failed(workload, tmp_path):
    with open(os.path.join(HERE, "answers.json")) as fh:
        answers = json.load(fh)
    TAMPER[workload](answers)
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    lines, result = run_bench(workload, 0, "--answers", str(path))
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]
    assert float(_printed(lines, "failed_share")[0]) > 0
