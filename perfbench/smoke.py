"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  It checks that:

- every workload, untraced and traced, exits 0 and ends with a result line
  that names exactly the metrics BENCHMARK.json lists, each with its unit
  and a valid name;
- the exact work counts repeat across two traced runs with one seed;
- a wrong stored reference, injected here only, makes the find-verify
  workload count a failed op, name it and exit 1;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ARGS = ["--seed", "1", "--seconds", "0.5", "--scale", "tiny"]


def bench(root: Path, workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--trace", str(trace), *ARGS],
        capture_output=True, text=True, cwd=root, timeout=300, check=False,
    )
    return done.returncode, done.stdout.splitlines(), done.stderr


def check_metrics(result: dict, listed: list[dict]):
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"metric names or units differ from BENCHMARK.json: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(m["unit"]), name
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def check_runs():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        reports = []
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"]), (1, SPEC["per_layer"])):
            code, lines, err = bench(ROOT, workload, trace)
            assert code == 0, f"{workload} trace {trace} exited {code}:\n{err}"
            check_metrics(json.loads(lines[-1]), listed)
            reports.append(json.loads(lines[-2])["report"])
        for key in ("counts", "traced_counts"):
            assert reports[1][key] == reports[2][key], f"{workload}: {key} differ between two runs"
        assert reports[1]["traced_counts"]["per_op"], f"{workload}: no traced counts"
        print(f"ok {workload}")


def check_wrong_reference():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run

    for key in run.THREAD_ENV:
        os.environ[key] = "1"
    import workloads

    wrong = json.loads(workloads.REFERENCES.read_text())
    wrong["eq-2-8-60"] *= 1.0 + 1e-9
    original = workloads.BUILDERS["find-verify"]
    workloads.BUILDERS["find-verify"] = workloads._joined(
        workloads.build_find, lambda seed, scale: workloads.build_verify(seed, scale, references=wrong)
    )
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "find-verify", "--trace", "0", *ARGS])
    finally:
        workloads.BUILDERS["find-verify"] = original
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1 and not result["correct"], result
    assert result["failed"] >= 1 and "0/verify-eq-2-8-60-t8" in err.getvalue(), err.getvalue()
    print("ok wrong reference counted as a failure")


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench(bare, "find-verify", 0)
        assert code != 0 and not lines, (code, lines)
    finally:
        shutil.rmtree(bare)
    print("ok fails without the package source")


if __name__ == "__main__":
    check_runs()
    check_wrong_reference()
    check_bare_directory()
    print("smoke test passed")
