"""The benchmark's find ops (perfbench/workloads.py, FIND_PROBLEMS["full"])
must each return a configuration that re-verifies as a design.  Running them
here makes a finder change that would fail the benchmark fail in about a
second of pytest, not in a full benchmark run.  The workload module is
compiled from source, so nothing is written under perfbench/.
"""

import sys
import types
from pathlib import Path

from sphdesign.design import verify_design
from sphdesign.kernel import kernel_model

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1


def _workloads(monkeypatch):
    # compile from source: importing would write a bytecode cache beside it;
    # dataclasses look their module up in sys.modules while it executes
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_benchmark_find_ops_reverify(monkeypatch):
    workloads = _workloads(monkeypatch)
    ops = workloads.build_find(SEED, "full").ops
    assert len(ops) == sum(p[3] for p in workloads.FIND_PROBLEMS["full"])
    for op in ops:
        config, report = op.run(0)
        fresh = verify_design(kernel_model(config.d, report.t), config, tolerance=1e-12)
        assert fresh.verdict, f"{op.name}: re-verified defect {fresh.defect:.3e}"
