"""The benchmark's find ops (perfbench/workloads.py, FIND_PROBLEMS["full"])
must each return a configuration that re-verifies as a design.  Running them
here makes a finder change that would fail the benchmark fail in about a
second of pytest, not in a full benchmark run.
"""

from sphdesign.design import verify_design
from sphdesign.kernel import kernel_model

SEED = 1


def test_benchmark_find_ops_reverify(workloads):
    ops = workloads.build_find(SEED, "full").ops
    assert len(ops) == sum(p[3] for p in workloads.FIND_PROBLEMS["full"])
    for op in ops:
        config, report = op.run(0)
        fresh = verify_design(kernel_model(config.d, report.t), config, tolerance=1e-12)
        assert fresh.verdict, f"{op.name}: re-verified defect {fresh.defect:.3e}"
