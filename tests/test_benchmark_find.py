"""The benchmark's find ops (perfbench/workloads.py, FIND_PROBLEMS["full"])
must each return a configuration that re-verifies as a design, in one
attempt each.  Running them here makes a finder change that would fail the
benchmark, or a start rule that wastes attempts on it, fail in about a
second of pytest, not in a full benchmark run.
"""

from sphdesign.design import verify_design
from sphdesign.kernel import kernel_model
from sphdesign.optimizer import step_kind

SEED = 1


def test_benchmark_find_ops_reverify(workloads):
    ops = workloads.build_find(SEED, "full").ops
    assert len(ops) == sum(p[3] for p in workloads.FIND_PROBLEMS["full"])
    attempts = 0
    for op in ops:
        config, report = op.run(0)
        fresh = verify_design(kernel_model(config.d, report.t), config, tolerance=1e-12)
        assert fresh.verdict, f"{op.name}: re-verified defect {fresh.defect:.3e}"
        attempts += report.meta["attempts"]
    assert attempts == len(ops) == 13


def test_benchmark_finds_never_switch(workloads):
    # no benchmark find caps a CG solve: each ends on the solve it starts on,
    # dense for the 40-point S^2 finds and CG for the others (dN > 160)
    for op in workloads.build_find(SEED, "full").ops:
        _, report = op.run(0)
        expected = step_kind(report.d, report.n)
        assert (report.meta["step"], report.meta["capped_solves"]) == (expected, 0), op.name
