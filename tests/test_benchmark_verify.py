"""The benchmark's verify ops (perfbench/workloads.py, VERIFY_CONFIGS["full"])
must each pass the benchmark's own check: the stored reference defects to a
relative 1e-12 (verdicts for the catalog designs), an exact point-file round
trip, and a permuted defect equal to the defect bit for bit.  A verification
change that would fail the benchmark fails here in about a second.
"""

SEED = 1


def test_benchmark_verify_ops_pass_their_checks(workloads):
    ops = workloads.build_verify(SEED, "full").ops
    assert len(ops) == len(workloads.VERIFY_CONFIGS["full"])
    for op in ops:
        op.check(op.run(0))
