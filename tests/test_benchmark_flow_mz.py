"""The benchmark's flow and MZ ops (perfbench/workloads.py, FLOW_PROBLEMS and
MZ_PROBLEMS at "full" scale) must each pass the benchmark's own check: a
positive final average and a slope margin for every positivity trial, and a
non-degenerate ratio within the sampling bounds for every MZ check.  Each MZ
integral also passes the benchmark's audit, agreement with a fixed
high-resolution rule.  Both run on `KernelPolynomial`, so a change to its
evaluation that would fail the benchmark fails here in a few seconds.
"""

SEED = 1


def test_benchmark_flow_ops_pass_their_checks(workloads):
    ops = workloads.build_flow(SEED, "full").ops
    assert len(ops) == len(workloads.FLOW_PROBLEMS["full"])
    for op in ops:
        op.check(op.run(0))


def test_benchmark_mz_ops_pass_their_checks(workloads):
    ops = workloads.build_mz(SEED, "full").ops
    assert len(ops) == 2 * len(workloads.MZ_PROBLEMS["full"])
    for op in ops:
        out = op.run(0)
        op.check(out)
        op.audit(out)
