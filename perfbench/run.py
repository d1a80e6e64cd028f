"""sphdesign benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload find-verify --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and nothing else.  Workloads (see workloads.py and README.md):
find-verify and flow-mz.  One caller runs the workload's ops in passes, each
op starting when the previous one ends, until ``--seconds`` have passed.

The next-to-last line of standard output is a detail report (provenance,
per-op timings, exact work counts, failures); it is also written to
``.bench_out/``.  The last line is the result:

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes over the same inputs alternate, and the metrics
are the per-layer ones from the traced passes plus the tracing overhead.

Exit codes: 0 all ops correct, 1 some op failed its check (the failing ops
are named on standard error), 2 the checkout holds no sphdesign source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("find-verify", "flow-mz")
# set before numpy loads: the code is bit-deterministic only at a fixed
# thread count, and one thread keeps the two cores from contending
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is measured in this process and in this many fresh probe processes
SETUP_PROBES = 6
PERCENTILES = (99.9, 99, 95, 90, 75)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help="time set-up only and print it")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(args):
    """Import the package, build the workload's inputs and run one warm-up op."""
    start = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    import sphdesign

    if not Path(sphdesign.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"error: imported sphdesign from {sphdesign.__file__}, not from {SOURCE}")
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed, args.scale)
    workload.warmup()
    return workload, time.perf_counter() - start


def probe_setup(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale, "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_pass(workload, k, failures, tracer=None, label=""):
    """Run every op once on pass k's inputs; return [(op, seconds, output)]."""
    from workloads import CheckFailed

    rows = []
    for op in workload.ops:
        key = f"{label}{k}/{op.name}"
        if tracer is not None:
            tracer.op = f"{k}/{op.name}"
        start = time.perf_counter()
        try:
            output = op.run(k)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            output = None
            failures[key] = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
        if output is not None:
            try:
                op.check(output)
            except CheckFailed as exc:
                failures[key] = str(exc)
        rows.append((op, elapsed, output))
    return rows


def audit(first_pass, failures):
    from workloads import CheckFailed

    for op, _, output in first_pass:
        key = f"0/{op.name}"
        if op.audit is None or output is None or key in failures:
            continue
        try:
            op.audit(output)
        except CheckFailed as exc:
            failures[key] = f"audit: {exc}"


def pass_times(passes, tag=None):
    return [sum(t for op, t, _ in rows if tag is None or tag in op.tags) for rows in passes]


def fastest(passes, tag=None):
    """Sum over the tagged ops of each op's fastest time in the run.

    The host's speed swings by up to 2x in phases of seconds, and only ever
    slows an op down, so the fastest repeat is the steadiest estimate of an
    op's cost; medians and percentiles go to the detail report.
    """
    best = {}
    for rows in passes:
        for op, t, _ in rows:
            if tag is None or tag in op.tags:
                best[op.name] = min(t, best.get(op.name, t))
    return sum(best.values())


def timing_stats(samples):
    """Median and sample count, plus the highest listed percentile that has
    at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    stats = {"median": statistics.median(ordered), "count": n}
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            stats[f"p{p:g}"] = ordered[math.ceil(p / 100 * n) - 1]
            break
    return stats


def result_counts(passes):
    """Counts read from op outputs, from pass 0, and whether every pass repeats them."""
    first, repeat = {}, True
    for k, rows in enumerate(passes):
        for op, _, output in rows:
            if op.counts is None or output is None:
                continue
            counts = op.counts(output)
            if k == 0:
                first[op.name] = counts
            elif first.get(op.name) != counts:
                repeat = False
    return {"per_op": first, "repeat_across_passes": repeat}


def traced_counts(spans):
    """Span counts per op from traced pass 0, and whether every pass repeats them."""
    from tracing import op_counts

    by_pass = {}
    for key, counts in op_counts(spans).items():
        k, name = key.split("/", 1)
        by_pass.setdefault(int(k), {})[name] = counts
    first = by_pass.get(0, {})
    return {"per_op": first, "repeat_across_passes": all(c == first for c in by_pass.values())}


def workload_summary(passes, failures, attempted):
    """The per-op-set figures named for each workload in README.md."""
    times = [(op, t) for rows in passes for op, t, _ in rows]
    summary = {"error_frac": len(failures) / attempted}
    finds = [op for op, _ in times if op.name.startswith("find-")]
    if finds:
        failed = sum(1 for key in failures if key.split("/", 1)[1].startswith("find-") and "traced:" not in key)
        summary["designs_frac"] = 1.0 - failed / len(finds)
    flows = [t for op, t in times if op.name.startswith("flow-")]
    if flows:
        summary["trial_s"] = timing_stats(flows)
    checks = [t for op, t in times if op.name.startswith("mz-") and "s2" in op.tags]
    if checks:
        summary["check_s"] = timing_stats(checks)
    return summary


def provenance(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=False
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "sphdesign").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    if Path("/proc/cpuinfo").exists():
        models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")]
        cpu = models[0] if models else None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "sphdesign" / "__init__.py").is_file():
        print(f"error: no sphdesign source under {SOURCE}", file=sys.stderr)
        return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"

    workload, setup_s = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    failures = {}
    plain, traced = [], []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        started = time.perf_counter()
        plain.append(run_pass(workload, k, failures))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(workload, k, failures, tracer, label="traced:"))
            finally:
                tracer.uninstall()
        k += 1
        # start no pass that would likely end after the deadline
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    audit(plain[0], failures)

    attempted = len(workload.ops) * (len(plain) + len(traced))
    failed = len(failures)
    run_s = fastest(plain)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "provenance": provenance(args.seed),
        "passes": len(plain),
        "setup_s": {"samples": setup_samples, "median": statistics.median(setup_samples)},
        "timings": {
            "run_s": timing_stats(pass_times(plain)),
            "s2_s": timing_stats(pass_times(plain, "s2")),
            "hd_s": timing_stats(pass_times(plain, "hd")),
            "small_s": timing_stats(pass_times(plain, "small")),
            "large_s": timing_stats(pass_times(plain, "large")),
            "per_op": {op.name: timing_stats([t for rows in plain for o, t, _ in rows if o is op]) for op in workload.ops},
        },
        "summary": workload_summary(plain, failures, attempted),
        "counts": result_counts(plain),
        "failures": failures,
    }
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "run_s": metric(run_s, "s"),
            "s2_s": metric(fastest(plain, "s2"), "s"),
            "hd_s": metric(fastest(plain, "hd"), "s"),
            "small_s": metric(fastest(plain, "small"), "s"),
            "large_s": metric(fastest(plain, "large"), "s"),
            "max_rss_mb": metric(peak_mb, "MB"),
        }
    else:
        from tracing import layer_metrics

        layers = layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_frac"] = fastest(traced) / run_s - 1.0
        metrics = {name: metric(value, _layer_unit(name)) for name, value in layers.items()}
        report["traced_counts"] = traced_counts(tracer.spans)
    report["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    for key, message in failures.items():
        print(f"FAILED {key}: {message}", file=sys.stderr)
    return 1 if failed else 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_term"):
        return "ns"
    if name.endswith(("_frac", "_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
