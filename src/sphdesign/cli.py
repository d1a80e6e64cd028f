"""Command-line entry point for batch workflows.

Subcommands: bounds, partition, seed, find, verify, flow-demo, mz-test,
constants.  Exit code contract: 0 success, 1 error (bad input, failed to
run), 2 ran-and-refuted (a verification with verdict false, or a search
that did not reach its target).

Heavy numerical modules are imported only after argument parsing so that
--threads can cap BLAS parallelism via the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_ERROR, since EXIT_REFUTED means ran and refuted.

    Subparsers are made of the same class, so theirs do too.
    """

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {self.prog}: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphdesign",
        description="Construct and verify spherical t-designs.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap internal numerical parallelism (default: library choice)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print minimal design sizes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--out", default=None, help="write the table to a file")

    p = sub.add_parser("partition", help="emit an equal-area partition as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("seed", help="emit partition-representative seed points")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("find", help="search for an N-point t-design")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--defect-target", type=float, default=1e-12)
    p.add_argument("--max-iterations", type=int, default=20000)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--out", default=None, help="write the point set here")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument(
        "--trace",
        default=None,
        help="write per-iteration descent objectives as CSV: the averaged kernel "
        "section's squared norm, not the exact pair-pass defect that verifies the result",
    )

    p = sub.add_parser("verify", help="verify a point set against a degree")
    p.add_argument("--t", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="point file to verify")
    source.add_argument(
        "--catalog", help='exact reference configuration, e.g. "icosahedron" or "cube(3)"'
    )
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--report", default=None)

    p = sub.add_parser(
        "flow-demo", help="boundary positivity experiment for the gradient flow"
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mesh-constant", type=float, default=1.0)
    p.add_argument("--step-count", type=int, default=64)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", default=None, help="write the experiment report JSON")

    p = sub.add_parser("mz-test", help="sampling-inequality trials")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("value", "gradient"), default="value")
    p.add_argument("--mesh-constant", type=float, default=1.0)
    p.add_argument(
        "--max-resolution",
        type=int,
        default=128,
        help="resolution at which integral refinement stops; at least t + 2",
    )
    p.add_argument("--csv", default=None, help="write one row per trial here")

    p = sub.add_parser("constants", help="measured and configured constants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mesh-constant", type=float, default=1.0)
    p.add_argument(
        "--sweep",
        default="10,100,1000,10000",
        help="comma-separated partition sizes for the diameter measurement",
    )
    return parser


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        from .pointio import write_text_atomic

        write_text_atomic(out_path, text)


def _invocation_meta(args) -> dict:
    from . import __version__

    payload = {k: v for k, v in vars(args).items() if k != "command"}
    return {
        "command": args.command,
        "arguments": payload,
        "version": __version__,
    }


def _cmd_bounds(args) -> int:
    from .design import lower_bound
    from .sphere_geometry import require_count

    require_count("--t-max", args.t_max)
    lines = ["d t n_min"]
    for t in range(1, args.t_max + 1):
        lines.append(f"{args.d} {t} {lower_bound(args.d, t)}")
    if args.d == 3 and args.t_max >= 5:
        lines.append(
            "# note: for (d, t) = (3, 5) linear-programming methods give the"
            " sharper bound 22 <= N(3,5) <= 24"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_partition(args) -> int:
    from .sphere_geometry import equal_area_partition

    partition = equal_area_partition(args.d, args.n)
    payload = partition.to_dict()
    payload["meta"] = _invocation_meta(args)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_seed(args) -> int:
    from .optimizer import seed_points
    from .pointio import format_points

    config = seed_points(args.d, args.n)
    _emit(format_points(config), args.out)
    return EXIT_OK


def _cmd_find(args) -> int:
    from .design import lower_bound
    from .flow import design_count_constant
    from .optimizer import FinderConfig, find_design
    from .pointio import format_points
    from .sphere_geometry import measure_diameter_constant

    minimum = lower_bound(args.d, args.t)
    diameter = measure_diameter_constant(args.d, (10, 100, 1000))["constant"]
    guidance = design_count_constant(args.d, diameter) * args.t**args.d
    print(
        f"target: {args.n}-point {args.t}-design on S^{args.d} "
        f"(minimum possible {minimum}; analysis-grade size ~{guidance:.3g})"
    )
    cfg = FinderConfig(
        d=args.d,
        t=args.t,
        n=args.n,
        max_iterations=args.max_iterations,
        defect_target=args.defect_target,
        restarts=args.restarts,
        seed=args.seed,
    )
    config, report = find_design(cfg)
    report.meta["invocation"] = _invocation_meta(args)
    trace = report.meta.get("defect_trace", [])
    if args.out:
        _emit(format_points(config), args.out)
    if args.report:
        _emit(report.to_json() + "\n", args.report)
    if args.trace:
        rows = "\n".join(f"{i},{v:.17g}" for i, v in enumerate(trace))
        _emit("iteration,defect\n" + rows + "\n", args.trace)
    print(
        f"defect {report.defect:.3e} after {report.meta['attempts']} attempt(s) "
        f"({report.meta['step']} solve, {report.meta['cg_iterations']} CG iterations), "
        f"stopped on {report.meta['stop_reason']}; "
        f"verdict {'design' if report.verdict else 'NOT a design at target'}"
    )
    return EXIT_OK if report.verdict else EXIT_REFUTED


def _cmd_verify(args) -> int:
    from .design import catalog_design, verify_design
    from .kernel import kernel_model
    from .pointio import read_points

    config = catalog_design(args.catalog) if args.catalog else read_points(args.infile)
    model = kernel_model(config.d, args.t)
    report = verify_design(model, config, tolerance=args.tolerance)
    report.meta["invocation"] = _invocation_meta(args)
    if args.report:
        _emit(report.to_json() + "\n", args.report)
    residuals = " ".join(f"{r:.3e}" for r in report.residuals)
    print(
        f"d={report.d} t={report.t} n={report.n} defect={report.defect:.6e} "
        f"verdict={'pass' if report.verdict else 'fail'}"
    )
    print(f"per-degree residuals: {residuals}")
    return EXIT_OK if report.verdict else EXIT_REFUTED


def _cmd_flow_demo(args) -> int:
    from .flow import FlowConfig, positivity_experiment
    from .kernel import kernel_model
    from .quadrature import build_quadrature, default_resolution

    model = kernel_model(args.d, args.t)
    resolution = default_resolution(args.t) if args.resolution is None else args.resolution
    rule = build_quadrature(args.d, resolution)
    cfg = FlowConfig.defaults(
        args.d, args.t, mesh_constant=args.mesh_constant, step_count=args.step_count
    )
    report = positivity_experiment(
        model, rule, cfg, n_points=args.n, trials=args.trials, seed=args.seed
    )
    report.meta["invocation"] = _invocation_meta(args)
    if args.out:
        _emit(report.to_json() + "\n", args.out)
    print(
        f"positivity: {report.positive_count}/{len(report.trials)} trials; "
        f"min slope margin {report.min_slope_margin:.4f}; "
        f"mesh norm {report.mesh_norm:.4f} vs threshold {report.mesh_threshold:.6f} "
        f"({'satisfied' if report.mesh_condition_ok else 'violated'})"
    )
    return EXIT_OK


def _cmd_mz_test(args) -> int:
    from .mz import reports_to_csv, run_trials
    from .quadrature import default_resolution

    start = default_resolution(args.t)
    if start > args.max_resolution:
        raise ValueError(
            f"--t {args.t} starts the integrals at resolution {start}, "
            f"above --max-resolution {args.max_resolution}; raise --max-resolution to at least {start}"
        )
    reports = run_trials(
        args.d,
        args.t,
        args.n,
        trials=args.trials,
        seed=args.seed,
        kind=args.kind,
        mesh_constant=args.mesh_constant,
        max_resolution=args.max_resolution,
    )
    _emit(reports_to_csv(reports), args.csv)
    inside = sum(r.within_bounds for r in reports)
    print(f"within bounds: {inside}/{len(reports)} ({args.kind} check)")
    return EXIT_OK


def _cmd_constants(args) -> int:
    from .flow import design_count_constant, mesh_threshold
    from .sphere_geometry import measure_diameter_constant

    sweep = tuple(int(s) for s in args.sweep.split(","))
    measured = measure_diameter_constant(args.d, sweep)
    cd = design_count_constant(args.d, measured["constant"], args.mesh_constant)
    print(f"d = {args.d}")
    for n, product in measured["products"].items():
        print(f"  mesh_norm * n^(1/d) at n={n}: {product:.6f}")
    print(f"measured diameter constant: {measured['constant']:.6f}")
    print(f"configured mesh constant:   {args.mesh_constant}")
    print(f"design-count coefficient >  {cd:.6e}")
    print(
        "mesh threshold at t=1..5:   "
        + " ".join(
            f"{mesh_threshold(args.d, t, args.mesh_constant):.3e}" for t in range(1, 6)
        )
    )
    return EXIT_OK


_HANDLERS = {
    "bounds": _cmd_bounds,
    "partition": _cmd_partition,
    "seed": _cmd_seed,
    "find": _cmd_find,
    "verify": _cmd_verify,
    "flow-demo": _cmd_flow_demo,
    "mz-test": _cmd_mz_test,
    "constants": _cmd_constants,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return EXIT_ERROR
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.command](args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if code == EXIT_OK:
        elapsed = time.perf_counter() - started
        print(f"done in {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
