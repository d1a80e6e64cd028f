"""The benchmark workloads: find-verify and flow-mz.

Each joins two op sets that use one layer stack in opposite ways: find
(many small defect passes) with verify (one large pass), and flow (many
small kernel evaluations) with mz (large node batches).  Joined, each
workload's run is long enough to measure steadily within the run budget.

A workload is a list of ops.  One pass runs every op once, in order; the
runner repeats passes (a closed loop with one caller) until the run time is
spent.  Each op calls the public sphdesign API only through module
attributes (``design.defect``, not a name imported from it), so the tracer
can rebind those attributes and see every call.

Inputs come from the run seed alone.  ``scale="tiny"`` swaps in small
problems of the same shape for the smoke test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sphdesign import design, flow, kernel, mz, optimizer, pointio, quadrature, sphere_geometry

REFERENCES = Path(__file__).with_name("references.json")

# A find_design result must re-verify at this defect.
FIND_TOLERANCE = 1e-12
# Stored non-design defects must be reproduced to this relative error.
DEFECT_RTOL = 1e-12
# The acceptance test's slack on a positivity trial's slope margin.
SLOPE_SLACK = -1e-3
# Agreement required between an MZ integral and the high-resolution audit.
AUDIT_RTOL = 1e-3

# (d, t, n, finder seeds per pass).  (2, 6, 40) fails from the plain
# equal-area seeds and converges on its first perturbed restart, so it
# measures the seeded restart path; eight finder seeds per pass average out
# how much each seed's restart costs.  The other problems converge on the
# first attempt, so their cost does not depend on the seed.  Every op takes
# well under a second: the host's speed swings in phases of seconds, and
# only an op short enough to fit in a fast phase has a steady fastest repeat.
FIND_PROBLEMS = {
    "full": [(2, 8, 81, 1), (2, 9, 100, 1), (2, 6, 40, 8), (3, 5, 60, 1), (3, 6, 80, 1), (4, 5, 100, 1)],
    "tiny": [(2, 3, 8, 2), (3, 3, 20, 1)],
}

# ("eq", d, t, n): equal-area representatives, not designs, checked against
# stored defects.  ("catalog", name, t): exact designs, checked by verdict.
VERIFY_CONFIGS = {
    "full": [
        ("eq", 2, 20, 400),
        ("eq", 3, 10, 500),
        ("eq", 4, 8, 500),
        ("catalog", "icosahedron", 5),
        ("catalog", "24-cell", 5),
        ("catalog", "d4-minimal-vectors", 5),
    ],
    "tiny": [
        ("eq", 2, 8, 60),
        ("eq", 3, 4, 40),
        ("catalog", "icosahedron", 5),
        ("catalog", "24-cell", 5),
    ],
}

# (d, t, n): one positivity trial per op.
FLOW_PROBLEMS = {
    "full": [(2, 3, 200), (3, 3, 200)],
    "tiny": [(2, 3, 40), (3, 3, 40)],
}

# (d, t, n, integration cap, audit resolution).  S^3 integrals cost 2 r^3
# nodes at resolution r, so the S^3 check caps refinement at 32 (about
# 0.1 s a check) where the default cap of 128 would take about 20 s.  At
# t = 2 the refinement 4, 8, 16, 32 ends on the cap, which keeps the S^3
# integral within about 1e-4 of the audit rule.
MZ_PROBLEMS = {
    "full": [(2, 5, 2000, 128, 192), (3, 2, 1000, 32, 48)],
    "tiny": [(2, 3, 200, 32, 128), (3, 2, 100, 16, 32)],
}

class CheckFailed(Exception):
    """An op's output failed the benchmark's correctness check."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One library call sequence, timed as a unit.

    ``run`` takes the pass index and returns the op's output; ``check``
    raises CheckFailed on a wrong output.  ``audit``, if set, is a slower
    check run once, after the timed phase, on the output of pass 0.
    """

    name: str
    # "s2" (inputs on S^2) or "hd" (S^3, S^4), and "small" (many small
    # calls: find, flow) or "large" (few large ones: verify, mz)
    tags: tuple[str, str]
    run: Callable[[int], object]
    check: Callable[[object], None]
    audit: Callable[[object], None] | None = None
    counts: Callable[[object], dict] | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], None]


def _tags(d: int, shape: str) -> tuple[str, str]:
    return ("s2" if d == 2 else "hd", shape)


def _trial_seed(seed: int, k: int) -> int:
    """Polynomial seed of pass k: every pass draws new polynomials."""
    return seed * 1_000_003 + k


def _derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


def build_find(seed: int, scale: str) -> Workload:
    problems = FIND_PROBLEMS[scale]
    seeds = _derived_seeds(seed, max(p[3] for p in problems))
    ops, sizes = [], []
    for d, t, n, copies in problems:
        model = kernel.kernel_model(d, t)
        for finder_seed in seeds[:copies]:
            cfg = optimizer.FinderConfig(d=d, t=t, n=n, seed=finder_seed)

            def check(out, model=model, d=d, n=n):
                config, _ = out
                _require(config.points.shape == (n, d + 1), "wrong point array shape")
                report = design.verify_design(model, config, tolerance=FIND_TOLERANCE)
                _require(report.verdict, f"re-verified defect {report.defect:.3e} > {FIND_TOLERANCE}")

            ops.append(
                Op(
                    name=f"find-{d}-{t}-{n}-seed{finder_seed}",
                    tags=_tags(d, "small"),
                    run=lambda k, cfg=cfg: optimizer.find_design(cfg),
                    check=check,
                    counts=lambda out: {
                        "attempts": out[1].meta["attempts"],
                        "iterations": out[1].meta["iterations"],
                    },
                )
            )
            sizes.append(n)
    # the restart problem is the cheapest op and touches every layer find uses
    smallest = min(range(len(ops)), key=lambda i: sizes[i])
    return Workload(ops, warmup=lambda: ops[smallest].run(0))


def _verify_inputs(spec, references: dict):
    if spec[0] == "eq":
        _, d, t, n = spec
        config = sphere_geometry.PointConfiguration(
            d=d, points=sphere_geometry.equal_area_partition(d, n).representatives
        )
        name = f"eq-{d}-{t}-{n}"
        return name, config, t, references[name]
    _, catalog_name, t = spec
    return catalog_name, design.catalog_design(catalog_name), t, None


def build_verify(seed: int, scale: str, references: dict | None = None) -> Workload:
    if references is None:
        references = json.loads(REFERENCES.read_text())
    rng = np.random.default_rng(seed)
    ops = []
    for spec in VERIFY_CONFIGS[scale]:
        name, config, t, reference = _verify_inputs(spec, references)
        model = kernel.kernel_model(config.d, t)
        permuted = sphere_geometry.PointConfiguration(
            d=config.d, points=config.points[rng.permutation(config.n)]
        )

        def run(k, model=model, config=config, permuted=permuted):
            text = pointio.format_points(config)
            parsed = pointio.parse_points(text)
            report = design.verify_design(model, parsed)
            return parsed, report, design.defect(model, permuted)

        def check(out, config=config, reference=reference):
            parsed, report, permuted_defect = out
            _require(np.array_equal(parsed.points, config.points), "point I/O round trip is not exact")
            if reference is None:
                _require(report.verdict, f"catalog design refuted, defect {report.defect:.3e}")
            else:
                error = abs(report.defect - reference) / abs(reference)
                _require(error <= DEFECT_RTOL, f"defect {report.defect!r} is {error:.1e} from reference {reference!r}")
            _require(permuted_defect == report.defect, "permuted defect differs from the defect")
            if config.d == 2:
                _require("harmonic_cross_check_gap" in report.meta, "harmonic cross-check missing")

        ops.append(Op(name=f"verify-{name}-t{t}", tags=_tags(config.d, "large"), run=run, check=check))
    catalog = [op for op, spec in zip(ops, VERIFY_CONFIGS[scale]) if spec[0] == "catalog"]

    def warmup():
        for op in catalog:
            op.run(0)

    return Workload(ops, warmup=warmup)


def build_flow(seed: int, scale: str) -> Workload:
    ops, inputs = [], []
    for d, t, n in FLOW_PROBLEMS[scale]:
        model = kernel.kernel_model(d, t)
        rule = quadrature.build_quadrature(d, quadrature.default_resolution(t))
        cfg = flow.FlowConfig.defaults(d, t)
        inputs.append((model, rule, cfg))

        def run(k, model=model, rule=rule, cfg=cfg, n=n):
            return flow.positivity_experiment(model, rule, cfg, n, trials=1, seed=_trial_seed(seed, k))

        def check(report):
            trial = report.trials[0]
            _require(trial.positive, f"final average {trial.final_average!r} is not positive")
            _require(trial.slope_margin >= SLOPE_SLACK, f"slope margin {trial.slope_margin!r} < {SLOPE_SLACK}")

        ops.append(Op(name=f"flow-{d}-{t}-{n}", tags=_tags(d, "small"), run=run, check=check))
    def warmup():
        for model, rule, cfg in inputs:
            flow.positivity_experiment(model, rule, cfg, 20, trials=1, seed=seed)

    return Workload(ops, warmup=warmup)


def _mz_audit(d, t, kind, trial_seed, resolution):
    """Recompute trial 0's integral on a fixed rule, outside run_trials."""
    model = kernel.kernel_model(d, t)
    rule = quadrature.build_quadrature(d, quadrature.default_resolution(t))
    poly = quadrature.sample_boundary_polynomial(model, rule, 2 * model.space_dim, seed=(trial_seed, 0))
    fine = quadrature.build_quadrature(d, resolution)
    f = (lambda x: np.abs(poly(x))) if kind == "value" else poly.gradient_norm
    return quadrature.integrate(fine, f)


def build_mz(seed: int, scale: str) -> Workload:
    ops = []
    for d, t, n, cap, audit_res in MZ_PROBLEMS[scale]:
        for kind in ("value", "gradient"):

            def run(k, d=d, t=t, n=n, kind=kind, cap=cap):
                return mz.run_trials(d, t, n, 1, _trial_seed(seed, k), kind=kind, max_resolution=cap)

            def check(reports):
                r = reports[0]
                _require(not r.degenerate, "degenerate integral")
                _require(r.within_bounds, f"ratio {r.ratio!r} outside [{r.lower}, {r.upper}]")

            def audit(reports, d=d, t=t, kind=kind, audit_res=audit_res):
                reference = _mz_audit(d, t, kind, _trial_seed(seed, 0), audit_res)
                error = abs(reports[0].integral - reference) / reference
                _require(error <= AUDIT_RTOL, f"integral is {error:.1e} from the resolution-{audit_res} rule")

            ops.append(
                Op(
                    name=f"mz-{d}-{t}-{n}-{kind}",
                    tags=_tags(d, "large"),
                    run=run,
                    check=check,
                    audit=audit,
                    counts=lambda reports: {"resolution": reports[0].meta["integration_resolution"]},
                )
            )

    def warmup():
        for d, t, n, cap, _ in MZ_PROBLEMS[scale]:
            for kind in ("value", "gradient"):
                mz.run_trials(d, t, n, 1, seed, kind=kind, max_resolution=min(cap, 2 * (t + 2)))

    return Workload(ops, warmup=warmup)


def _joined(first, second):
    def build(seed: int, scale: str) -> Workload:
        a, b = first(seed, scale), second(seed, scale)

        def warmup():
            a.warmup()
            b.warmup()

        return Workload(a.ops + b.ops, warmup=warmup)

    return build


BUILDERS = {"find-verify": _joined(build_find, build_verify), "flow-mz": _joined(build_flow, build_mz)}
