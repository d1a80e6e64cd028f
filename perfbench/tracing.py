"""Span tracing of sphdesign's public functions, from outside the package.

`Tracer.install` rebinds each traced function in every sphdesign module
namespace that holds it by name (``sphdesign.optimizer.defect`` as well as
``sphdesign.design.defect``), and the two evaluation methods of
``KernelPolynomial`` on the class.  While an op is running, each call
records a span: name, start, end, parent span, op label and a few work
counts read from the arguments and result.  Outside an op the wrappers
pass straight through, so the benchmark's own checks leave no spans.

Helpers that are not traced (``clamp_cosine``, ``_degree_scan``,
``partition_norm``, ...) count toward the self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_counts(args, kwargs, result):
    model, s = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "s")
    cosines = int(np.size(s))
    return {"cosines": cosines, "terms": cosines * model.t}


def _gegenbauer_counts(args, kwargs, result):
    k, s = _arg(args, kwargs, 1, "k"), _arg(args, kwargs, 2, "s")
    cosines = int(np.size(s))
    return {"cosines": cosines, "terms": cosines * k}


def _pair_counts(args, kwargs, result):
    n = _arg(args, kwargs, 1, "config").n
    return {"pairs": n * n}


def _section_counts(args, kwargs, result):
    poly, points = args[0], _arg(args, kwargs, 1, "points")
    rows = 1 if np.ndim(points) == 1 else int(np.shape(points)[0])
    return {"points": rows, "sections": rows * poly.anchors.shape[0]}


def _point_counts(args, kwargs, result):
    points = _arg(args, kwargs, 1, "points")
    return {"points": 1 if np.ndim(points) == 1 else int(np.shape(points)[0])}


def _refine_counts(args, kwargs, result):
    bound = inspect.signature(sys.modules["sphdesign.quadrature"].integrate_refined).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"converged": int(result[1] <= bound.arguments["rel_tol"])}


# (module, attribute, span name, counts).  Both MZ checks share one name.
TARGETS = [
    ("kernel", "kernel_value", "kernel.value", _kernel_counts),
    ("kernel", "kernel_derivative", "kernel.derivative", _kernel_counts),
    ("kernel", "kernel_value_and_derivative", "kernel.value_and_derivative", _kernel_counts),
    ("kernel", "gegenbauer_normalized", "kernel.gegenbauer", _gegenbauer_counts),
    ("sphere_geometry", "equal_area_partition", "sphere_geometry.partition", lambda a, k, r: {"cells": r.n}),
    ("quadrature", "build_quadrature", "quadrature.build", None),
    ("quadrature", "integrate", "quadrature.integrate", lambda a, k, r: {"nodes": int(_arg(a, k, 0, "rule").nodes.shape[0])}),
    ("quadrature", "integrate_refined", "quadrature.refine", _refine_counts),
    ("quadrature", "sample_boundary_polynomial", "quadrature.sample", None),
    ("quadrature", "KernelPolynomial.__call__", "quadrature.eval", _section_counts),
    ("quadrature", "KernelPolynomial.gradient", "quadrature.gradient", _section_counts),
    ("design", "defect", "design.defect", _pair_counts),
    ("design", "defect_gradient", "design.gradient", _pair_counts),
    ("design", "degree_residuals", "design.residuals", _pair_counts),
    ("design", "verify_design", "design.verify", None),
    ("harmonics", "basis_values", "harmonics.basis_values", _point_counts),
    ("harmonics", "mean_residuals", "harmonics.mean_residuals", _point_counts),
    ("optimizer", "seed_points", "optimizer.seed_points", None),
    ("optimizer", "find_design", "optimizer.find_design", lambda a, k, r: {"attempts": r[1].meta["attempts"]}),
    ("flow", "flow_field", "flow.field", None),
    ("flow", "integrate_flow", "flow.integrate", None),
    ("flow", "positivity_experiment", "flow.experiment", None),
    ("mz", "mz_check", "mz.check", None),
    ("mz", "mz_gradient_check", "mz.check", None),
    ("mz", "run_trials", "mz.run_trials", None),
    ("pointio", "format_points", "pointio.format", lambda a, k, r: {"bytes": len(r)}),
    ("pointio", "parse_points", "pointio.parse", lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))}),
]


class Tracer:
    """In-memory span recorder; `op` labels the spans of the running op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op label, counts]
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[1] = start
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self):
        targets = [(importlib.import_module(f"sphdesign.{m}"), *rest) for m, *rest in TARGETS]
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("sphdesign.")]
        for module, attribute, name, counts in targets:
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, counts))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, counts)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def dump(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _parent_name(spans, span):
    return spans[span[3]][0] if span[3] >= 0 else None


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics per traced pass, from the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children.  A layer's call count counts spans entered from outside the
    layer, so calls nested within one layer count once.
    """
    duration = [end - start for _, start, end, _, _, _ in spans]
    self_time = list(duration)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= duration[i]

    calls, selfs, sums, outer, under = Counter(), Counter(), Counter(), Counter(), Counter()
    check_time = check_integrals = 0.0
    for i, span in enumerate(spans):
        name, counts, parent = span[0], span[5], _parent_name(spans, span)
        layer = name.split(".")[0]
        calls[name] += 1
        selfs[name] += self_time[i]
        sums.update({f"{name}.{key}": value for key, value in (counts or {}).items()})
        if parent is None or parent.split(".")[0] != layer:
            outer[layer] += 1
        under[f"{parent}>{name}"] += 1
        if name == "mz.check":
            check_time += duration[i]
        elif name == "quadrature.refine" and parent == "mz.check":
            check_integrals += duration[i]

    kernel_names = ("kernel.value", "kernel.derivative", "kernel.value_and_derivative", "kernel.gegenbauer")
    kernel_self = sum(selfs[n] for n in kernel_names)
    kernel_terms = sum(sums[f"{n}.terms"] for n in kernel_names)
    additive = {
        "kernel.calls": sum(calls[n] for n in kernel_names),
        "kernel.cosines": sum(sums[f"{n}.cosines"] for n in kernel_names),
        "kernel.terms": kernel_terms,
        "kernel.self_s": kernel_self,
        "design.defect.calls": calls["design.defect"],
        "design.defect.pairs": sums["design.defect.pairs"],
        "design.defect.self_s": selfs["design.defect"],
        "design.gradient.calls": calls["design.gradient"],
        "design.gradient.pairs": sums["design.gradient.pairs"],
        "design.gradient.self_s": selfs["design.gradient"],
        "design.residuals.calls": calls["design.residuals"],
        "design.residuals.self_s": selfs["design.residuals"],
        "design.verify.calls": calls["design.verify"],
        "design.verify.self_s": selfs["design.verify"],
        "harmonics.calls": outer["harmonics"],
        "harmonics.points": sums["harmonics.mean_residuals.points"],
        "harmonics.self_s": selfs["harmonics.basis_values"] + selfs["harmonics.mean_residuals"],
        "optimizer.calls": outer["optimizer"],
        "optimizer.self_s": selfs["optimizer.find_design"] + selfs["optimizer.seed_points"],
        "optimizer.attempts": sums["optimizer.find_design.attempts"],
        "quadrature.gradient.calls": calls["quadrature.gradient"],
        "quadrature.gradient.points": sums["quadrature.gradient.points"],
        "quadrature.gradient.sections": sums["quadrature.gradient.sections"],
        "quadrature.gradient.self_s": selfs["quadrature.gradient"],
        "quadrature.sample.calls": calls["quadrature.sample"],
        "quadrature.sample.self_s": selfs["quadrature.sample"],
        "quadrature.eval.calls": calls["quadrature.eval"],
        "quadrature.eval.points": sums["quadrature.eval.points"],
        "quadrature.eval.sections": sums["quadrature.eval.sections"],
        "quadrature.eval.self_s": selfs["quadrature.eval"],
        "quadrature.integrate.calls": calls["quadrature.integrate"],
        "quadrature.integrate.nodes": sums["quadrature.integrate.nodes"],
        "quadrature.integrate.self_s": selfs["quadrature.integrate"],
        "quadrature.refine.calls": calls["quadrature.refine"],
        "quadrature.refine.levels": under["quadrature.refine>quadrature.integrate"],
        "quadrature.build.calls": calls["quadrature.build"],
        "quadrature.build.self_s": selfs["quadrature.build"],
        "flow.integrate.calls": calls["flow.integrate"],
        "flow.integrate.self_s": selfs["flow.integrate"],
        "flow.field_evals": under["flow.integrate>quadrature.gradient"],
        "flow.experiment.self_s": selfs["flow.experiment"],
        "mz.check.calls": calls["mz.check"],
        "mz.check.self_s": selfs["mz.check"],
        "sphere_geometry.partition.calls": calls["sphere_geometry.partition"],
        "sphere_geometry.partition.cells": sums["sphere_geometry.partition.cells"],
        "sphere_geometry.partition.self_s": selfs["sphere_geometry.partition"],
        "pointio.calls": outer["pointio"],
        "pointio.bytes": sums["pointio.format.bytes"] + sums["pointio.parse.bytes"],
        "pointio.self_s": selfs["pointio.format"] + selfs["pointio.parse"],
    }
    metrics = {key: value / passes for key, value in additive.items()}
    metrics.update(
        {
            "kernel.ns_per_term": _ratio(kernel_self * 1e9, kernel_terms),
            "optimizer.accept_ratio": _ratio(calls["design.gradient"], calls["design.defect"]),
            "quadrature.refine.converged_frac": _ratio(sums["quadrature.refine.converged"], calls["quadrature.refine"]),
            "mz.integrate_share": _ratio(check_integrals, check_time),
        }
    )
    return metrics


def op_counts(spans) -> dict:
    """Exact work counts per op label: calls per span name and summed counts."""
    out = {}
    for span in spans:
        name, op, counts = span[0], span[4], span[5]
        entry = out.setdefault(op, Counter())
        entry[name] += 1
        entry.update({f"{name}.{key}": value for key, value in (counts or {}).items()})
        if name == "quadrature.gradient" and _parent_name(spans, span) == "flow.integrate":
            entry["flow.field_evals"] += 1
    return {op: dict(entry) for op, entry in out.items()}
