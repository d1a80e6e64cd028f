"""The traced benchmark run (perfbench/tracing.py) wraps sphdesign functions
by module attribute and its span counters read their arguments by position
and name.  These checks load the tracer's target table without installing
it, so a renamed function or parameter fails here in about a second instead
of in a traced benchmark run.
"""

import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Leading parameters, in order, that each target's span counter reads.
# Counters that read only the result need none.
COUNTED_PARAMETERS = {
    ("kernel", "kernel_value"): ("model", "s"),
    ("kernel", "kernel_derivative"): ("model", "s"),
    ("kernel", "kernel_value_and_derivative"): ("model", "s"),
    ("kernel", "gegenbauer_normalized"): ("model", "k", "s"),
    ("sphere_geometry", "equal_area_partition"): (),
    ("quadrature", "integrate"): ("rule",),
    ("quadrature", "integrate_refined"): (),
    ("quadrature", "KernelPolynomial.__call__"): ("self", "points"),
    ("quadrature", "KernelPolynomial.gradient"): ("self", "points"),
    ("design", "defect"): ("model", "config"),
    ("design", "defect_gradient"): ("model", "config"),
    ("design", "degree_residuals"): ("model", "config"),
    ("harmonics", "basis_values"): ("t", "points"),
    ("harmonics", "mean_residuals"): ("t", "points"),
    ("optimizer", "find_design"): (),
    ("pointio", "format_points"): (),
    ("pointio", "parse_points"): ("text",),
}


def _targets():
    # compile from source: importing would write a bytecode cache beside it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(f"sphdesign.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_resolves():
    for module, attribute, _, _ in _targets():
        assert callable(_resolve(module, attribute)), f"{module}.{attribute}"


def test_counters_read_existing_parameters():
    for module, attribute, _, counts in _targets():
        if counts is None:
            continue
        expected = COUNTED_PARAMETERS[(module, attribute)]
        names = list(inspect.signature(_resolve(module, attribute)).parameters)
        assert names[: len(expected)] == list(expected), f"{module}.{attribute}"
    # the refinement counter compares the achieved agreement with rel_tol
    refined = inspect.signature(_resolve("quadrature", "integrate_refined"))
    assert isinstance(refined.parameters["rel_tol"].default, float)
