"""Inputs outside the contracts of `sphere_geometry` (integer dimensions and
counts, positive finite constants) and over the rule budget are
refused with a ValueError that names them; none builds a rule or samples
a polynomial."""

import numpy as np
import pytest

import sphdesign.quadrature as quadrature
from sphdesign.flow import (
    FlowConfig,
    default_epsilon,
    design_count_constant,
    flow_horizon,
    mesh_threshold,
    positivity_experiment,
)
from sphdesign.kernel import kernel_model
from sphdesign.mz import mz_check, run_trials
from sphdesign.optimizer import FinderConfig
from sphdesign.quadrature import build_quadrature, integrate_refined, sample_boundary_polynomial
from sphdesign.sphere_geometry import PointConfiguration, equal_area_partition


def refuse_product_rule(d, resolution):
    raise AssertionError(f"built a product rule on S^{d} at resolution {resolution}")


def refuse_random_points(d, count, rng):
    raise AssertionError(f"drew {count} random points on S^{d}")


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(
            lambda rule: PointConfiguration(d=2.0, points=np.eye(3)),
            "sphere dimension",
            id="config-float-d",
        ),
        pytest.param(
            lambda rule: PointConfiguration(d=True, points=np.eye(3)),
            "sphere dimension",
            id="config-bool-d",
        ),
        pytest.param(lambda rule: equal_area_partition(2, 2.5), "cell count", id="partition-n"),
        pytest.param(lambda rule: kernel_model(2, 3.0), "degree", id="model-t"),
        pytest.param(lambda rule: build_quadrature(2, 2.5), "resolution", id="rule-resolution"),
        # 2 * 3000**3 nodes; refused before a node is allocated
        pytest.param(
            lambda rule: build_quadrature(3, 3000),
            r"resolution-3000 rule on S\^3 .* over the budget",
            id="rule-budget",
        ),
        # a start of 0 never doubles past the cap, so the search for the
        # last level would not end
        pytest.param(
            lambda rule: integrate_refined(2, np.abs, 0, max_resolution=8),
            "start_resolution",
            id="refine-start",
        ),
        # a start above the cap would compute one level past it
        pytest.param(
            lambda rule: integrate_refined(2, np.abs, 10, max_resolution=8),
            "start_resolution 10 is above max_resolution 8",
            id="refine-start-above-cap",
        ),
        pytest.param(
            lambda rule: mz_check(equal_area_partition(2, 20), lambda x: x[:, 0], degree=130),
            "start_resolution 132 is above max_resolution 128",
            id="mz-start-above-cap",
        ),
        # refused before the trials sample P at the resolution-132 rule
        pytest.param(
            lambda rule: run_trials(2, 130, 20, trials=1, seed=0),
            "start_resolution 132 is above max_resolution 128",
            id="mz-trials-start-above-cap",
        ),
        pytest.param(lambda rule: FinderConfig(d=2, t=2, n=1.5), "^n must", id="finder-n"),
        pytest.param(
            lambda rule: FinderConfig(d=2, t=2, n=5, max_iterations=1.5),
            "max_iterations",
            id="finder-max-iterations",
        ),
        pytest.param(
            lambda rule: FinderConfig(d=2, t=2, n=5, restarts=1.5), "restarts", id="finder-restarts"
        ),
        pytest.param(lambda rule: FlowConfig.defaults(0, 3), "sphere dimension", id="flow-d"),
        pytest.param(lambda rule: FlowConfig.defaults(2, 0), "degree", id="flow-t"),
        pytest.param(lambda rule: default_epsilon(0), "sphere dimension", id="epsilon-d"),
        pytest.param(lambda rule: flow_horizon(0), "degree", id="horizon-t"),
        pytest.param(lambda rule: mesh_threshold(2, 0), "degree", id="mesh-threshold-t"),
        pytest.param(
            lambda rule: mesh_threshold(2.5, 3), "sphere dimension", id="mesh-threshold-float-d"
        ),
        pytest.param(
            lambda rule: design_count_constant(2, np.nan),
            "diameter constant",
            id="count-constant-diameter",
        ),
        pytest.param(
            lambda rule: positivity_experiment(
                kernel_model(2, 2), rule, FlowConfig.defaults(2, 2), 20, trials=1.5, seed=0
            ),
            "trials",
            id="positivity-trials",
        ),
        pytest.param(
            lambda rule: run_trials(2, 2, 20, trials=1.5, seed=0), "trials", id="mz-trials"
        ),
        # the last S^4 level, resolution 4 * 2**14, holds 2**26 nodes of 6
        # floats; refused before the trials sample P at the first level
        pytest.param(
            lambda rule: run_trials(4, 2, 30, 1, 0, max_resolution=100000),
            r"resolution-65536 rule on S\^4 .* over the budget",
            id="mz-trials-over-budget",
        ),
        pytest.param(
            lambda rule: mz_check(equal_area_partition(2, 20), lambda x: x[:, 0], degree=1.5),
            "degree",
            id="mz-degree",
        ),
        pytest.param(
            lambda rule: sample_boundary_polynomial(kernel_model(2, 2), rule, 0, seed=0),
            "m_anchors",
            id="sample-m-anchors",
        ),
    ],
)
def test_rejects_naming_the_input(monkeypatch, call, name):
    rule = build_quadrature(2, 4)
    # no case may build a rule or sample a polynomial, the budget cases
    # least of all
    monkeypatch.setattr(quadrature, "_product_rule", refuse_product_rule)
    monkeypatch.setattr(quadrature, "random_points", refuse_random_points)
    with pytest.raises(ValueError, match=name):
        call(rule)
