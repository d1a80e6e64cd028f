import math
from collections import Counter

import numpy as np
import pytest

import sphdesign.quadrature as quadrature
from sphdesign.design import defect, verify_design
from sphdesign.kernel import (
    kernel_derivative,
    kernel_model,
    kernel_value,
    kernel_value_and_derivative,
)
from sphdesign.optimizer import FinderConfig, find_design, seed_points


class TestSeedPoints:
    def test_two_cells_give_poles(self):
        seeds = seed_points(2, 2)
        assert np.allclose(np.abs(seeds.points[:, 0]), 1.0)
        assert np.allclose(seeds.points[0], -seeds.points[1])

    def test_circle_seeds_equally_spaced(self):
        n = 7
        seeds = seed_points(1, n)
        angles = np.sort(np.arctan2(seeds.points[:, 1], seeds.points[:, 0]) % (2 * math.pi))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
        assert np.allclose(gaps, 2 * math.pi / n, atol=1e-12)

    def test_unit_norms(self):
        seeds = seed_points(3, 50)
        assert np.max(np.abs(np.linalg.norm(seeds.points, axis=1) - 1.0)) < 1e-12


class TestFindDesign:
    def test_circle_tight_design(self):
        config, report = find_design(FinderConfig(d=1, t=3, n=4))
        assert report.verdict
        assert report.defect <= 1e-12
        # four points at right angles, up to rotation
        gram = np.sort(np.round(config.points @ config.points.T, 9).ravel())
        assert np.allclose(np.unique(gram), [-1.0, 0.0, 1.0], atol=1e-6)

    def test_octahedral_size_3_design(self):
        config, report = find_design(FinderConfig(d=2, t=3, n=6))
        assert report.verdict
        assert report.defect <= 1e-12
        assert report.meta["stop_reason"] == "target"
        assert report.meta["stop_reasons"][-1] == "target"
        assert len(report.meta["stop_reasons"]) == report.meta["attempts"]

    def test_icosahedral_size_5_design(self):
        config, report = find_design(FinderConfig(d=2, t=5, n=12))
        assert report.verdict
        assert report.defect <= 1e-12

    def test_verdict_comes_from_independent_verification(self):
        config, report = find_design(FinderConfig(d=2, t=2, n=6, seed=1))
        model = kernel_model(2, 2)
        fresh = verify_design(model, config, tolerance=report.tolerance)
        assert fresh.verdict == report.verdict
        assert fresh.defect == report.defect

    def test_monotone_defect_trace(self):
        _, report = find_design(FinderConfig(d=2, t=4, n=16, seed=0))
        trace = report.meta["defect_trace"]
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_iterates_stay_unit(self):
        config, _ = find_design(FinderConfig(d=2, t=4, n=20, seed=0))
        norms = np.linalg.norm(config.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_deterministic_bit_for_bit(self):
        cfg = FinderConfig(d=2, t=3, n=8, seed=42)
        config_a, report_a = find_design(cfg)
        config_b, report_b = find_design(cfg)
        assert np.array_equal(config_a.points, config_b.points)
        assert report_a.defect == report_b.defect
        del report_a.meta["runtime_seconds"], report_b.meta["runtime_seconds"]
        assert report_a.meta == report_b.meta

    @pytest.mark.parametrize(
        "cfg",
        [
            FinderConfig(d=2, t=3, n=8, seed=42),
            FinderConfig(d=2, t=2, n=4, max_iterations=1, restarts=0, seed=3),
        ],
        ids=["2-3-8", "2-2-4-stalled"],
    )
    def test_line_search_counts_repeat(self, cfg):
        _, first = find_design(cfg)
        _, second = find_design(cfg)
        keys = ("line_search_trials", "backtracks", "iterations")
        assert [first.meta[k] for k in keys] == [second.meta[k] for k in keys]
        trials = first.meta["line_search_trials"]
        assert trials >= first.meta["iterations"]
        # every trial is accepted (one iteration) or backtracked
        assert trials == first.meta["iterations"] + first.meta["backtracks"]

    @pytest.mark.parametrize("d,t,n", [(2, 3, 8), (3, 3, 16)])
    def test_one_kernel_pass_per_evaluation(self, monkeypatch, d, t, n):
        # each objective evaluation (the start and every line-search trial)
        # takes value and gradient from one fused pass over one row block
        calls = Counter()

        def counting(original):
            def wrapped(model, s):
                calls[original.__name__] += 1
                return original(model, s)

            return wrapped

        for kernel in (kernel_value, kernel_derivative, kernel_value_and_derivative):
            monkeypatch.setattr(quadrature, kernel.__name__, counting(kernel))
        _, report = find_design(FinderConfig(d=d, t=t, n=n, restarts=0))
        assert report.meta["line_search_trials"] > 0
        evaluations = 1 + report.meta["line_search_trials"]
        assert calls == {"kernel_value_and_derivative": evaluations}

    def test_restart_rescues_stalled_seed(self):
        # the plain equal-area seed stalls in a local minimum at this size;
        # perturbed restarts recover a true design
        config, report = find_design(FinderConfig(d=2, t=4, n=25, seed=0))
        assert report.verdict
        assert report.meta["attempts"] >= 2
        assert report.meta["stop_reasons"][0] == "line_search"

    def test_first_attempt_converges_at_degree_12(self):
        _, report = find_design(FinderConfig(d=2, t=12, n=169))
        assert report.verdict
        assert report.meta["stop_reasons"] == ["target"]

    def test_reports_nonconvergence_honestly(self):
        # a 2-design on S^2 needs at least 4 points: with n = 4 but only one
        # iteration allowed, the search must admit failure
        cfg = FinderConfig(d=2, t=2, n=4, max_iterations=1, restarts=0, seed=3)
        config, report = find_design(cfg)
        assert not report.meta["converged"]
        assert not report.verdict
        assert report.meta["best_defect"] > 1e-12
        assert report.meta["stop_reasons"] == ["iterations"]
        assert report.meta["stop_reason"] == "iterations"

    @pytest.mark.parametrize(
        "cfg",
        [
            FinderConfig(d=2, t=5, n=12),
            FinderConfig(d=2, t=4, n=25, seed=0),  # converges after a restart
            FinderConfig(d=2, t=2, n=4, max_iterations=1, restarts=0, seed=3),
        ],
        ids=["2-5-12", "2-4-25-restart", "2-2-4-stalled"],
    )
    def test_bookkeeping_agrees_with_verification(self, cfg):
        # the finder descends on a plain-sum objective; verification is exact
        _, report = find_design(cfg)
        bound = 4 * np.finfo(float).eps * kernel_model(cfg.d, cfg.t).space_dim
        assert abs(report.meta["best_defect"] - report.defect) <= bound
        assert report.meta["converged"] == report.verdict

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError, match="minimum is 4"):
            find_design(FinderConfig(d=2, t=2, n=3))

    @pytest.mark.parametrize("d,t,n", [(3, 2, 6), (3, 3, 8), (3, 3, 16)])
    def test_s3_designs(self, d, t, n):
        config, report = find_design(FinderConfig(d=d, t=t, n=n, seed=0))
        assert report.verdict
        assert verify_design(kernel_model(d, t), config, tolerance=1e-12).verdict

    def test_runtime_and_seed_in_meta(self):
        _, report = find_design(FinderConfig(d=1, t=2, n=3, seed=9))
        assert report.meta["seed"] == 9
        assert report.meta["runtime_seconds"] >= 0.0


class TestFinderConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FinderConfig(d=2, t=2, n=0)
        with pytest.raises(ValueError):
            FinderConfig(d=2, t=2, n=5, defect_target=0.0)
        with pytest.raises(ValueError):
            FinderConfig(d=2, t=2, n=5, restarts=-1)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_rejects_non_finite_target(self, target):
        # NaN could never be reached; infinity would make every verdict true
        with pytest.raises(ValueError, match="finite"):
            FinderConfig(d=2, t=2, n=5, defect_target=target)
