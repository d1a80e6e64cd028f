import math
from collections import Counter

import numpy as np
import pytest

import sphdesign.optimizer as optimizer
import sphdesign.quadrature as quadrature
from sphdesign.design import _section_defect, catalog_design, defect, verify_design
from sphdesign.kernel import (
    kernel_derivative,
    kernel_model,
    kernel_value,
    kernel_value_and_derivative,
)
from sphdesign.optimizer import FinderConfig, find_design, seed_points, step_kind
from sphdesign.sphere_geometry import unit_rows

# sizes on each side of the solve rule: dense, then conjugate gradients
DENSE_CFG = FinderConfig(d=2, t=3, n=8, seed=42)
CG_CFG = FinderConfig(d=4, t=3, n=50, seed=42)


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
        # four points at right angles, up to rotation and order
        square = catalog_design("polygon(4)").points
        gram = np.sort((config.points @ config.points.T).ravel())
        assert np.allclose(gram, np.sort((square @ square.T).ravel()), atol=1e-6)

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

    @pytest.mark.parametrize("cfg", [DENSE_CFG, CG_CFG], ids=["dense", "cg"])
    def test_deterministic_bit_for_bit(self, cfg):
        config_a, report_a = find_design(cfg)
        config_b, report_b = find_design(cfg)
        assert np.array_equal(config_a.points, config_b.points)
        assert report_a.defect == report_b.defect
        del report_a.meta["runtime_seconds"], report_b.meta["runtime_seconds"]
        assert report_a.meta == report_b.meta

    @pytest.mark.parametrize(
        "cfg",
        [
            DENSE_CFG,
            FinderConfig(d=2, t=2, n=4, max_iterations=1, restarts=0, seed=3),
            FinderConfig(d=2, t=5, n=12),
            CG_CFG,
            FinderConfig(d=4, t=3, n=50, max_iterations=1, restarts=0, seed=3),
        ],
        ids=["2-3-8", "2-2-4-stalled", "2-5-12-restart", "4-3-50", "4-3-50-stalled"],
    )
    def test_line_search_counts_repeat(self, cfg):
        # a trial is one solved step and a backtrack one rejected step
        _, first = find_design(cfg)
        _, second = find_design(cfg)
        keys = ("line_search_trials", "backtracks", "iterations", "cg_iterations")
        assert [first.meta[k] for k in keys] == [second.meta[k] for k in keys]
        trials = first.meta["line_search_trials"]
        assert trials >= first.meta["iterations"]
        # every trial is accepted (one iteration) or backtracked
        assert trials == first.meta["iterations"] + first.meta["backtracks"]
        # every CG solve takes at least one iteration; a dense one none
        cg = first.meta["cg_iterations"]
        assert cg >= trials if first.meta["step"] == "cg" else cg == 0

    @pytest.mark.parametrize("d,t,n", [(2, 3, 8), (3, 3, 16), (4, 3, 30), (4, 3, 50)])
    def test_one_kernel_pass_per_evaluation(self, monkeypatch, d, t, n):
        # each objective evaluation (the start and every line-search trial)
        # takes value and gradient from one fused pass over one row block;
        # both solves take K' and K'' from the kernel itself
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

    @pytest.mark.parametrize(
        "step,reasons",
        [("dense", ["stalled"] * 2 + ["target"]), ("cg", ["stalled"] * 2 + ["target"])],
        ids=["dense", "cg"],
    )
    def test_restart_rescues_stalled_seed(self, monkeypatch, step, reasons):
        # the first perturbed starts stall in local minima at this size, the
        # last reaches a true design: within three attempts by either solve
        # (the dense one is the one this size takes)
        monkeypatch.setattr(optimizer, "step_kind", lambda d, t, n: step)
        config, report = find_design(FinderConfig(d=2, t=5, n=12, seed=0))
        assert report.verdict
        assert report.meta["step"] == step
        assert report.meta["stop_reasons"] == reasons

    @pytest.mark.parametrize(
        "d,t,n", [(2, 4, 16), (2, 4, 20), (2, 4, 25), (2, 3, 8), (3, 2, 6), (2, 6, 40)]
    )
    def test_verifies_on_first_attempt(self, d, t, n):
        # the plain equal-area seeds of these sizes are critical points of
        # the objective or lie in a local-minimum basin; perturbed ones do not
        _, report = find_design(FinderConfig(d=d, t=t, n=n, seed=0))
        assert report.verdict
        assert report.meta["stop_reasons"] == ["target"]

    def test_refuted_target_attempt_continues(self, monkeypatch):
        # an attempt that claims the target is verified at once; a refuted
        # claim does not end the search
        real = optimizer._minimize
        calls = []

        def claims_first(model, cfg, x):
            calls.append(x)
            if len(calls) == 1:
                return x, 0.0, [0.0], "target", {"line_search_trials": 0, "backtracks": 0}
            return real(model, cfg, x)

        monkeypatch.setattr(optimizer, "_minimize", claims_first)
        config, report = find_design(FinderConfig(d=2, t=3, n=8, seed=0))
        assert report.meta["stop_reasons"] == ["target", "target"]
        assert report.meta["attempts"] == 2
        assert report.verdict
        assert verify_design(kernel_model(2, 3), config, tolerance=1e-12).verdict

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
            FinderConfig(d=2, t=5, n=12),  # converges after two restarts
            FinderConfig(d=2, t=4, n=25, seed=0),
            FinderConfig(d=2, t=2, n=4, max_iterations=1, restarts=0, seed=3),
            CG_CFG,
        ],
        ids=["2-5-12-restart", "2-4-25", "2-2-4-stalled", "4-3-50"],
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


class TestStepPath:
    def test_each_side_of_the_rule(self):
        # d^2 N <= 200 t takes the dense solve: 4 * 12 <= 1000 and
        # 16 * 30 <= 600, but 16 * 50 > 600
        _, report = find_design(FinderConfig(d=2, t=5, n=12))
        assert (report.meta["step"], report.meta["cg_iterations"]) == ("dense", 0)
        _, report = find_design(FinderConfig(d=4, t=3, n=30))
        assert (report.meta["step"], report.meta["cg_iterations"]) == ("dense", 0)
        _, report = find_design(FinderConfig(d=4, t=3, n=50))
        assert report.meta["step"] == "cg"
        assert report.meta["cg_iterations"] > 0

    def test_float_budget(self):
        # within the cost rule (4 * 1100 <= 200 * 40), but the (dN)^2 system
        # of 4.84e6 floats is over the budget of 2^22
        assert 2**2 * 1100 <= optimizer.DENSE_COST_RATIO * 40
        assert step_kind(2, 40, 1100) == "cg"
        assert step_kind(2, 40, 1024) == "dense"  # (dN)^2 = 2^22

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_dense_rule_contains_the_cubic_one(self, d):
        # for d >= 2, d^2 N <= 200 t holds wherever d^3 N <= 400 t does, so
        # the sizes whose outputs are pinned bit for bit on the dense solve,
        # the benchmark's S^2 and S^3 finds among them, keep it
        for t in range(1, 25):
            for n in range(1, 400 * t // d**3 + 1):
                if (d * n) ** 2 <= optimizer.MAX_SYSTEM_FLOATS:
                    assert step_kind(d, t, n) == "dense", (d, t, n)

    @pytest.mark.parametrize(
        "cfg,step",
        [
            (FinderConfig(d=2, t=5, n=12, restarts=0, seed=0), "dense"),
            (FinderConfig(d=5, t=5, n=45, restarts=0, seed=1), "cg"),
        ],
        ids=["dense", "cg"],
    )
    def test_stalled_attempt_is_a_local_minimum(self, cfg, step):
        # an attempt ends on "stalled" after its one slow step, whichever
        # solve it takes
        _, report = find_design(cfg)
        trace = report.meta["defect_trace"]
        assert report.meta["step"] == step
        assert report.meta["stop_reason"] == "stalled"
        assert trace[-2] - trace[-1] < optimizer.STALL * trace[-2]
        assert all(a - b >= optimizer.STALL * a for a, b in zip(trace[:-2], trace[1:-1]))


class TestGaussNewtonMatrix:
    @pytest.mark.parametrize("d,n", [(1, 5), (2, 12), (4, 30)])
    def test_tangent_bases(self, rng, d, n):
        x = unit_rows(rng.standard_normal((n, d + 1)))
        x[0] = np.eye(d + 1)[0]  # on the reflector's axis, both signs
        x[1] = -np.eye(d + 1)[0]
        bases = optimizer._tangent_bases(x)
        assert bases.shape == (n, d + 1, d)
        eye = np.broadcast_to(np.eye(d), (n, d, d))
        assert np.abs(np.einsum("iac,iae->ice", bases, bases) - eye).max() < 4e-16
        assert np.abs(np.einsum("iac,ia->ic", bases, x)).max() < 4e-16

    @pytest.mark.parametrize("name,t", [("icosahedron", 5), ("24-cell", 5)])
    def test_half_the_hessian_at_a_design(self, name, t):
        # at a design P_X = 0, so the Gauss-Newton matrix is half the
        # Hessian of the objective: central differences of step 1e-4 in
        # tangent coordinates
        config = catalog_design(name)
        model = kernel_model(config.d, t)
        x = config.points
        bases = optimizer._tangent_bases(x)
        system = optimizer._gauss_newton_matrix(model, x, bases)
        size = system.shape[0]

        def objective(z):  # the section objective in tangent coordinates
            return _section_defect(model, unit_rows(x + np.einsum("iac,ic->ia", bases, z)))[0]

        h = 1e-4
        steps = h * np.eye(size).reshape(size, len(x), config.d)
        hessian = np.empty((size, size))
        for a in range(size):
            for b in range(a, size):
                plus, minus = steps[a] + steps[b], steps[a] - steps[b]
                value = objective(plus) - objective(minus) - objective(-minus) + objective(-plus)
                hessian[a, b] = hessian[b, a] = value / (4 * h * h)
        # measured 8.6e-8 of the largest entry for both; dropping the K''
        # term gives 0.25
        assert np.abs(system - hessian / 2).max() <= 1e-6 * np.abs(system).max()


class TestGaussNewtonProduct:
    @staticmethod
    def _setup(x, t):
        model = kernel_model(x.shape[1] - 1, t)
        bases = optimizer._tangent_bases(x)
        return model, bases

    @staticmethod
    def _points(rng, d, n):
        return unit_rows(rng.standard_normal((n, d + 1)))

    @pytest.mark.parametrize("damped", [False, True], ids=["undamped", "damped"])
    @pytest.mark.parametrize(
        "case",
        [("icosahedron", 5), ("24-cell", 5), (1, 4, 9), (2, 5, 30), (3, 4, 40), (4, 3, 50)],
        ids=["icosahedron", "24-cell", "S1", "S2", "S3", "S4"],
    )
    def test_matches_the_matrix(self, rng, case, damped):
        # measured at most 0.48 eps |H| |z| on these inputs
        if isinstance(case[0], str):
            x, t = catalog_design(case[0]).points, case[1]
        else:
            x, t = self._points(rng, case[0], case[2]), case[1]
        model, bases = self._setup(x, t)
        n, d = bases.shape[0], bases.shape[2]
        system = optimizer._gauss_newton_matrix(model, x, bases)
        shift = 0.1 * kernel_derivative(model, 1.0) / n**2 if damped else 0.0
        z = rng.standard_normal((n, d))
        product = optimizer._gauss_newton_product(model, x, bases)(z) + shift * z
        reference = (system + shift * np.eye(n * d)) @ z.ravel()
        bound = 4 * np.finfo(float).eps * np.linalg.norm(system, 2) * np.linalg.norm(z)
        assert np.abs(product.ravel() - reference).max() <= bound

    def test_recomputed_weights_match_kept_ones(self, rng, monkeypatch):
        # N = 200 spans two row blocks; a budget of 2 N^2 / 4 floats or less
        # recomputes the weights of both on every product, to the same bits
        x = self._points(rng, 2, 200)
        model, bases = self._setup(x, 6)
        z = rng.standard_normal((200, 2))
        calls = Counter()
        real = optimizer._weights

        def counting(*args):
            calls["weights"] += 1
            return real(*args)

        monkeypatch.setattr(optimizer, "_weights", counting)
        product = optimizer._gauss_newton_product(model, x, bases)
        kept = [product(z), product(z)]
        assert calls["weights"] == 2
        monkeypatch.setattr(optimizer, "MAX_SYSTEM_FLOATS", 2 * 200**2 // 4 - 1)
        product = optimizer._gauss_newton_product(model, x, bases)
        recomputed = [product(z), product(z)]
        assert calls["weights"] == 6
        for a, b in zip(kept, recomputed):
            assert np.array_equal(a, b)

    def test_cg_solve_reaches_its_tolerance(self, rng):
        # one damped step's solve from perturbed points on S^3
        x = self._points(rng, 3, 40)
        model, bases = self._setup(x, 4)
        rhs = -0.5 * np.einsum("iac,ia->ic", bases, _section_defect(model, x)[1])
        shift = optimizer.INITIAL_DAMPING * kernel_derivative(model, 1.0) / 40**2
        product = optimizer._gauss_newton_product(model, x, bases)
        z, iterations = optimizer._conjugate_gradients(lambda v: product(v) + shift * v, rhs)
        system = optimizer._gauss_newton_matrix(model, x, bases) + shift * np.eye(z.size)
        assert 0 < iterations < z.size
        residual = np.linalg.norm(system @ z.ravel() - rhs.ravel())
        assert residual <= optimizer.CG_TOLERANCE * np.linalg.norm(rhs)


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
