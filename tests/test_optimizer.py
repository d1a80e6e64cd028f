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


def _count_array_scans(monkeypatch) -> Counter:
    """Count the optimizer's kernel scans over arrays of cosines (not the
    scalar K'(1) of the damping unit), by function name."""
    scans = Counter()

    def counting(original):
        def wrapped(model, s):
            if np.ndim(s):
                scans[original.__name__] += 1
            return original(model, s)

        return wrapped

    for name in ("kernel_derivative", "kernel_second_derivative"):
        monkeypatch.setattr(optimizer, name, counting(getattr(optimizer, name)))
    return scans


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
        # the solves take K' from that pass and K'' from the optimizer's
        # own scan, which the next test counts
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
        "cfg",
        [
            FinderConfig(d=2, t=3, n=8, restarts=0),
            FinderConfig(d=2, t=9, n=100, restarts=0),
            FinderConfig(d=4, t=3, n=50, restarts=0),
            FinderConfig(d=4, t=5, n=41, restarts=0),
            FinderConfig(d=2, t=2, n=4, restarts=0, seed=3, max_iterations=1),
        ],
        ids=["dense", "cg", "cg-4-3-50", "capped-cg", "iterations"],
    )
    def test_one_second_derivative_scan_per_point(self, monkeypatch, cfg):
        # K' comes from the section pass that evaluated the point, so the
        # steps scan K'' once per point they solve at, whichever form the
        # solve takes, and K' never
        scans = _count_array_scans(monkeypatch)
        _, report = find_design(cfg)
        points = report.meta["iterations"] + (report.meta["stop_reason"] == "line_search")
        assert scans == {"kernel_second_derivative": points}

    @pytest.mark.parametrize(
        "step,reasons",
        [("dense", ["stalled"] * 2 + ["target"]), ("cg", ["stalled"] * 2 + ["target"])],
        ids=["dense", "cg"],
    )
    def test_restart_rescues_stalled_seed(self, monkeypatch, step, reasons):
        # the first perturbed starts stall in local minima at this size, the
        # last reaches a true design: within three attempts by either solve
        # (the dense one is the one this size takes)
        monkeypatch.setattr(optimizer, "step_kind", lambda d, n: step)
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
        # a system of dN <= 160 rows takes the dense solve, whatever t:
        # 2 * 80 = 4 * 40 = 160, but 2 * 81 = 162 and 4 * 41 = 164 take CG
        assert optimizer.DENSE_SIZE == 160
        assert [step_kind(2, 12), step_kind(2, 80), step_kind(4, 40)] == ["dense"] * 3
        assert [step_kind(2, 81), step_kind(4, 41)] == ["cg"] * 2
        _, report = find_design(FinderConfig(d=2, t=5, n=12))
        assert (report.meta["step"], report.meta["cg_iterations"]) == ("dense", 0)
        _, report = find_design(FinderConfig(d=4, t=5, n=32, restarts=0))
        assert (report.meta["step"], report.meta["cg_iterations"]) == ("dense", 0)
        _, report = find_design(CG_CFG)
        assert (report.meta["step"], report.meta["capped_solves"]) == ("cg", 0)
        assert report.meta["cg_iterations"] > 0

    def test_float_budget(self, monkeypatch):
        # the rule admits dN <= 160 only, well inside the float budget of
        # 2^22; the budget bounds the dense finish of a capped CG solve: with
        # (dN)^2 = 164^2 just over it, (4,5,41), which switches within it
        # (TestSolveSwitch), stays on capped CG solves
        assert optimizer.DENSE_SIZE**2 <= optimizer.MAX_SYSTEM_FLOATS
        monkeypatch.setattr(optimizer, "MAX_SYSTEM_FLOATS", 164**2 - 1)
        _, capped = find_design(FinderConfig(d=4, t=5, n=41, restarts=0, seed=0))
        assert capped.meta["step"] == "cg"
        assert capped.meta["capped_solves"] > 1
        assert capped.meta["cg_iterations"] >= optimizer.CG_CAP * capped.meta["capped_solves"]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_dense_rule_is_the_system_size(self, d):
        # the dense solve runs exactly where dN <= DENSE_SIZE: both forms
        # pay the same kernel scans, so t does not enter the rule
        for n in range(1, 2 * optimizer.DENSE_SIZE // d + 2):
            expected = "dense" if d * n <= optimizer.DENSE_SIZE else "cg"
            assert step_kind(d, n) == expected, (d, n)

    @pytest.mark.parametrize(
        "cfg,step",
        [
            (FinderConfig(d=2, t=5, n=12, restarts=0, seed=0), "dense"),
            (FinderConfig(d=5, t=5, n=45, restarts=0, seed=1), "dense"),
        ],
        ids=["dense", "cg"],
    )
    def test_stalled_attempt_is_a_local_minimum(self, cfg, step):
        # an attempt ends on "stalled" after its one slow step, whichever
        # solve it starts on; (5,5,45) starts on CG and ends on the dense
        # finish of its capped solve
        _, report = find_design(cfg)
        trace = report.meta["defect_trace"]
        assert report.meta["step"] == step
        assert report.meta["stop_reason"] == "stalled"
        assert trace[-2] - trace[-1] < optimizer.STALL * trace[-2]
        assert all(a - b >= optimizer.STALL * a for a, b in zip(trace[:-2], trace[1:-1]))


class TestSolveSwitch:
    @pytest.mark.parametrize(
        "cfg",
        [
            FinderConfig(d=4, t=5, n=41, restarts=0, seed=0),
            FinderConfig(d=5, t=5, n=45, restarts=0, seed=1),
        ],
        ids=["4-5-41", "5-5-45"],
    )
    def test_capped_solve_switches_once(self, monkeypatch, cfg):
        # near a local minimum that is not a design CG reaches its cap; the
        # dense form finishes that solve and takes every later one, and the
        # finish is part of the same trial
        assert step_kind(cfg.d, cfg.n) == "cg"
        forms = []
        real = optimizer._damped_solver

        def recording(*args):
            forms.append(args[-1])
            return real(*args)

        monkeypatch.setattr(optimizer, "_damped_solver", recording)
        _, report = find_design(cfg)
        meta = report.meta
        assert (meta["step"], meta["capped_solves"], meta["stop_reason"]) == ("dense", 1, "stalled")
        switch = forms.index("dense")
        assert set(forms[:switch]) == {"cg"} and set(forms[switch:]) == {"dense"}
        assert meta["cg_iterations"] >= optimizer.CG_CAP
        assert meta["line_search_trials"] == meta["iterations"] + meta["backtracks"]

    @pytest.mark.parametrize(
        "d,t,n,seed",
        [(4, 3, 50, 0), (4, 3, 50, 42), (3, 5, 60, 0), (4, 5, 100, 0), (2, 9, 100, 0)],
    )
    def test_converging_cg_finds_never_switch(self, d, t, n, seed):
        _, report = find_design(FinderConfig(d=d, t=t, n=n, seed=seed))
        assert report.verdict
        assert (report.meta["step"], report.meta["capped_solves"]) == ("cg", 0)
        assert 0 < report.meta["cg_iterations"] < optimizer.CG_CAP * report.meta["line_search_trials"]


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

    @pytest.mark.parametrize("d,t,n", [(2, 6, 100), (4, 3, 50), (2, 9, 181)])
    def test_kept_blocks_match_fresh_weights(self, rng, d, t, n):
        # up to 181 points the section pass is one block, the same SYRK
        # product as fresh cosines, so H is the same to the bit
        x = unit_rows(rng.standard_normal((n, d + 1)))
        model = kernel_model(d, t)
        bases = optimizer._tangent_bases(x)
        weights = list(optimizer._pair_weights(model, x, _section_defect(model, x, keep=True)[2]))
        kept = optimizer._gauss_newton_matrix(model, x, bases, weights)
        assert np.array_equal(kept, optimizer._gauss_newton_matrix(model, x, bases))


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

    @pytest.mark.parametrize("n", [100, 200], ids=["one-block", "two-blocks"])
    def test_recomputed_weights_match_kept_ones(self, rng, monkeypatch, n):
        # the weights from the section pass's kept blocks and those each
        # product forms again, block by block, give the same bits; the kept
        # ones cost one K'' scan a block and no K' scan, the others both
        # scans a block on every product
        x = self._points(rng, 2, n)
        model, bases = self._setup(x, 6)
        z = rng.standard_normal((n, 2))
        scans = _count_array_scans(monkeypatch)
        blocks = _section_defect(model, x, keep=True)[2]
        weights = list(optimizer._pair_weights(model, x, blocks))
        assert len(weights) == len(blocks) == {100: 1, 200: 2}[n]
        assert scans == {"kernel_second_derivative": len(blocks)}
        product = optimizer._gauss_newton_product(model, x, bases, weights)
        kept = [product(z), product(z)]
        assert scans == {"kernel_second_derivative": len(blocks)}
        product = optimizer._gauss_newton_product(model, x, bases)
        recomputed = [product(z), product(z)]
        assert scans == {
            "kernel_derivative": 2 * len(blocks),
            "kernel_second_derivative": 3 * len(blocks),
        }
        for a, b in zip(kept, recomputed):
            assert np.array_equal(a, b)

    def test_cg_solve_reaches_its_tolerance(self, rng):
        # one damped step's solve from perturbed points on S^3
        x = self._points(rng, 3, 40)
        model, bases = self._setup(x, 4)
        rhs = -0.5 * np.einsum("iac,ia->ic", bases, _section_defect(model, x)[1])
        shift = optimizer.INITIAL_DAMPING * kernel_derivative(model, 1.0) / 40**2
        product = optimizer._gauss_newton_product(model, x, bases)
        z, iterations, capped = optimizer._conjugate_gradients(
            lambda v: product(v) + shift * v, rhs
        )
        system = optimizer._gauss_newton_matrix(model, x, bases) + shift * np.eye(z.size)
        assert 0 < iterations < optimizer.CG_CAP and not capped
        residual = np.linalg.norm(system @ z.ravel() - rhs.ravel())
        assert residual <= optimizer.CG_TOLERANCE * np.linalg.norm(rhs)

    def test_cg_cap(self, monkeypatch):
        # a solve is capped only if it stops on the cap short of its
        # tolerance, and the cap never passes the size of the system
        spectrum = np.geomspace(1.0, 100.0, 30).reshape(10, 3)
        rhs = np.ones_like(spectrum)

        def solve(scale):
            return optimizer._conjugate_gradients(lambda v: scale * v, rhs)[1:]

        iterations, capped = solve(spectrum)
        assert 1 < iterations < optimizer.CG_CAP and not capped
        monkeypatch.setattr(optimizer, "CG_CAP", iterations)
        assert solve(spectrum) == (iterations, False)
        monkeypatch.setattr(optimizer, "CG_CAP", iterations - 1)
        assert solve(spectrum) == (iterations - 1, True)
        # rounding keeps CG on a spread spectrum short of its tolerance
        # after as many iterations as unknowns, below the cap of 40
        monkeypatch.setattr(optimizer, "CG_CAP", 40)
        assert solve(spectrum**3) == (rhs.size, True)


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
