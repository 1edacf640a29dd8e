import dataclasses
import tracemalloc

import numpy as np
import pytest

from fracvar import (DomainSpec, EnergyModel, Field, PointState, RegimeConfig,
                     SolverOptions, assemble_gradient, assemble_laplacian, build_grid,
                     first_eigenpair, hs_norm, kkt_residual, make_coefficient,
                     make_reaction, minimize_cone, mountain_pass, project_cone, ray_search)
from fracvar import experiments, fracops, solvers
from fracvar.fracops import composition_matrix
from fracvar.solvers import _preconditioner


@pytest.fixture(scope="module")
def zero_h(grid_1d_128):
    return Field(grid_1d_128, np.zeros(128))


@pytest.fixture(scope="module")
def opts():
    return SolverOptions(max_iter=8000, tol_g=1e-6)


def model_with(grad_op, coeff, reaction, h):
    return EnergyModel(grad_op=grad_op, coeff=coeff, reaction=reaction, forcing=h)


class TestProjectCone:
    def test_nonnegative_unchanged(self, grid_1d_128):
        u = Field(grid_1d_128, np.linspace(0.0, 1.0, 128))
        assert np.array_equal(project_cone(u).values, u.values)

    def test_nonpositive_becomes_zero(self, grid_1d_128):
        u = Field(grid_1d_128, -np.linspace(0.1, 1.0, 128))
        assert np.all(project_cone(u).values == 0.0)

    def test_mixed_signs_exact_positive_part(self, grid_1d_128, rng):
        vals = rng.standard_normal(128)
        proj = project_cone(Field(grid_1d_128, vals))
        assert np.array_equal(proj.values, np.maximum(vals, 0.0))
        again = project_cone(proj)
        assert np.array_equal(again.values, proj.values)


class TestKKT:
    def test_zero_with_nonnegative_gradient(self, grad_128, power_coeff, grid_1d_128, zero_h):
        # f(0) = 0 and h = 0: the origin is cone-stationary
        reaction = make_reaction("cubic_saturating", {"kappa": 3.0})
        model = model_with(grad_128, power_coeff, reaction, zero_h)
        z = Field(grid_1d_128, np.zeros(128))
        assert kkt_residual(PointState(model, z)) == 0.0

    def test_origin_not_stationary_with_forcing(self, grad_128, power_coeff,
                                                grid_1d_128, eig_128):
        h = Field(grid_1d_128, 0.01 * eig_128.function.values)
        model = model_with(grad_128, power_coeff, None, h)
        z = Field(grid_1d_128, np.zeros(128))
        assert (kkt_residual(PointState(model, z))
                == pytest.approx(0.01 * np.max(eig_128.function.values)))


class TestMinimizeCone:
    def test_linear_problem_matches_dense_solve(self, grid_1d_128, grad_128,
                                                eig_128, comp_matrix_128, opts):
        coeff = make_coefficient("constant", {"c": 1.0})
        model = model_with(grad_128, coeff, None, eig_128.function)
        rep = minimize_cone(model, SolverOptions(max_iter=5000, tol_g=1e-8),
                            Field(grid_1d_128, np.zeros(128)))
        dense = np.linalg.solve(comp_matrix_128, eig_128.function.values)
        rel = np.linalg.norm(rep.solution.values - dense) / np.linalg.norm(dense)
        assert rel <= 1e-4
        assert np.min(rep.solution.values) >= 0.0
        assert rep.classification == "local-min"

    def test_tiny_nu_trivial(self, grid_1d_128, grad_128, power_coeff, eig_128,
                             zero_h, opts):
        nu = 0.01 * power_coeff.gamma_min * eig_128.value  # C_g = 1 for the family
        reaction = make_reaction("saturating", {"nu": nu})
        model = model_with(grad_128, power_coeff, reaction, zero_h)
        u0 = Field(grid_1d_128, 1e-3 * eig_128.function.values)
        rep = minimize_cone(model, opts, u0)
        assert rep.classification == "trivial"
        assert rep.l2_norm <= 1e-8

    def test_large_nu_negative_energy(self, grid_1d_128, grad_128, power_coeff,
                                      eig_128, zero_h, opts):
        nu = 50.0 * power_coeff.gamma_max * eig_128.value
        reaction = make_reaction("saturating", {"nu": nu})
        model = model_with(grad_128, power_coeff, reaction, zero_h)
        u0 = Field(grid_1d_128, 0.1 * eig_128.function.values)
        rep = minimize_cone(model, opts, u0)
        assert rep.classification == "local-min"
        assert rep.energy < 0.0
        assert np.min(rep.solution.values) >= 0.0

    def test_energy_trace_monotone(self, grid_1d_128, grad_128, power_coeff, eig_128,
                                   zero_h, opts):
        nu = 50.0 * power_coeff.gamma_max * eig_128.value
        reaction = make_reaction("saturating", {"nu": nu})
        model = model_with(grad_128, power_coeff, reaction, zero_h)
        u0 = Field(grid_1d_128, 0.1 * eig_128.function.values)
        rep = minimize_cone(model, opts, u0)
        trace = np.array(rep.diagnostics["energy_trace"])
        scale = np.max(np.abs(trace))
        assert np.all(np.diff(trace) <= 1e-10 * scale)

    def test_far_starts_reach_the_same_minimizer(self, grid_1d_128, grad_128, power_coeff,
                                                 eig_128, zero_h, opts):
        # coercive regime: Armijo descent keeps every iterate in the sublevel
        # set of its start, so a start 1e7 times farther out needs no bound
        # on the iterates to come back to the same minimizer
        nu = 50.0 * power_coeff.gamma_max * eig_128.value
        reaction = make_reaction("saturating", {"nu": nu})
        model = model_with(grad_128, power_coeff, reaction, zero_h)
        energies = []
        for c in (0.1, 1e2, 1e4, 1e6):
            rep = minimize_cone(model, opts, Field(grid_1d_128, c * eig_128.function.values))
            assert rep.classification == "local-min", c
            trace = np.array(rep.diagnostics["energy_trace"])
            assert np.all(np.diff(trace) <= 1e-10 * np.max(np.abs(trace))), c
            energies.append(rep.energy)
        assert np.allclose(energies, energies[0], rtol=1e-10, atol=0.0), energies

    def test_converged_kkt_below_tolerance(self, grid_1d_128, grad_128, power_coeff,
                                           eig_128, opts):
        h = Field(grid_1d_128, 0.01 * eig_128.function.values)
        reaction = make_reaction("saturating", {"nu": 1.0})
        model = model_with(grad_128, power_coeff, reaction, h)
        rep = minimize_cone(model, opts, Field(grid_1d_128, np.zeros(128)))
        assert rep.classification == "local-min"
        assert rep.kkt_residual <= opts.tol_g
        assert kkt_residual(PointState(model, rep.solution)) <= opts.tol_g


class TestRaySearch:
    def test_finds_crossing_in_two_solution_regime(self, grid_1d_128, grad_128,
                                                   eig_128, zero_h):
        coeff = make_coefficient("constant", {"c": 1.0})
        reaction = make_reaction("cubic_saturating", {"kappa": 2.0 * eig_128.value})
        model = model_with(grad_128, coeff, reaction, zero_h)
        res = ray_search(model, eig_128.function, margin=1e-10)
        assert res.found
        assert res.energies[-1] < 0.0

    def test_no_crossing_without_reaction(self, grid_1d_128, grad_128, eig_128, zero_h):
        coeff = make_coefficient("constant", {"c": 1.0})
        model = model_with(grad_128, coeff, None, zero_h)
        res = ray_search(model, eig_128.function)
        assert not res.found
        assert np.all(np.diff(res.energies) > 0.0)  # strictly increasing in t

    def test_quadratic_leading_order(self, grid_1d_128, grad_128, power_coeff,
                                     eig_128, zero_h, monkeypatch):
        reaction = make_reaction("cubic_saturating", {"kappa": 3.0})
        model = model_with(grad_128, power_coeff, reaction, zero_h)
        monkeypatch.setattr(solvers, "_RAY_T_MAX", 1e-1)
        monkeypatch.setattr(solvers, "_RAY_T_MIN", 1e-3)
        monkeypatch.setattr(solvers, "_RAY_STEPS", 30)
        res = ray_search(model, eig_128.function)
        slope = np.polyfit(np.log(res.t_values), np.log(np.abs(res.energies)), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_rejects_bad_directions(self, grid_1d_128, grad_128, power_coeff, zero_h):
        model = model_with(grad_128, power_coeff, None, zero_h)
        with pytest.raises(ValueError):
            ray_search(model, Field(grid_1d_128, np.zeros(128)))
        with pytest.raises(ValueError):
            ray_search(model, Field(grid_1d_128, -np.ones(128)))


@pytest.fixture(scope="module")
def two_solution_setup(grid_1d_128, grad_128, power_coeff, eig_128):
    kappa = 2.0 * power_coeff.gamma_inf * eig_128.value
    reaction = make_reaction("cubic_saturating", {"kappa": kappa})
    h = Field(grid_1d_128, 0.01 * eig_128.function.values)
    model = model_with(grad_128, power_coeff, reaction, h)
    opts = SolverOptions(max_iter=8000, tol_g=1e-6)
    mat = composition_matrix(grad_128)
    u0 = project_cone(Field(grid_1d_128, np.linalg.solve(mat, h.values)))
    rep1 = minimize_cone(model, opts, u0)
    ray = ray_search(model, eig_128.function, margin=abs(rep1.energy) * 1.001 + 1e-12)
    u_far = Field(grid_1d_128, ray.t_star * eig_128.function.values)
    return model, opts, rep1, u_far


class TestMountainPass:
    def test_geometry_violation_rejected(self, two_solution_setup, grid_1d_128):
        model, opts, rep1, u_far = two_solution_setup
        with pytest.raises(ValueError, match="geometry"):
            mountain_pass(model, u_far, rep1.solution, opts)

    def test_finds_second_solution(self, two_solution_setup, grad_128):
        model, opts, rep1, u_far = two_solution_setup
        rep2 = mountain_pass(model, rep1.solution, u_far, opts)
        assert rep2.classification == "mountain-pass"
        assert rep2.kkt_residual <= opts.tol_g
        assert rep2.energy > 0.0 >= rep1.energy
        assert np.min(rep2.solution.values) >= 0.0
        # the min-max level stays above both endpoint levels throughout
        assert rep2.diagnostics["barrier_min_gap"] >= 0.0
        dist = hs_norm(grad_128, Field(rep1.solution.grid,
                                       rep1.solution.values - rep2.solution.values))
        assert dist >= 0.1 * max(rep1.hs_norm, rep2.hs_norm, 0.1)

    def test_same_critical_point_for_every_budget(self, two_solution_setup, grad_128):
        # the iteration budget caps the run; it must not select the point
        model, opts, rep1, u_far = two_solution_setup
        reference = mountain_pass(model, rep1.solution, u_far, opts)
        for max_iter in (100, 200, 400):
            rep = mountain_pass(model, rep1.solution, u_far,
                                dataclasses.replace(opts, max_iter=max_iter))
            assert rep.classification == "mountain-pass", max_iter
            dist = hs_norm(grad_128, Field(rep1.solution.grid,
                                           rep1.solution.values - rep.solution.values))
            assert dist >= 0.1 * max(rep1.hs_norm, rep.hs_norm, 0.1)
            assert rep.energy == pytest.approx(reference.energy, rel=1e-9)

    def test_above_the_crossover_makes_no_n_by_n_matrix(self, power_coeff):
        # on 2048 nodes the preconditioner is the minimizer's diagonal-scaled
        # symbol solve, so the run stays far below one dense N x N float64
        # matrix
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(2048,)))
        grad_op = assemble_gradient(grid, 0.5)
        eig = first_eigenpair(assemble_laplacian(grid, 0.5))
        reaction = make_reaction("cubic_saturating",
                                 {"kappa": 2.0 * power_coeff.gamma_inf * eig.value})
        model = model_with(grad_op, power_coeff, reaction, Field(grid, np.zeros(2048)))
        ray = ray_search(model, eig.function, margin=1e-12)
        u_far = Field(grid, ray.t_star * eig.function.values)
        tracemalloc.start()
        try:
            rep = mountain_pass(model, Field(grid, np.zeros(2048)), u_far, SolverOptions())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.classification == "mountain-pass"
        assert peak < 2048**2 * 8 / 2
        assert set(grad_op._derived) == {"fft", "symbol", "symbol_scaling"}

    @pytest.mark.parametrize("max_iter", [0, 5])
    def test_iterations_within_max_iter(self, two_solution_setup, max_iter):
        model, _, rep1, u_far = two_solution_setup
        rep = mountain_pass(model, rep1.solution, u_far, SolverOptions(max_iter=max_iter))
        assert rep.iterations <= max_iter

    def test_resonant_degenerate_fails_within_cap(self, grid_1d_128, grad_128,
                                                  eig_128, zero_h, monkeypatch):
        # gamma == 1 and linear reaction at the spectral eigenvalue: the
        # landscape has no barrier (descent directions from the origin), so
        # the minimax must report failure instead of a fake solution
        coeff = make_coefficient("constant", {"c": 1.0})
        reaction = make_reaction("linear", {"kappa": eig_128.value})
        model = model_with(grad_128, coeff, reaction, zero_h)
        monkeypatch.setattr(solvers, "_RAY_T_MAX", 1e4)
        monkeypatch.setattr(solvers, "_RAY_T_MIN", 1e-2)
        ray = ray_search(model, eig_128.function, margin=1e-10)
        assert ray.found
        opts = SolverOptions(max_iter=300, tol_g=1e-6)
        u_far = Field(grid_1d_128, ray.t_star * eig_128.function.values)
        rep = mountain_pass(model, Field(grid_1d_128, np.zeros(128)), u_far, opts)
        assert rep.classification == "failed"

    @pytest.mark.parametrize("max_iter, want", [(8000, "kkt"), (5, "budget")])
    def test_names_the_test_that_stopped_it(self, two_solution_setup, max_iter, want):
        model, _, rep1, u_far = two_solution_setup
        rep = mountain_pass(model, rep1.solution, u_far, SolverOptions(max_iter=max_iter))
        assert rep.diagnostics["stop"] == want
        assert (rep.classification == "mountain-pass") == (want == "kkt")

    def test_no_peak_toward_u_far_stops_at_once(self, grid_1d_128, grad_128, eig_128, zero_h):
        # gamma == 1 and a linear reaction at twice the eigenvalue: the energy
        # falls all along the ray from 0 toward phi1, so it has no peak
        model = model_with(grad_128, make_coefficient("constant", {"c": 1.0}),
                           make_reaction("linear", {"kappa": 2.0 * eig_128.value}), zero_h)
        rep = mountain_pass(model, Field(grid_1d_128, np.zeros(128)), eig_128.function,
                            SolverOptions())
        assert (rep.classification, rep.iterations, rep.diagnostics["stop"]) == (
            "failed", 0, "no-peak")


def _two_solution_passes(nodes):
    """The pass reports of the seed-0 two-solution config (forcing scales 0.01
    and 0 along phi1) on [0, 1]^d, with kappa = 2 gamma_inf lambda1 of its grid."""
    spec = DomainSpec(bounds=((0.0, 1.0),) * len(nodes), nodes=nodes)
    cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                       reaction=("cubic_saturating", {"kappa": 1.0}),
                       forcing={"kind": "eigenfunction", "scale": 0.01},
                       solver=SolverOptions(max_iter=8000), sweep=(0.01, 0.0))
    prep = experiments.prepare(cfg)
    cfg = dataclasses.replace(cfg, reaction=("cubic_saturating", {"kappa": 2.0 * prep.lambda1}))
    return [run.pass_report for run in experiments.run_linear_regime(cfg, prep).runs]


def test_1d_768_pass_takes_the_minimizers_metric():
    # above the crossover the pass preconditions by the diagonal-scaled
    # symbol solve, as the minimizer does: 37 / 38 iterations (56 / 56 with
    # the plain symbol solve) to the same min-max levels
    reports = _two_solution_passes((768,))
    assert [r.classification for r in reports] == ["mountain-pass"] * 2
    assert [r.diagnostics["stop"] for r in reports] == ["kkt"] * 2
    assert max(r.iterations for r in reports) <= 45
    assert [r.energy for r in reports] == pytest.approx([0.0193608983185, 0.0215812197686],
                                                        rel=1e-9)


def test_2d_48x48_pass_stops_when_it_stalls():
    # the 2D pass does not converge here (ROADMAP item 1): its KKT residual
    # levels off near 0.6 while roundoff-level steps are still accepted, and
    # the stall stop ends it at 80 / 82 iterations, not at the 8000-step budget
    for rep in _two_solution_passes((48, 48)):
        assert (rep.classification, rep.diagnostics["stop"]) == ("failed", "stall")
        assert rep.iterations <= 150


@pytest.mark.parametrize("max_iter, want", [(5000, "kkt"), (1, "budget")])
def test_minimize_cone_names_the_test_that_stopped_it(grid_1d_128, grad_128, power_coeff,
                                                      eig_128, zero_h, max_iter, want):
    reaction = make_reaction("saturating", {"nu": 50.0 * power_coeff.gamma_max * eig_128.value})
    model = model_with(grad_128, power_coeff, reaction, zero_h)
    rep = minimize_cone(model, SolverOptions(max_iter=max_iter),
                        Field(grid_1d_128, 0.1 * eig_128.function.values))
    assert rep.diagnostics["stop"] == want
    assert (rep.classification == "local-min") == (want == "kkt")


def test_newton_cg_above_the_crossover_makes_no_n_by_n_matrix(power_coeff):
    # on 2048 nodes the Newton-CG preconditions by the diagonal-scaled symbol
    # solve: both diagonals are built in O(N) and kept with the operator
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(2048,)))
    grad_op = assemble_gradient(grid, 0.5)
    eig = first_eigenpair(assemble_laplacian(grid, 0.5))
    reaction = make_reaction("saturating", {"nu": 50.0 * power_coeff.gamma_max * eig.value})
    model = model_with(grad_op, power_coeff, reaction, Field(grid, np.zeros(2048)))
    tracemalloc.start()
    try:
        rep = minimize_cone(model, SolverOptions(), Field(grid, 0.1 * eig.function.values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.classification == "local-min"
    assert peak < 2048**2 * 8 / 8
    assert set(grad_op._derived) == {"fft", "symbol", "symbol_scaling"}
    assert grad_op._derived["symbol_scaling"].shape == (2048,)


@pytest.mark.parametrize("c", [1e-9, 1e-3, 7.0, 1e6])
@pytest.mark.parametrize("r, r_prev, eta_prev, want", [
    (1.0, None, 0.5, 0.5),            # the first iteration: eta_max
    (1.0, 0.0, 0.2, 0.5),             # no previous residual to compare with
    (0.5, 1.0, 0.3, 0.225),           # gamma (r / r_prev)^2
    (0.3, 1.0, 0.45, 0.9 * 0.45**2),  # the safeguard gamma eta_prev^2 > 0.1
    (0.01, 1.0, 0.2, 9e-5),           # no safeguard at gamma eta_prev^2 <= 0.1
    (2.0, 1.0, 0.1, 0.5),             # capped at eta_max
])
def test_forcing_is_unchanged_when_the_residuals_are_scaled(c, r, r_prev, eta_prev, want):
    # Eisenstat-Walker choice 2 reads a ratio of residual norms only
    assert solvers._forcing(r, r_prev, eta_prev) == pytest.approx(want, rel=1e-14)
    scaled = solvers._forcing(c * r, None if r_prev is None else c * r_prev, eta_prev)
    assert scaled == pytest.approx(want, rel=1e-14)


def test_2d_48x48_solve_keeps_its_newton_and_cg_counts():
    # the 2D 48 x 48 solve of the saturating reaction at nu = 50 gamma(0)
    # lambda_1 (tol_g 1e-4): at most 9 Newton iterations and 66 Hessian
    # products (9 and 65 with the CG floor at half the KKT tolerance, 9 and
    # 74 without), to the energy the solve has always reached. Counts, so
    # that the guard does not depend on the host's speed.
    spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(48, 48))
    cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                       reaction=("saturating", {"nu": 461.3673052425522, "amplitude": 1.0}),
                       forcing={"kind": "zero"}, solver=SolverOptions(max_iter=20000, tol_g=1e-4))
    prep = experiments.prepare(cfg)
    rep = experiments._solve_once(prep, experiments._reaction_with(cfg),
                                  experiments.build_forcing(prep))
    assert rep.classification == "local-min"
    assert rep.iterations <= 9
    assert rep.diagnostics["counts"]["hessian_products"] <= 66
    assert rep.kkt_residual <= cfg.solver.tol_g
    assert rep.energy == pytest.approx(-78842.24360576471, rel=1e-12)


@pytest.mark.parametrize("l2, want", [
    (0.0, 1e-4),                 # the trivial state
    (solvers.TRIVIAL_L2, 1e-4),  # the classification cut, outside the band
    (1e-6, 1e-6),                # inside: tol_g l2 / _DRAIN_BAND
    (solvers._DRAIN_BAND, 1e-4),  # the band's top, where the scaling reaches 1
    (0.5, 1e-4),                 # a nontrivial iterate
])
def test_kkt_tolerance_tightens_inside_the_drain_band(l2, want):
    # the one tolerance that both the stop and the Newton-CG floor read
    assert solvers._kkt_tolerance(l2, 1e-4) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("amplitude,converged,level_offset,want", [
    (1.0, False, None, "failed"),      # a minimization that did not converge
    (1.0, False, -1.0, "failed"),      # a pass that did not converge
    (0.5, True, None, "trivial"),      # amplitudes in units of TRIVIAL_L2 ...
    (2.0, True, None, "local-min"),
    (1e7, True, None, "local-min"),    # ... up to L2 norm 0.1
    (0.5, True, -1.0, "failed"),       # a pass at the trivial state
    (1e7, True, 0.0, "failed"),        # a pass at its endpoint level
    (1e7, True, 1.0, "failed"),        # a pass below it
    (1e7, True, -1.0, "mountain-pass"),
])
def test_report_decides_each_verdict(grad_128, power_coeff, eig_128, zero_h,
                                     amplitude, converged, level_offset, want):
    # the point is amplitude TRIVIAL_L2 phi1 (unit L2 norm); pass_level lies
    # level_offset above its energy, None for a minimization
    model = model_with(grad_128, power_coeff,
                       make_reaction("cubic_saturating", {"kappa": 3.0}), zero_h)
    phi1 = eig_128.function
    point = PointState(model, Field(phi1.grid, amplitude * solvers.TRIVIAL_L2 * phi1.values))
    level = None if level_offset is None else point.energy + level_offset
    diagnostics = {"counts": {}}
    rep = solvers._report(point, 1e-7, 3, converged, diagnostics, pass_level=level)
    assert rep.classification == want
    assert rep.solution is point.u and rep.diagnostics is diagnostics
    assert (rep.energy, rep.kkt_residual, rep.iterations, rep.hs_norm) == (
        point.energy, 1e-7, 3, point.hs_norm)
    assert rep.l2_norm == pytest.approx(amplitude * solvers.TRIVIAL_L2, rel=1e-12)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_g=0.0)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_newton_iterations_flat_in_n(power_coeff, s):
    iterations = []
    for n in (128, 256, 384, 512):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(n,)))
        grad_op = assemble_gradient(grid, s)
        eig = first_eigenpair(assemble_laplacian(grid, s))
        reaction = make_reaction("saturating", {"nu": 50.0 * power_coeff.gamma_max * eig.value})
        model = model_with(grad_op, power_coeff, reaction, Field(grid, np.zeros(n)))
        rep = minimize_cone(model, SolverOptions(), Field(grid, 0.1 * eig.function.values))
        assert rep.classification == "local-min"
        iterations.append(rep.iterations)
    assert max(iterations) <= 2 * min(iterations), iterations


class TestEvaluationBudget:
    """Each iterate is evaluated once: one forward apply of the gradient
    table per line-search trial, one transposed apply per accepted point,
    and one of each per Hessian product of the inner CG."""

    @pytest.mark.parametrize("case, budget", [("large_nu", 143), ("forced", 162)],
                             ids=["large_nu", "forced"])
    def test_table_applies_per_solve(self, count_calls, grid_1d_128, grad_128,
                                     power_coeff, eig_128, zero_h, opts, case, budget):
        # budgets: the totals that projected first-order descent needs here
        nu, h, u0 = {
            "large_nu": (50.0 * power_coeff.gamma_max * eig_128.value, zero_h,
                         0.1 * eig_128.function.values),
            "forced": (1.0, Field(grid_1d_128, 0.01 * eig_128.function.values),
                       np.zeros(128)),
        }[case]
        model = model_with(grad_128, power_coeff, make_reaction("saturating", {"nu": nu}), h)
        forward = count_calls(fracops.apply_gradient)
        transposed = count_calls(fracops.apply_divergence)
        rep = minimize_cone(model, opts, Field(grid_1d_128, u0))
        assert rep.classification != "failed"
        assert rep.iterations > 0
        assert len(forward) + len(transposed) <= budget
        counts = rep.diagnostics["counts"]
        # forward: the initial point, each line-search trial, each Hessian product
        assert len(forward) == 1 + counts["trials"] + counts["hessian_products"]

    def test_mountain_pass_table_applies_per_iteration(self, count_calls, two_solution_setup):
        model, opts, rep1, u_far = two_solution_setup
        forward = count_calls(fracops.apply_gradient)
        transposed = count_calls(fracops.apply_divergence)
        rep = mountain_pass(model, rep1.solution, u_far, opts)
        assert rep.classification == "mountain-pass"
        assert (len(forward) + len(transposed)) / rep.iterations <= 10.0
        # forward: u_low and u_far once each, the first peak's ray, and the
        # ray of each line-search trial; peaks take their gradient by linearity
        assert len(forward) == 3 + rep.diagnostics["counts"]["trials"]

    def test_counts_repeat_exactly(self, grid_1d_128, grad_128, power_coeff, eig_128,
                                   zero_h, opts, two_solution_setup):
        nu = 50.0 * power_coeff.gamma_max * eig_128.value
        model = model_with(grad_128, power_coeff, make_reaction("saturating", {"nu": nu}), zero_h)
        u0 = Field(grid_1d_128, 0.1 * eig_128.function.values)
        counts = [minimize_cone(model, opts, u0).diagnostics["counts"] for _ in range(2)]
        assert counts[0] == counts[1]
        assert set(counts[0]) == {"trials", "backtracks", "hessian_products",
                                  "negative_curvature_exits"}
        assert all(type(v) is int for v in counts[0].values())
        assert counts[0]["trials"] > 0 and counts[0]["hessian_products"] > 0
        model, _, rep1, u_far = two_solution_setup
        counts = [mountain_pass(model, rep1.solution, u_far, opts).diagnostics["counts"]
                  for _ in range(2)]
        assert counts[0] == counts[1]
        assert set(counts[0]) == {"trials", "backtracks"}
        assert all(type(v) is int for v in counts[0].values())
        assert counts[0]["trials"] > 0

    def test_preconditions_by_the_models_own_operator(self, grid_1d_128, power_coeff,
                                                      eig_128, opts):
        grad_op = assemble_gradient(grid_1d_128, 0.5)
        assert not grad_op._derived
        h = Field(grid_1d_128, 0.01 * eig_128.function.values)
        model = model_with(grad_op, power_coeff, make_reaction("saturating", {"nu": 1.0}), h)
        rep = minimize_cone(model, opts, Field(grid_1d_128, np.zeros(128)))
        assert rep.classification == "local-min"
        assert set(grad_op._derived) == {"fft", "preconditioner"}

    def test_one_composition_matrix_per_operator(self, count_calls, grid_1d_128,
                                                 power_coeff, eig_128, opts):
        grad_op = assemble_gradient(grid_1d_128, 0.5)
        h = Field(grid_1d_128, 0.01 * eig_128.function.values)
        model = model_with(grad_op, power_coeff, make_reaction("saturating", {"nu": 1.0}), h)
        built = count_calls(fracops.composition_matrix)
        reports = [minimize_cone(model, opts, Field(grid_1d_128, np.zeros(128)))
                   for _ in range(2)]
        assert len(built) == 1
        assert np.array_equal(reports[0].solution.values, reports[1].solution.values)

    def test_forced_two_solution_run_factors_once(self, count_calls):
        # on 128 nodes the minimizer and the mountain pass share the dense
        # (C + I)^{-1}: one N x N factor per gradient operator
        spec = DomainSpec(bounds=((0.0, 1.0),), nodes=(128,))
        coeff = ("power", {"A": 1.0, "B": 2.0, "p": 1.5})
        prep = experiments.prepare(RegimeConfig(domain=spec, coefficient=coeff))
        assert not prep.grad_op._derived
        kappa = 2.0 * prep.coefficient.gamma_inf * prep.lambda1
        cfg = RegimeConfig(domain=spec, coefficient=coeff,
                           reaction=("cubic_saturating", {"kappa": kappa}),
                           forcing={"kind": "eigenfunction", "scale": 0.01}, sweep=(0.01,))
        factors = count_calls(fracops.cho_factor)
        run = experiments.run_linear_regime(cfg, prep).runs[0]
        assert run.pass_report.classification == "mountain-pass" and run.distinct
        assert len(factors) == 1
        assert set(prep.grad_op._derived) == {"fft", "preconditioner"}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_preconditioned_solves_reject_non_finite_rhs(grad_128, bad):
    # factors are checked once when made; each solve still checks its rhs
    precond = _preconditioner(grad_128)
    rhs = np.ones(128)
    rhs[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        precond(rhs)
