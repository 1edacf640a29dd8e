import dataclasses

import numpy as np
import pytest

from fracvar import (DomainSpec, Field, RegimeConfig, SolverOptions, appendix_convergence,
                     assemble_gradient, build_grid, find_nu_threshold, prepare,
                     run_linear_regime, run_sublinear_regime, verify_identities)
from fracvar import experiments
from fracvar.experiments import sign_pattern_checks
from fracvar.fracops import composition_matrix
from fracvar.solvers import TRIVIAL_L2, _pcg, _preconditioner


@pytest.fixture(scope="module")
def base_domain():
    return DomainSpec(bounds=((0.0, 1.0),), nodes=(128,))


@pytest.fixture(scope="module")
def prep_128(base_domain):
    cfg = RegimeConfig(domain=base_domain, s=0.5,
                       coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                       reaction=("saturating", {"nu": 1.0}))
    return prepare(cfg)


def sublinear_cfg(base_domain, sweep, forcing=None, solver=None, reaction_params=None):
    return RegimeConfig(
        domain=base_domain, s=0.5,
        coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
        reaction=("saturating", reaction_params or {"nu": 1.0}),
        forcing=forcing or {"kind": "zero"},
        solver=solver or SolverOptions(max_iter=8000),
        sweep=sweep,
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_initial_guess_rejects_non_finite_forcing(prep_128, bad):
    h = np.full(prep_128.grid.n_nodes, 0.01)
    h[7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        experiments.default_initial_guess(prep_128, Field(prep_128.grid, h))


@pytest.mark.parametrize("nodes", [(600,), (24, 24), (128,), (384,)])
@pytest.mark.parametrize("shift", [experiments._GUESS_SHIFT, 1.0])
def test_composition_cg_matches_dense_solve(nodes, shift, rng):
    # the initial guess's solve: the Newton-CG's PCG with its preconditioner,
    # the held (C + I)^{-1} below the crossover and the symbol solve above
    # it, meets its relative residual on the dense system C + shift I (up to
    # the roundoff between its recurrence residual, which stops it, and the
    # true one)
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),) * len(nodes), nodes=nodes))
    op = assemble_gradient(grid, 0.5)
    assert op.matrix_free == (grid.n_nodes > 512)
    system = composition_matrix(op) + shift * np.eye(grid.n_nodes)
    rhs = rng.standard_normal(grid.n_nodes)
    bound = experiments._GUESS_RTOL * np.linalg.norm(rhs)
    sol, curvature_exit = _pcg(lambda p: system @ p, rhs, _preconditioner(op), bound,
                               10 * grid.n_nodes)
    assert not curvature_exit
    assert np.linalg.norm(system @ sol - rhs) <= 1.01 * bound


@pytest.mark.parametrize("name,change", [
    ("domain", DomainSpec(bounds=((0.0, 2.0),), nodes=(32,))),
    ("s", 0.3),
    ("coefficient", ("constant", None)),
], ids=["domain", "s", "coefficient"])
@pytest.mark.parametrize("pipeline", [run_sublinear_regime, find_nu_threshold,
                                      run_linear_regime, verify_identities,
                                      appendix_convergence])
def test_prep_of_another_problem_rejected(prep_128, pipeline, name, change):
    # a prep solves on its own grid, order and coefficient, whatever the
    # config states: one that does not match is refused, naming the field
    config = dataclasses.replace(prep_128.config, **{name: change})
    with pytest.raises(ValueError, match=f"^{name}: the prepared problem has"):
        pipeline(config, prep=prep_128)


class TestSublinearRegime:
    def test_forced_runs_all_nontrivial(self, base_domain, prep_128):
        cfg = sublinear_cfg(base_domain, sweep=(0.1, 1.0, 10.0),
                            forcing={"kind": "eigenfunction", "scale": 0.01})
        report = run_sublinear_regime(cfg, prep_128)
        assert report.audit.all_verified()
        for run in report.runs:
            assert run.report.classification == "local-min"
            assert run.report.l2_norm > 1e-8
            assert np.min(run.report.solution.values) >= 0.0

    def test_homogeneous_small_trivial_large_negative(self, base_domain, prep_128):
        gamma_min = prep_128.coefficient.gamma_min
        gamma_max = prep_128.coefficient.gamma_max
        lam1 = prep_128.lambda1
        cfg = sublinear_cfg(base_domain,
                            sweep=(0.01 * gamma_min * lam1, 50.0 * gamma_max * lam1))
        report = run_sublinear_regime(cfg, prep_128)
        small, large = report.runs
        assert small.report.classification == "trivial"
        assert large.report.classification == "local-min"
        assert large.report.energy < 0.0

    def test_rejects_linear_family(self, base_domain):
        cfg = RegimeConfig(domain=base_domain, reaction=("cubic_saturating", {"kappa": 1.0}),
                           sweep=(1.0,))
        with pytest.raises(ValueError, match="sublinear"):
            run_sublinear_regime(cfg)


class TestThreshold:
    def test_bisection_brackets_transition(self, base_domain, prep_128):
        cfg = sublinear_cfg(base_domain, sweep=(0.02, 200.0))
        nu_star = find_nu_threshold(cfg, prep_128)
        assert 0.02 < nu_star < 200.0
        lo_cfg = sublinear_cfg(base_domain, sweep=(nu_star * 0.9,))
        hi_cfg = sublinear_cfg(base_domain, sweep=(nu_star * 1.1,))
        lo = run_sublinear_regime(lo_cfg, prep_128).runs[0].report
        hi = run_sublinear_regime(hi_cfg, prep_128).runs[0].report
        assert lo.classification == "trivial"
        assert hi.classification == "local-min"

    def test_threshold_halves_when_g_doubles(self, base_domain, prep_128):
        base = find_nu_threshold(sublinear_cfg(base_domain, sweep=(0.02, 200.0)),
                                 prep_128)
        doubled = find_nu_threshold(
            sublinear_cfg(base_domain, sweep=(0.01, 100.0),
                          reaction_params={"nu": 1.0, "amplitude": 2.0}),
            prep_128)
        assert doubled == pytest.approx(base / 2.0, rel=0.05)

    def test_sweep_runs_are_not_solved_again(self, base_domain, prep_128, monkeypatch):
        cfg = sublinear_cfg(base_domain, sweep=(0.5, 5.0))
        runs = run_sublinear_regime(cfg, prep_128).runs
        expected = find_nu_threshold(cfg, prep_128)
        solve_once, probed = experiments._solve_once, []

        def counted(prep, reaction, h, u0=None):
            probed.append(reaction.params["nu"])
            return solve_once(prep, reaction, h, u0)

        monkeypatch.setattr(experiments, "_solve_once", counted)
        assert find_nu_threshold(cfg, prep_128, runs=runs) == expected
        assert probed and not set(probed) & set(cfg.sweep)

    def test_near_threshold_probes_take_tens_of_iterations(self, base_domain, prep_128,
                                                             monkeypatch):
        # the Hessian at 0 is nearly singular next to the threshold, which
        # slows first-order descent in proportion to 1/gap; Newton-CG is not
        solve_once, probes = experiments._solve_once, []

        def recorded(prep, reaction, h, u0=None):
            rep = solve_once(prep, reaction, h, u0)
            probes.append((reaction.params["nu"], rep))
            return rep

        monkeypatch.setattr(experiments, "_solve_once", recorded)
        nu_star = find_nu_threshold(sublinear_cfg(base_domain, sweep=(0.05, 400.0)), prep_128)
        assert nu_star == 1.2064716339111325
        near = [(nu, rep) for nu, rep in probes if abs(nu / nu_star - 1.0) <= 0.02]
        assert [rep.classification for _, rep in near] == [
            "local-min", "trivial", "local-min", "trivial"]
        assert all(rep.iterations <= 50 for _, rep in near), [
            (nu, rep.iterations) for nu, rep in near]

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_warm_bisection_matches_the_cold_one(self, base_domain, s, monkeypatch):
        # each probe starts from the bracket's nontrivial solution instead
        # of default_initial_guess: the same threshold, bit for bit, from
        # fewer Newton-CG iterations
        cfg = dataclasses.replace(sublinear_cfg(base_domain, sweep=(0.05, 400.0)), s=s)
        prep = prepare(cfg)
        cold_star, cold_iterations = cold_bisection(cfg, prep)
        solve_once, calls = experiments._solve_once, []

        def recorded(prep, reaction, h, u0=None):
            rep = solve_once(prep, reaction, h, u0)
            calls.append((reaction.params["nu"], u0, rep.iterations))
            return rep

        monkeypatch.setattr(experiments, "_solve_once", recorded)
        assert find_nu_threshold(cfg, prep) == cold_star
        sweep, probes = calls[:2], calls[2:]
        assert [(nu, u0) for nu, u0, _ in sweep] == [(0.05, None), (400.0, None)]
        assert probes and all(u0 is not None for _, u0, _ in probes)
        warm_iterations = sum(it for _, _, it in probes)
        assert warm_iterations <= 0.75 * cold_iterations, (warm_iterations, cold_iterations)

    def test_no_bracket_raises(self, base_domain, prep_128):
        cfg = sublinear_cfg(base_domain, sweep=(100.0, 200.0))
        with pytest.raises(ValueError, match="bracket"):
            find_nu_threshold(cfg, prep_128)


def cold_bisection(cfg, prep, rel_width=1e-2):
    """The bisection with every probe started from default_initial_guess,
    between the sweep's two values: (threshold, Newton-CG iterations of
    the probes)."""
    h = experiments.build_forcing(prep)
    lo, hi = cfg.sweep
    iterations = 0
    while (hi - lo) > rel_width * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        rep = experiments._solve_once(prep, experiments._reaction_with(cfg, nu=mid), h)
        iterations += rep.iterations
        if rep.l2_norm > TRIVIAL_L2:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), iterations


@pytest.fixture(scope="module")
def linear_report(base_domain, prep_128):
    kappa = 2.0 * prep_128.coefficient.gamma_inf * prep_128.lambda1
    cfg = RegimeConfig(
        domain=base_domain, s=0.5,
        coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
        reaction=("cubic_saturating", {"kappa": kappa}),
        forcing={"kind": "eigenfunction", "scale": 0.01},
        solver=SolverOptions(max_iter=8000), sweep=(0.01, 0.0))
    return run_linear_regime(cfg, prep_128)


class TestLinearRegime:
    def test_audit_verified(self, linear_report):
        report = linear_report
        assert report.audit.verdicts["f1"] == "verified-sampled"
        assert report.audit.verdicts["f3"] == "verified-sampled"
        assert report.audit.verdicts["f4"] == "verified-sampled"

    def test_forced_run_two_distinct_solutions(self, linear_report):
        run = linear_report.runs[0]
        assert run.geometry_ok
        assert run.minimizer.classification == "local-min"
        assert run.pass_report.classification == "mountain-pass"
        assert run.pass_report.kkt_residual <= 1e-6
        assert run.minimizer.kkt_residual <= 1e-6
        assert run.pass_report.energy > 0.0 >= run.minimizer.energy
        assert run.distinct
        assert np.min(run.minimizer.solution.values) >= 0.0
        assert np.min(run.pass_report.solution.values) >= 0.0

    def test_homogeneous_run_trivial_plus_nontrivial(self, linear_report):
        run = linear_report.runs[1]
        assert run.minimizer.classification == "trivial"
        assert run.pass_report.classification == "mountain-pass"
        assert run.pass_report.l2_norm > 1e-8

    def test_negative_control_fails_geometry(self, base_domain, prep_128):
        kappa = 0.5 * prep_128.coefficient.gamma_min * prep_128.lambda1
        cfg = RegimeConfig(
            domain=base_domain, s=0.5,
            coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
            reaction=("cubic_saturating", {"kappa": kappa}),
            forcing={"kind": "eigenfunction", "scale": 0.01},
            solver=SolverOptions(max_iter=4000), sweep=(0.01,))
        rep = run_linear_regime(cfg, prep_128)
        assert rep.audit.verdicts["f3"] == "violated"
        run = rep.runs[0]
        assert not run.geometry_ok
        assert run.pass_report is None


class TestIdentitySuite:
    def test_1d_suite_passes(self):
        cfg = RegimeConfig(domain=DomainSpec(bounds=((0.0, 1.0),), nodes=(256,)),
                           s=0.5)
        report = verify_identities(cfg, s_values=(0.5,))
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert {"duality", "composition_s0.5", "divergence_oracle_s0.5",
                "sign_pairing_negative", "convexity_gap_min",
                "monotonicity_min"} <= names

    def test_2d_smoke(self):
        cfg = RegimeConfig(domain=DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)),
                                             nodes=(16, 16)), s=0.5)
        report = verify_identities(cfg)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert {"composition_2d_s0.3", "composition_2d_s0.5", "composition_2d_s0.7"} <= names

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_sign_pattern_across_orders(self, s):
        checks = sign_pattern_checks(s=s, n=256)
        assert all(c.passed for c in checks)


class TestAppendixConvergence:
    def test_power_family_converges(self, base_domain):
        cfg = RegimeConfig(domain=base_domain, s=0.5,
                           coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}))
        rep = appendix_convergence(cfg)
        assert rep.final_rel_error <= 0.01
        assert rep.nonincreasing_from_2

    def test_constant_family_exact(self, base_domain):
        cfg = RegimeConfig(domain=base_domain, s=0.5,
                           coefficient=("constant", {"c": 2.0}))
        rep = appendix_convergence(cfg)
        assert max(rep.rel_errors) == 0.0
