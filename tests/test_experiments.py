import dataclasses

import numpy as np
import pytest

from fracvar import (DomainSpec, RegimeConfig, SolverOptions, appendix_convergence,
                     assemble_gradient, build_grid, find_nu_threshold, prepare,
                     run_linear_regime, run_sublinear_regime, verify_identities)
from fracvar import experiments
from fracvar.experiments import sign_pattern_checks
from fracvar.fracops import composition_matrix
from fracvar.solvers import _pcg, _preconditioner


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


@pytest.mark.parametrize("nodes", [(600,), (24, 24), (128,), (384,), (512,), (513,)])
@pytest.mark.parametrize("shift", [1e-12, 1.0])
def test_composition_cg_matches_dense_solve(nodes, shift, rng):
    # the Newton-CG's PCG with its preconditioner, the dense (C + I)^{-1}
    # up to 512 nodes and the symbol solve above, meets a relative residual
    # of 1e-10 on the dense system C + shift I, nearly singular or not (up
    # to the roundoff between its recurrence residual, which stops it, and
    # the true one)
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),) * len(nodes), nodes=nodes))
    op = assemble_gradient(grid, 0.5)
    system = composition_matrix(op) + shift * np.eye(grid.n_nodes)
    rhs = rng.standard_normal(grid.n_nodes)
    bound = 1e-10 * np.linalg.norm(rhs)
    sol, curvature_exit = _pcg(lambda p: system @ p, rhs, _preconditioner(op), bound,
                               10 * grid.n_nodes)
    assert not curvature_exit
    assert np.linalg.norm(system @ sol - rhs) <= 1.01 * bound
    dense = grid.n_nodes <= 512
    assert ("preconditioner" in op._derived) == dense and ("symbol" in op._derived) != dense


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

    def test_one_prep_solves_with_each_configs_solver_options(self, base_domain, prep_128):
        # prep_128 was built at the default max_iter; each run keeps its own
        runs = [run_sublinear_regime(sublinear_cfg(base_domain, sweep=(400.0,),
                                                   solver=SolverOptions(max_iter=n)),
                                     prep_128).runs[0].report for n in (3, 20000)]
        assert [(r.classification, r.iterations) for r in runs] == [("failed", 3), ("local-min", 8)]

    def test_tiny_forcing_finds_the_large_nu_minimizer(self, base_domain, prep_128):
        # a forcing of 1e-12 phi1 leaves u = 0 a saddle at nu = 400; the
        # solve starts from 1e-3 phi1, above TRIVIAL_L2, whatever the forcing,
        # and descends to the minimizer (E ~ -1e5) instead of stopping there
        cfg = sublinear_cfg(base_domain, sweep=(400.0,),
                            forcing={"kind": "eigenfunction", "scale": 1e-12})
        report = run_sublinear_regime(cfg, prep_128).runs[0].report
        assert report.classification == "local-min"
        assert report.energy < -1e4

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

    def test_certifies_with_two_solves_beyond_the_sweep(self, base_domain, prep_128,
                                                        monkeypatch):
        # the probes at nu_lin (1 +- 0.4 REL_WIDTH) narrow the bracket below
        # REL_WIDTH, so the bisection solves nothing; each starts next to its
        # solution (the ray point, then the upper probe's solution)
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0))
        nu_star, calls = recorded_threshold(cfg, prep_128, monkeypatch)
        sweep, probes = calls[:2], calls[2:]
        assert [(nu, u0) for nu, u0, _ in sweep] == [(0.05, None), (400.0, None)]
        assert len(probes) <= 2 and all(u0 is not None for _, u0, _ in probes)
        assert sum(rep.iterations for _, _, rep in probes) <= 10
        nu_lin, _ = experiments.linear_threshold(cfg, prep_128)
        assert nu_star == pytest.approx(nu_lin, rel=5e-3)

    @pytest.mark.parametrize("rel_width", [1e-2, 1e-3])
    def test_final_bracket_is_certified_by_its_probes(self, base_domain, prep_128,
                                                      monkeypatch, rel_width):
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0))
        nu_star, calls = recorded_threshold(cfg, prep_128, monkeypatch, rel_width)
        lo, hi = probe_bracket(calls)
        assert hi - lo <= rel_width * 0.5 * (hi + lo)
        assert lo < nu_star < hi

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_bracket_overlaps_the_cold_bisection(self, base_domain, s, monkeypatch):
        # every probe of the cold bisection starts from default_initial_guess;
        # both brackets hold the threshold, so they overlap
        cfg = dataclasses.replace(sublinear_cfg(base_domain, sweep=(0.05, 400.0)), s=s)
        prep = prepare(cfg)
        cold_lo, cold_hi = cold_bisection(cfg, prep)
        lo, hi = probe_bracket(recorded_threshold(cfg, prep, monkeypatch)[1])
        assert max(lo, cold_lo) < min(hi, cold_hi), (lo, hi, cold_lo, cold_hi)

    @pytest.mark.parametrize("factor", [1.5, 1.0 / 1.5])
    def test_displaced_prediction_still_certifies(self, base_domain, prep_128, monkeypatch,
                                                  factor):
        # a prediction off by a factor leaves a wide bracket, which the
        # bisection narrows to the same threshold
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0))
        cold_lo, cold_hi = cold_bisection(cfg, prep_128)
        predict = experiments.linear_threshold

        def displaced(config, prep=None):
            nu_lin, ground = predict(config, prep)
            return factor * nu_lin, ground

        monkeypatch.setattr(experiments, "linear_threshold", displaced)
        nu_star, calls = recorded_threshold(cfg, prep_128, monkeypatch)
        lo, hi = probe_bracket(calls)
        assert hi - lo <= 1e-2 * 0.5 * (hi + lo) and lo < nu_star < hi
        assert max(lo, cold_lo) < min(hi, cold_hi), (lo, hi, cold_lo, cold_hi)

    def test_nonzero_forcing_makes_no_spectral_probe(self, base_domain, prep_128,
                                                     monkeypatch):
        # a forcing of 5e-9 phi1 leaves small-nu solutions below TRIVIAL_L2,
        # so the sweep brackets a transition; u = 0 is no solution, and
        # nothing predicts it from the spectrum
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0),
                            forcing={"kind": "eigenfunction", "scale": 5e-9})

        def refuse(*args, **kwargs):
            raise AssertionError("spectral prediction used with nonzero forcing")

        monkeypatch.setattr(experiments, "linear_threshold", refuse)
        monkeypatch.setattr(experiments, "composition_ground_state", refuse)
        monkeypatch.setattr(experiments, "ray_search", refuse)
        nu_star, calls = recorded_threshold(cfg, prep_128, monkeypatch)
        lo, hi = probe_bracket(calls)
        assert hi - lo <= 1e-2 * 0.5 * (hi + lo) and lo < nu_star < hi
        # bisection from (0.05, 400) halves the bracket once per solve
        assert len(calls) - 2 >= 10

    def test_tiny_forcing_brackets_at_the_linear_threshold(self, base_domain, prep_128):
        # with a forcing of 1e-12 phi1 the sweep (0.05, 400) reads trivial
        # then nontrivial, and the bisection lands where u = 0 loses
        # stability
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0),
                            forcing={"kind": "eigenfunction", "scale": 1e-12})
        nu_lin, _ = experiments.linear_threshold(cfg, prep_128)
        assert find_nu_threshold(cfg, prep_128) == pytest.approx(nu_lin, rel=1e-2)

    def test_no_bracket_raises(self, base_domain, prep_128):
        cfg = sublinear_cfg(base_domain, sweep=(100.0, 200.0))
        with pytest.raises(ValueError, match="bracket"):
            find_nu_threshold(cfg, prep_128)

    def test_a_failed_sweep_value_is_no_bracket(self, base_domain, prep_128):
        # at max_iter 4 the nu = 400 solve stops short of its minimizer
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0), solver=SolverOptions(max_iter=4))
        with pytest.raises(ValueError, match="bracket.*nu=0.05:trivial, nu=400:failed"):
            find_nu_threshold(cfg, prep_128)

    def test_verdicts_out_of_order_are_no_bracket(self, base_domain, prep_128, monkeypatch):
        cfg = sublinear_cfg(base_domain, sweep=(0.05, 400.0))
        low, high = run_sublinear_regime(cfg, prep_128).runs
        swapped = (dataclasses.replace(low, report=high.report),
                   dataclasses.replace(high, report=low.report))
        with pytest.raises(ValueError, match="nu=0.05:local-min, nu=400:trivial"):
            find_nu_threshold(cfg, prep_128, runs=swapped)

    def test_a_failed_probe_raises_naming_its_nu(self):
        # the benchmark's seed-0 sweep at max_iter 4, its sweep values
        # taken from a converged run: the lower certifying probe ends
        # failed at an L2 norm of 2.4e-8, which is no trivial verdict and
        # no local-min one, so it must not move the bracket (counted as
        # nontrivial, it gave 1.2583, 0.77 % below the converged 1.2681)
        cfg = sublinear_cfg(DomainSpec(bounds=((0.0, 1.0),), nodes=(384,)), sweep=(0.05, 400.0),
                            solver=SolverOptions(max_iter=20000),
                            reaction_params={"nu": 1.0, "amplitude": 1.0})
        prep = prepare(cfg)
        runs = run_sublinear_regime(cfg, prep).runs
        assert find_nu_threshold(cfg, prep, runs=runs) == pytest.approx(1.2681, rel=1e-4)
        short = dataclasses.replace(cfg, solver=SolverOptions(max_iter=4))
        with pytest.raises(ValueError, match=r"probe at nu=1\.2630"):
            find_nu_threshold(short, prep, runs=runs)


def recorded_threshold(cfg, prep, monkeypatch, rel_width=experiments.REL_WIDTH):
    """find_nu_threshold at bracket width rel_width with every solve
    recorded: (threshold, [(nu, u0, report)] in solve order, the sweep
    values first)."""
    solve_once, calls = experiments._solve_once, []

    def recorded(prep, reaction, h, u0=None):
        rep = solve_once(prep, reaction, h, u0)
        calls.append((reaction.params["nu"], u0, rep))
        return rep

    monkeypatch.setattr(experiments, "_solve_once", recorded)
    monkeypatch.setattr(experiments, "REL_WIDTH", rel_width)
    return find_nu_threshold(cfg, prep), calls


def probe_bracket(calls):
    """The highest trivial and the lowest local-min nu among the solves."""
    return (max(nu for nu, _, rep in calls if rep.classification == "trivial"),
            min(nu for nu, _, rep in calls if rep.classification == "local-min"))


def cold_bisection(cfg, prep, rel_width=1e-2):
    """The final bracket (lo, hi) of the bisection with every probe started
    from default_initial_guess, between the sweep's two values."""
    h = experiments.build_forcing(prep)
    lo, hi = cfg.sweep
    while (hi - lo) > rel_width * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        rep = experiments._solve_once(prep, experiments._reaction_with(cfg, nu=mid), h)
        if rep.classification == "local-min":
            hi = mid
        else:
            lo = mid
    return lo, hi


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
