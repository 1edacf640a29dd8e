import numpy as np
import pytest

from fracvar import (DomainSpec, RegimeConfig, SolverOptions,
                     appendix_convergence, find_nu_threshold, prepare,
                     run_linear_regime, run_sublinear_regime, verify_identities)
from fracvar import experiments
from fracvar.experiments import sign_pattern_checks


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

    def test_threaded_sweep_matches_serial(self, base_domain, prep_128):
        sweep = (0.5, 2.0, 8.0)
        serial = run_sublinear_regime(sublinear_cfg(base_domain, sweep), prep_128)
        threaded_cfg = RegimeConfig(
            domain=base_domain, s=0.5,
            coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
            reaction=("saturating", {"nu": 1.0}), forcing={"kind": "zero"},
            solver=SolverOptions(max_iter=8000), sweep=sweep, threads=3)
        threaded = run_sublinear_regime(threaded_cfg, prep_128)
        for a, b in zip(serial.runs, threaded.runs):
            assert a.nu == b.nu
            assert a.report.energy == b.report.energy
            assert np.array_equal(a.report.solution.values, b.report.solution.values)


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

        def counted(prep, reaction, h):
            probed.append(reaction.params["nu"])
            return solve_once(prep, reaction, h)

        monkeypatch.setattr(experiments, "_solve_once", counted)
        assert find_nu_threshold(cfg, prep_128, runs=runs) == expected
        assert probed and not set(probed) & set(cfg.sweep)

    def test_no_bracket_raises(self, base_domain, prep_128):
        cfg = sublinear_cfg(base_domain, sweep=(100.0, 200.0))
        with pytest.raises(ValueError, match="bracket"):
            find_nu_threshold(cfg, prep_128)


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
        assert "composition_2d" in names

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
