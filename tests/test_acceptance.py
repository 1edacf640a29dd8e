"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines
with timings. Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from fracvar import (DomainSpec, EnergyModel, Field, PointState, RegimeConfig,
                     SolverOptions, VectorField, apply_divergence,
                     apply_gradient, assemble_gradient, assemble_laplacian,
                     build_grid, convexity_gap, field_from_function,
                     find_nu_threshold, first_eigenpair,
                     hs_norm, l2_inner, make_coefficient, make_reaction,
                     minimize_cone, monotonicity_pairing, prepare,
                     rayleigh_quotient, run_linear_regime,
                     run_sublinear_regime, appendix_convergence)
from fracvar.cli import parse_config, run_command
from fracvar.experiments import (_composition_checks, _divergence_oracle_check,
                                 sign_pattern_checks)
from fracvar.fracops import composition_matrix
from fracvar.solvers import project_cone


def _report(num: int, passed: bool, t0: float, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status} ({time.time() - t0:5.1f}s) {detail}")
    assert passed, f"criterion {num}: {detail}"


POWER = ("power", {"A": 1.0, "B": 2.0, "p": 1.5})


@pytest.fixture(scope="module")
def prep_128():
    return prepare(RegimeConfig(domain=DomainSpec(bounds=((0.0, 1.0),), nodes=(128,)),
                                s=0.5, coefficient=POWER))


def test_criterion_01_operator_identity_suite(rng):
    t0 = time.time()
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(256,)))
    details = []
    ok = True
    for s in (0.3, 0.5, 0.7):
        grad_op = assemble_gradient(grid, s)
        worst = 0.0
        for _ in range(20):
            u = Field(grid, rng.standard_normal(256))
            phi = VectorField(grid, rng.standard_normal((256, 1)))
            lhs = l2_inner(u, apply_divergence(grad_op, phi))
            rhs = -grid.weight * np.sum(phi.values * apply_gradient(grad_op, u).values)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        ok &= worst <= 1e-12
        div = _divergence_oracle_check(s)
        ok &= div.passed
        comp_final, comp_mono = _composition_checks(s)
        ok &= comp_final.passed and comp_mono.passed
        details.append(f"s={s}: dual={worst:.1e} div={div.value:.3f} "
                       f"comp={comp_final.value:.3f}{'v' if comp_mono.passed else 'x'}")
    _report(1, ok, t0, "duality<=1e-12, div oracle<=2%, composition<=5% decreasing | "
            + "; ".join(details))


def test_criterion_02_sign_pattern():
    t0 = time.time()
    checks = sign_pattern_checks(s=0.5, width=32.0, n=512)
    by_name = {c.name: c for c in checks}
    ok = all(c.passed for c in checks)
    _report(2, ok, t0,
            f"grad u+ min at samples {by_name['sign_grad_plus_positive'].value:.4f} > 0, "
            f"grad u- max {by_name['sign_grad_minus_negative'].value:.4f} < 0, "
            f"pairing {by_name['sign_pairing_negative'].value:.4f} < 0")


def test_criterion_03_energy_calculus(prep_128, rng):
    t0 = time.time()
    grid, grad_op = prep_128.grid, prep_128.grad_op
    coeff = prep_128.coefficient
    reaction = make_reaction("cubic_saturating", {"kappa": 3.0})
    model = EnergyModel(grad_op=grad_op, coeff=coeff, reaction=reaction,
                        forcing=Field(grid, np.zeros(grid.n_nodes)))
    worst_fd = 0.0
    for _ in range(20):
        u = Field(grid, rng.standard_normal(grid.n_nodes))
        phi = Field(grid, rng.standard_normal(grid.n_nodes))
        drv = grid.weight * np.dot(PointState(model, u).representer.values, phi.values)
        eps = 1e-5 * np.linalg.norm(u.values) / np.linalg.norm(phi.values)
        plus = PointState(model, Field(grid, u.values + eps * phi.values))
        minus = PointState(model, Field(grid, u.values - eps * phi.values))
        fd = (plus.energy - minus.energy) / (2 * eps)
        worst_fd = max(worst_fd, abs(drv - fd) / max(1.0, abs(fd)))
    worst_gap = min(convexity_gap(model,
                                  Field(grid, rng.standard_normal(grid.n_nodes)),
                                  Field(grid, rng.standard_normal(grid.n_nodes)))
                    for _ in range(100))
    worst_pair = min(monotonicity_pairing(coeff,
                                          rng.standard_normal(1) * 10.0 ** rng.uniform(-2, 2),
                                          rng.standard_normal(1) * 10.0 ** rng.uniform(-2, 2))
                     for _ in range(1000))
    ok = worst_fd <= 1e-5 and worst_gap >= -1e-10 and worst_pair >= -1e-12
    _report(3, ok, t0, f"FD err {worst_fd:.2e} <= 1e-5, convexity gap "
            f"{worst_gap:.2e} >= -1e-10, monotonicity {worst_pair:.2e} >= -1e-12")


def test_criterion_04_eigen_suite(rng):
    t0 = time.time()
    grid = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(256,)))
    lap = assemble_laplacian(grid, 0.5)
    pair = first_eigenpair(lap)
    oracle = float(np.linalg.eigvalsh(lap.to_dense())[0])
    ok = abs(pair.value - oracle) <= 1e-8
    grid99 = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(512,)))
    pair99 = first_eigenpair(assemble_laplacian(grid99, 0.99))
    ok &= abs(pair99.value - np.pi**2) / np.pi**2 <= 0.05
    worst = np.inf
    for _ in range(50):
        u = Field(grid, rng.standard_normal(256))
        worst = min(worst, rayleigh_quotient(lap, u) - pair.value)
    ok &= worst >= -1e-8
    _report(4, ok, t0, f"lambda1={pair.value:.6f} vs dense {oracle:.6f} (<=1e-8), "
            f"s=0.99: {pair99.value:.3f} vs pi^2 ({abs(pair99.value-np.pi**2)/np.pi**2:.3f}), "
            f"Rayleigh floor {worst:.2e}")


def test_criterion_05_linear_solve_oracle(prep_128):
    t0 = time.time()
    grid, grad_op = prep_128.grid, prep_128.grad_op
    coeff = make_coefficient("constant", {"c": 1.0})
    h = prep_128.eigenpair.function
    model = EnergyModel(grad_op=grad_op, coeff=coeff, reaction=None, forcing=h)
    rep = minimize_cone(model, SolverOptions(max_iter=5000, tol_g=1e-8),
                        Field(grid, np.zeros(grid.n_nodes)))
    dense = np.linalg.solve(composition_matrix(grad_op), h.values)
    rel = np.linalg.norm(rep.solution.values - dense) / np.linalg.norm(dense)
    ok = rel <= 1e-4 and np.min(rep.solution.values) >= 0.0
    _report(5, ok, t0, f"iterative vs dense solve rel L2 = {rel:.2e} <= 1e-4, "
            f"min u = {np.min(rep.solution.values):.2e} >= 0")


def test_criterion_06_sublinear_regime(prep_128):
    t0 = time.time()
    domain = prep_128.config.domain
    lam1 = prep_128.lambda1
    coeff = prep_128.coefficient
    cg = 1.0  # sampled (g3) bound of the saturating family
    solver = SolverOptions(max_iter=20000)

    def cfg(sweep, forcing):
        return RegimeConfig(domain=domain, s=0.5, coefficient=POWER,
                            reaction=("saturating", {"nu": 1.0}),
                            forcing=forcing, solver=solver, sweep=sweep)

    rep_h0 = run_sublinear_regime(
        cfg((0.01 * coeff.gamma_min * lam1 / cg, 50.0 * coeff.gamma_max * lam1),
            {"kind": "zero"}), prep_128)
    small, large = rep_h0.runs
    ok = small.report.classification == "trivial" and small.report.l2_norm <= 1e-8
    ok &= large.report.classification == "local-min" and large.report.energy < 0.0
    rep_forced = run_sublinear_regime(cfg((0.1, 1.0, 10.0),
                                          {"kind": "eigenfunction", "scale": 0.01}),
                                      prep_128)
    forced_ok = all(r.report.l2_norm > 1e-8 and r.report.classification == "local-min"
                    for r in rep_forced.runs)
    ok &= forced_ok
    nu_star = find_nu_threshold(cfg((0.02, 200.0), {"kind": "zero"}), prep_128)
    ok &= 0.02 < nu_star < 200.0
    _report(6, ok, t0, f"tiny nu trivial, large nu E={large.report.energy:.1f}<0, "
            f"forced all nontrivial={forced_ok}, nu*={nu_star:.4f}")


def test_criterion_07_linear_regime(prep_128):
    t0 = time.time()
    domain = prep_128.config.domain
    lam1 = prep_128.lambda1
    coeff = prep_128.coefficient
    kappa = 2.0 * coeff.gamma_inf * lam1
    cfg = RegimeConfig(domain=domain, s=0.5, coefficient=POWER,
                       reaction=("cubic_saturating", {"kappa": kappa}),
                       forcing={"kind": "eigenfunction", "scale": 0.01},
                       solver=SolverOptions(max_iter=8000), sweep=(0.01, 0.0))
    rep = run_linear_regime(cfg, prep_128)
    forced, homog = rep.runs
    ok = forced.geometry_ok and forced.pass_report is not None
    if ok:
        u1, u2 = forced.minimizer, forced.pass_report
        ok &= u1.kkt_residual <= 1e-6 and u2.kkt_residual <= 1e-6
        ok &= u2.energy > 0.0 >= u1.energy
        ok &= bool(forced.distinct)
        ok &= np.min(u1.solution.values) >= 0.0 and np.min(u2.solution.values) >= 0.0
    ok &= homog.minimizer.classification == "trivial"
    ok &= homog.pass_report is not None and homog.pass_report.l2_norm > 1e-8
    ok &= homog.pass_report.classification == "mountain-pass"

    neg = RegimeConfig(domain=domain, s=0.5, coefficient=POWER,
                       reaction=("cubic_saturating",
                                 {"kappa": 0.5 * coeff.gamma_min * lam1}),
                       forcing={"kind": "eigenfunction", "scale": 0.01},
                       solver=SolverOptions(max_iter=4000), sweep=(0.01,))
    rep_neg = run_linear_regime(neg, prep_128)
    ok &= not rep_neg.runs[0].geometry_ok and rep_neg.runs[0].pass_report is None
    _report(7, ok, t0,
            f"two solutions kkt<=1e-6 distinct (dist={forced.distance:.3f}), "
            f"E2={forced.pass_report.energy:.4f}>0>={forced.minimizer.energy:.2e}, "
            f"homogeneous trivial+nontrivial, negative control no geometry")


def test_criterion_08_appendix_convergence():
    t0 = time.time()
    domain = DomainSpec(bounds=((0.0, 1.0),), nodes=(128,))
    rep = appendix_convergence(RegimeConfig(domain=domain, s=0.5, coefficient=POWER))
    ok = rep.final_rel_error <= 0.01 and rep.nonincreasing_from_2
    rep_c = appendix_convergence(RegimeConfig(domain=domain, s=0.5,
                                              coefficient=("constant", {"c": 2.0})))
    ok &= max(rep_c.rel_errors) == 0.0
    _report(8, ok, t0, f"final rel err {rep.final_rel_error:.4f} <= 1%, "
            f"nonincreasing from n=2: {rep.nonincreasing_from_2}, "
            f"constant family exact: {max(rep_c.rel_errors):.1e}")


def test_criterion_09_reproducibility(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "domain": {"bounds": [[0.0, 1.0]], "nodes": [64]},
        "operator": {"s": 0.5},
        "coefficient": {"family": "power", "params": {"A": 1.0, "B": 2.0, "p": 1.5}},
        "reaction": {"family": "saturating", "params": {"nu": 5.0}},
        "forcing": {"kind": "eigenfunction", "scale": 0.01},
        "solver": {"max_iter": 6000},
        "sweep": {"values": [0.5, 5.0]},
        "seed": 7,
    }))
    manifests = {}
    ok = True
    for command in ("eig", "solve", "sweep", "appendix"):
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            run_command(parse_config(cfg_path), command, out_dir=out)
            hashes.append(json.loads((out / "manifest.json").read_text())["files"])
        manifests[command] = hashes[0] == hashes[1]
        ok &= manifests[command]
    _report(9, ok, t0, f"identical manifest inventories per command: {manifests}")


def test_criterion_10_2d_smoke(rng):
    t0 = time.time()
    domain = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(32, 32))
    cfg = RegimeConfig(domain=domain, s=0.5, coefficient=POWER,
                       reaction=("saturating", {"nu": 1.0}),
                       solver=SolverOptions(max_iter=20000))
    prep = prepare(cfg)
    n = prep.grid.n_nodes
    worst = 0.0
    for _ in range(10):
        u = Field(prep.grid, rng.standard_normal(n))
        phi = VectorField(prep.grid, rng.standard_normal((n, 2)))
        lhs = l2_inner(u, apply_divergence(prep.grad_op, phi))
        rhs = -prep.grid.weight * np.sum(phi.values * apply_gradient(prep.grad_op, u).values)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = worst <= 1e-12
    center = np.array([0.5, 0.5])
    bump = Field(prep.grid, np.exp(-40.0 * np.sum((prep.grid.nodes - center) ** 2, axis=1)))
    from fracvar import composition_residual

    comp = composition_residual(prep.grad_op, prep.lap_op, bump)
    ok &= comp <= 0.10
    nu = 50.0 * prep.coefficient.gamma_max * prep.lambda1
    reaction = make_reaction("saturating", {"nu": nu})
    model = EnergyModel(grad_op=prep.grad_op, coeff=prep.coefficient,
                        reaction=reaction,
                        forcing=Field(prep.grid, np.zeros(n)))
    u0 = Field(prep.grid, 0.1 * prep.eigenpair.function.values)
    rep = minimize_cone(model, cfg.solver, u0)
    ok &= rep.l2_norm > 1e-8 and np.min(rep.solution.values) >= 0.0
    ok &= rep.classification == "local-min"
    _report(10, ok, t0, f"duality {worst:.1e} <= 1e-12, composition {comp:.3f} <= 10%, "
            f"large-nu run {rep.classification} l2={rep.l2_norm:.2f} min>=0")
