"""Sublinear reaction regime: one solution, none, and the threshold.

With f = nu * g for the saturating g, the cone minimizer is trivial for
small nu and a genuine negative-energy state for large nu; any nonzero
forcing makes it nontrivial for every nu. The transition sits at the
linear stability threshold of the zero state, gamma(0) times the smallest
eigenvalue of the induced quadratic form C = -div_s grad_s (here g'(0) = 1);
find_nu_threshold probes just above and below it and bisects only what
the two probes leave open.
"""

from fracvar import (DomainSpec, RegimeConfig, SolverOptions,
                     find_nu_threshold, prepare, run_sublinear_regime)
from fracvar.spectral import composition_ground_state

domain = DomainSpec(bounds=((0.0, 1.0),), nodes=(128,))
base = RegimeConfig(domain=domain, s=0.5,
                    coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                    reaction=("saturating", {"nu": 1.0}),
                    solver=SolverOptions(max_iter=20000))
prep = prepare(base)
print(f"lambda_1 = {prep.lambda1:.4f}")

cfg = RegimeConfig(domain=domain, s=0.5, coefficient=base.coefficient,
                   reaction=base.reaction, forcing={"kind": "zero"},
                   solver=base.solver, sweep=(0.05, 2.0, 50.0, 400.0))
report = run_sublinear_regime(cfg, prep)
print("homogeneous sweep (h = 0):")
for run in report.runs:
    r = run.report
    print(f"  nu = {run.nu:7.2f}: {r.classification:9s} energy {r.energy:+.4e} "
          f"|u|_L2 {r.l2_norm:.3e}")

forced = RegimeConfig(domain=domain, s=0.5, coefficient=base.coefficient,
                      reaction=base.reaction,
                      forcing={"kind": "eigenfunction", "scale": 0.01},
                      solver=base.solver, sweep=(0.1, 1.0, 10.0))
print("forced sweep (h = 0.01 phi_1): every run is nontrivial")
for run in run_sublinear_regime(forced, prep).runs:
    r = run.report
    print(f"  nu = {run.nu:7.2f}: {r.classification:9s} |u|_L2 {r.l2_norm:.3e}")

nu_star = find_nu_threshold(
    RegimeConfig(domain=domain, s=0.5, coefficient=base.coefficient,
                 reaction=base.reaction, forcing={"kind": "zero"},
                 solver=base.solver, sweep=(0.05, 400.0)), prep)
lam_min = composition_ground_state(prep.grad_op).value
print(f"threshold nu* = {nu_star:.4f}; "
      f"linear stability prediction gamma(0) * lambda_min = "
      f"{float(prep.coefficient.gamma(0.0)) * lam_min:.4f}")
