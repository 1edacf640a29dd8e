"""The quasilinear energy functional and its first-order calculus.

Evaluates the energy with the saturating-power diffusivity, checks the
nodal representer of the derivative against central finite differences,
and exercises the two structural sign properties: the Bregman gap of the
quasilinear part is nonnegative (convexity of t -> Gamma(t^2)), and the
flux field gamma(|z|^2/2) z is strictly monotone.
"""

import numpy as np

from fracvar import (DomainSpec, EnergyModel, Field, PointState, assemble_gradient,
                     build_grid, convexity_gap, make_coefficient, make_reaction,
                     monotonicity_pairing)

grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(128,)))
grad_op = assemble_gradient(grid, 0.5)
coeff = make_coefficient("power", {"A": 1.0, "B": 2.0, "p": 1.5})
reaction = make_reaction("cubic_saturating", {"kappa": 3.0})
model = EnergyModel(grad_op=grad_op, coeff=coeff, reaction=reaction,
                    forcing=Field(grid, np.zeros(128)))
print(f"diffusivity: gamma in [{coeff.gamma_min}, {coeff.gamma_max}], "
      f"limit {coeff.gamma_inf} at infinity")

rng = np.random.default_rng(0)
u = Field(grid, rng.standard_normal(128))
phi = Field(grid, rng.standard_normal(128))
# E'(u)[phi] = w <representer, phi>, against (E(u + eps phi) - E(u - eps phi)) / 2 eps
pairing = grid.weight * np.dot(PointState(model, u).representer.values, phi.values)
eps = 1e-5 * np.linalg.norm(u.values) / np.linalg.norm(phi.values)
plus = PointState(model, Field(grid, u.values + eps * phi.values))
minus = PointState(model, Field(grid, u.values - eps * phi.values))
fd = (plus.energy - minus.energy) / (2 * eps)
print(f"derivative pairing {pairing:+.8f} vs central difference {fd:+.8f}")

worst = min(convexity_gap(model, Field(grid, rng.standard_normal(128)),
                          Field(grid, rng.standard_normal(128)))
            for _ in range(100))
print(f"smallest convexity gap over 100 random pairs: {worst:.3e} (never negative)")

worst_pair = min(monotonicity_pairing(coeff,
                                      rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2),
                                      rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2))
                 for _ in range(1000))
print(f"smallest monotonicity pairing over 1000 vector pairs: {worst_pair:.3e}")
