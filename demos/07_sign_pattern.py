"""The one-dimensional sign-pattern computation for the identity function.

Splitting u(x) = x (truncated to a wide interval) into positive and
negative parts, the fractional gradient of the positive part is positive
on both sides of the origin while that of the negative part is negative,
and their L2 pairing is strictly negative. This is the quantitative
obstruction to the classical truncation argument for nonnegativity, and
the reason solutions are sought in the cone directly.
"""

import numpy as np

from fracvar import DomainSpec, Field, apply_gradient, assemble_gradient, build_grid

s = 0.5
grid = build_grid(DomainSpec(bounds=((-16.0, 16.0),), nodes=(512,)))
grad_op = assemble_gradient(grid, s)
x = grid.nodes[:, 0]
u_plus = Field(grid, np.maximum(x, 0.0))
u_minus = Field(grid, np.maximum(-x, 0.0))
gp = apply_gradient(grad_op, u_plus)[:, 0]
gm = apply_gradient(grad_op, u_minus)[:, 0]

print(f"truncated identity on (-16, 16), s = {s}")
print(f"{'x':>6} {'grad u+':>10} {'grad u-':>10}")
for v in (-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0):
    i = int(np.argmin(np.abs(x - v)))
    print(f"{x[i]:6.2f} {gp[i]:10.4f} {gm[i]:10.4f}")

pairing = grid.weight * np.dot(gp, gm)
print(f"L2 pairing of the two gradients: {pairing:.4f} (strictly negative)")
