"""Assembling the nonlocal operators and checking their calculus.

Builds the fractional gradient and Laplacian on an interval, then walks
through the three structural identities the discretization is designed
around: exact duality between gradient and divergence, agreement of the
composed operator -div_s grad_s with the directly assembled (-Lap)^s, and
the match between the assembled gradient and an independent Fourier
multiplier evaluation.
"""

import numpy as np

from fracvar import (DomainSpec, Field, apply_divergence,
                     apply_gradient, assemble_gradient, assemble_laplacian,
                     build_grid, composition_residual, field_from_function,
                     l2_inner, normalizing_constants)

s = 0.5
grid = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(256,)))
print(f"grid: {grid.n_nodes} cells on (-1, 1), spacing h = {grid.spacing[0]:.4f}")

mu, c_lap = normalizing_constants(1, s)
print(f"normalizing constants at s = {s}: mu = {mu:.6f}, C = {c_lap:.6f} "
      f"(C equals 1/pi = {1/np.pi:.6f} at s = 1/2)")

grad_op = assemble_gradient(grid, s)
lap_op = assemble_laplacian(grid, s)

# duality: <u, div phi> = -<phi, grad u> holds exactly by construction
rng = np.random.default_rng(0)
u = Field(grid, rng.standard_normal(grid.n_nodes))
phi = rng.standard_normal((grid.n_nodes, 1))
lhs = l2_inner(u, apply_divergence(grad_op, phi))
rhs = -grid.weight * np.sum(phi * apply_gradient(grad_op, u))
print(f"duality defect on a random pair: {abs(lhs - rhs):.2e}")

# composition: -div_s grad_s vs (-Lap)^s on a smooth bump, refined
print("composition residual under refinement (smooth bump):")
for n in (64, 128, 256):
    g = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(n,)))
    bump = field_from_function(g, lambda x: np.exp(-640.0 * x**2))
    res = composition_residual(assemble_gradient(g, s), assemble_laplacian(g, s), bump)
    print(f"  n = {n:4d}: {res:.4f}")

# Fourier multiplier oracle: symbol i xi |xi|^{s-1} on a periodic box
box, modes = 16.0, 2**14
g01 = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(256,)))
bump_fn = lambda x: np.exp(-40.0 * (x - 0.5) ** 2)
gu = apply_gradient(assemble_gradient(g01, s), field_from_function(g01, bump_fn))[:, 0]
hh = box / modes
xg = np.arange(modes) * hh
vals = np.where((xg > 0) & (xg < 1), bump_fn(xg), 0.0)
xi = 2.0 * np.pi * np.fft.fftfreq(modes, d=hh)
sym = 1j * xi * np.where(np.abs(xi) == 0, 1.0, np.abs(xi)) ** (s - 1.0)
sym[0] = 0.0
oracle = np.fft.ifft(sym * np.fft.fft(vals)).real
idx = np.rint(g01.nodes[:, 0] / hh).astype(int)
x = g01.nodes[:, 0]
mid = (x > 0.25) & (x < 0.75)
rel = np.linalg.norm(gu[mid] - oracle[idx][mid]) / np.linalg.norm(oracle[idx][mid])
print(f"gradient vs Fourier multiplier oracle (middle half): rel L2 = {rel:.4f}")
