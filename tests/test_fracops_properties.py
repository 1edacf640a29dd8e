"""Property tests of the assembled operator tables.

Every table is a per-offset kernel gathered into a dense matrix, plus a
diagonal and the axis-neighbor stencil. Outside the diagonal and that
stencil an entry therefore depends only on the node offset j - i, exactly.
The gradient and the divergence are dual (div_s = -grad_s^T) and the
Laplacian is self-adjoint, to roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar import (DomainSpec, Field, QuadratureParams, VectorField,
                     apply_divergence, apply_gradient, apply_laplacian,
                     assemble_gradient, assemble_laplacian, build_grid, l2_inner)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def problems(draw):
    """A grid (1D or 2D, non-square included), an order s, and quadrature
    parameters drawn away from their defaults."""
    if draw(st.booleans()):
        nodes = (draw(st.integers(4, 64)),)
    else:
        nodes = (draw(st.integers(4, 12)), draw(st.integers(4, 12)))
    lengths = [draw(st.floats(0.5, 3.0)) for _ in nodes]
    spec = DomainSpec(bounds=tuple((-0.5 * L, 0.5 * L) for L in lengths), nodes=nodes)
    tail = draw(st.one_of(st.none(), st.floats(1.1, 20.0)))
    params = QuadratureParams(
        rho0=draw(st.floats(0.05, 0.5)),
        rho_tail=None if tail is None else tail * spec.diameter,
        tail_correction=draw(st.booleans()),
        near_cells=draw(st.integers(0, 10)),
        n_theta=draw(st.integers(64, 512)),
        nyquist_stabilization=draw(st.floats(0.0, 1.0)),
    )
    return build_grid(spec), draw(st.floats(0.05, 0.95)), params


def _offset_spread(matrix: np.ndarray, grid) -> float:
    """Largest max - min, over node offsets, of the entries at that offset,
    leaving out the diagonal and the axis neighbors."""
    multi = np.unravel_index(np.arange(grid.n_nodes), grid.shape)
    offsets = [m[None, :] - m[:, None] for m in multi]
    outside = sum(np.abs(o) for o in offsets) > 1
    key = np.ravel_multi_index([o + n - 1 for o, n in zip(offsets, grid.shape)],
                               [2 * n - 1 for n in grid.shape])[outside]
    lo = np.full(key.max() + 1, np.inf)
    hi = np.full(key.max() + 1, -np.inf)
    np.minimum.at(lo, key, matrix[outside])
    np.maximum.at(hi, key, matrix[outside])
    seen = np.isfinite(lo)
    return float(np.max(hi[seen] - lo[seen]))


@SETTINGS
@given(problem=problems())
def test_tables_depend_only_on_offset_off_the_stencil(problem):
    grid, s, params = problem
    grad = assemble_gradient(grid, s, params)
    for c in range(grid.dimension):
        assert _offset_spread(grad.table[c], grid) == 0.0
    assert _offset_spread(assemble_laplacian(grid, s, params).table, grid) == 0.0


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_duality_pairings(problem, seed):
    grid, s, params = problem
    rng = np.random.default_rng(seed)
    n, d = grid.n_nodes, grid.dimension
    u = Field(grid, rng.standard_normal(n))
    v = Field(grid, rng.standard_normal(n))
    phi = VectorField(grid, rng.standard_normal((n, d)))

    grad = assemble_gradient(grid, s, params)
    lhs = l2_inner(u, apply_divergence(grad, phi))
    rhs = -grid.weight * np.sum(phi.values * apply_gradient(grad, u).values)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    lap = assemble_laplacian(grid, s, params)
    lhs = l2_inner(u, apply_laplacian(lap, v))
    rhs = l2_inner(apply_laplacian(lap, u), v)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
