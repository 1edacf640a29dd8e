"""Property tests of the assembled operator tables.

Every table is a per-offset kernel gathered into a dense matrix, plus a
diagonal and the axis-neighbor stencil. Outside the diagonal and that
stencil an entry therefore depends only on the node offset j - i, exactly.
The gradient and the divergence are dual (div_s = -grad_s^T) and the
Laplacian is self-adjoint, to roundoff. The FFT applies match the gathered
table, and the gather matches a direct dense assembly bit for bit.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar import (DomainSpec, Field, QuadratureParams, VectorField,
                     apply_divergence, apply_gradient, apply_laplacian, assemble_gradient, assemble_laplacian,
                     build_grid, l2_inner, normalizing_constants)
from fracvar import fracops
from fracvar.fracops import _axis_stencils, _exterior, _kernel_by_offset, _self_cell_moments

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


def _operators(grid, s, params, matrix_free):
    """Both operators; matrix_free forces the FFT path whatever the grid size
    (the hypothesis grids all lie below the crossover)."""
    limit = -1 if matrix_free else fracops._DENSE_MAX_NODES
    with patch.object(fracops, "_DENSE_MAX_NODES", limit):
        grad, lap = assemble_gradient(grid, s, params), assemble_laplacian(grid, s, params)
    assert grad.matrix_free == lap.matrix_free == matrix_free
    return grad, lap


def _reference_tables(grid, s, params):
    """The tables of a direct dense assembly: each kernel gathered by offset
    with an index matrix, the diagonal and the stencils written into it."""
    mu, c_lap = normalizing_constants(grid.dimension, s)
    n = grid.n_nodes
    diag = np.arange(n)
    multi = np.unravel_index(diag, grid.shape)

    def gather(kernel):
        pos = np.ravel_multi_index(multi, kernel.shape)
        center = np.ravel_multi_index(tuple(m - 1 for m in grid.shape), kernel.shape)
        return kernel.ravel()[pos[None, :] - pos[:, None] + center]

    def second_difference(mat, stencil, coeff):
        stride, upper, lower, _, _ = stencil
        mat[diag, diag] += 2.0 * coeff
        mat[upper, upper + stride] -= coeff
        mat[lower, lower - stride] -= coeff

    ext = _exterior(grid, s, params, signed=True)
    kernel = _kernel_by_offset(grid, s, params.near_cells, "gradient")
    moments = _self_cell_moments(grid, params, 1.0 - s)
    grad = np.empty((grid.dimension, n, n))
    for c, stencil in enumerate(_axis_stencils(grid)):
        w = grad[c]
        w[...] = gather(kernel[c])
        w[diag, diag] = -w.sum(axis=1) - ext[:, c]
        stride, upper, lower, upper_wall, lower_wall = stencil
        coeff = moments[c] / (2.0 * grid.spacing[c])
        w[upper, upper + stride] += coeff
        w[upper_wall, upper_wall] -= coeff
        w[lower, lower - stride] -= coeff
        w[lower_wall, lower_wall] += coeff
        w *= mu
        if params.nyquist_stabilization > 0.0:
            delta = params.nyquist_stabilization * (np.pi / grid.spacing[c]) ** s
            second_difference(w, stencil, delta)

    lap = gather(_kernel_by_offset(grid, s, params.near_cells, "laplacian"))
    row_mass = lap.sum(axis=1) + _exterior(grid, 2.0 * s, params, signed=False)
    np.negative(lap, out=lap)
    lap[diag, diag] = row_mass
    lap *= c_lap
    slf = c_lap * (0.5 * _self_cell_moments(grid, params, 2.0 - 2.0 * s)
                   / np.asarray(grid.spacing) ** 2)
    for coeff, stencil in zip(slf, _axis_stencils(grid)):
        second_difference(lap, stencil, coeff)
    return grad, lap


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@SETTINGS
@given(problem=problems(), matrix_free=st.booleans())
def test_gather_is_the_direct_dense_assembly(problem, matrix_free):
    grid, s, params = problem
    grad, lap = _operators(grid, s, params, matrix_free)
    want_grad, want_lap = _reference_tables(grid, s, params)
    assert np.array_equal(grad.to_dense(), want_grad)
    assert np.array_equal(lap.to_dense(), want_lap)
    assert np.array_equal(grad.table, want_grad)
    assert np.array_equal(lap.component(0), want_lap)


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_fft_applies_match_the_gathered_table(problem, seed):
    grid, s, params = problem
    rng = np.random.default_rng(seed)
    n, d = grid.n_nodes, grid.dimension
    grad, lap = _operators(grid, s, params, matrix_free=True)
    w, a = grad.to_dense(), lap.to_dense()
    u = Field(grid, rng.standard_normal(n))
    phi = VectorField(grid, rng.standard_normal((n, d)))

    want = np.stack([w[c] @ u.values for c in range(d)], axis=-1)
    assert _rel(apply_gradient(grad, u).values, want) <= 1e-12
    want = -sum(w[c].T @ phi.values[:, c] for c in range(d))
    assert _rel(apply_divergence(grad, phi).values, want) <= 1e-12
    assert _rel(apply_laplacian(lap, u).values, a @ u.values) <= 1e-12


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_duality_pairings(problem, seed):
    grid, s, params = problem
    rng = np.random.default_rng(seed)
    n, d = grid.n_nodes, grid.dimension
    u = Field(grid, rng.standard_normal(n))
    v = Field(grid, rng.standard_normal(n))
    phi = VectorField(grid, rng.standard_normal((n, d)))

    for matrix_free in (False, True):
        grad, lap = _operators(grid, s, params, matrix_free)
        lhs = l2_inner(u, apply_divergence(grad, phi))
        rhs = -grid.weight * np.sum(phi.values * apply_gradient(grad, u).values)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

        lhs = l2_inner(u, apply_laplacian(lap, v))
        rhs = l2_inner(apply_laplacian(lap, u), v)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
