"""Property tests of the assembled operator tables.

Every table is a per-offset kernel gathered into a dense matrix, plus a
diagonal and the axis-neighbor stencil. Outside the diagonal and that
stencil an entry therefore depends only on the node offset j - i, exactly.
The gradient and the divergence are dual (div_s = -grad_s^T) and the
Laplacian is self-adjoint, to roundoff. The FFT applies match the gathered
table, and the gather matches a direct dense assembly: bit for bit off the
diagonal, to roundoff on it, where the row sums and the exterior mass are
taken by box and angular-sector sums instead of entry by entry (the
brute-force sums are kept here as the oracle).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracvar import (DomainSpec, Field,
                     apply_divergence, apply_gradient, apply_laplacian, assemble_gradient, assemble_laplacian,
                     build_grid, l2_inner, normalizing_constants)
from fracvar.fracops import (N_THETA, NYQUIST_STABILIZATION, _directions, _exterior,
                             _kernel_by_offset, _ray_exit_distance, _row_sums, _self_cell_moments)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def problems(draw):
    """A grid (1D or 2D, non-square included) and an order s."""
    if draw(st.booleans()):
        nodes = (draw(st.integers(4, 64)),)
    else:
        nodes = (draw(st.integers(4, 12)), draw(st.integers(4, 12)))
    lengths = [draw(st.floats(0.5, 3.0)) for _ in nodes]
    spec = DomainSpec(bounds=tuple((-0.5 * L, 0.5 * L) for L in lengths), nodes=nodes)
    return build_grid(spec), draw(st.floats(0.05, 0.95))


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
    grid, s = problem
    grad = assemble_gradient(grid, s)
    for c in range(grid.dimension):
        assert _offset_spread(grad.to_dense()[c], grid) == 0.0
    assert _offset_spread(assemble_laplacian(grid, s).to_dense(), grid) == 0.0


def _exterior_reference(grid, q, signed, n_theta=N_THETA):
    """The exterior kernel mass direction by direction: R^{-q}/q along each
    direction of the angular rule, R the exit distance; O(N n_theta)."""
    dirs, weight = _directions(grid.dimension, n_theta)
    radial = _ray_exit_distance(grid.nodes, grid.spec.bounds, dirs) ** (-q) / q
    return weight * radial @ dirs if signed else weight * radial.sum(axis=1)


def _gather(kernel, grid):
    """The (N, N) matrix whose entry [i, j] is kernel at the offset j - i."""
    multi = np.unravel_index(np.arange(grid.n_nodes), grid.shape)
    pos = np.ravel_multi_index(multi, kernel.shape)
    center = np.ravel_multi_index(tuple(m - 1 for m in grid.shape), kernel.shape)
    return kernel.ravel()[pos[None, :] - pos[:, None] + center]


def _axis_stencils(grid):
    """Per axis: the flat stride of the axis neighbor, the rows that have
    an upper / a lower neighbor, and the wall rows that lack one (that
    neighbor lies outside Omega, where fields vanish)."""
    rows = np.arange(grid.n_nodes)
    multi = np.unravel_index(rows, grid.shape)
    for k, n in enumerate(grid.shape):
        upper, lower = multi[k] < n - 1, multi[k] > 0
        stride = int(np.prod(grid.shape[k + 1:]))
        yield stride, rows[upper], rows[lower], rows[~upper], rows[~lower]


def _reference_tables(grid, s):
    """The tables of a direct dense assembly: each kernel gathered by offset
    with an index matrix, the diagonal (from the gathered row sums and the
    direction-by-direction exterior) and the stencils written into it."""
    mu, c_lap = normalizing_constants(grid.dimension, s)
    n = grid.n_nodes
    diag = np.arange(n)

    def second_difference(mat, stencil, coeff):
        stride, upper, lower, _, _ = stencil
        mat[diag, diag] += 2.0 * coeff
        mat[upper, upper + stride] -= coeff
        mat[lower, lower - stride] -= coeff

    ext = _exterior_reference(grid, s, signed=True)
    kernel = _kernel_by_offset(grid, s, "gradient")
    moments = _self_cell_moments(grid, 1.0 - s)
    grad = np.empty((grid.dimension, n, n))
    for c, stencil in enumerate(_axis_stencils(grid)):
        w = grad[c]
        w[...] = _gather(kernel[c], grid)
        w[diag, diag] = -w.sum(axis=1) - ext[:, c]
        stride, upper, lower, upper_wall, lower_wall = stencil
        coeff = moments[c] / (2.0 * grid.spacing[c])
        w[upper, upper + stride] += coeff
        w[upper_wall, upper_wall] -= coeff
        w[lower, lower - stride] -= coeff
        w[lower_wall, lower_wall] += coeff
        w *= mu
        second_difference(w, stencil, NYQUIST_STABILIZATION * (np.pi / grid.spacing[c]) ** s)

    lap = _gather(_kernel_by_offset(grid, s, "laplacian"), grid)
    row_mass = lap.sum(axis=1) + _exterior_reference(grid, 2.0 * s, signed=False)
    np.negative(lap, out=lap)
    lap[diag, diag] = row_mass
    lap *= c_lap
    slf = c_lap * (0.5 * _self_cell_moments(grid, 2.0 - 2.0 * s)
                   / np.asarray(grid.spacing) ** 2)
    for coeff, stencil in zip(slf, _axis_stencils(grid)):
        second_difference(lap, stencil, coeff)
    return grad, lap


def _diagonal_scale(grid, s):
    """Per component and node, the unsigned size of the sums behind the
    diagonal: the absolute kernel row sum plus the unsigned exterior mass,
    times the normalization, shape (d + 1, N) (gradient components, then
    the Laplacian)."""
    mu, c_lap = normalizing_constants(grid.dimension, s)
    out = []
    for kind, q, const in (("gradient", s, mu), ("laplacian", 2.0 * s, c_lap)):
        mass = _exterior_reference(grid, q, signed=False)
        kernel = np.abs(_kernel_by_offset(grid, s, kind)).reshape(
            -1, *[2 * n - 1 for n in grid.shape])
        out += [const * (_gather(k, grid).sum(axis=1) + mass) for k in kernel]
    return np.array(out)


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@SETTINGS
@given(problem=problems())
def test_gather_is_the_direct_dense_assembly(problem):
    grid, s = problem
    grad, lap = assemble_gradient(grid, s), assemble_laplacian(grid, s)
    want_grad, want_lap = _reference_tables(grid, s)
    want = np.concatenate([want_grad, want_lap[None]])
    diag = np.arange(grid.n_nodes)
    # the diagonal to roundoff of the sums behind it
    got_diag = np.concatenate([grad.diagonal, lap.diagonal])
    want_diag = want[:, diag, diag]
    scale = _diagonal_scale(grid, s) + np.abs(want_diag)
    assert np.all(np.abs(got_diag - want_diag) <= 1e-13 * scale)
    # every other entry bit for bit
    want[:, diag, diag] = got_diag
    assert np.array_equal(grad.to_dense(), want[:-1])
    assert np.array_equal(lap.to_dense(), want[-1])


@st.composite
def boxes(draw):
    """A grid on a shifted box, 1D or 2D (non-square and thin included)."""
    if draw(st.booleans()):
        nodes = (draw(st.integers(4, 64)),)
    else:
        nodes = (draw(st.integers(4, 24)), draw(st.integers(4, 24)))
    bounds = []
    for _ in nodes:
        lo, length = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 5.0))
        bounds.append((lo, lo + length))
    return build_grid(DomainSpec(bounds=tuple(bounds), nodes=nodes))


@SETTINGS
@given(grid=boxes(), s=st.floats(0.01, 0.99), n_theta=st.integers(64, 4096))
# a corner angle on a midpoint direction: seen from the node (0.6, -0.1)
# the lower right corner lies at -pi/4, the ninth-last of 68 angles, where
# the two ends of the sector that straddles theta = 0 must not round apart
@example(grid=build_grid(DomainSpec(bounds=((-0.75, 0.75), (-0.25, 0.25)), nodes=(5, 5))),
         s=0.5, n_theta=68)
def test_sector_and_box_sums_match_the_brute_force_sums(grid, s, n_theta):
    # the operators always use N_THETA; the private argument sweeps the
    # resolution
    for signed, q in ((True, s), (False, 2.0 * s)):
        got = _exterior(grid, q, signed, n_theta)
        want = _exterior_reference(grid, q, signed, n_theta)
        if grid.dimension == 1:
            assert np.array_equal(got, want)
        mass = _exterior_reference(grid, q, False, n_theta) if signed else want
        err = np.abs(got - want).reshape(grid.n_nodes, -1)
        assert np.all(err <= 1e-13 * mass[:, None])
    for kind in ("gradient", "laplacian"):
        kernel = _kernel_by_offset(grid, s, kind)
        for k in kernel.reshape(-1, *[2 * n - 1 for n in grid.shape]):
            gathered = _gather(k, grid)
            err = np.abs(_row_sums(k, grid) - gathered.sum(axis=1))
            assert np.all(err <= 1e-13 * np.abs(gathered).sum(axis=1))


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
# fixed grids, the 1D one larger than the drawn ones: a stencil entry folded
# in at the wrong offset, or an inverse pass cut a row off, fails them
@example(problem=(build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 2.0)), nodes=(13, 9))), 0.4),
         seed=7)
@example(problem=(build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(601,))), 0.4), seed=7)
def test_fft_applies_match_the_gathered_table(problem, seed):
    grid, s = problem
    rng = np.random.default_rng(seed)
    n, d = grid.n_nodes, grid.dimension
    grad, lap = assemble_gradient(grid, s), assemble_laplacian(grid, s)
    w, a = grad.to_dense(), lap.to_dense()
    u = Field(grid, rng.standard_normal(n))
    phi = rng.standard_normal((n, d))

    want = np.stack([w[c] @ u.values for c in range(d)], axis=-1)
    assert _rel(apply_gradient(grad, u), want) <= 1e-12
    want = -sum(w[c].T @ phi[:, c] for c in range(d))
    assert _rel(apply_divergence(grad, phi).values, want) <= 1e-12
    assert _rel(apply_laplacian(lap, u).values, a @ u.values) <= 1e-12


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_duality_pairings(problem, seed):
    grid, s = problem
    rng = np.random.default_rng(seed)
    n, d = grid.n_nodes, grid.dimension
    u = Field(grid, rng.standard_normal(n))
    v = Field(grid, rng.standard_normal(n))
    phi = rng.standard_normal((n, d))

    grad, lap = assemble_gradient(grid, s), assemble_laplacian(grid, s)
    lhs = l2_inner(u, apply_divergence(grad, phi))
    rhs = -grid.weight * np.sum(phi * apply_gradient(grad, u))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    lhs = l2_inner(u, apply_laplacian(lap, v))
    rhs = l2_inner(apply_laplacian(lap, u), v)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
