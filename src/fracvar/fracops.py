"""Dense discrete fractional gradient, divergence, and Laplacian on a grid.

Operators realized here, for order s in (0, 1):

* fractional gradient   grad_s u(x) = mu_{d,s} PV int (y-x)(u(y)-u(x)) / |y-x|^{d+s+1} dy
* fractional divergence div_s phi,  the negative L2 adjoint of grad_s
* fractional Laplacian  (-Lap)^s u(x) = C_{d,s} PV int (u(x)-u(z)) / |x-z|^{d+2s} dz

with the Riesz normalizations

    mu_{d,s} = 2^s Gamma((d+s+1)/2) / (pi^{d/2} Gamma((1-s)/2)),
    C_{d,s}  = 4^s s Gamma(d/2+s) / (pi^{d/2} Gamma(1-s)),

chosen so that -div_s grad_s = (-Lap)^s in the continuum (both sides have
Fourier symbol |xi|^{2s}); the discrete composition residual is the
operational check of that calibration.

Each table is built from three parts, by one code path for d = 1 and 2:

* kernel by offset: on the uniform grid the kernel integral over the cell
  of node j, seen from node i, depends only on the offset j - i. Cells
  within ``near_cells`` spacings get the exact radial antiderivative (1D)
  or a tensor Gauss-Legendre rule (2D), farther cells the midpoint value;
  entry [i, j] of the table is gathered from offset j - i.
* diagonal: the row sum of the kernel (the u(x_i) part of the difference
  u(y) - u(x_i)), plus the kernel mass of the exterior of Omega, where
  fields vanish, integrated radially exactly out to rho_tail with the
  closed-form tail beyond it (tail on by default), plus the self cell: the
  cell around the singularity is excluded and its contribution restored
  by integrating the kernel against a local interpolant through the axis
  neighbors, a central first difference for the gradient (the odd kernel
  annihilates the constant term but not the linear one) and a second
  difference for the Laplacian. The exterior and the self-cell moments use
  one angular rule: the exact pair of directions +-e_1 in 1D, ``n_theta``
  midpoint angles in 2D, with the radial integral exact along each.
* axis stencils: per axis, the self-cell couplings to the two neighbors
  (for the gradient with an anchoring diagonal term at wall rows, whose
  outer neighbor lies outside Omega) and the gradient's even Nyquist
  stabilization.

Everything is assembled into dense float64 tables; fields enter only through
matrix contraction, so applying an operator is exactly linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .grid import Field, Grid, VectorField

__all__ = [
    "QuadratureParams",
    "NonlocalOperator",
    "normalizing_constants",
    "assemble_gradient",
    "assemble_laplacian",
    "apply_gradient",
    "apply_divergence",
    "apply_laplacian",
    "composition_matrix",
    "composition_residual",
]


@dataclass(frozen=True)
class QuadratureParams:
    """Knobs of the principal-value / improper-integral quadrature.

    rho0: radius of the excluded symmetric cell at the singularity, in units
        of the grid spacing. 0.5 (default) tiles the self cell exactly;
        values above 0.5 would double-count neighbor cells and are rejected.
    rho_tail: absolute truncation radius of the exterior integral; None
        means 10 * diam(Omega), resolved at assembly.
    tail_correction: add the closed-form radial tail beyond rho_tail.
    near_cells: cells within this many spacings of the diagonal use refined
        kernel integrals instead of the midpoint value.
    n_theta: angular resolution of the 2D exterior / self-cell quadrature.
    nyquist_stabilization: coefficient (in units of (pi/h)^s) of the even
        second-difference term added to the gradient rows. An odd collocated
        stencil has symbol i * sum_k b_k sin(k xi h), which vanishes at the
        grid Nyquist frequency regardless of the quadrature, so the induced
        energy form would be blind to sawtooth modes; the default restores
        a continuum-scaled response there at an O(h^{2-s}) consistency
        cost, the same order as the scheme's native error.
    """

    rho0: float = 0.5
    rho_tail: float | None = None
    tail_correction: bool = True
    near_cells: int = 8
    n_theta: int = 2048
    nyquist_stabilization: float = 0.12

    def __post_init__(self):
        # messages start with the field name, which config errors report
        if not 0.0 < self.rho0 <= 0.5:
            raise ValueError(f"rho0 must lie in (0, 0.5], got {self.rho0}")
        if self.rho_tail is not None and not 0.0 < self.rho_tail < np.inf:
            raise ValueError(f"rho_tail must be positive and finite, got {self.rho_tail}")
        if self.near_cells < 0:
            raise ValueError(f"near_cells must be nonnegative, got {self.near_cells}")
        if self.n_theta < 64:
            raise ValueError(f"n_theta must be at least 64, got {self.n_theta}")
        if not 0.0 <= self.nyquist_stabilization < np.inf:
            raise ValueError("nyquist_stabilization must be nonnegative and finite, "
                             f"got {self.nyquist_stabilization}")

    def resolve_tail(self, grid: Grid) -> float:
        rt = self.rho_tail if self.rho_tail is not None else 10.0 * grid.spec.diameter
        if rt <= grid.spec.diameter:
            raise ValueError(
                f"rho_tail={rt} must exceed the domain diameter {grid.spec.diameter}"
            )
        return rt


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """Assembled dense action of grad_s or (-Lap)^s on one grid.

    table has shape (d, N, N) for the gradient (component-major, so each
    component matrix is contiguous) and (N, N) for the Laplacian. constant
    is the normalization actually baked into the table (mu or C).
    """

    kind: str
    s: float
    grid: Grid
    table: np.ndarray
    constant: float
    params: QuadratureParams

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes


def normalizing_constants(d: int, s: float) -> tuple[float, float]:
    """Riesz-gradient constant mu_{d,s} and Laplacian constant C_{d,s}.

    Both are finite and positive on s in (0,1), and are matched so that the
    composed operator -div_s grad_s carries the same symbol |xi|^{2s} as the
    directly assembled (-Lap)^s.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    mu = 2.0**s * _gamma((d + s + 1.0) / 2.0) / (np.pi ** (d / 2.0) * _gamma((1.0 - s) / 2.0))
    c_lap = 4.0**s * s * _gamma(d / 2.0 + s) / (np.pi ** (d / 2.0) * _gamma(1.0 - s))
    return float(mu), float(c_lap)


# ---------------------------------------------------------------------------
# the three parts of a table: kernel by offset, diagonal, axis stencils
# ---------------------------------------------------------------------------


def _kernel_values(points, q: float, kind: str):
    """Kernel at the given points (one coordinate array per axis): the
    scalar |y|^{-d-q} of the Laplacian (q = 2s), or the vector
    (y/|y|) |y|^{-d-q} of the gradient (q = s), one component per axis."""
    r = np.sqrt(sum(x**2 for x in points))
    mag = r ** (-len(points) - q)
    if kind == "laplacian":
        return mag
    return np.stack([x / r * mag for x in points])


def _kernel_by_offset(grid: Grid, s: float, near: int, kind: str) -> np.ndarray:
    """Kernel integral over the cell at each node offset.

    Indexed by offset + n_k - 1 along axis k, with a leading component axis
    for the gradient. Cells within ``near`` spacings on every axis get the
    near-cell rule, farther cells the midpoint value. The zero offset is
    left at 0: the principal-value rules handle it.
    """
    q = s if kind == "gradient" else 2.0 * s
    center = tuple(n - 1 for n in grid.shape)
    reach = [min(near, c) for c in center]
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 at the zero offset
        mids = np.meshgrid(*[np.arange(-c, c + 1) * h for c, h in zip(center, grid.spacing)],
                           indexing="ij")
        kernel = grid.weight * _kernel_values(mids, q, kind)
        box = tuple(slice(c - m, c + m + 1) for c, m in zip(center, reach))
        kernel[(..., *box)] = _near_cell_integrals(grid, q, reach, kind)
    kernel[(..., *center)] = 0.0
    return kernel


def _near_cell_integrals(grid: Grid, q: float, reach, kind: str) -> np.ndarray:
    """Kernel integrals over the cells at offsets up to reach[k] on each
    axis: the exact radial antiderivative in 1D, an 8-point tensor
    Gauss-Legendre rule in 2D."""
    offsets = [np.arange(-m, m + 1) for m in reach]
    if grid.dimension == 1:
        h = grid.spacing[0]
        k = np.abs(offsets[0])
        vals = (((k - 0.5) * h) ** (-q) - ((k + 0.5) * h) ** (-q)) / q
        return vals if kind == "laplacian" else np.sign(offsets[0]) * vals
    pts, wts = np.polynomial.legendre.leggauss(8)
    (h1, h2), (o1, o2) = grid.spacing, offsets
    x = (o1 * h1)[:, None] + 0.5 * h1 * pts
    y = (o2 * h2)[:, None] + 0.5 * h2 * pts
    ww = 0.25 * h1 * h2 * np.outer(wts, wts)
    vals = _kernel_values([x[:, None, :, None], y[None, :, None, :]], q, kind)
    return np.sum(ww * vals, axis=(-2, -1))


def _gather_offsets(kernel: np.ndarray, grid: Grid) -> np.ndarray:
    """Dense (N, N) matrix whose entry [i, j] is the kernel at the node
    offset j - i (kernel laid out as _kernel_by_offset returns it)."""
    multi = np.unravel_index(np.arange(grid.n_nodes), grid.shape)
    pos = np.ravel_multi_index(multi, kernel.shape)
    flat = pos[None, :] - pos[:, None]
    flat += np.ravel_multi_index(tuple(n - 1 for n in grid.shape), kernel.shape)
    return kernel.ravel()[flat]


def _directions(d: int, n_theta: int):
    """Unit directions of the angular rule and their common weight: the
    exact pair +-e_1 in 1D, n_theta midpoint angles in 2D."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), 1.0
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1), 2.0 * np.pi / n_theta


def _ray_exit_distance(nodes: np.ndarray, bounds, dirs: np.ndarray) -> np.ndarray:
    """Distance from each node to the box boundary along each direction."""
    out = np.full((nodes.shape[0], dirs.shape[0]), np.inf)
    for axis, (a, b) in enumerate(bounds):
        comp = dirs[:, axis][None, :]
        x = nodes[:, axis][:, None]
        with np.errstate(divide="ignore"):
            t_hi = np.where(comp > 0, (b - x) / comp, np.inf)
            t_lo = np.where(comp < 0, (a - x) / comp, np.inf)
        out = np.minimum(out, np.minimum(t_hi, t_lo))
    return out


def _exterior(grid: Grid, q: float, params: QuadratureParams, signed: bool) -> np.ndarray:
    """Per-node integral of the kernel over the exterior of Omega.

    Along each direction the radial integral of r^{-1-q} from the exit
    distance R outwards is R^{-q}/q; rho_tail cuts it unless the tail
    correction adds the rest in closed form. signed=True weights each
    direction by its unit vector (gradient, shape (N, d)), signed=False
    sums the directions (Laplacian, shape (N,)).
    """
    rt = params.resolve_tail(grid)
    dirs, weight = _directions(grid.dimension, params.n_theta)
    cut = 0.0 if params.tail_correction else rt ** (-q)
    radial = (_ray_exit_distance(grid.nodes, grid.spec.bounds, dirs) ** (-q) - cut) / q
    return weight * radial @ dirs if signed else weight * radial.sum(axis=1)


def _self_cell_moments(grid: Grid, params: QuadratureParams, p: float) -> np.ndarray:
    """Per axis k, the integral of z_k^2 |z|^{p-d-2} over the excluded cell
    of half-widths rho0 * h: along each direction the radial integral is
    R^p / p with R the distance to the cell edge."""
    dirs, weight = _directions(grid.dimension, params.n_theta)
    half = [(-params.rho0 * h, params.rho0 * h) for h in grid.spacing]
    exits = _ray_exit_distance(np.zeros((1, grid.dimension)), half, dirs)[0]
    # scalar powers, so that in 1D this is the closed form 2 (rho0 h)^p / p
    # to the last bit
    radial = np.array([r**p for r in exits]) / p
    return np.array([weight * np.sum(dirs[:, k] ** 2 * radial) for k in range(grid.dimension)])


def _axis_stencils(grid: Grid):
    """Per axis: the flat stride of the axis neighbor, the rows that have
    an upper / a lower neighbor, and the wall rows that lack one (that
    neighbor lies outside Omega, where fields vanish)."""
    rows = np.arange(grid.n_nodes)
    multi = np.unravel_index(rows, grid.shape)
    for k, n in enumerate(grid.shape):
        upper, lower = multi[k] < n - 1, multi[k] > 0
        stride = int(np.prod(grid.shape[k + 1:]))
        yield stride, rows[upper], rows[lower], rows[~upper], rows[~lower]


def _add_second_difference(mat: np.ndarray, stencil, coeff: float) -> None:
    """mat += coeff * (2 u_i - u_{i+e_k} - u_{i-e_k}) along one axis."""
    stride, upper, lower, _, _ = stencil
    diag = np.arange(mat.shape[0])
    mat[diag, diag] += 2.0 * coeff
    mat[upper, upper + stride] -= coeff
    mat[lower, lower - stride] -= coeff


def assemble_gradient(grid: Grid, s: float, params: QuadratureParams | None = None) -> NonlocalOperator:
    """Assemble the dense fractional-gradient table on a grid.

    The resulting table W satisfies grad_s u(x_i) ~= sum_j W[:, i, j] u_j with
    the exterior-zero convention baked into the diagonal.
    """
    params = params or QuadratureParams()
    mu, _ = normalizing_constants(grid.dimension, s)
    ext = _exterior(grid, s, params, signed=True)
    kernel = _kernel_by_offset(grid, s, params.near_cells, "gradient")
    # the first-difference self weight of axis k: over the excluded cell the
    # odd kernel cancels the constant part of u but pairs with the linear
    # part, int z_k (z . grad u) / |z|^{d+s+1} dz = I_k d_k u
    moments = _self_cell_moments(grid, params, 1.0 - s)
    diag = np.arange(grid.n_nodes)
    table = np.empty((grid.dimension, grid.n_nodes, grid.n_nodes))
    for c, stencil in enumerate(_axis_stencils(grid)):
        w = table[c]
        w[...] = _gather_offsets(kernel[c], grid)
        w[diag, diag] = -w.sum(axis=1) - ext[:, c]
        # Self-cell couplings: interior nodes see the central difference of
        # the axis neighbors; at wall-adjacent nodes the wall-side half-cell
        # slope is 2 u_i / h (the interpolant is pinned to zero at the domain
        # edge, half a cell away), which lands an anchoring diagonal term.
        # Without it the columns of the table admit an alternating
        # boundary-layer mode with near-zero image, and -div_s grad_s loses
        # definiteness.
        stride, upper, lower, upper_wall, lower_wall = stencil
        coeff = moments[c] / (2.0 * grid.spacing[c])
        w[upper, upper + stride] += coeff
        w[upper_wall, upper_wall] -= coeff
        w[lower, lower - stride] -= coeff
        w[lower_wall, lower_wall] += coeff
        w *= mu
        # even-symbol stabilization (see QuadratureParams); missing
        # neighbors are the zero extension, so wall rows keep only the
        # diagonal part
        if params.nyquist_stabilization > 0.0:
            delta = params.nyquist_stabilization * (np.pi / grid.spacing[c]) ** s
            _add_second_difference(w, stencil, delta)

    return NonlocalOperator(kind="gradient", s=float(s), grid=grid, table=table,
                            constant=mu, params=params)


def assemble_laplacian(grid: Grid, s: float, params: QuadratureParams | None = None) -> NonlocalOperator:
    """Assemble the dense (-Lap)^s table; symmetric positive definite.

    Row sums equal the exterior kernel mass (plus the boundary remainder of
    the self weight), which makes the table strictly diagonally dominant
    with positive diagonal, hence positive definite on the zero-extension
    class.
    """
    params = params or QuadratureParams()
    _, c_lap = normalizing_constants(grid.dimension, s)
    ext = _exterior(grid, 2.0 * s, params, signed=False)
    table = _gather_offsets(_kernel_by_offset(grid, s, params.near_cells, "laplacian"), grid)
    diag = np.arange(grid.n_nodes)
    row_mass = table.sum(axis=1) + ext
    np.negative(table, out=table)
    table[diag, diag] = row_mass
    table *= c_lap

    # second-difference self weight of axis k: the kernel integrated against
    # the quadratic interpolant through the axis neighbors over the excluded
    # cell, multiplying -(u_{i+e_k} - 2 u_i + u_{i-e_k})
    slf = c_lap * (0.5 * _self_cell_moments(grid, params, 2.0 - 2.0 * s)
                   / np.asarray(grid.spacing) ** 2)
    for coeff, stencil in zip(slf, _axis_stencils(grid)):
        _add_second_difference(table, stencil, coeff)

    return NonlocalOperator(kind="laplacian", s=float(s), grid=grid, table=table,
                            constant=c_lap, params=params)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _check_op_field(op: NonlocalOperator, fld, kind: str):
    if op.kind != kind:
        raise ValueError(f"operator kind {op.kind!r} does not match required {kind!r}")
    if fld.grid is not op.grid and fld.grid.spec != op.grid.spec:
        raise ValueError("operator and field live on different grids")


def apply_gradient(op: NonlocalOperator, u: Field) -> VectorField:
    """grad_s u as a nodal vector field (exact table contraction)."""
    _check_op_field(op, u, "gradient")
    comps = [op.table[c] @ u.values for c in range(op.grid.dimension)]
    return VectorField(grid=u.grid, values=np.stack(comps, axis=-1))


def apply_divergence(op: NonlocalOperator, phi: VectorField) -> Field:
    """div_s phi via the negative transpose of the gradient table.

    By construction l2_inner(u, div_s phi) = -sum_i w_i <phi_i, grad_s u_i>
    holds exactly for every pair (u, phi) on the grid.
    """
    _check_op_field(op, phi, "gradient")
    out = np.zeros(op.n_nodes)
    for c in range(op.grid.dimension):
        out -= op.table[c].T @ phi.values[:, c]
    return Field(grid=phi.grid, values=out)


def apply_laplacian(op: NonlocalOperator, u: Field) -> Field:
    """(-Lap)^s u (exact table contraction)."""
    _check_op_field(op, u, "laplacian")
    return Field(grid=u.grid, values=op.table @ u.values)


def composition_matrix(grad_op: NonlocalOperator) -> np.ndarray:
    """Dense matrix of -div_s grad_s built from the gradient table.

    This is sum_c W_c^T W_c, automatically symmetric positive semidefinite;
    it is the operator whose quadratic form the energy functional actually
    integrates.
    """
    if grad_op.kind != "gradient":
        raise ValueError("composition_matrix needs a gradient operator")
    n = grad_op.n_nodes
    out = np.zeros((n, n))
    for c in range(grad_op.grid.dimension):
        out += grad_op.table[c].T @ grad_op.table[c]
    return out


def composition_residual(grad_op: NonlocalOperator, lap_op: NonlocalOperator, u: Field) -> float:
    """Relative L2 mismatch of -div_s grad_s u against (-Lap)^s u."""
    if grad_op.kind != "gradient" or lap_op.kind != "laplacian":
        raise ValueError("composition_residual needs (gradient, laplacian) operators")
    if grad_op.s != lap_op.s:
        raise ValueError(f"operator orders differ: {grad_op.s} vs {lap_op.s}")
    if grad_op.grid.spec != lap_op.grid.spec:
        raise ValueError("operators live on different grids")
    composed = apply_divergence(grad_op, apply_gradient(grad_op, u))
    lap = apply_laplacian(lap_op, u)
    num = np.linalg.norm(-composed.values - lap.values)
    den = np.linalg.norm(lap.values)
    if den == 0.0:
        return 0.0
    return float(num / den)
