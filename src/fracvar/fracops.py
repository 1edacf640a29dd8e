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

Quadrature scheme, per row (evaluation node x_i):

* interior pairs: one kernel weight per cell; cells within ``near_cells`` of
  the diagonal get the exact radial cell integral (1D) or a tensor
  Gauss-Legendre rule (2D), farther cells plain midpoint;
* principal value: the cell around the singularity is excluded and its
  contribution restored by integrating the kernel against a local
  interpolant through the axis neighbors: a central first difference for
  the gradient (the odd kernel annihilates the constant term but not the
  linear one) and a second difference for the Laplacian;
* exterior of Omega, where fields vanish: radially exact integration out to
  rho_tail plus the closed-form tail beyond it (tail on by default).

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
# kernel cell integrals
# ---------------------------------------------------------------------------


def _radial_cell_weights_1d(n: int, h: float, q: float, near: int) -> np.ndarray:
    """Integrals of r^{-1-q} over the cells at offsets 1..n-1.

    Offsets up to ``near`` use the exact antiderivative, the rest the
    midpoint value h * (k h)^{-1-q}.
    """
    k = np.arange(1, n)
    w = h * (k * h) ** (-1.0 - q)
    kn = k[k <= near]
    if kn.size:
        lo = (kn - 0.5) * h
        hi = (kn + 0.5) * h
        w[: kn.size] = (lo ** (-q) - hi ** (-q)) / q
    return w


def _gauss_cell_2d(center: np.ndarray, h1: float, h2: float, fn, order: int = 8):
    """Tensor Gauss-Legendre integral of fn over one rectangular cell."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    x = center[0] + 0.5 * h1 * pts
    y = center[1] + 0.5 * h2 * pts
    xx, yy = np.meshgrid(x, y, indexing="ij")
    ww = 0.25 * h1 * h2 * np.outer(wts, wts)
    return fn(xx, yy, ww)


def _pair_tables_2d(shape, spacing, s: float, near: int):
    """Per-offset kernel integrals for the 2D gradient and Laplacian.

    Returns (Kg, Kl): Kg[di+n1-1, dj+n2-1] is the vector integral of
    y/|y|^{3+s} over the cell at offset (di, dj), Kl the scalar integral of
    |y|^{-2-2s}; the zero offset is left at 0 (handled by the PV rules).
    """
    n1, n2 = shape
    h1, h2 = spacing
    di = np.arange(-(n1 - 1), n1)
    dj = np.arange(-(n2 - 1), n2)
    cx = di[:, None] * h1
    cy = dj[None, :] * h2
    r2 = cx**2 + cy**2
    r2[n1 - 1, n2 - 1] = np.inf
    area = h1 * h2
    kl = area * r2 ** (-1.0 - s)
    rad = r2 ** (-(3.0 + s) / 2.0)
    kg = np.stack([area * cx * rad, area * cy * rad], axis=-1)

    for a in range(max(-near, -(n1 - 1)), min(near, n1 - 1) + 1):
        for b in range(max(-near, -(n2 - 1)), min(near, n2 - 1) + 1):
            if a == 0 and b == 0:
                continue
            center = np.array([a * h1, b * h2])

            def lap_fn(xx, yy, ww):
                rr = np.sqrt(xx**2 + yy**2)
                return float(np.sum(ww * rr ** (-2.0 - 2.0 * s)))

            def grad_fn(xx, yy, ww):
                rr = (xx**2 + yy**2) ** ((3.0 + s) / 2.0)
                return np.array([np.sum(ww * xx / rr), np.sum(ww * yy / rr)])

            kl[a + n1 - 1, b + n2 - 1] = _gauss_cell_2d(center, h1, h2, lap_fn)
            kg[a + n1 - 1, b + n2 - 1] = _gauss_cell_2d(center, h1, h2, grad_fn)
    kl[n1 - 1, n2 - 1] = 0.0
    kg[n1 - 1, n2 - 1] = 0.0
    return kg, kl


# ---------------------------------------------------------------------------
# exterior integrals (radially exact, honoring rho_tail / tail flag)
# ---------------------------------------------------------------------------


def _exterior_1d(grid: Grid, q: float, rt: float, tail: bool, signed: bool):
    """Per-node exterior integrals of the 1D kernels.

    signed=False: int_{R \\ Omega} |y-x|^{-1-q} dy  (Laplacian weight).
    signed=True:  int_{R \\ Omega} sign(y-x) |y-x|^{-1-q} dy  (gradient).
    """
    (a, b), = grid.spec.bounds
    x = grid.nodes[:, 0]
    lb = x - a
    rb = b - x
    cut = 0.0 if tail else rt ** (-q)
    right = (rb ** (-q) - cut) / q
    left = (lb ** (-q) - cut) / q
    return right - left if signed else right + left


def _ray_exit_distance(nodes: np.ndarray, bounds, theta: np.ndarray) -> np.ndarray:
    """Distance from each interior node to the box boundary along each angle."""
    c = np.cos(theta)[None, :]
    sn = np.sin(theta)[None, :]
    out = np.full((nodes.shape[0], theta.size), np.inf)
    for axis, (a, b) in enumerate(bounds):
        comp = c if axis == 0 else sn
        x = nodes[:, axis][:, None]
        with np.errstate(divide="ignore"):
            t_hi = np.where(comp > 0, (b - x) / comp, np.inf)
            t_lo = np.where(comp < 0, (a - x) / comp, np.inf)
        out = np.minimum(out, np.minimum(t_hi, t_lo))
    return out


def _exterior_2d(grid: Grid, q: float, rt: float, tail: bool, signed: bool, n_theta: int):
    """Per-node exterior integrals in 2D via angle quadrature, exact in r.

    For exponent q the radial integral from the boundary-exit distance R to
    infinity of r^{-1-q} (already including the polar r dr factor folded
    into the kernel power) is R^{-q}/q; rho_tail splits it into a resolved
    part plus an optional closed-form tail.
    """
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    dth = 2.0 * np.pi / n_theta
    rr = _ray_exit_distance(grid.nodes, grid.spec.bounds, theta)
    cut = 0.0 if tail else rt ** (-q)
    radial = (rr ** (-q) - cut) / q
    if signed:
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return dth * radial @ dirs
    return dth * radial.sum(axis=1)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _offset_matrix_1d(weights_by_offset: np.ndarray, n: int) -> np.ndarray:
    """Dense (n, n) matrix with entry [i, j] = weights_by_offset[j - i]."""
    idx = np.arange(n)
    return weights_by_offset[idx[None, :] - idx[:, None] + n - 1]


def _gradient_self_weights(grid: Grid, s: float, params: QuadratureParams) -> np.ndarray:
    """First-difference self weights of the gradient, one per axis.

    Over the excluded cell the odd kernel cancels the constant part of u but
    pairs with the linear part: int z_k (z . grad u) / |z|^{d+s+1} dz
    = I_k d_k u with I_k = int z_k^2 |z|^{-d-s-1} dz. The derivative is
    represented by the central difference through the axis neighbors, so
    slfg[k] multiplies (u_{i+e_k} - u_{i-e_k}) / (2 h_k) in component k.
    """
    if grid.dimension == 1:
        h = grid.spacing[0]
        r0 = params.rho0 * h
        return np.array([2.0 * r0 ** (1.0 - s) / (1.0 - s)])
    h1, h2 = grid.spacing
    w1, w2 = params.rho0 * h1, params.rho0 * h2
    nt = params.n_theta
    theta = (np.arange(nt) + 0.5) * (2.0 * np.pi / nt)
    dth = 2.0 * np.pi / nt
    c, sn = np.cos(theta), np.sin(theta)
    with np.errstate(divide="ignore"):
        r_exit = np.minimum(
            np.where(c != 0, w1 / np.abs(c), np.inf),
            np.where(sn != 0, w2 / np.abs(sn), np.inf),
        )
    radial = r_exit ** (1.0 - s) / (1.0 - s)
    return np.array([dth * np.sum(c**2 * radial), dth * np.sum(sn**2 * radial)])


def assemble_gradient(grid: Grid, s: float, params: QuadratureParams | None = None) -> NonlocalOperator:
    """Assemble the dense fractional-gradient table on a grid.

    The resulting table W satisfies grad_s u(x_i) ~= sum_j W[:, i, j] u_j with
    the exterior-zero convention baked into the diagonal.
    """
    params = params or QuadratureParams()
    mu, _ = normalizing_constants(grid.dimension, s)
    rt = params.resolve_tail(grid)
    n = grid.n_nodes
    idx = np.arange(n)

    if grid.dimension == 1:
        h = grid.spacing[0]
        w_abs = _radial_cell_weights_1d(grid.shape[0], h, s, params.near_cells)
        by_offset = np.concatenate([-w_abs[::-1], [0.0], w_abs])
        w_mat = _offset_matrix_1d(by_offset, n)
        ext = _exterior_1d(grid, s, rt, params.tail_correction, signed=True)
        table = np.empty((1, n, n))
        table[0] = w_mat
        diag = -w_mat.sum(axis=1) - ext
        table[0, idx, idx] = diag
    else:
        n1, n2 = grid.shape
        kg, _ = _pair_tables_2d(grid.shape, grid.spacing, s, params.near_cells)
        i1, i2 = np.divmod(idx, n2)
        o1 = i1[None, :] - i1[:, None] + n1 - 1
        o2 = i2[None, :] - i2[:, None] + n2 - 1
        ext = _exterior_2d(grid, s, rt, params.tail_correction, signed=True,
                           n_theta=params.n_theta)
        table = np.empty((2, n, n))
        for c in range(2):
            wc = kg[..., c][o1, o2]
            diag = -wc.sum(axis=1) - ext[:, c]
            wc[idx, idx] = diag
            table[c] = wc

    # Self-cell couplings: interior nodes see the central difference of the
    # axis neighbors; at wall-adjacent nodes the wall-side half-cell slope
    # is 2 u_i / h (the interpolant is pinned to zero at the domain edge,
    # half a cell away), which lands an anchoring diagonal term. Without it
    # the columns of the table admit an alternating boundary-layer mode
    # with near-zero image, and -div_s grad_s loses definiteness.
    slfg = _gradient_self_weights(grid, s, params)
    if grid.dimension == 1:
        coeff = slfg[0] / (2.0 * grid.spacing[0])
        table[0][idx[:-1], idx[:-1] + 1] += coeff
        table[0][idx[1:], idx[1:] - 1] -= coeff
        table[0][0, 0] += coeff
        table[0][n - 1, n - 1] -= coeff
    else:
        n1, n2 = grid.shape
        i1, i2 = np.divmod(idx, n2)
        coeff = slfg / (2.0 * np.asarray(grid.spacing))
        m = i1 < n1 - 1
        table[0][idx[m], idx[m] + n2] += coeff[0]
        table[0][idx[~m], idx[~m]] -= coeff[0]
        m = i1 > 0
        table[0][idx[m], idx[m] - n2] -= coeff[0]
        table[0][idx[~m], idx[~m]] += coeff[0]
        m = i2 < n2 - 1
        table[1][idx[m], idx[m] + 1] += coeff[1]
        table[1][idx[~m], idx[~m]] -= coeff[1]
        m = i2 > 0
        table[1][idx[m], idx[m] - 1] -= coeff[1]
        table[1][idx[~m], idx[~m]] += coeff[1]
    table *= mu

    # even-symbol stabilization (see QuadratureParams); missing neighbors
    # are the zero extension, so boundary rows keep only the diagonal part
    if params.nyquist_stabilization > 0.0:
        if grid.dimension == 1:
            h = grid.spacing[0]
            delta = params.nyquist_stabilization * (np.pi / h) ** s
            table[0][idx, idx] += 2.0 * delta
            table[0][idx[:-1], idx[:-1] + 1] -= delta
            table[0][idx[1:], idx[1:] - 1] -= delta
        else:
            n1, n2 = grid.shape
            i1, i2 = np.divmod(idx, n2)
            for c, (nc, ic, stride) in enumerate(((n1, i1, n2), (n2, i2, 1))):
                delta = params.nyquist_stabilization * (np.pi / grid.spacing[c]) ** s
                table[c][idx, idx] += 2.0 * delta
                m = ic < nc - 1
                table[c][idx[m], idx[m] + stride] -= delta
                m = ic > 0
                table[c][idx[m], idx[m] - stride] -= delta

    return NonlocalOperator(kind="gradient", s=float(s), grid=grid, table=table,
                            constant=mu, params=params)


def _self_weights(grid: Grid, s: float, params: QuadratureParams) -> np.ndarray:
    """Second-difference self weights of the Laplacian, one per axis.

    slf[k] multiplies -(u_{i+e_k} - 2 u_i + u_{i-e_k}) in the assembled row;
    it is the integral of the kernel against the quadratic interpolant
    through the axis neighbors, taken over the excluded cell of half-widths
    rho0 * h_k.
    """
    if grid.dimension == 1:
        h = grid.spacing[0]
        r0 = params.rho0 * h
        return np.array([r0 ** (2.0 - 2.0 * s) / ((2.0 - 2.0 * s) * h**2)])
    h1, h2 = grid.spacing
    w1, w2 = params.rho0 * h1, params.rho0 * h2
    nt = params.n_theta
    theta = (np.arange(nt) + 0.5) * (2.0 * np.pi / nt)
    dth = 2.0 * np.pi / nt
    c, sn = np.cos(theta), np.sin(theta)
    with np.errstate(divide="ignore"):
        r_exit = np.minimum(
            np.where(c != 0, w1 / np.abs(c), np.inf),
            np.where(sn != 0, w2 / np.abs(sn), np.inf),
        )
    radial = r_exit ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    i1 = dth * np.sum(c**2 * radial)
    i2 = dth * np.sum(sn**2 * radial)
    return np.array([0.5 * i1 / h1**2, 0.5 * i2 / h2**2])


def assemble_laplacian(grid: Grid, s: float, params: QuadratureParams | None = None) -> NonlocalOperator:
    """Assemble the dense (-Lap)^s table; symmetric positive definite.

    Row sums equal the exterior kernel mass (plus the boundary remainder of
    the self weight), which makes the table strictly diagonally dominant
    with positive diagonal, hence positive definite on the zero-extension
    class.
    """
    params = params or QuadratureParams()
    _, c_lap = normalizing_constants(grid.dimension, s)
    rt = params.resolve_tail(grid)
    n = grid.n_nodes

    if grid.dimension == 1:
        w_abs = _radial_cell_weights_1d(grid.shape[0], grid.spacing[0], 2.0 * s,
                                        params.near_cells)
        by_offset = np.concatenate([w_abs[::-1], [0.0], w_abs])
        k_mat = _offset_matrix_1d(by_offset, n)
        ext = _exterior_1d(grid, 2.0 * s, rt, params.tail_correction, signed=False)
    else:
        n1, n2 = grid.shape
        _, kl = _pair_tables_2d(grid.shape, grid.spacing, s, params.near_cells)
        i1, i2 = np.divmod(np.arange(n), n2)
        k_mat = kl[i1[None, :] - i1[:, None] + n1 - 1,
                   i2[None, :] - i2[:, None] + n2 - 1]
        ext = _exterior_2d(grid, 2.0 * s, rt, params.tail_correction, signed=False,
                           n_theta=params.n_theta)

    table = -k_mat
    diag = k_mat.sum(axis=1) + ext
    table[np.arange(n), np.arange(n)] = diag
    table *= c_lap

    slf = c_lap * _self_weights(grid, s, params)
    idx = np.arange(n)
    if grid.dimension == 1:
        table[idx, idx] += 2.0 * slf[0]
        table[idx[:-1], idx[:-1] + 1] -= slf[0]
        table[idx[1:], idx[1:] - 1] -= slf[0]
    else:
        n1, n2 = grid.shape
        i1, i2 = np.divmod(idx, n2)
        table[idx, idx] += 2.0 * (slf[0] + slf[1])
        m = i1 < n1 - 1
        table[idx[m], idx[m] + n2] -= slf[0]
        m = i1 > 0
        table[idx[m], idx[m] - n2] -= slf[0]
        m = i2 < n2 - 1
        table[idx[m], idx[m] + 1] -= slf[1]
        m = i2 > 0
        table[idx[m], idx[m] - 1] -= slf[1]

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
