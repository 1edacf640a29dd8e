"""Discrete fractional gradient, divergence, and Laplacian on a grid.

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
  within NEAR_CELLS spacings get the exact radial antiderivative (1D) or a
  tensor Gauss-Legendre rule (2D), farther cells the midpoint value; entry
  [i, j] of the table is gathered from offset j - i.
* diagonal: the row sum of the kernel (the u(x_i) part of the difference
  u(y) - u(x_i)), plus the kernel mass of the exterior of Omega, where
  fields vanish, integrated radially exactly to infinity, plus the self
  cell: the cell of half-width SELF_CELL spacings around the singularity
  is excluded and its contribution restored by integrating the kernel
  against a local interpolant through the axis neighbors, a central first
  difference for the gradient (the odd kernel annihilates the constant
  term but not the linear one) and a second difference for the Laplacian.
  The exterior and the self-cell moments use one angular rule: the exact
  pair of directions +-e_1 in 1D, N_THETA midpoint angles in 2D, with the
  radial integral exact along each. Both sums over a row cost O(1) per
  node: the row sum is a box sum of the kernel (a cumulative sum and a lag
  difference per axis), and the 2D exterior is, per wall, the wall's
  distance to the power -q times a difference of angular prefix sums
  between two of the node's corner angles (between them every ray exits
  through that wall). Assembly costs O(N + N_THETA) besides the kernel's
  near-cell rules.
* axis stencils: per axis, the self-cell couplings to the two neighbors
  (for the gradient with an anchoring diagonal term at wall rows, whose
  outer neighbor lies outside Omega) and the gradient's even Nyquist
  stabilization (NYQUIST_STABILIZATION).

An operator keeps these parts, not the dense table. Off the diagonal and
the axis stencil the table is a Toeplitz (1D) or block-Toeplitz (2D)
matrix, so an apply is a zero-padded real-FFT convolution with the kernel
plus O(N) work for the diagonal and the stencil: O(N log N) time and O(N)
memory. The divergence uses the conjugate spectrum and the transposed
stencil. On small grids a dense matrix-vector product is faster; there the
operator gathers its parts into the dense float64 table once (to_dense, the
same arithmetic as a direct assembly, bit for bit) and applies that. One
pair of methods, the forward and the transposed apply, makes that choice.
Either way an apply is exactly linear in the field.

Solves with an operator's SPD matrix (C = -div_s grad_s for the gradient,
the table for the Laplacian) get an approximate inverse that needs no
table: the DST-I symbol (-Lap_h)^s of the grid's second-difference
Laplacian, scaled to the trace of that matrix, built in O(N) and applied
by two orthonormal DST-I transforms (symbol_solve; a tau-type
fast-transform preconditioner, Chan & Ng 1996). The solvers use it above
the crossover; below it they solve with the inverse of the dense matrix
that cho_factor holds (cho_factor / cho_solve). Each solve checks its own
right-hand side and raises NonFiniteError on an inf or a NaN.

All of it runs on numpy alone, so no command but verify's quadrature loads
scipy (~0.4 s at start-up). The FFT applies use numpy.fft.rfftn / irfftn
at 5-smooth padded sizes (next_fast_len), and each DST-I is one rfft per
axis of the odd extension (_dst1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Field, Grid, VectorField

__all__ = [
    "NonlocalOperator",
    "normalizing_constants",
    "assemble_gradient",
    "assemble_laplacian",
    "apply_gradient",
    "apply_divergence",
    "apply_laplacian",
    "composition_matrix",
    "composition_residual",
    "symbol_solve",
]

# Operators on more nodes than this apply by FFT; up to it they hold the
# dense table, which also gives the solvers their exact dense
# preconditioner. Median forward gradient apply with numpy.fft, one BLAS
# thread, 2-core VM, three runs (dense / FFT, ms): 1D N=384 0.031 / 0.051,
# N=512 0.073 / 0.055, N=768 0.21 / 0.061; 2D 20x20 0.10 / 0.11-0.17,
# 24x24 0.24-0.32 / 0.13-0.22, 48x48 5.4-6.9 / 0.26-0.41.
_DENSE_MAX_NODES = 512

# The quadrature of the principal-value and exterior integrals.
#
# Half-width of the excluded symmetric cell at the singularity, in units of
# the grid spacing: 0.5 tiles the self cell exactly (smaller would leave part
# of it to no rule, larger would double-count the neighbor cells).
SELF_CELL = 0.5
# Cells within this many spacings of the diagonal, on every axis, get the
# refined kernel integrals instead of the midpoint value.
NEAR_CELLS = 8
# Angular resolution of the 2D exterior and self-cell rule (1D uses the
# exact pair +-e_1). It costs O(N_THETA) time and memory per operator (the
# angular prefix sums, ~72 bytes per angle); the rule's relative error falls
# as N_THETA^-2 and is ~4e-7 here, far below the scheme's own error.
N_THETA = 2048
# Coefficient, in units of (pi/h)^s, of the even second-difference term added
# to the gradient rows. An odd collocated stencil has symbol
# i * sum_k b_k sin(k xi h), which vanishes at the grid Nyquist frequency
# regardless of the quadrature, so the induced energy form would be blind to
# sawtooth modes; this restores a continuum-scaled response there at an
# O(h^{2-s}) consistency cost, the same order as the scheme's native error.
NYQUIST_STABILIZATION = 0.12


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth number (2^a 3^b 5^c) at least n >= 1: a
    transform size that numpy.fft runs fast."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _dst1(values: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DST-I of values along axis, from one rfft of the odd
    extension (0, x, 0, -reversed x) of length 2 (n + 1), whose coefficients
    1..n are -2i sum_j x_j sin(pi j k / (n + 1))."""
    n = values.shape[axis]
    x = np.moveaxis(values, axis, -1)
    zero = np.zeros(x.shape[:-1] + (1,))
    spectrum = np.fft.rfft(np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1))
    return np.moveaxis(spectrum[..., 1:n + 1].imag * -np.sqrt(0.5 / (n + 1)), -1, axis)


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """grad_s or (-Lap)^s on one grid, kept as the parts of its table.

    Component c of the table (the axis-c gradient, or the one Laplacian
    component) is scale * kernel[c] gathered by node offset, with the
    diagonal replaced by diagonal[c] and the entries at the offsets +e_k
    and -e_k by neighbors[c, k]. kernel has shape (m, 2 n_1 - 1, ...) with
    m = d for the gradient and 1 for the Laplacian; constant is the
    normalization (mu or C).

    Up to _DENSE_MAX_NODES nodes the operator holds the gathered table and
    applies it by one product with the table viewed as (m N, N); above, it
    applies by FFT (_forward, _transpose) and ``table`` gathers a new copy
    on each access. Matrices derived from the table (the solvers'
    composition matrix and the inverse cho_factor holds), the FFT spectrum
    and the DST-I symbol are kept with the operator by ``cached``.
    """

    kind: str
    s: float
    grid: Grid
    constant: float
    kernel: np.ndarray
    diagonal: np.ndarray
    neighbors: np.ndarray
    _held: np.ndarray | None = field(default=None, init=False, repr=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.n_nodes <= _DENSE_MAX_NODES:
            object.__setattr__(self, "_held", self.to_dense())

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def scale(self) -> float:
        """The kernel's factor off the stencil: mu, or -C for the Laplacian."""
        return self.constant if self.kind == "gradient" else -self.constant

    @property
    def matrix_free(self) -> bool:
        """True when applies run by FFT rather than on a held table."""
        return self._held is None

    @property
    def table(self) -> np.ndarray:
        """The dense table, (d, N, N) for the gradient (component-major) and
        (N, N) for the Laplacian: the held one, or a new gather."""
        return self.to_dense() if self._held is None else self._held

    def to_dense(self) -> np.ndarray:
        """Gather the parts into a new dense table (shaped as ``table``).
        Window [i..., j...] of the reversed starts is the kernel at offset
        j - i, so the off-stencil entries are one strided copy."""
        shape, n = self.grid.shape, self.n_nodes
        axes = tuple(range(1, len(shape) + 1))
        windows = sliding_window_view(self.kernel, shape, axis=axes)[
            (slice(None), *(slice(None, None, -1),) * len(shape))]
        out = np.empty((len(self.kernel), n, n))
        np.multiply(windows, self.scale, out=out.reshape(windows.shape))
        diag = np.arange(n)
        for c, w in enumerate(out):
            w[diag, diag] = self.diagonal[c]
            for (stride, upper, lower, _, _), (up, down) in zip(_axis_stencils(self.grid),
                                                                self.neighbors[c]):
                w[upper, upper + stride] = up
                w[lower, lower - stride] = down
        return out if self.kind == "gradient" else out[0]

    def cached(self, key: str, build):
        """build() on the first request for key, the same object after;
        build may itself ask for another key."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def _symbol(self) -> np.ndarray:
        """The grid-shaped DST-I symbol sigma_j = (sum_k 4/h_k^2
        sin^2(pi j_k / (2 (n_k + 1))))^s, scaled so that its sum is the
        trace of the operator's SPD matrix: sum_c ||W_c||_F^2 = tr C for
        the gradient, the diagonal's sum for the Laplacian. Built in O(N)
        from the parts, without a table."""
        def build():
            shape = self.grid.shape
            per_axis = [4.0 / h**2 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
                        for n, h in zip(shape, self.grid.spacing)]
            sigma = sum(np.ix_(*per_axis)) ** self.s
            if self.kind == "laplacian":
                trace = np.sum(self.diagonal)
            else:
                # the kernel's squares times the entries per offset o,
                # prod_k (n_k - |o_k|), with the diagonal and the axis
                # stencil ((n_k - 1) N / n_k entries at each of +-e_k)
                # swapped in
                counts = reduce(np.multiply.outer, [n - np.abs(np.arange(1 - n, n)) for n in shape])
                at_axis = self.n_nodes - self.n_nodes // np.array(shape)
                kernel_there = self.scale * _at_axis_neighbors(self.kernel, shape)
                trace = (self.scale**2 * np.sum(self.kernel**2 * counts) + np.sum(self.diagonal**2)
                         + np.sum(at_axis[:, None] * (self.neighbors**2 - kernel_there**2)))
            return sigma * (trace / np.sum(sigma))
        return self.cached("symbol", build)

    # -- application: the only code that chooses the held table or FFT --

    def _fft_parts(self):
        """Padded transform size, the rfftn of the flipped scaled kernel per
        component (zero-padded to at least 2 n_k - 1 per axis, so that the
        circular product is the Toeplitz one), and the stencil entries less
        the kernel's share there, shape (m, d, 2)."""
        def build():
            shape = self.grid.shape
            size = tuple(next_fast_len(2 * n - 1) for n in shape)
            axes = tuple(range(1, len(shape) + 1))
            flipped = self.scale * self.kernel[(slice(None),) + (slice(None, None, -1),) * len(shape)]
            padded = np.zeros((len(self.kernel), *size))
            padded[(slice(None), *[slice(0, 2 * n - 1) for n in shape])] = flipped
            # offset -o at index o mod size
            padded = np.roll(padded, [1 - n for n in shape], axis=axes)
            rest = self.neighbors - self.scale * _at_axis_neighbors(self.kernel, shape)
            return size, np.fft.rfftn(padded, axes=axes), rest
        return self.cached("fft", build)

    def _forward(self, u: np.ndarray) -> np.ndarray:
        """Every component of the table times u (N,): shape (N, m)."""
        n = self.n_nodes
        if self._held is not None:
            return np.ascontiguousarray((self._held.reshape(-1, n) @ u).reshape(-1, n).T)
        shape = self.grid.shape
        size, spectrum, rest = self._fft_parts()
        axes = tuple(range(1, len(shape) + 1))
        x = u.reshape(shape)
        y = np.fft.irfftn(spectrum * np.fft.rfftn(x[None], s=size, axes=axes), s=size, axes=axes)
        y = np.ascontiguousarray(y[(slice(None), *[slice(0, k) for k in shape])])
        for c, yc in enumerate(y):
            self._add_stencil(yc, x, c, rest[c])
        return np.ascontiguousarray(y.reshape(-1, n).T)

    def _transpose(self, v: np.ndarray) -> np.ndarray:
        """sum_c W_c^T v[:, c] for stacked components v (N, m): shape (N,)."""
        n = self.n_nodes
        if self._held is not None:
            return self._held.reshape(-1, n).T @ v.T.ravel()
        shape = self.grid.shape
        size, spectrum, rest = self._fft_parts()
        axes = tuple(range(1, len(shape) + 1))
        vs = v.T.reshape(-1, *shape)
        acc = np.sum(np.conj(spectrum) * np.fft.rfftn(vs, s=size, axes=axes), axis=0, keepdims=True)
        y = np.fft.irfftn(acc, s=size, axes=axes)
        y = np.ascontiguousarray(y[(0, *[slice(0, k) for k in shape])])
        for c, vc in enumerate(vs):
            # the transpose swaps the entries at +e_k and -e_k
            self._add_stencil(y, vc, c, rest[c, :, ::-1])
        return y.ravel()

    def _add_stencil(self, out, u, c: int, rest) -> None:
        """out += (diagonal[c] and the stencil rest, entries at +e_k and -e_k
        per axis k) times u, on grid-shaped arrays."""
        shape, d = self.grid.shape, self.grid.dimension
        out += self.diagonal[c].reshape(shape) * u
        for k, (up, down) in enumerate(rest):
            lo = tuple(slice(None, -1) if a == k else slice(None) for a in range(d))
            hi = tuple(slice(1, None) if a == k else slice(None) for a in range(d))
            if up:
                out[lo] += up * u[hi]
            if down:
                out[hi] += down * u[lo]


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
    mu = 2.0**s * math.gamma((d + s + 1.0) / 2.0) / (np.pi ** (d / 2.0)
                                                     * math.gamma((1.0 - s) / 2.0))
    c_lap = 4.0**s * s * math.gamma(d / 2.0 + s) / (np.pi ** (d / 2.0) * math.gamma(1.0 - s))
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


def _kernel_by_offset(grid: Grid, s: float, kind: str) -> np.ndarray:
    """Kernel integral over the cell at each node offset.

    Indexed by offset + n_k - 1 along axis k, with a leading component axis
    for the gradient. Cells within NEAR_CELLS spacings on every axis get the
    near-cell rule, farther cells the midpoint value. The zero offset is
    left at 0: the principal-value rules handle it.
    """
    q = s if kind == "gradient" else 2.0 * s
    center = tuple(n - 1 for n in grid.shape)
    reach = [min(NEAR_CELLS, c) for c in center]
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


def _row_sums(kernel: np.ndarray, grid: Grid) -> np.ndarray:
    """Row sums of the matrix gathered from kernel, without forming it.

    Row i sums the kernel over the box of offsets [-i_k, n_k - 1 - i_k] on
    each axis k, which is indices [n_k - 1 - i_k, 2 n_k - 2 - i_k]: per axis
    a cumulative sum and its lag-n_k difference, in O(N).
    """
    sums = kernel
    for axis, n in enumerate(grid.shape):
        c = np.cumsum(np.moveaxis(sums, axis, 0), axis=0)
        box = c[n - 1:].copy()
        box[1:] -= c[:n - 1]
        sums = np.moveaxis(box[::-1], 0, axis)
    return sums.ravel()


def _at_axis_neighbors(kernel: np.ndarray, shape) -> np.ndarray:
    """Kernels (m, 2 n_1 - 1, ...) at the offsets +e_k and -e_k: (m, d, 2)."""
    out = np.empty((len(kernel), len(shape), 2))
    for k in range(len(shape)):
        for j, step in enumerate((1, -1)):
            idx = [n - 1 for n in shape]
            idx[k] += step
            out[:, k, j] = kernel[(slice(None), *idx)]
    return out


def _directions(d: int, n_theta: int = N_THETA):
    """Unit directions of the angular rule and their common weight: the
    exact pair +-e_1 in 1D, n_theta midpoint angles in 2D."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), 1.0
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1), 2.0 * np.pi / n_theta


def _ray_exit_distance(nodes: np.ndarray, bounds, dirs: np.ndarray) -> np.ndarray:
    """Distance from each node to the box boundary along each direction.

    Per axis, each direction meets one wall: b for a positive component, a
    for a negative one; a zero component meets none (inf).
    """
    out = np.full((nodes.shape[0], dirs.shape[0]), np.inf)
    for axis, (a, b) in enumerate(bounds):
        comp = dirs[:, axis]
        wall = np.where(comp > 0, b, a)
        dist = wall[None, :] - nodes[:, axis][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            dist /= comp
        dist[:, comp == 0] = np.inf
        np.minimum(out, dist, out=out)
    return out


def _exterior(grid: Grid, q: float, signed: bool, n_theta: int = N_THETA) -> np.ndarray:
    """Per-node integral of the kernel over the exterior of Omega.

    Along each direction the radial integral of r^{-1-q} from the exit
    distance R to infinity is R^{-q}/q. signed=True weights each direction
    by its unit vector (gradient, shape (N, d)), signed=False sums the
    directions (Laplacian, shape (N,)).

    In 1D the two directions +-e_1 exit through one wall each. In 2D a ray
    exits through wall w at distance dist_w / comp_w(theta), comp_w the
    direction's outward component, and the wall changes only at the node's
    four corner angles. So the midpoint sum over the directions of one
    wall's sector is dist_w^{-q} times a difference of the prefix sums over
    theta of comp_w^q (times the direction when signed): O(N + n_theta).
    """
    x = grid.nodes
    if grid.dimension == 1:
        ((a, b),) = grid.spec.bounds
        up = (b - x[:, 0]) ** (-q) / q
        down = (x[:, 0] - a) ** (-q) / q
        return (up - down)[:, None] if signed else up + down
    n = n_theta
    dirs, weight = _directions(2, n)
    vec = dirs if signed else np.ones((n, 1))
    (a0, b0), (a1, b1) = grid.spec.bounds
    # the walls counterclockwise from +x: distance from each node, outward
    # component of each direction; wall w's sector runs from the corner
    # angle edges[w] to edges[w + 1]
    dist = (b0 - x[:, 0], b1 - x[:, 1], x[:, 0] - a0, x[:, 1] - a1)
    comps = (dirs[:, 0], dirs[:, 1], -dirs[:, 0], -dirs[:, 1])
    edges = (np.arctan2(a1 - x[:, 1], b0 - x[:, 0]), np.arctan2(b1 - x[:, 1], b0 - x[:, 0]),
             np.arctan2(b1 - x[:, 1], a0 - x[:, 0]), np.arctan2(a1 - x[:, 1], a0 - x[:, 0]) + 2.0 * np.pi)
    # index of the first midpoint angle (j + 1/2) 2 pi / n at or above each
    # edge; the last sector ends where the first begins, one turn later, so
    # that each direction lies in exactly one sector
    first = [np.ceil(e * (n / (2.0 * np.pi)) - 0.5).astype(np.intp) for e in edges]
    first.append(first[0] + n)
    out = np.zeros((grid.n_nodes, vec.shape[1]))
    for w, (dw, cw) in enumerate(zip(dist, comps)):
        prefix = np.zeros((n + 1, vec.shape[1]))
        np.cumsum(np.maximum(cw, 0.0)[:, None] ** q * vec, axis=0, out=prefix[1:])
        # the prefix sum up to any index k, the directions repeated with
        # period n: the sector of +x straddles theta = 0
        lo, hi = (prefix[k % n] + (k // n)[:, None] * prefix[n] for k in first[w:w + 2])
        out += (dw ** (-q))[:, None] * (hi - lo)
    out = weight * out / q
    return out if signed else out[:, 0]


def _self_cell_moments(grid: Grid, p: float) -> np.ndarray:
    """Per axis k, the integral of z_k^2 |z|^{p-d-2} over the excluded cell
    of half-widths SELF_CELL * h: along each direction the radial integral
    is R^p / p with R the distance to the cell edge."""
    dirs, weight = _directions(grid.dimension)
    half = [(-SELF_CELL * h, SELF_CELL * h) for h in grid.spacing]
    exits = _ray_exit_distance(np.zeros((1, grid.dimension)), half, dirs)[0]
    # scalar powers, so that in 1D this is the closed form
    # 2 (SELF_CELL h)^p / p to the last bit
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


def assemble_gradient(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble the fractional gradient on a grid.

    Its table W satisfies grad_s u(x_i) ~= sum_j W[:, i, j] u_j with the
    exterior-zero convention baked into the diagonal.
    """
    mu, _ = normalizing_constants(grid.dimension, s)
    ext = _exterior(grid, s, signed=True)
    kernel = _kernel_by_offset(grid, s, "gradient")
    # the first-difference self weight of axis k: over the excluded cell the
    # odd kernel cancels the constant part of u but pairs with the linear
    # part, int z_k (z . grad u) / |z|^{d+s+1} dz = I_k d_k u
    moments = _self_cell_moments(grid, 1.0 - s)
    at_neighbors = _at_axis_neighbors(kernel, grid.shape)
    neighbors = at_neighbors * mu
    diagonal = np.empty((grid.dimension, grid.n_nodes))
    for c, (_, _, _, upper_wall, lower_wall) in enumerate(_axis_stencils(grid)):
        # Self-cell couplings: interior nodes see the central difference of
        # the axis neighbors; at wall-adjacent nodes the wall-side half-cell
        # slope is 2 u_i / h (the interpolant is pinned to zero at the domain
        # edge, half a cell away), which lands an anchoring diagonal term.
        # Without it the columns of the table admit an alternating
        # boundary-layer mode with near-zero image, and -div_s grad_s loses
        # definiteness.
        coeff = moments[c] / (2.0 * grid.spacing[c])
        dg = -_row_sums(kernel[c], grid) - ext[:, c]
        dg[upper_wall] -= coeff
        dg[lower_wall] += coeff
        dg *= mu
        up, down = at_neighbors[c, c]
        neighbors[c, c] = ((up + coeff) * mu, (down - coeff) * mu)
        # even-symbol stabilization (see NYQUIST_STABILIZATION), a second
        # difference; missing neighbors are the zero extension, so wall
        # rows keep only its diagonal part
        delta = NYQUIST_STABILIZATION * (np.pi / grid.spacing[c]) ** s
        dg += 2.0 * delta
        neighbors[c, c] -= delta
        diagonal[c] = dg

    return NonlocalOperator(kind="gradient", s=float(s), grid=grid, constant=mu,
                            kernel=kernel, diagonal=diagonal, neighbors=neighbors)


def assemble_laplacian(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble (-Lap)^s; its table is symmetric positive definite.

    Row sums equal the exterior kernel mass (plus the boundary remainder of
    the self weight), which makes the table strictly diagonally dominant
    with positive diagonal, hence positive definite on the zero-extension
    class.
    """
    _, c_lap = normalizing_constants(grid.dimension, s)
    ext = _exterior(grid, 2.0 * s, signed=False)
    kernel = _kernel_by_offset(grid, s, "laplacian")[None]
    # second-difference self weight of axis k: the kernel integrated against
    # the quadratic interpolant through the axis neighbors over the excluded
    # cell, multiplying -(u_{i+e_k} - 2 u_i + u_{i-e_k})
    slf = c_lap * (0.5 * _self_cell_moments(grid, 2.0 - 2.0 * s)
                   / np.asarray(grid.spacing) ** 2)
    diagonal = (_row_sums(kernel[0], grid) + ext) * c_lap
    for coeff in slf:
        diagonal += 2.0 * coeff
    neighbors = _at_axis_neighbors(kernel, grid.shape) * -c_lap - slf[:, None]

    return NonlocalOperator(kind="laplacian", s=float(s), grid=grid, constant=c_lap,
                            kernel=kernel, diagonal=diagonal[None], neighbors=neighbors)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _check_op_field(op: NonlocalOperator, fld, kind: str):
    if op.kind != kind:
        raise ValueError(f"operator kind {op.kind!r} does not match required {kind!r}")
    if fld.grid is not op.grid and fld.grid.spec != op.grid.spec:
        raise ValueError("operator and field live on different grids")


def apply_gradient(op: NonlocalOperator, u: Field) -> VectorField:
    """grad_s u as a nodal vector field."""
    _check_op_field(op, u, "gradient")
    return VectorField(grid=u.grid, values=op._forward(u.values))


def apply_divergence(op: NonlocalOperator, phi: VectorField) -> Field:
    """div_s phi, the negative transpose of the gradient.

    By construction l2_inner(u, div_s phi) = -sum_i w_i <phi_i, grad_s u_i>
    holds for every pair (u, phi) on the grid, exactly on a held table and
    to roundoff by FFT.
    """
    _check_op_field(op, phi, "gradient")
    return Field(grid=phi.grid, values=-op._transpose(phi.values))


def apply_laplacian(op: NonlocalOperator, u: Field) -> Field:
    """(-Lap)^s u."""
    _check_op_field(op, u, "laplacian")
    return Field(grid=u.grid, values=op._forward(u.values)[:, 0])


def composition_matrix(grad_op: NonlocalOperator) -> np.ndarray:
    """Dense matrix of -div_s grad_s built from the gradient table.

    This is sum_c W_c^T W_c = W^T W with W the table viewed as (d N, N),
    symmetric positive semidefinite; it is the operator whose quadratic
    form the energy functional actually integrates. numpy runs W^T W (of
    the held table, or of one gathered for this call) as one BLAS syrk,
    whose result is exactly symmetric.
    """
    if grad_op.kind != "gradient":
        raise ValueError("composition_matrix needs a gradient operator")
    w = grad_op.table.reshape(-1, grad_op.n_nodes)
    return w.T @ w


class NonFiniteError(ValueError, ArithmeticError):
    """An array that should be finite holds an inf or a NaN: an input out
    of range, or arithmetic that overflowed on the way."""


def _check_finite(x: np.ndarray) -> np.ndarray:
    """x itself; NonFiniteError when it holds an inf or a NaN."""
    if not np.isfinite(x).all():
        raise NonFiniteError("array must not contain infs or NaNs")
    return x


# below this many rows _tril_inv hands a block to numpy.linalg.inv
_TRIL_INV_BLOCK = 64


def _tril_inv(low: np.ndarray) -> np.ndarray:
    """The inverse of a nonsingular lower-triangular matrix by 2 x 2 block
    recursion: [[A, 0], [B, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1},
    D^{-1}]], with numpy.linalg.inv on blocks of at most _TRIL_INV_BLOCK
    rows: ~2 N^3 / 3 flops in matrix-matrix products, against the ~2 N^3
    of numpy.linalg.inv's LU inverse."""
    n = low.shape[0]
    if n <= _TRIL_INV_BLOCK:
        return np.linalg.inv(low)
    k = n // 2
    a_inv, d_inv = _tril_inv(low[:k, :k]), _tril_inv(low[k:, k:])
    inv = np.zeros_like(low)
    inv[:k, :k] = a_inv
    inv[k:, k:] = d_inv
    inv[k:, :k] = -(d_inv @ low[k:, :k]) @ a_inv
    return inv


def cho_factor(a: np.ndarray) -> np.ndarray:
    """The inverse L^{-T} L^{-1} of a symmetric positive definite matrix
    a = L L^T, exactly symmetric, for cho_solve: a solve is then one
    matrix-vector product (1D 384 nodes, one BLAS thread: ~35 us against
    ~190 us for scipy's cho_solve). L^{-1} comes from a block recursion on
    the triangle (_tril_inv): a factor of C + I takes ~7 ms at 384 nodes
    and ~16 ms at 512, against 16-22 and 35 ms with numpy.linalg.inv of L.
    Raises NonFiniteError when a holds a non-finite entry and
    numpy.linalg.LinAlgError when it is not positive definite.
    """
    inv = _tril_inv(np.linalg.cholesky(_check_finite(a)))
    return inv.T @ inv


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for factor = cho_factor(a); b is (N,) or a block (N, k).
    Raises NonFiniteError when b holds a non-finite entry."""
    return factor @ _check_finite(b)


def symbol_solve(op: NonlocalOperator, values: np.ndarray, shift: float) -> np.ndarray:
    """S diag(1 / (sigma + shift)) S values, with S the orthonormal DST-I on
    the grid and sigma the operator's trace-scaled symbol: an approximate
    (M + shift I)^{-1} values, M = C for the gradient and the table for the
    Laplacian, in O(N log N) time and O(N) memory. values is (N,); raises
    NonFiniteError when it holds a non-finite entry."""
    shape = op.grid.shape
    y = reduce(_dst1, range(len(shape)), _check_finite(values).reshape(shape))
    y /= op._symbol() + shift
    return reduce(_dst1, range(len(shape)), y).ravel()


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
