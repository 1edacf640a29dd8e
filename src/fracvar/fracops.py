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

Each table is two arrays, a kernel (normalization and stencil written in
at assembly) and a diagonal, built by one code path for d = 1 and 2:

* kernel by offset: on the uniform grid the kernel integral over the cell
  of node j, seen from node i, depends only on the offset j - i. Cells
  within NEAR_CELLS spacings get the exact radial antiderivative (1D) or a
  tensor Gauss-Legendre rule (2D), farther cells the midpoint value; entry
  [i, j] of the table is gathered from offset j - i. The kernel is stored
  times its normalization (mu, or -C for the Laplacian), with the axis
  stencil written in at the offsets +-e_k: the self-cell couplings to the
  two axis neighbors and the gradient's even Nyquist stabilization
  (NYQUIST_STABILIZATION), the same at every node.
* diagonal: the row sum of the kernel (the u(x_i) part of the difference
  u(y) - u(x_i)), plus the kernel mass of the exterior of Omega, where
  fields vanish, integrated radially exactly to infinity, plus the self
  cell: the cell of half-width SELF_CELL spacings around the singularity
  is excluded and its contribution restored by integrating the kernel
  against a local interpolant through the axis neighbors, a central first
  difference for the gradient (the odd kernel annihilates the constant
  term but not the linear one) and a second difference for the Laplacian.
  The gradient's wall rows, whose outer neighbor lies outside Omega, get
  an anchoring term here. The exterior and the self-cell moments use one
  angular rule: the exact pair of directions +-e_1 in 1D, N_THETA
  midpoint angles in 2D, with the radial integral exact along each. Both
  sums over a row cost O(1) per node: the row sum is a box sum of the
  kernel (a cumulative sum and a lag difference per axis), and the 2D
  exterior is, per wall, the wall's distance to the power -q times a
  difference of angular prefix sums between two of the node's corner
  angles (between them every ray exits through that wall). Assembly costs
  O(N + N_THETA) besides the kernel's near-cell rules.

An operator keeps these two arrays, not the dense table. Off the diagonal
the table is a Toeplitz (1D) or block-Toeplitz (2D) matrix, the kernel
gathered by offset. An apply is then a zero-padded real-FFT convolution
with the kernel plus the diagonal times the field: O(N log N) time and
O(N) memory. The inverse transform is pruned: each complex pass keeps only
the grid's rows before the next, and the last axis's irfft is cut to the
grid. The divergence is the conjugate spectrum plus the diagonal. Every
grid, small or large, applies this way, through one pair of methods (the
forward and the transposed apply). A gradient is a plain (N, m) array, m
= d the operator's component count, which the transposed apply checks. It
is a view of component-major memory, the transpose of a C-ordered (m, N)
array: the FFTs read and write each component as one contiguous row, and
so do the nodewise products of the energy (its flux, the Hessian's 2 x 2
step), with no reordering copy around an apply (at 2D 48^2 a Hessian
product took a median 500 us with the copies and 390 us without, on a
2-core VM with one BLAS thread). The dense float64 table is gathered
(to_dense, the same arithmetic as a direct assembly, bit for bit) only
where a dense matrix is the algorithm: the solvers' exact preconditioner
on small grids, spectral's exact inverse on the smallest, and
composition_matrix, the dense test oracle.

Solves with an operator's SPD matrix (C = -div_s grad_s for the gradient,
the table for the Laplacian) get an approximate inverse that needs no
table: the DST-I symbol (-Lap_h)^s of the grid's second-difference
Laplacian, scaled to the trace of that matrix, built in O(N) and applied
by two orthonormal DST-I transforms (symbol_solve; a tau-type
fast-transform preconditioner, Chan & Ng 1996). The solvers use it above
solvers._DENSE_MAX_NODES nodes, scaled to the true diagonal of C + I:
composition_diagonal and symbol_diagonal give the two diagonals in O(N)
memory, with no table. Up to the crossover they solve with the inverse of
the dense matrix that cho_factor holds (cho_factor / cho_solve). Each
solve checks its own right-hand side and raises NonFiniteError on an inf
or a NaN.

All of it runs on numpy alone, so no command but verify's quadrature loads
scipy (~0.4 s at start-up), and numpy.polynomial is not loaded either
(7-11 ms at start-up): the 2D near-cell rule's Gauss-Legendre nodes come
from a Golub-Welsch eigenproblem (_gauss_legendre). The FFT applies use
numpy.fft at 5-smooth padded sizes (next_fast_len). The DST-I forks by
dimension (NonlocalOperator._dst, which says why): one rfft of the odd
extension in 1D (_dst1), a product with per-axis sine matrices in 2D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Field, Grid

__all__ = [
    "NonlocalOperator",
    "normalizing_constants",
    "assemble_gradient",
    "assemble_laplacian",
    "apply_gradient",
    "apply_divergence",
    "apply_laplacian",
    "composition_matrix",
    "composition_diagonal",
    "composition_residual",
    "symbol_solve",
    "symbol_diagonal",
]

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
    """grad_s or (-Lap)^s on one grid, kept as a kernel and a diagonal.

    Component c of the table (the axis-c gradient, or the one Laplacian
    component) is kernel[c] gathered by node offset, with the diagonal
    diagonal[c]. kernel has shape (m, 2 n_1 - 1, ...) with m = d for the
    gradient and 1 for the Laplacian; the normalization and the axis
    stencil are written into it at assembly, and it is 0 at the zero
    offset.

    It applies by FFT (_forward, _transpose) at every size and holds no
    table; to_dense gathers a new one on each call. The forward apply adds
    the kernel's convolution into diagonal * u, and the transposed one
    sum_c diagonal[c] * v[:, c] to the conjugate spectrum's convolution.
    Fields of m components are (N, m) views of component-major (m, N)
    memory, which _forward returns and _transpose reads without a copy.
    What is derived from the operator (the FFT spectrum and its conjugate,
    the DST-I symbol, in 2D the per-axis sine matrices of symbol_solve,
    and the solvers' dense preconditioner or symbol-solve scaling) is kept
    with it by ``cached``.
    """

    kind: str
    s: float
    grid: Grid
    kernel: np.ndarray
    diagonal: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def to_dense(self) -> np.ndarray:
        """Gather the kernel and the diagonal into a new dense table, (d, N,
        N) for the gradient (component-major) and (N, N) for the Laplacian.
        Window [i..., j...] of the reversed starts is the kernel at offset
        j - i, so the off-diagonal entries are one strided copy."""
        shape, n = self.grid.shape, self.n_nodes
        axes = tuple(range(1, len(shape) + 1))
        windows = sliding_window_view(self.kernel, shape, axis=axes)[
            (slice(None), *(slice(None, None, -1),) * len(shape))]
        out = np.empty((len(self.kernel), n, n))
        out.reshape(windows.shape)[...] = windows
        diag = np.arange(n)
        out[:, diag, diag] = self.diagonal
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
        from the kernel and the diagonal, without a table."""
        def build():
            shape = self.grid.shape
            per_axis = [4.0 / h**2 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
                        for n, h in zip(shape, self.grid.spacing)]
            sigma = sum(np.ix_(*per_axis)) ** self.s
            if self.kind == "laplacian":
                trace = np.sum(self.diagonal)
            else:
                # the kernel's squares times the entries per offset o,
                # prod_k (n_k - |o_k|), and the diagonal's
                counts = reduce(np.multiply.outer, [n - np.abs(np.arange(1 - n, n)) for n in shape])
                trace = np.sum(self.kernel**2 * counts) + np.sum(self.diagonal**2)
            return sigma * (trace / np.sum(sigma))
        return self.cached("symbol", build)

    # -- application: a pruned real-FFT convolution plus the diagonal --

    def _fft_parts(self):
        """Padded transform size, the rfftn, per component, of the flipped
        kernel (the Toeplitz part of the table), zero-padded to at least 2
        n_k - 1 per axis, so that the circular product is the Toeplitz
        one, and its conjugate, the transposed apply's spectrum."""
        def build():
            shape = self.grid.shape
            size = tuple(next_fast_len(2 * n - 1) for n in shape)
            axes = tuple(range(1, len(shape) + 1))
            padded = np.zeros((len(self.kernel), *size))
            padded[(slice(None), *[slice(0, 2 * n - 1) for n in shape])] = \
                self.kernel[(slice(None),) + (slice(None, None, -1),) * len(shape)]
            # offset -o at index o mod size
            padded = np.roll(padded, [1 - n for n in shape], axis=axes)
            spectrum = np.fft.rfftn(padded, axes=axes)
            return size, spectrum, np.conj(spectrum)
        return self.cached("fft", build)

    def _irfftn_grid(self, spectrum: np.ndarray, size) -> np.ndarray:
        """The grid-shaped corner of irfftn(spectrum, s=size) over the
        trailing axes: each complex inverse pass keeps the grid's n_k rows
        before the next, and the last axis's irfft is cut to the grid."""
        shape = self.grid.shape
        lead = spectrum.ndim - len(shape)
        for k, n in enumerate(shape[:-1]):
            spectrum = np.fft.ifft(spectrum, axis=lead + k)[(slice(None),) * (lead + k) + (slice(0, n),)]
        return np.fft.irfft(spectrum, n=size[-1], axis=-1)[..., :shape[-1]]

    def _forward(self, u: np.ndarray) -> np.ndarray:
        """Every component of the table times u (N,): shape (N, m), the
        transposed view of a new C-ordered (m, N) array, so that each
        component is one contiguous row. The convolution, cut to the grid
        on the way out of the inverse FFT, is added into diagonal * u."""
        shape = self.grid.shape
        size, spectrum, _ = self._fft_parts()
        axes = tuple(range(1, len(shape) + 1))
        y = self._irfftn_grid(spectrum * np.fft.rfftn(u.reshape(1, *shape), s=size, axes=axes), size)
        out = self.diagonal * u
        out.reshape(y.shape)[...] += y
        return out.T

    def _transpose(self, v: np.ndarray) -> np.ndarray:
        """sum_c W_c^T v[:, c] for stacked components v: shape (N,). v must
        be (N, m), m = len(kernel) the operator's component count, or this
        raises ValueError. v.T is reshaped to the grid without a copy when v
        is the view of component-major memory that _forward returns. The
        components' spectra are multiplied in place and summed before the
        one inverse FFT, whose grid corner is added into the diagonal part."""
        if v.shape != (self.n_nodes, len(self.kernel)):
            raise ValueError(f"need shape {(self.n_nodes, len(self.kernel))}, got {v.shape}")
        shape = self.grid.shape
        size, _, conj = self._fft_parts()
        axes = tuple(range(1, len(shape) + 1))
        spectra = np.fft.rfftn(v.T.reshape(-1, *shape), s=size, axes=axes)
        np.multiply(conj, spectra, out=spectra)
        out = np.einsum("cn,cn->n", self.diagonal, v.T)
        out.reshape(shape)[...] += self._irfftn_grid(reduce(np.add, spectra), size)
        return out

    def _dst(self, y: np.ndarray) -> np.ndarray:
        """The orthonormal DST-I (its own inverse) of a grid-shaped y. In
        2D it is S_0 y S_1 with the per-axis sine matrices sqrt(2 / (n_k +
        1)) sin(pi i j / (n_k + 1)), kept by ``cached``: n_k^2 entries
        each, O(N) on a square grid, and faster than _dst1 at every size
        from 24^2 to 256^2, most where n_k + 1 has a large prime factor. In
        1D a sine matrix would hold N^2 entries (and lost to _dst1 at
        N = 1024), so 1D keeps _dst1."""
        if y.ndim == 1:
            return _dst1(y, 0)

        def build():
            out = []
            for n in self.grid.shape:
                j = np.arange(1, n + 1)
                # i j reduced mod 2 (n + 1), so that the sine's argument is
                # below 2 pi and exact to a rounding
                phase = np.multiply.outer(j, j) % (2 * (n + 1))
                out.append(np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * phase))
            return out
        s0, s1 = self.cached("sines", build)
        return s0 @ y @ s1


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
# the two arrays of a table: kernel by offset and diagonal
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
    pts, wts = _gauss_legendre(8)
    (h1, h2), (o1, o2) = grid.spacing, offsets
    x = (o1 * h1)[:, None] + 0.5 * h1 * pts
    y = (o2 * h2)[:, None] + 0.5 * h2 * pts
    ww = 0.25 * h1 * h2 * np.outer(wts, wts)
    vals = _kernel_values([x[:, None, :, None], y[None, :, None, :]], q, kind)
    return np.sum(ww * vals, axis=(-2, -1))


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1] by
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Legendre polynomials (zero diagonal, off-diagonals k / sqrt(4 k^2
    - 1)), the weights 2 v_0^2 from the first components of its unit
    eigenvectors; both are symmetrized about 0, as the rule is. For n = 8
    they match numpy.polynomial.legendre.leggauss to 1e-15."""
    k = np.arange(1.0, n)
    pts, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    wts = 2.0 * vecs[0] ** 2
    return 0.5 * (pts - pts[::-1]), 0.5 * (wts + wts[::-1])


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


def _axis_offsets(shape, k: int):
    """The indices of the offsets +e_k and -e_k in a kernel component
    (2 n_1 - 1, ...)."""
    return [tuple(n - 1 + step * (axis == k) for axis, n in enumerate(shape)) for step in (1, -1)]


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


def _wall_rows(grid: Grid):
    """Per axis k: the rows without an upper and without a lower axis-k
    neighbor (that neighbor lies outside Omega, where fields vanish)."""
    multi = np.unravel_index(np.arange(grid.n_nodes), grid.shape)
    for k, n in enumerate(grid.shape):
        yield np.flatnonzero(multi[k] == n - 1), np.flatnonzero(multi[k] == 0)


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
    diagonal = np.empty((grid.dimension, grid.n_nodes))
    for c, (upper_wall, lower_wall) in enumerate(_wall_rows(grid)):
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
        # even-symbol stabilization (see NYQUIST_STABILIZATION), a second
        # difference; missing neighbors are the zero extension, so wall
        # rows keep only its diagonal part
        delta = NYQUIST_STABILIZATION * (np.pi / grid.spacing[c]) ** s
        dg += 2.0 * delta
        diagonal[c] = dg
        # normalize the kernel and write the couplings to the axis-c
        # neighbors (self cell and stabilization) in at +-e_c
        up, down = _axis_offsets(grid.shape, c)
        stencil = (kernel[c][up] + coeff) * mu - delta, (kernel[c][down] - coeff) * mu - delta
        kernel[c] *= mu
        kernel[c][up], kernel[c][down] = stencil

    return NonlocalOperator(kind="gradient", s=float(s), grid=grid, kernel=kernel, diagonal=diagonal)


def assemble_laplacian(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble (-Lap)^s; its table is symmetric positive definite.

    Row sums equal the exterior kernel mass (plus the boundary remainder of
    the self weight), which makes the table strictly diagonally dominant
    with positive diagonal, hence positive definite on the zero-extension
    class.
    """
    _, c_lap = normalizing_constants(grid.dimension, s)
    ext = _exterior(grid, 2.0 * s, signed=False)
    kernel = _kernel_by_offset(grid, s, "laplacian")
    # second-difference self weight of axis k: the kernel integrated against
    # the quadratic interpolant through the axis neighbors over the excluded
    # cell, multiplying -(u_{i+e_k} - 2 u_i + u_{i-e_k})
    slf = c_lap * (0.5 * _self_cell_moments(grid, 2.0 - 2.0 * s)
                   / np.asarray(grid.spacing) ** 2)
    diagonal = (_row_sums(kernel, grid) + ext) * c_lap
    kernel *= -c_lap
    for k, coeff in enumerate(slf):
        diagonal += 2.0 * coeff
        for at in _axis_offsets(grid.shape, k):
            kernel[at] -= coeff

    return NonlocalOperator(kind="laplacian", s=float(s), grid=grid, kernel=kernel[None],
                            diagonal=diagonal[None])


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _check_op(op: NonlocalOperator, kind: str, fld: Field | None = None):
    if op.kind != kind:
        raise ValueError(f"operator kind {op.kind!r} does not match required {kind!r}")
    if fld is not None and fld.grid is not op.grid and fld.grid.spec != op.grid.spec:
        raise ValueError("operator and field live on different grids")


def apply_gradient(op: NonlocalOperator, u: Field) -> np.ndarray:
    """grad_s u, an (N, m) array of the operator's m = d components."""
    _check_op(op, "gradient", u)
    return op._forward(u.values)


def apply_divergence(op: NonlocalOperator, phi: np.ndarray) -> Field:
    """div_s phi of an (N, m) array, the negative transpose of the gradient.

    By construction l2_inner(u, div_s phi) = -sum_i w_i <phi_i, grad_s u_i>
    holds for every pair (u, phi) on the grid, to roundoff.
    """
    _check_op(op, "gradient")
    return Field(grid=op.grid, values=-op._transpose(phi))


def apply_laplacian(op: NonlocalOperator, u: Field) -> Field:
    """(-Lap)^s u."""
    _check_op(op, "laplacian", u)
    return Field(grid=u.grid, values=op._forward(u.values)[:, 0])


def composition_matrix(grad_op: NonlocalOperator) -> np.ndarray:
    """Dense matrix of -div_s grad_s built from the gradient table.

    This is sum_c W_c^T W_c = W^T W with W the table viewed as (d N, N),
    symmetric positive semidefinite; it is the operator whose quadratic
    form the energy functional actually integrates. numpy runs W^T W (of
    a table gathered for this call) as one BLAS syrk, whose result is
    exactly symmetric. It is the dense test oracle and the matrix of the
    solvers' exact preconditioner; no apply uses it.
    """
    if grad_op.kind != "gradient":
        raise ValueError("composition_matrix needs a gradient operator")
    w = grad_op.to_dense().reshape(-1, grad_op.n_nodes)
    return w.T @ w


def composition_diagonal(grad_op: NonlocalOperator) -> np.ndarray:
    """The diagonal of composition_matrix in O(N), without a table: column j
    of W_c holds diagonal[c, j] and the kernel at the offsets j - i, so its
    squared norm is diagonal[c, j]^2 plus a column box sum of kernel[c]^2,
    the row sum (_row_sums) of the kernel reversed on every axis."""
    if grad_op.kind != "gradient":
        raise ValueError("composition_diagonal needs a gradient operator")
    flip = (slice(None, None, -1),) * grad_op.grid.dimension
    return (sum(_row_sums(k[flip] ** 2, grad_op.grid) for k in grad_op.kernel)
            + np.sum(grad_op.diagonal**2, axis=0))


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
    """The inverse of a nonsingular lower-triangular matrix, written over
    low and returned, by 2 x 2 block recursion: [[A, 0], [B, D]]^{-1} =
    [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]]. The two diagonal blocks are
    inverted in place first, then B is overwritten by -(D^{-1} B) A^{-1}
    through one half-block temporary, D^{-1} B negated in its own storage;
    numpy.linalg.inv takes blocks of at most _TRIL_INV_BLOCK rows. ~2 N^3 /
    3 flops in matrix-matrix products, against the ~2 N^3 of
    numpy.linalg.inv's LU inverse."""
    n = low.shape[0]
    if n <= _TRIL_INV_BLOCK:
        low[...] = np.linalg.inv(low)
        return low
    k = n // 2
    a_inv, d_inv = _tril_inv(low[:k, :k]), _tril_inv(low[k:, k:])
    t = d_inv @ low[k:, :k]
    np.matmul(np.negative(t, out=t), a_inv, out=low[k:, :k])
    return low


def cho_factor(a: np.ndarray) -> np.ndarray:
    """The inverse L^{-T} L^{-1} of a symmetric positive definite matrix
    a = L L^T, exactly symmetric, for cho_solve: a solve is then one
    matrix-vector product (1D 384 nodes, one BLAS thread: ~35 us against
    ~190 us for scipy's cho_solve). L^{-1} comes from a block recursion on
    the triangle (_tril_inv), in L's own storage, so the factor holds one
    N x N array beyond a and the result (and a is not modified): a factor
    of C + I takes ~7 ms at 384 nodes and ~16 ms at 512, against 16-22
    and 35 ms with numpy.linalg.inv of L.
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
    Laplacian, in O(N) memory (S by NonlocalOperator._dst: one rfft in 1D,
    sine matrices in 2D). values is (N,); raises NonFiniteError when it
    holds a non-finite entry."""
    y = op._dst(_check_finite(values).reshape(op.grid.shape))
    y /= op._symbol() + shift
    return op._dst(y).ravel()


def symbol_diagonal(op: NonlocalOperator, shift: float) -> np.ndarray:
    """The diagonal of S diag(sigma + shift) S, the matrix whose inverse
    symbol_solve applies, in O(N log N) and O(N) memory. S is a Kronecker
    product of per-axis DST-I matrices, so the diagonal is (sigma + shift)
    times Q_k = S_k o S_k on each axis, with (Q_k)_ij = (1 - cos(2 pi i j /
    (n_k + 1))) / (n_k + 1): a sum minus the real part of one FFT of length
    n_k + 1 per axis, the same for d = 1 and 2."""
    out = op._symbol() + shift
    for axis, n in enumerate(op.grid.shape):
        x = np.moveaxis(out, axis, -1)
        # sum_j x_j cos(2 pi i j / (n + 1)), j = 1..n: the FFT of (0, x)
        padded = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)
        cosines = np.fft.fft(padded, axis=-1).real[..., 1:]
        out = np.moveaxis((np.sum(x, axis=-1, keepdims=True) - cosines) / (n + 1), -1, axis)
    return out.ravel()


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
