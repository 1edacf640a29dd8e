import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from scipy.special import gamma as gamma_fn

from fracvar import (DomainSpec, Field, RegimeConfig, SolverOptions,
                     apply_divergence, apply_gradient, apply_laplacian, assemble_gradient, assemble_laplacian,
                     build_grid, composition_residual, field_from_function,
                     first_eigenpair, l2_inner, normalizing_constants, prepare)
from fracvar import experiments, fracops, solvers
from fracvar.fracops import (_directions, _ray_exit_distance, composition_diagonal,
                             composition_matrix, symbol_diagonal, symbol_solve)


def gaussian_bump(grid, sharp=40.0):
    center = np.array([0.5 * (a + b) for a, b in grid.spec.bounds])
    r2 = np.sum((grid.nodes - center) ** 2, axis=1)
    return Field(grid, np.exp(-sharp * r2))


class TestNormalizingConstants:
    def test_laplacian_constant_half(self):
        # gamma-function oracle: C_{d,s} = 4^s Gamma(d/2+s) / (pi^{d/2} |Gamma(-s)|)
        _, c = normalizing_constants(1, 0.5)
        oracle = 4**0.5 * gamma_fn(1.0) / (np.pi**0.5 * abs(gamma_fn(-0.5)))
        assert c == pytest.approx(oracle, rel=1e-13)
        assert c == pytest.approx(1.0 / np.pi, rel=1e-13)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d", [1, 2])
    def test_constants_positive_finite(self, d, s):
        mu, c = normalizing_constants(d, s)
        assert 0.0 < mu < np.inf
        assert 0.0 < c < np.inf

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            normalizing_constants(1, 1.0)
        with pytest.raises(ValueError):
            normalizing_constants(1, 0.0)

    def test_classical_limit_on_smooth_bump(self):
        # as s -> 1- the constant stays finite and the operator approaches -u''
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(512,)))
        beta = 40.0
        u = field_from_function(grid, lambda x: np.exp(-beta * (x - 0.5) ** 2))
        x = grid.nodes[:, 0]
        upp = (4 * beta**2 * (x - 0.5) ** 2 - 2 * beta) * np.exp(-beta * (x - 0.5) ** 2)
        mid = (x > 0.25) & (x < 0.75)
        errs = {}
        for s in (0.95, 0.99):
            assert np.isfinite(normalizing_constants(1, s)[1])
            lap = assemble_laplacian(grid, s).to_dense() @ u.values
            errs[s] = np.linalg.norm(lap[mid] + upp[mid]) / np.linalg.norm(upp[mid])
        assert errs[0.99] < 0.10
        assert errs[0.99] < errs[0.95]


class TestGradient:
    def test_zero_field(self, grid_1d_128, grad_128):
        z = Field(grid_1d_128, np.zeros(128))
        assert np.all(apply_gradient(grad_128, z) == 0.0)

    def test_linearity_exact(self, grid_1d_128, grad_128, rng):
        u1 = Field(grid_1d_128, rng.standard_normal(128))
        u2 = Field(grid_1d_128, rng.standard_normal(128))
        alpha = 1.7
        comb = Field(grid_1d_128, u1.values + alpha * u2.values)
        lhs = apply_gradient(grad_128, comb)
        rhs = apply_gradient(grad_128, u1) + alpha * apply_gradient(grad_128, u2)
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * np.max(np.abs(rhs)))

    def test_even_bump_center_cancellation(self):
        # odd-kernel weights cancel exactly at the symmetry node; what is
        # left is the documented even stabilization stencil
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(65,)))
        op = assemble_gradient(grid, 0.5)
        u = gaussian_bump(grid)
        c = 32  # center node of 65
        got = apply_gradient(op, u)[c, 0]
        delta = fracops.NYQUIST_STABILIZATION * (np.pi / grid.spacing[0]) ** 0.5
        even_part = delta * (2 * u.values[c] - u.values[c - 1] - u.values[c + 1])
        assert abs(got - even_part) <= 1e-10

    def test_fourier_multiplier_oracle(self):
        # independent spectral definition: symbol i xi |xi|^{s-1} on a large
        # periodic box, sampled on the middle half of the domain
        s, n, box, modes = 0.5, 256, 16.0, 2**14
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(n,)))
        bump = lambda x: np.exp(-40.0 * (x - 0.5) ** 2)
        u = field_from_function(grid, bump)
        gu = apply_gradient(assemble_gradient(grid, s), u)[:, 0]
        hh = box / modes
        xg = np.arange(modes) * hh
        vals = np.where((xg > 0) & (xg < 1), bump(xg), 0.0)
        xi = 2.0 * np.pi * np.fft.fftfreq(modes, d=hh)
        sym = 1j * xi * np.where(np.abs(xi) == 0, 1.0, np.abs(xi)) ** (s - 1.0)
        sym[0] = 0.0
        oracle = np.fft.ifft(sym * np.fft.fft(vals)).real
        idx = np.rint(grid.nodes[:, 0] / hh).astype(int)
        assert np.allclose(idx * hh, grid.nodes[:, 0], atol=1e-12)
        x = grid.nodes[:, 0]
        mid = (x > 0.25) & (x < 0.75)
        rel = np.linalg.norm(gu[mid] - oracle[idx][mid]) / np.linalg.norm(oracle[idx][mid])
        assert rel <= 0.03

    def test_kind_and_grid_mismatch(self, grid_1d_128, grad_128, lap_128):
        u = Field(grid_1d_128, np.ones(128))
        with pytest.raises(ValueError, match="kind"):
            apply_gradient(lap_128, u)
        other = build_grid(DomainSpec(bounds=((0.0, 2.0),), nodes=(128,)))
        with pytest.raises(ValueError, match="grid"):
            apply_gradient(grad_128, Field(other, np.ones(128)))


def _exit_distance_reference(nodes, bounds, dirs):
    """Per node and direction: the nearest wall the ray meets, scalar code."""
    out = np.empty((len(nodes), len(dirs)))
    for i, x in enumerate(nodes):
        for j, u in enumerate(dirs):
            t = np.inf
            for k, (a, b) in enumerate(bounds):
                if u[k] > 0:
                    t = min(t, (b - x[k]) / u[k])
                elif u[k] < 0:
                    t = min(t, (a - x[k]) / u[k])
            out[i, j] = t
    return out


@pytest.mark.parametrize("dimension", [1, 2])
def test_ray_exit_distance_matches_scalar_reference(dimension, rng):
    for _ in range(4):
        lo = rng.uniform(-2.0, 1.0, dimension)
        bounds = [(a, a + w) for a, w in zip(lo, rng.uniform(0.1, 3.0, dimension))]
        nodes = np.stack([rng.uniform(a, b, 7) for a, b in bounds], axis=1)
        dirs, _ = _directions(dimension, 64)
        if dimension == 2:
            # axis directions have a zero component, which meets no wall
            dirs = np.concatenate([dirs, [[1.0, 0.0], [0.0, -1.0]]])
        got = _ray_exit_distance(nodes, bounds, dirs)
        assert np.array_equal(got, _exit_distance_reference(nodes, bounds, dirs))
        assert np.all(np.isfinite(got)) and np.all(got > 0)


class TestDivergence:
    def test_zero(self, grid_1d_128, grad_128):
        phi = np.zeros((128, 1))
        assert np.all(apply_divergence(grad_128, phi).values == 0.0)

    def test_adjointness_20_pairs(self, grid_1d_128, grad_128, rng):
        for _ in range(20):
            u = Field(grid_1d_128, rng.standard_normal(128))
            phi = rng.standard_normal((128, 1))
            lhs = l2_inner(u, apply_divergence(grad_128, phi))
            rhs = -grid_1d_128.weight * np.sum(
                phi * apply_gradient(grad_128, u))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_adjointness_2d(self, grid_2d_16, grad_2d_16, rng):
        n = grid_2d_16.n_nodes
        for _ in range(5):
            u = Field(grid_2d_16, rng.standard_normal(n))
            phi = rng.standard_normal((n, 2))
            lhs = l2_inner(u, apply_divergence(grad_2d_16, phi))
            rhs = -grid_2d_16.weight * np.sum(
                phi * apply_gradient(grad_2d_16, u))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("nodes, columns", [((128,), 2), ((8, 8), 1), ((8, 8), 3)])
    def test_transpose_rejects_other_column_counts(self, nodes, columns, rng):
        # a gradient has as many columns as the operator has components
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        grad = assemble_gradient(grid, 0.5)
        phi = rng.standard_normal((grid.n_nodes, columns))
        with pytest.raises(ValueError, match="shape"):
            grad._transpose(phi)
        with pytest.raises(ValueError, match="shape"):
            apply_divergence(grad, phi)

    @pytest.mark.parametrize("nodes", [(128,), (16, 16), (12, 10)])
    def test_gradient_fields_are_component_major(self, nodes, rng):
        # the forward apply returns the (N, d) view of a C-ordered (d, N)
        # array, which the transposed apply reads without a copy; a
        # C-ordered copy of the same field gives the same bits
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        grad = assemble_gradient(grid, 0.5)
        phi = apply_gradient(grad, Field(grid, rng.standard_normal(grid.n_nodes)))
        assert phi.T.flags.c_contiguous
        copy = np.ascontiguousarray(phi)
        assert copy.flags.c_contiguous
        assert np.array_equal(apply_divergence(grad, phi).values,
                              apply_divergence(grad, copy).values)


class TestLaplacian:
    def test_zero(self, grid_1d_128, lap_128):
        z = Field(grid_1d_128, np.zeros(128))
        assert np.all(apply_laplacian(lap_128, z).values == 0.0)

    def test_symmetric_positive_definite_n64(self):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        a = assemble_laplacian(grid, 0.5).to_dense()
        assert np.max(np.abs(a - a.T)) <= 1e-12
        evals = np.linalg.eigvalsh(a)  # dense symmetric eigensolve oracle
        assert evals[0] > 0.0

    def test_rayleigh_lower_bound(self, rng):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        a = assemble_laplacian(grid, 0.5).to_dense()
        evals, vecs = np.linalg.eigh(a)
        lam, phi = evals[0], vecs[:, 0]
        w = grid.weight
        for _ in range(10):
            u = rng.standard_normal(64)
            quad = w * np.dot(u, a @ u)
            assert quad >= lam * w * np.dot(u, u) - 1e-10
        quad_phi = w * np.dot(phi, a @ phi)
        assert quad_phi == pytest.approx(lam * w * np.dot(phi, phi), rel=1e-12)


class TestComposition:
    def test_zero(self, grad_128, lap_128, grid_1d_128):
        z = Field(grid_1d_128, np.zeros(128))
        assert composition_residual(grad_128, lap_128, z) == 0.0

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_residual_small_and_decreasing(self, s):
        residuals = []
        for n in (64, 128, 256):
            grid = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(n,)))
            u = field_from_function(grid, lambda x: np.exp(-640.0 * x**2))
            grad_op = assemble_gradient(grid, s)
            lap_op = assemble_laplacian(grid, s)
            residuals.append(composition_residual(grad_op, lap_op, u))
        assert residuals[-1] <= 0.05
        assert residuals[0] > residuals[1] > residuals[2]

    def test_order_mismatch_rejected(self, grid_1d_128, grad_128):
        lap_other = assemble_laplacian(grid_1d_128, 0.3)
        u = Field(grid_1d_128, np.ones(128))
        with pytest.raises(ValueError, match="orders"):
            composition_residual(grad_128, lap_other, u)

    def test_composition_matrix_symmetric_psd(self, comp_matrix_128):
        m = comp_matrix_128
        assert np.max(np.abs(m - m.T)) <= 1e-10
        assert np.linalg.eigvalsh(m)[0] > 0.0


class TestHeldInverse:
    """fracops.cho_factor / cho_solve, numpy's Cholesky held as the inverse,
    against scipy's Cholesky pair."""

    @pytest.mark.parametrize("nodes", [(128,), (12, 12)])
    def test_matches_scipy_cho_solve(self, nodes, rng):
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        a = composition_matrix(assemble_gradient(grid, 0.5)) + np.eye(grid.n_nodes)
        factor = fracops.cho_factor(a)
        assert np.array_equal(factor, factor.T)
        b = rng.standard_normal((grid.n_nodes, 3))
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
        for rhs, ref in ((b, want), (b[:, 0], want[:, 0])):
            got = fracops.cho_solve(factor, rhs)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("nodes", [(64,), (8, 8)])
    def test_solves_reject_non_finite_right_hand_sides(self, nodes, bad):
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        grad = assemble_gradient(grid, 0.5)
        factor = fracops.cho_factor(composition_matrix(grad) + np.eye(grid.n_nodes))
        rhs = np.ones(grid.n_nodes)
        rhs[3] = bad
        with pytest.raises(fracops.NonFiniteError):
            symbol_solve(grad, rhs, 1.0)
        with pytest.raises(fracops.NonFiniteError):
            fracops.cho_solve(factor, rhs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fracops.cho_factor(a)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(np.linalg.LinAlgError):
            fracops.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 384, 513])
    def test_block_inverse_matches_the_dense_inverse(self, n, rng):
        # sizes on both sides of the recursion's dense block and odd splits
        b = rng.standard_normal((n, n))
        a = b @ b.T / n + np.eye(n)
        held = a.copy()
        factor = fracops.cho_factor(a)
        assert np.array_equal(a, held)  # the inverse is built in the factor's storage, not a's
        want = np.linalg.inv(a)
        assert np.linalg.norm(factor - want) <= 1e-13 * np.linalg.norm(want)
        assert np.array_equal(factor, factor.T)
        a[n // 2, n // 2] = np.nan
        with pytest.raises(fracops.NonFiniteError):
            fracops.cho_factor(a)
        a[n // 2, n // 2] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            fracops.cho_factor(a)


class TestNumpyTransforms:
    """The numpy kernels behind the FFT path, against scipy.fft, and the
    Gauss-Legendre rule of 2D assembly, against numpy.polynomial."""

    def test_gauss_legendre_matches_leggauss(self):
        from numpy.polynomial.legendre import leggauss
        pts, wts = fracops._gauss_legendre(8)
        want_pts, want_wts = leggauss(8)
        assert np.max(np.abs(pts - want_pts)) <= 1e-15
        assert np.max(np.abs(wts - want_wts)) <= 1e-15
        for degree in range(16):
            exact = (1.0 + (-1.0) ** degree) / (degree + 1)
            assert wts @ pts**degree == pytest.approx(exact, abs=1e-14), degree
        assert wts @ pts**16 != pytest.approx(2.0 / 17, abs=1e-6)  # 8 points: exact to degree 15

    @pytest.mark.parametrize("shape", [(1,), (2,), (47,), (48,), (768,), (13, 9), (48, 48)])
    def test_dst1_matches_scipy(self, shape, rng):
        values = rng.standard_normal((*shape, 3))
        axes = tuple(range(len(shape)))
        want = scipy.fft.dstn(values, type=1, norm="ortho", axes=axes)
        got = values
        for axis in axes:
            got = fracops._dst1(got, axis)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("nodes", [(13, 9), (12, 16), (48, 48)])
    def test_2d_symbol_solve_matches_scipy(self, nodes, rng):
        # by the per-axis sine matrices; n_k + 1 = 13 and 17 are prime
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 1.5)), nodes=nodes))
        op = assemble_laplacian(grid, 0.4)
        values = rng.standard_normal(nodes)
        want = scipy.fft.dstn(scipy.fft.dstn(values, type=1, norm="ortho") / (op._symbol() + 0.5),
                              type=1, norm="ortho").ravel()
        got = symbol_solve(op, values.ravel(), 0.5)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_next_fast_len_matches_scipy(self):
        for n in range(1, 10_001):
            assert fracops.next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


def _array_sizes(obj):
    """Entry counts of every array an operator holds, cached parts included."""
    if isinstance(obj, np.ndarray):
        return [obj.size]
    if isinstance(obj, (tuple, list)):
        return [n for item in obj for n in _array_sizes(item)]
    if isinstance(obj, dict):
        return _array_sizes(list(obj.values()))
    return []


class TestMatrixFree:
    """Operators apply by FFT at every size and hold no table."""

    @pytest.mark.parametrize("nodes", [(600,), (24, 24), (64,), (384,), (8, 8)])
    def test_holds_only_o_n_arrays(self, nodes, rng):
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        n, d = grid.n_nodes, grid.dimension
        grad, lap = assemble_gradient(grid, 0.5), assemble_laplacian(grid, 0.5)
        u = Field(grid, rng.standard_normal(n))
        apply_gradient(grad, u)
        apply_divergence(grad, rng.standard_normal((n, d)))
        apply_laplacian(lap, u)
        first_eigenpair(lap)
        for op in (grad, lap):
            sizes = _array_sizes(vars(op))
            assert sizes and max(sizes) <= 16 * n

    def test_composition_matrix_is_the_sum_of_gathered_products(self):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 2.0)), nodes=(13, 9)))
        op = assemble_gradient(grid, 0.4)
        w = op.to_dense()
        want = w[0].T @ w[0] + w[1].T @ w[1]
        got = composition_matrix(op)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("nodes,bounds", [((600,), ((0.0, 1.0),)),
                                              ((24, 24), ((0.0, 1.0), (0.0, 1.0))),
                                              ((13, 9), ((0.0, 1.0), (0.0, 2.0)))])
    def test_symbol_carries_the_trace_and_inverts_on_sine_modes(self, nodes, bounds):
        grid = build_grid(DomainSpec(bounds=bounds, nodes=nodes))
        grad, lap = assemble_gradient(grid, 0.4), assemble_laplacian(grid, 0.4)
        assert np.sum(grad._symbol()) == pytest.approx(np.sum(grad.to_dense() ** 2), rel=1e-14)
        assert np.sum(lap._symbol()) == pytest.approx(np.trace(lap.to_dense()), rel=1e-14)
        # the DST-I mode j = (2, 3, ...) is an eigenvector of the solve
        j = tuple(range(2, 2 + grid.dimension))
        mode = np.ones(grid.shape)
        for k, (jk, n) in enumerate(zip(j, grid.shape)):
            shape = [1] * grid.dimension
            shape[k] = n
            mode = mode * np.sin(np.pi * jk * np.arange(1, n + 1) / (n + 1)).reshape(shape)
        v = mode.ravel()
        want = v / (grad._symbol()[tuple(jk - 1 for jk in j)] + 1.0)
        assert np.max(np.abs(symbol_solve(grad, v, 1.0) - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("nodes", [(97,), (128,), (12, 10)])
    def test_diagonals_match_the_dense_matrices(self, nodes, s):
        # diag(C) from the kernel and the diagonal, and the diagonal of the
        # symbol solve's matrix S diag(sigma + 1) S by per-axis FFTs, against
        # composition_matrix and a dense S from scipy's DST-I
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        grad = assemble_gradient(grid, s)
        want = np.diag(composition_matrix(grad))
        assert np.max(np.abs(composition_diagonal(grad) - want)) <= 1e-13 * np.max(want)
        n, axes = grid.n_nodes, tuple(range(1, len(nodes) + 1))
        dst = scipy.fft.dstn(np.eye(n).reshape(n, *nodes), type=1, norm="ortho",
                             axes=axes).reshape(n, n)
        want = np.diag(dst @ ((grad._symbol().ravel() + 1.0)[:, None] * dst))
        assert np.max(np.abs(symbol_diagonal(grad, 1.0) - want)) <= 1e-13 * np.max(want)

    def test_gather_allocates_no_row_blocks(self):
        # the table is one strided copy of the kernel's sliding windows, so
        # the gather needs no temporary block of rows (16 MB at this size)
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(48, 48)))
        op = assemble_gradient(grid, 0.5)
        tracemalloc.start()
        try:
            table = op.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 1e6

    @pytest.mark.parametrize("n", [96, 128])
    def test_assembly_allocates_o_n(self, n):
        # the exterior and the row sums are O(N + N_THETA): an N x N_THETA or
        # N x N temporary would exceed the bound many times over
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(n, n)))
        tracemalloc.start()
        try:
            assemble_gradient(grid, 0.5)
            assemble_laplacian(grid, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * grid.n_nodes * 8

    def test_2d_solve_on_both_sides_of_the_crossover(self, monkeypatch):
        # the same 16 x 16 problem preconditioned by the dense (C + I)^{-1}
        # and, with the preconditioner crossover patched to 0, by the symbol
        # solve: the same local minimizer
        spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(16, 16))
        cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                           reaction=("saturating", {"nu": 450.0}),
                           forcing={"kind": "zero"}, solver=SolverOptions(tol_g=1e-4))
        reports = []
        for limit, used, unused in ((solvers._DENSE_MAX_NODES, "preconditioner", "symbol"),
                                    (0, "symbol", "preconditioner")):
            monkeypatch.setattr(solvers, "_DENSE_MAX_NODES", limit)
            prep = prepare(cfg)
            reports.append(experiments._solve_once(prep, experiments._reaction_with(cfg),
                                                   experiments.build_forcing(prep)))
            assert used in prep.grad_op._derived and unused not in prep.grad_op._derived
        dense, symbol = reports
        assert dense.classification == symbol.classification == "local-min"
        assert symbol.energy == pytest.approx(dense.energy, rel=1e-12)

    def test_2d_newton_cg_above_the_crossover(self, monkeypatch):
        # the problem above on 24 x 24 = 576 nodes, above the crossover: the
        # diagonal-scaled symbol solve and the Eisenstat-Walker forcing take
        # at most 10 iterations and 65 Hessian products (8 and 56; the plain
        # symbol solve with the forcing min(0.5, sqrt|r_0|) took 23 and 92),
        # and reach the dense-preconditioned minimizer
        spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(24, 24))
        cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                           reaction=("saturating", {"nu": 450.0}),
                           forcing={"kind": "zero"}, solver=SolverOptions(tol_g=1e-4))
        reports = []
        for limit in (solvers._DENSE_MAX_NODES, spec.nodes[0] * spec.nodes[1]):
            monkeypatch.setattr(solvers, "_DENSE_MAX_NODES", limit)
            prep = prepare(cfg)
            reports.append(experiments._solve_once(prep, experiments._reaction_with(cfg),
                                                   experiments.build_forcing(prep)))
        symbol, dense = reports
        assert symbol.classification == dense.classification == "local-min"
        assert symbol.iterations <= 10
        assert symbol.diagnostics["counts"]["hessian_products"] <= 65
        assert symbol.energy == pytest.approx(dense.energy, rel=1e-12)

    def test_2d_newton_cg_stops_at_the_solve_tolerance(self, monkeypatch):
        # the same 24 x 24 problem: each CG stops at half the KKT tolerance
        # at the latest, so the last Newton step does not solve its system
        # far below the residual the solve stops at (45 Hessian products;
        # 56 when the last CG ran to its forcing alone), and the minimizer
        # is the dense-preconditioned one
        spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(24, 24))
        cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                           reaction=("saturating", {"nu": 450.0}),
                           forcing={"kind": "zero"}, solver=SolverOptions(tol_g=1e-4))
        reports = []
        for limit in (solvers._DENSE_MAX_NODES, spec.nodes[0] * spec.nodes[1]):
            monkeypatch.setattr(solvers, "_DENSE_MAX_NODES", limit)
            prep = prepare(cfg)
            reports.append(experiments._solve_once(prep, experiments._reaction_with(cfg),
                                                   experiments.build_forcing(prep)))
        symbol, dense = reports
        assert symbol.classification == dense.classification == "local-min"
        assert symbol.diagnostics["counts"]["hessian_products"] <= 50
        assert symbol.kkt_residual <= cfg.solver.tol_g
        assert symbol.energy == pytest.approx(dense.energy, rel=1e-12)

    def test_2d_solve_above_the_crossover_makes_no_n_by_n_matrix(self):
        # 1,600 nodes precondition by the symbol solve, here on a forced
        # solve. Each stage must stay below one eighth of a dense N x N
        # float64 matrix.
        spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(40, 40))
        cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                           reaction=("saturating", {"nu": 50.0}),
                           forcing={"kind": "eigenfunction", "scale": 0.01},
                           solver=SolverOptions(tol_g=1e-4))
        prep = prepare(cfg)
        n = prep.grid.n_nodes
        bound = n * n * 8 / 8
        h = experiments.build_forcing(prep)
        lap_op = assemble_laplacian(prep.grid, cfg.s)
        tracemalloc.start()
        try:
            first_eigenpair(lap_op)
            eig_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rep = experiments._solve_once(prep, experiments._reaction_with(cfg), h)
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eig_peak < bound
        assert solve_peak < bound
        assert rep.classification == "local-min"
        assert "preconditioner" not in prep.grad_op._derived
        # nothing dense was cached with the operator: every cached array
        # (the FFT spectrum, the symbol, the per-axis sine matrices) holds
        # O(N) entries
        sizes = _array_sizes(prep.grad_op._derived)
        assert sizes and max(sizes) <= 16 * n
