import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from scipy.special import gamma as gamma_fn

from fracvar import (DomainSpec, Field, RegimeConfig, SolverOptions,
                     VectorField, apply_divergence, apply_gradient, apply_laplacian, assemble_gradient, assemble_laplacian,
                     build_grid, composition_residual, field_from_function,
                     first_eigenpair, l2_inner, normalizing_constants, prepare)
from fracvar import EnergyModel, experiments, fracops, minimize_cone, solvers
from fracvar.fracops import _directions, _ray_exit_distance, composition_matrix, symbol_solve


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
            lap = assemble_laplacian(grid, s).table @ u.values
            errs[s] = np.linalg.norm(lap[mid] + upp[mid]) / np.linalg.norm(upp[mid])
        assert errs[0.99] < 0.10
        assert errs[0.99] < errs[0.95]


class TestGradient:
    def test_zero_field(self, grid_1d_128, grad_128):
        z = Field(grid_1d_128, np.zeros(128))
        assert np.all(apply_gradient(grad_128, z).values == 0.0)

    def test_linearity_exact(self, grid_1d_128, grad_128, rng):
        u1 = Field(grid_1d_128, rng.standard_normal(128))
        u2 = Field(grid_1d_128, rng.standard_normal(128))
        alpha = 1.7
        comb = Field(grid_1d_128, u1.values + alpha * u2.values)
        lhs = apply_gradient(grad_128, comb).values
        rhs = apply_gradient(grad_128, u1).values + alpha * apply_gradient(grad_128, u2).values
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * np.max(np.abs(rhs)))

    def test_even_bump_center_cancellation(self):
        # odd-kernel weights cancel exactly at the symmetry node; what is
        # left is the documented even stabilization stencil
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(65,)))
        op = assemble_gradient(grid, 0.5)
        u = gaussian_bump(grid)
        c = 32  # center node of 65
        got = apply_gradient(op, u).values[c, 0]
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
        gu = apply_gradient(assemble_gradient(grid, s), u).values[:, 0]
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
        phi = VectorField(grid_1d_128, np.zeros((128, 1)))
        assert np.all(apply_divergence(grad_128, phi).values == 0.0)

    def test_adjointness_20_pairs(self, grid_1d_128, grad_128, rng):
        for _ in range(20):
            u = Field(grid_1d_128, rng.standard_normal(128))
            phi = VectorField(grid_1d_128, rng.standard_normal((128, 1)))
            lhs = l2_inner(u, apply_divergence(grad_128, phi))
            rhs = -grid_1d_128.weight * np.sum(
                phi.values * apply_gradient(grad_128, u).values)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_adjointness_2d(self, grid_2d_16, grad_2d_16, rng):
        n = grid_2d_16.n_nodes
        for _ in range(5):
            u = Field(grid_2d_16, rng.standard_normal(n))
            phi = VectorField(grid_2d_16, rng.standard_normal((n, 2)))
            lhs = l2_inner(u, apply_divergence(grad_2d_16, phi))
            rhs = -grid_2d_16.weight * np.sum(
                phi.values * apply_gradient(grad_2d_16, u).values)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestLaplacian:
    def test_zero(self, grid_1d_128, lap_128):
        z = Field(grid_1d_128, np.zeros(128))
        assert np.all(apply_laplacian(lap_128, z).values == 0.0)

    def test_symmetric_positive_definite_n64(self):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        a = assemble_laplacian(grid, 0.5).table
        assert np.max(np.abs(a - a.T)) <= 1e-12
        evals = np.linalg.eigvalsh(a)  # dense symmetric eigensolve oracle
        assert evals[0] > 0.0

    def test_rayleigh_lower_bound(self, rng):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        a = assemble_laplacian(grid, 0.5).table
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
        factor = fracops.cho_factor(a)
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
    """The numpy kernels behind the FFT path, against scipy.fft."""

    @pytest.mark.parametrize("shape", [(1,), (2,), (47,), (48,), (768,), (13, 9), (48, 48)])
    def test_dst1_matches_scipy(self, shape, rng):
        values = rng.standard_normal((*shape, 3))
        axes = tuple(range(len(shape)))
        want = scipy.fft.dstn(values, type=1, norm="ortho", axes=axes)
        got = values
        for axis in axes:
            got = fracops._dst1(got, axis)
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
    """Operators above the crossover apply by FFT and hold no table."""

    @pytest.fixture()
    def fft_only(self, monkeypatch):
        monkeypatch.setattr(fracops, "_DENSE_MAX_NODES", 0)

    @pytest.mark.parametrize("nodes", [(600,), (24, 24)])
    def test_holds_only_o_n_arrays(self, fft_only, nodes, rng):
        grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
        n, d = grid.n_nodes, grid.dimension
        grad, lap = assemble_gradient(grid, 0.5), assemble_laplacian(grid, 0.5)
        u = Field(grid, rng.standard_normal(n))
        apply_gradient(grad, u)
        apply_divergence(grad, VectorField(grid, rng.standard_normal((n, d))))
        apply_laplacian(lap, u)
        first_eigenpair(lap)
        for op in (grad, lap):
            assert op.matrix_free
            sizes = _array_sizes(vars(op))
            assert sizes and max(sizes) <= 16 * n
            assert op.table is not op.table  # gathered anew, never kept

    def test_composition_matrix_is_the_sum_of_gathered_products(self, fft_only):
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
    def test_symbol_carries_the_trace_and_inverts_on_sine_modes(self, fft_only, nodes, bounds):
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
        spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(16, 16))
        coeff = ("power", {"A": 1.0, "B": 2.0, "p": 1.5})
        preps = []
        for limit in (fracops._DENSE_MAX_NODES, 0):
            monkeypatch.setattr(fracops, "_DENSE_MAX_NODES", limit)
            cfg = RegimeConfig(domain=spec, coefficient=coeff,
                               reaction=("saturating", {"nu": 450.0}),
                               forcing={"kind": "zero"}, solver=SolverOptions(tol_g=1e-4))
            prep = prepare(cfg)
            assert prep.grad_op.matrix_free == (limit == 0)
            preps.append(prep)
        dense_prep, fft_prep = preps
        reaction = experiments._reaction_with(cfg)
        dense = experiments._solve_once(dense_prep, reaction, experiments.build_forcing(dense_prep))
        # the FFT applies with the dense factor as preconditioner, from the
        # dense start: the same Newton-CG run as on the held tables
        model = EnergyModel(grad_op=fft_prep.grad_op, coeff=fft_prep.coefficient,
                            reaction=reaction, forcing=experiments.build_forcing(fft_prep))
        u0 = experiments.default_initial_guess(dense_prep, experiments.build_forcing(dense_prep))
        held = solvers._preconditioner(dense_prep.grad_op)
        with monkeypatch.context() as m:
            m.setattr(solvers, "_preconditioner", lambda op: held)
            fft = minimize_cone(model, cfg.solver, Field(fft_prep.grid, u0.values))
        # the matrix-free solve: LOBPCG eigenpair, symbol-preconditioned CG
        symbol = experiments._solve_once(fft_prep, reaction, experiments.build_forcing(fft_prep))
        assert fft_prep.lambda1 == pytest.approx(dense_prep.lambda1, rel=1e-12)
        assert dense.classification == fft.classification == symbol.classification == "local-min"
        assert fft.iterations == dense.iterations
        assert fft.energy == pytest.approx(dense.energy, rel=1e-12)
        assert symbol.energy == pytest.approx(dense.energy, rel=1e-12)

    def test_2d_solve_above_the_crossover_makes_no_n_by_n_matrix(self):
        # 1,600 nodes apply by FFT unpatched; the eigenfunction forcing makes
        # the initial guess a linear solve. Each stage must stay below one
        # eighth of a dense N x N float64 matrix.
        spec = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(40, 40))
        cfg = RegimeConfig(domain=spec, coefficient=("power", {"A": 1.0, "B": 2.0, "p": 1.5}),
                           reaction=("saturating", {"nu": 50.0}),
                           forcing={"kind": "eigenfunction", "scale": 0.01},
                           solver=SolverOptions(tol_g=1e-4))
        prep = prepare(cfg)
        n = prep.grid.n_nodes
        assert prep.grad_op.matrix_free and prep.lap_op.matrix_free
        bound = n * n * 8 / 8
        h = experiments.build_forcing(prep)
        tracemalloc.start()
        try:
            first_eigenpair(prep.lap_op)
            eig_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rep = experiments._solve_once(prep, experiments._reaction_with(cfg), h)
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eig_peak < bound
        assert solve_peak < bound
        assert rep.classification == "local-min"
        # nothing dense was cached with the operator: only the FFT spectrum
        # and the symbol
        assert set(prep.grad_op._derived) == {"fft", "symbol"}
