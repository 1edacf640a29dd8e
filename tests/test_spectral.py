import warnings
from unittest.mock import patch

import numpy as np
import pytest

from fracvar import (DomainSpec, Field, assemble_laplacian, build_grid,
                     first_eigenpair, rayleigh_quotient)
from fracvar import fracops, spectral


@pytest.fixture(scope="module")
def lap_sym():
    grid = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(256,)))
    return assemble_laplacian(grid, 0.5)


@pytest.fixture(scope="module")
def lap_fft():
    """lap_sym's operator forced onto the FFT path."""
    grid = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(256,)))
    with patch.object(fracops, "_DENSE_MAX_NODES", 0):
        return assemble_laplacian(grid, 0.5)


@pytest.fixture(scope="module")
def pair_sym(lap_sym):
    return first_eigenpair(lap_sym)


def test_matches_dense_eigensolve(lap_sym, pair_sym):
    oracle = np.linalg.eigvalsh(lap_sym.table)[0]
    assert abs(pair_sym.value - oracle) <= 1e-8
    # cross-check of the oracle against published numerics for the
    # restricted fractional Laplacian on (-1,1) at order 1/2 (~1.157774)
    assert oracle == pytest.approx(1.157774, rel=0.02)


def test_residual_within_tolerance(pair_sym):
    assert pair_sym.residual <= 1e-10


def test_classical_dirichlet_limit():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(512,)))
    lap = assemble_laplacian(grid, 0.99)
    pair = first_eigenpair(lap)
    assert pair.value == pytest.approx(np.pi**2, rel=0.05)


def test_eigenfunction_normalized_nonnegative(pair_sym, lap_sym):
    grid = lap_sym.grid
    l2 = np.sqrt(grid.weight * np.dot(pair_sym.function.values, pair_sym.function.values))
    assert l2 == pytest.approx(1.0, rel=1e-12)
    assert np.min(pair_sym.function.values) >= 0.0


def test_rayleigh_of_eigenfunction(lap_sym, pair_sym):
    q = rayleigh_quotient(lap_sym, pair_sym.function)
    assert abs(q - pair_sym.value) <= 1e-10


def test_rayleigh_lower_bound_50_random(lap_sym, pair_sym, rng):
    for _ in range(50):
        u = Field(lap_sym.grid, rng.standard_normal(lap_sym.grid.n_nodes))
        assert rayleigh_quotient(lap_sym, u) >= pair_sym.value - 1e-8


def test_mixed_mode_between_first_two(lap_sym, pair_sym):
    evals, vecs = np.linalg.eigh(lap_sym.table)
    lam2 = evals[1]
    mixed = Field(lap_sym.grid, pair_sym.function.values + 0.1 * vecs[:, 1])
    q = rayleigh_quotient(lap_sym, mixed)
    assert pair_sym.value < q < lam2


def test_domain_monotonicity():
    lam = {}
    for length in (1.0, 2.0):
        grid = build_grid(DomainSpec(bounds=((0.0, length),), nodes=(128,)))
        lam[length] = first_eigenpair(assemble_laplacian(grid, 0.5)).value
    assert lam[1.0] > lam[2.0]


def test_rejects_zero_field(lap_sym):
    with pytest.raises(ValueError):
        rayleigh_quotient(lap_sym, Field(lap_sym.grid, np.zeros(lap_sym.grid.n_nodes)))


def test_rejects_wrong_kind(grad_128, eig_128):
    with pytest.raises(ValueError):
        first_eigenpair(grad_128)
    with pytest.raises(ValueError):
        rayleigh_quotient(grad_128, eig_128.function)


def test_iteration_cap_raises(lap_sym, lap_fft):
    for lap in (lap_sym, lap_fft):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may leak
            with pytest.raises(RuntimeError, match="did not reach"):
                first_eigenpair(lap, tol=1e-10, max_iter=1)


def test_non_finite_iterate_raises(lap_sym, lap_fft, monkeypatch):
    # a preconditioner apply that returns a non-finite vector must stop
    # LOBPCG at once, not run it to max_iter; both grids precondition by
    # the symbol solve
    for lap in (lap_sym, lap_fft):
        real = spectral.symbol_solve
        calls = []

        def first_solve_nan(*args, **kwargs):
            calls.append(1)
            out = real(*args, **kwargs)
            return np.full_like(out, np.nan) if len(calls) == 1 else out

        with monkeypatch.context() as m:
            m.setattr(spectral, "symbol_solve", first_solve_nan)
            with pytest.raises(ValueError, match="infs or NaNs"):
                first_eigenpair(lap, max_iter=50)
        assert len(calls) <= 2


@pytest.mark.parametrize("nodes", [(48,), (600,), (24, 24)])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_lobpcg_matches_dense_eigenvalue(nodes, s):
    # 48 nodes precondition by the exact inverse, the others by the symbol
    # solve on the FFT path
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),) * len(nodes), nodes=nodes))
    lap = assemble_laplacian(grid, s)
    pair = first_eigenpair(lap)
    assert pair.value == pytest.approx(np.linalg.eigvalsh(lap.to_dense())[0], rel=1e-10)


def test_stops_at_the_scaled_residual_near_s_1():
    # the residual's roundoff floor (~6.5e-10) lies between tol and
    # tol * lambda (lambda ~ 8.67): the relative test stops in a few
    # iterations where an absolute one iterated at the floor for hundreds
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(2048,)))
    pair = first_eigenpair(assemble_laplacian(grid, 0.95))
    assert pair.iterations <= 40
    assert pair.value == pytest.approx(8.6736, rel=1e-4)


@pytest.mark.parametrize("s,value", [(0.95, 8.6569), (0.99, 9.6679)])
def test_converges_at_the_roundoff_floor_on_4096_nodes(s, value):
    # the residual's roundoff floor, ~eps (pi / h)^{2s}, lies above
    # tol * lambda here: LOBPCG stops at a multiple of eps times the largest
    # symbol value instead of running to max_iter
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(4096,)))
    pair = first_eigenpair(assemble_laplacian(grid, s))
    assert pair.iterations <= 40
    assert pair.value == pytest.approx(value, rel=1e-4)
