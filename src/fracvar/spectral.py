"""First Dirichlet eigenpair of the assembled fractional Laplacian.

The smallest eigenvalue lambda1 and its eigenfunction phi1 drive most of
the quantitative hypotheses: the slope thresholds gamma * lambda1 and the
ray direction of the mountain-pass geometry.
Only the bottom of the spectrum is needed. While the operator holds its
table the solver is a plain inverse power iteration on the inverse of that
table (fracops.cho_factor), made from the held table and dropped on return.
Above the operator crossover it is LOBPCG (Knyazev 2001) preconditioned by
the operator's DST-I symbol solve (fracops.symbol_solve), so no N x N
matrix is made. Products with the table go through fracops.apply_laplacian
either way, and both paths end with the same residual test. A dense
symmetric eigensolve serves as the test oracle, not as the implementation.

The assembled table is an M-matrix (positive diagonal, nonpositive
off-diagonal, strict diagonal dominance), so its inverse is entrywise
nonnegative and the discrete ground state inherits the Perron property;
the iteration asserts nonnegativity rather than assuming it.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .fracops import (NonlocalOperator, _check_finite, apply_laplacian, cho_factor, cho_solve,
                      symbol_solve)
from .grid import Field

__all__ = ["EigenPair", "first_eigenpair", "rayleigh_quotient", "eigenpair_to_csv"]


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue, its L2-normalized nonnegative eigenfunction,
    the residual ||A phi - lambda phi||_{L2}, and the iteration count."""

    value: float
    function: Field
    residual: float
    iterations: int


def _l2(grid, v: np.ndarray) -> float:
    return float(np.sqrt(grid.weight * np.dot(v, v)))


def _inverse_iteration(lap_op: NonlocalOperator, tol: float, max_iter: int):
    """Inverse power iteration on the inverse of the held table (checked for
    finite values once, when it is made): the L2-normalized iterate and the
    iteration count. Each iterate is checked before its solve, so a
    non-finite one raises instead of running to max_iter."""
    grid = lap_op.grid
    factor = cho_factor(lap_op.component(0))
    x = np.ones(grid.n_nodes)
    x /= _l2(grid, x)
    for it in range(1, max_iter + 1):
        x = cho_solve(factor, _check_finite(x))
        x /= _l2(grid, x)
        ax = apply_laplacian(lap_op, Field(grid, x)).values
        lam = grid.weight * np.dot(x, ax)
        res = _l2(grid, ax - lam * x)
        if res <= tol * max(1.0, abs(lam)):
            return x, it
    raise RuntimeError(
        f"inverse power iteration did not reach residual {tol} in {max_iter} steps"
    )


def _lobpcg(lap_op: NonlocalOperator, tol: float, max_iter: int):
    """LOBPCG from the constant vector, preconditioned by the symbol solve
    with shift 0: the L2-normalized iterate and the iteration count.
    lobpcg's residual is the Euclidean one of a unit vector, which equals
    the L2 residual of the L2-normalized iterate, so it stops at tol, at or
    below the bound tol * max(1, lambda) checked here."""
    # imported here: scipy.sparse.linalg adds ~4 MB and ~0.05 s to every
    # command's start, and only runs above the crossover
    from scipy.sparse.linalg import lobpcg

    grid = lap_op.grid
    iterations = 0

    def apply(block):
        return _check_finite(np.stack([apply_laplacian(lap_op, Field(grid, col)).values
                                 for col in block.T], axis=1))

    def precondition(block):
        nonlocal iterations
        iterations += 1  # one preconditioned residual per iteration
        return _check_finite(symbol_solve(lap_op, block, 0.0))

    with warnings.catch_warnings():
        # non-convergence is reported by the residual test below
        warnings.simplefilter("ignore", UserWarning)
        _, vecs = lobpcg(apply, np.ones((grid.n_nodes, 1)), M=precondition, tol=tol,
                         maxiter=max_iter, largest=False)
    x = _check_finite(vecs[:, 0]) / _l2(grid, vecs[:, 0])
    ax = apply_laplacian(lap_op, Field(grid, x)).values
    lam = grid.weight * np.dot(x, ax)
    if _l2(grid, ax - lam * x) > tol * max(1.0, abs(lam)):
        raise RuntimeError(f"LOBPCG did not reach residual {tol} in {max_iter} steps")
    return x, iterations


def first_eigenpair(lap_op: NonlocalOperator, tol: float = 1e-10,
                    max_iter: int = 10_000) -> EigenPair:
    """Ground state of the Laplacian table: inverse power iteration on a
    held table, LOBPCG above the operator crossover.

    Terminates when the eigen-residual drops below tol * max(1, lambda)
    (the roundoff floor of the residual scales with the table norm, which
    grows like the Nyquist symbol as s -> 1), and raises RuntimeError when
    max_iter iterations do not get there; the eigenvector is sign-fixed to
    nonnegative mean, checked nodewise against the Perron property
    (failure raises: it means the quadrature broke the M-matrix
    structure), clamped, and renormalized to unit L2 norm.
    """
    if lap_op.kind != "laplacian":
        raise ValueError("first_eigenpair needs a laplacian operator")
    grid = lap_op.grid
    solve = _lobpcg if lap_op.matrix_free else _inverse_iteration
    x, it = solve(lap_op, tol, max_iter)

    if np.mean(x) < 0:
        x = -x
    floor = float(np.min(x))
    if floor < -1e-12:
        raise ArithmeticError(
            f"ground state lost nonnegativity (min {floor:.3e}); the assembled "
            "table violates the expected M-matrix structure"
        )
    x = np.maximum(x, 0.0)
    x /= _l2(grid, x)
    ax = apply_laplacian(lap_op, Field(grid, x)).values
    lam = float(grid.weight * np.dot(x, ax))
    res = _l2(grid, ax - lam * x)
    return EigenPair(value=lam, function=Field(grid, x), residual=float(res), iterations=it)


def rayleigh_quotient(lap_op: NonlocalOperator, u: Field) -> float:
    """<u, A u> / <u, u> in the discrete L2 pairing; bounded below by lambda1."""
    if lap_op.kind != "laplacian":
        raise ValueError("rayleigh_quotient needs a laplacian operator")
    nrm2 = np.dot(u.values, u.values)
    if nrm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero field is undefined")
    return float(np.dot(u.values, apply_laplacian(lap_op, u).values) / nrm2)


def eigenpair_to_csv(pair: EigenPair, path) -> None:
    """Write (node coordinates, eigenfunction value) rows for plotting."""
    grid = pair.function.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x"] if grid.dimension == 1 else ["x", "y"]
        writer.writerow(header + ["phi1"])
        for node, val in zip(grid.nodes, pair.function.values):
            writer.writerow([repr(float(c)) for c in node] + [repr(float(val))])
