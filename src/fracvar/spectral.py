"""First Dirichlet eigenpair of the assembled fractional Laplacian.

The smallest eigenvalue lambda1 and its eigenfunction phi1 drive most of
the quantitative hypotheses: the slope thresholds gamma * lambda1 and the
ray direction of the mountain-pass geometry.
Only the bottom of the spectrum is needed, so every grid takes one path:
single-vector LOBPCG (Knyazev 2001) on the operator's applies
(fracops.apply_laplacian, a pruned FFT convolution),
preconditioned by the operator's DST-I symbol solve (fracops.symbol_solve).
No N x N matrix is made, except on the smallest tables, where the exact
inverse (fracops.cho_factor) is cheaper than the extra iterations. A dense
symmetric eigensolve serves as the test oracle, not as the implementation.

The assembled table is an M-matrix (positive diagonal, nonpositive
off-diagonal, strict diagonal dominance), so its inverse is entrywise
nonnegative and the discrete ground state inherits the Perron property;
first_eigenpair asserts nonnegativity rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench's traced runs wrap cho_factor and cho_solve by these module names
from .fracops import (NonlocalOperator, _check_finite, apply_laplacian, cho_factor, cho_solve,
                      symbol_solve)
from .grid import Field

# Tables of up to this many nodes precondition by their exact inverse, larger
# grids by the symbol solve. Ground state, inverse and LOBPCG against symbol
# LOBPCG, ms at s = 0.3 / 0.5 / 0.7, one BLAS thread, 2-core VM: 1D 64 nodes
# 1.1/1.0/1.0 against 2.9/1.8/2.0, 128 nodes 2.9/2.3/2.9 against
# 2.8/2.3/2.8, 384 nodes 24 against 7 (s = 0.5); 2D 8x8 0.8/0.8/0.9 against
# 1.4/1.2/1.2, 12x12 2.4/2.0/3.4 against 1.8/1.9/2.5.
_EXACT_MAX_NODES = 64

# the residual's roundoff floor, in units of eps times the largest symbol value
_ROUNDOFF_FLOOR = 4.0

__all__ = ["EigenPair", "first_eigenpair", "rayleigh_quotient"]


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


def _lobpcg(lap_op: NonlocalOperator, precondition, tol: float, max_iter: int):
    """Single-vector LOBPCG (Knyazev 2001) from the constant vector: the
    unit iterate and the iteration count. Each iteration is a Rayleigh-Ritz
    step on the orthonormalized span of the iterate x, the preconditioned
    residual and the previous step p. A x is applied afresh each iteration
    (carried by recurrence it drifts and stalls the residual), and the
    Euclidean residual of the unit x is the L2 residual of the
    L2-normalized one, so the stopping test is first_eigenpair's."""
    grid = lap_op.grid
    floor = _ROUNDOFF_FLOOR * np.finfo(float).eps * float(np.max(lap_op._symbol()))

    def apply(v):
        return _check_finite(apply_laplacian(lap_op, Field(grid, v)).values)

    x, p = np.full(grid.n_nodes, grid.n_nodes**-0.5), None
    for it in range(max_iter + 1):
        ax = apply(x)
        lam = np.dot(x, ax)
        r = ax - lam * x
        if np.linalg.norm(r) <= max(tol * max(1.0, abs(lam)), floor):
            return x, it
        if it == max_iter:
            break
        basis = [x, _check_finite(precondition(r))] + ([] if p is None else [p])
        q, rq = np.linalg.qr(np.column_stack(basis))
        # the first column of q is +-x, so its product is ax / rq[0, 0]
        aq = np.column_stack([ax / rq[0, 0]] + [apply(col) for col in q.T[1:]])
        h = q.T @ aq
        c = np.linalg.eigh(h + h.T)[1][:, 0]
        x, p = q @ c, q[:, 1:] @ c[1:]
        x /= np.linalg.norm(x)
    raise RuntimeError(f"LOBPCG did not reach residual {tol} in {max_iter} steps")


def first_eigenpair(lap_op: NonlocalOperator, tol: float = 1e-10,
                    max_iter: int = 10_000) -> EigenPair:
    """Ground state of the Laplacian table by LOBPCG, preconditioned by the
    symbol solve, or by the exact inverse up to _EXACT_MAX_NODES nodes.

    Terminates when the eigen-residual drops below tol * max(1, lambda) or
    its roundoff floor, _ROUNDOFF_FLOOR eps times the largest symbol value
    (the table norm grows like (pi / h)^{2s}; on 4096 nodes at s >= 0.95
    the floor is the larger), and raises RuntimeError when max_iter
    iterations do not get there; the eigenvector is sign-fixed to
    nonnegative mean, checked nodewise against the Perron property
    (failure raises: it means the quadrature broke the M-matrix
    structure), clamped, and renormalized to unit L2 norm.
    """
    if lap_op.kind != "laplacian":
        raise ValueError("first_eigenpair needs a laplacian operator")
    grid = lap_op.grid
    if lap_op.n_nodes <= _EXACT_MAX_NODES:
        inverse = cho_factor(lap_op.to_dense())
        x, it = _lobpcg(lap_op, lambda r: cho_solve(inverse, r), tol, max_iter)
    else:
        x, it = _lobpcg(lap_op, lambda r: symbol_solve(lap_op, r, 0.0), tol, max_iter)

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

