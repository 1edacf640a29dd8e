"""Ground states: the first Dirichlet eigenpair of the assembled fractional
Laplacian, and the bottom of the composition C = -div_s grad_s.

The smallest eigenvalue lambda1 and its eigenfunction phi1 drive most of
the quantitative hypotheses: the slope thresholds gamma * lambda1 and the
ray direction of the mountain-pass geometry. lambda_min(C) is the bottom
of the quadratic form the energy induces; gamma(0) lambda_min(C) / g'(0)
predicts the sublinear threshold (experiments.linear_threshold), and
C's ground state starts the probe that certifies it.
Only the bottom of the spectrum is needed, so both end in _ground_state:
single-vector LOBPCG (Knyazev 2001) on an apply callable built from the
operator's applies (pruned FFT convolutions). The Laplacian is
preconditioned by its DST-I symbol solve (fracops.symbol_solve), or on
the smallest tables by the exact inverse (fracops.cho_factor), which is
cheaper than the extra iterations there; C by the minimizer's own
(C + I)^{-1} (solvers._preconditioner), so it makes no factor of its own.
A dense symmetric eigensolve serves as the test oracle, not as the
implementation.

The assembled table is an M-matrix (positive diagonal, nonpositive
off-diagonal, strict diagonal dominance), so its inverse is entrywise
nonnegative and the discrete ground state inherits the Perron property;
first_eigenpair asserts nonnegativity rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench's traced runs wrap cho_factor and cho_solve by these module names
from .fracops import (NonlocalOperator, _check_finite, apply_divergence, apply_gradient,
                      apply_laplacian, cho_factor, cho_solve, symbol_solve)
from .grid import Field
from .solvers import _preconditioner

# Tables of up to this many nodes precondition by their exact inverse, larger
# grids by the symbol solve. Ground state, inverse and LOBPCG against symbol
# LOBPCG, ms at s = 0.3 / 0.5 / 0.7, one BLAS thread, 2-core VM: 1D 64 nodes
# 1.1/1.0/1.0 against 2.9/1.8/2.0, 128 nodes 2.9/2.3/2.9 against
# 2.8/2.3/2.8, 384 nodes 24 against 7 (s = 0.5); 2D 8x8 0.8/0.8/0.9 against
# 1.4/1.2/1.2, 12x12 2.4/2.0/3.4 against 1.8/1.9/2.5.
_EXACT_MAX_NODES = 64

# the residual's roundoff floor, in units of eps times the largest symbol value
_ROUNDOFF_FLOOR = 4.0
# LOBPCG's relative residual tolerance and iteration cap, for both ground states
_TOL = 1e-10
_MAX_ITER = 10_000

__all__ = ["EigenPair", "first_eigenpair", "composition_ground_state", "rayleigh_quotient"]


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


def _lobpcg(apply, precondition, floor: float, n: int, tol: float, max_iter: int):
    """Single-vector LOBPCG (Knyazev 2001) for the smallest eigenpair of the
    SPD map apply (v -> A v on R^n, checked finite), from the constant
    vector: the unit iterate and the iteration count. Each iteration is a
    Rayleigh-Ritz step on the orthonormalized span of the iterate x, the
    preconditioned residual and the previous step p. A x is applied afresh
    each iteration (carried by recurrence it drifts and stalls the
    residual), and the Euclidean residual of the unit x is the L2 residual
    of the L2-normalized one; the run stops once it is at most
    tol * max(1, lambda) or floor, the residual's roundoff floor."""
    x, p = np.full(n, n**-0.5), None
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


def _ground_state(op: NonlocalOperator, apply, precondition, perron: bool) -> EigenPair:
    """The bottom eigenpair of apply on op's grid by _lobpcg, to _TOL or the
    roundoff floor, _ROUNDOFF_FLOOR eps times op's largest symbol value (the
    table norm grows like (pi / h)^{2s}; on 4096 nodes at s >= 0.95 the
    floor is the larger). The eigenvector is sign-fixed to nonnegative mean,
    with perron checked nodewise against the Perron property (failure
    raises: the quadrature broke the M-matrix structure) and clamped, and
    normalized to unit L2 norm."""
    grid = op.grid
    floor = _ROUNDOFF_FLOOR * np.finfo(float).eps * float(np.max(op._symbol()))
    x, it = _lobpcg(apply, precondition, floor, grid.n_nodes, _TOL, _MAX_ITER)
    if np.mean(x) < 0:
        x = -x
    if perron:
        lowest = float(np.min(x))
        if lowest < -1e-12:
            raise ArithmeticError(f"ground state lost nonnegativity (min {lowest:.3e}); the "
                                  "assembled table violates the expected M-matrix structure")
        x = np.maximum(x, 0.0)
    x = x / _l2(grid, x)
    ax = apply(x)
    lam = float(grid.weight * np.dot(x, ax))
    return EigenPair(value=lam, function=Field(grid, x), residual=_l2(grid, ax - lam * x),
                     iterations=it)


def first_eigenpair(lap_op: NonlocalOperator) -> EigenPair:
    """Ground state of the Laplacian table (_ground_state, Perron-checked),
    preconditioned by the symbol solve, or by the exact inverse up to
    _EXACT_MAX_NODES nodes."""
    if lap_op.kind != "laplacian":
        raise ValueError("first_eigenpair needs a laplacian operator")
    grid = lap_op.grid
    if lap_op.n_nodes <= _EXACT_MAX_NODES:
        inverse = cho_factor(lap_op.to_dense())
        precondition = lambda r: cho_solve(inverse, r)
    else:
        precondition = lambda r: symbol_solve(lap_op, r, 0.0)
    return _ground_state(
        lap_op, lambda v: _check_finite(apply_laplacian(lap_op, Field(grid, v)).values),
        precondition, perron=True)


def composition_ground_state(grad_op: NonlocalOperator) -> EigenPair:
    """lambda_min(C) and its eigenfunction, C = -div_s grad_s the quadratic
    form the energy induces, by _ground_state.

    C is applied by the gradient operator's two FFT applies and
    preconditioned by the minimizer's (C + I)^{-1} (solvers._preconditioner:
    the operator's cached dense inverse up to solvers._DENSE_MAX_NODES
    nodes, the diagonal-scaled symbol solve above), so no factor of its own
    is made. The scaling cuts the 2D iterations at s = 0.5 from 69 / 88 /
    96 to 43 / 61 / 68 at 48^2 / 96^2 / 128^2; at 1D 1024 nodes they rise
    from 25 to 29. C need not be an M-matrix (phi_C changes sign at s =
    0.3), so the eigenfunction is not Perron-checked or clamped. The pair
    is kept with the operator (NonlocalOperator.cached) and computed once.
    """
    if grad_op.kind != "gradient":
        raise ValueError("composition_ground_state needs a gradient operator")
    grid = grad_op.grid

    def apply(v):
        grad = apply_gradient(grad_op, Field(grid, v))
        return -_check_finite(apply_divergence(grad_op, grad).values)

    return grad_op.cached("ground_state", lambda: _ground_state(
        grad_op, apply, _preconditioner(grad_op), perron=False))


def rayleigh_quotient(lap_op: NonlocalOperator, u: Field) -> float:
    """<u, A u> / <u, u> in the discrete L2 pairing; bounded below by lambda1."""
    if lap_op.kind != "laplacian":
        raise ValueError("rayleigh_quotient needs a laplacian operator")
    nrm2 = np.dot(u.values, u.values)
    if nrm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero field is undefined")
    return float(np.dot(u.values, apply_laplacian(lap_op, u).values) / nrm2)

