"""Energy functional of the quasilinear nonlocal problem and its calculus.

The functional evaluated here is

    E(u) = int_Omega Gamma(|grad_s u|^2 / 2) dx - int_Omega F(u) dx
           - int_Omega h u dx,

whose critical points in the nonnegative cone are the solutions sought by
the solvers. Its Frechet derivative is

    E'(u)[phi] = int gamma(|grad_s u|^2/2) <grad_s u, grad_s phi>
                 - int f(u) phi - int h phi,

and the nodal representer of E'(u) produced here is, up to roundoff, the
discrete quasilinear operator -div_s(gamma(.)grad_s u) - f(u) - h, because the
divergence is the transpose of the same gradient table the energy
integrates. That transpose-chain structure is what makes the central
finite-difference checks close to 1e-5 relative error.

The nodewise quantity Gamma(|z|^2/2) is convex in z whenever t ->
Gamma(t^2) is convex, so the discrete convexity gap of the quasilinear
part is a sum of pointwise nonnegative terms: nonnegativity holds exactly,
not just up to quadrature.

A point is evaluated through PointState, the one public way to read E(u),
E'(u) and the H^s norm at u, each computed once and kept. path_energies,
hs_norm and the structural checks below compute what one state does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import CoefficientModel, ReactionModel
from .fracops import NonlocalOperator, apply_divergence, apply_gradient
from .grid import Field, Grid

__all__ = [
    "EnergyModel",
    "EnergyOverflowError",
    "PointState",
    "path_energies",
    "convexity_gap",
    "weighted_form",
    "monotonicity_pairing",
    "hs_norm",
]

_OVERFLOW_LIMIT = 1e150


class EnergyOverflowError(ArithmeticError):
    """Raised when Gamma or F would be evaluated outside double range."""


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """Bundle of the pieces the energy functional integrates.

    All components live on the gradient operator's grid and order s. The
    reaction may be None (f == 0). The forcing h must be finite and
    nonnegative, the regime of the existence theory. grad_op is also the
    operator whose (C + I)^{-1} preconditions the solvers.
    """

    grad_op: NonlocalOperator
    coeff: CoefficientModel
    reaction: ReactionModel | None
    forcing: Field

    def __post_init__(self):
        if self.grad_op.kind != "gradient":
            raise ValueError("EnergyModel needs a gradient operator")
        if self.forcing.grid is not self.grid and self.forcing.grid.spec != self.grid.spec:
            raise ValueError("forcing field lives on a different grid")
        if not np.isfinite(self.forcing.values).all():
            raise ValueError("forcing must not contain infs or NaNs")
        if np.any(self.forcing.values < 0):
            raise ValueError("forcing must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.grad_op.grid

    def f(self, t):
        return self.reaction.f(t) if self.reaction is not None else np.zeros_like(t)

    def big_f(self, t):
        return self.reaction.big_f(t) if self.reaction is not None else np.zeros_like(t)

    def f_prime(self, t):
        return self.reaction.f_prime(t) if self.reaction is not None else np.zeros_like(t)


def _checked(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise EnergyOverflowError(f"{name} evaluation produced non-finite values")
    return arr


def _hs(grid: Grid, gu: np.ndarray) -> float:
    return float(np.sqrt(grid.weight * np.sum(gu**2)))


def _energies(model: EnergyModel, values: np.ndarray, q: np.ndarray):
    """E at one point (values (N,), q (N,)) or at each row of a stack
    (values (P, N), q (P, N)); EnergyOverflowError if any is not finite."""
    if np.max(q, initial=0.0) > _OVERFLOW_LIMIT:
        raise EnergyOverflowError("gradient magnitude exceeds the evaluation range")
    val = (
        np.sum(_checked("Gamma", model.coeff.big_gamma(0.5 * q)), axis=-1)
        - np.sum(_checked("F", model.big_f(values)), axis=-1)
        - values @ model.forcing.values
    )
    out = model.grid.weight * val
    if not np.all(np.isfinite(out)):
        raise EnergyOverflowError("energy evaluation overflowed")
    return out


class PointState:
    """One point u with the quantities evaluated at it, each on first use.

    grad (grad_s u, the (N, m) array of fracops.apply_gradient), q =
    |grad_s u|^2, diffusivity (gamma(q/2)), flux (gamma(q/2) grad_s u),
    energy, representer and hs_norm are computed once and kept, so a
    solver that reads the energy, the derivative and the norm at the same
    point applies the gradient table once forward and once transposed;
    hessian_vec adds one of each per product (the nodal slopes it needs
    are kept like the diffusivity). A caller that already holds grad_s u
    (by linearity, say) passes that (N, m) array as grad. u.values must not
    change while the state is in use. A failed evaluation
    (EnergyOverflowError) is not kept: asking again raises again. This is
    the public way to evaluate a point: E'(u)[phi] is w <representer, phi>,
    and solvers.kkt_residual reads the representer. hs_norm below shares
    the norm's formula, path_energies the energy's.
    """

    def __init__(self, model: EnergyModel, u: Field, grad: np.ndarray | None = None):
        self.model = model
        self.u = u
        if grad is not None:
            self.grad = grad

    @cached_property
    def grad(self) -> np.ndarray:
        return apply_gradient(self.model.grad_op, self.u)

    @cached_property
    def q(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.sum(self.grad**2, axis=1)

    @cached_property
    def energy(self) -> float:
        """Value of the functional (finite, or EnergyOverflowError)."""
        return float(_energies(self.model, self.u.values, self.q))

    @cached_property
    def diffusivity(self) -> np.ndarray:
        """gamma(|grad_s u|^2/2) per node."""
        return _checked("gamma", self.model.coeff.gamma(0.5 * self.q))

    @cached_property
    def diffusivity_slope(self) -> np.ndarray:
        """gamma'(|grad_s u|^2/2) per node, for Hessian products."""
        return _checked("gamma'", self.model.coeff.gamma_prime(0.5 * self.q))

    @cached_property
    def reaction_slope(self) -> np.ndarray:
        """f'(u) per node, for Hessian products."""
        return _checked("f'", self.model.f_prime(self.u.values))

    @cached_property
    def flux(self) -> np.ndarray:
        """gamma(|grad_s u|^2/2) grad_s u, shape (N, m) like grad."""
        return self.diffusivity[:, None] * self.grad

    @cached_property
    def representer(self) -> Field:
        """Nodal representer of E'(u): the flux through the transposed
        gradient table (minus the discrete divergence), then the reaction
        and forcing terms subtracted nodewise."""
        model = self.model
        rep = -apply_divergence(model.grad_op, self.flux).values
        rep -= _checked("f", model.f(self.u.values))
        rep -= model.forcing.values
        return Field(model.grid, rep)

    @cached_property
    def hs_norm(self) -> float:
        return _hs(self.model.grid, self.grad)

    def hessian_vec(self, v: np.ndarray) -> np.ndarray:
        """Exact product of the Hessian of E at u with the nodal vector v.

        With z = grad_s u and y = grad_s v:
        H v = sum_c W_c^T [gamma(q/2) y_c + gamma'(q/2) z_c (z . y)] - f'(u) v,
        one forward and one transposed apply of the gradient table; the
        nodal slopes gamma'(q/2) and f'(u) are evaluated on the first product.
        """
        model, z = self.model, self.grad
        y = apply_gradient(model.grad_op, Field(model.grid, v))
        pushed = (self.diffusivity[:, None] * y
                  + (self.diffusivity_slope * np.sum(z * y, axis=1))[:, None] * z)
        out = -apply_divergence(model.grad_op, pushed).values
        out -= self.reaction_slope * v
        return out


def path_energies(model: EnergyModel, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Energies of the points values[p] (stack (P, N)) in one vectorized pass.

    grads holds their fractional gradients, shape (P, N, m), which the
    solvers get by linearity from one apply (the points of a ray). The
    checks are those of a single point: one non-finite row raises
    EnergyOverflowError.
    """
    with np.errstate(over="ignore"):
        q = np.sum(grads**2, axis=-1)
    return _energies(model, values, q)


def convexity_gap(model: EnergyModel, u1: Field, u2: Field) -> float:
    """Phi(u1) - Phi(u2) - Phi'(u2)[u1 - u2]; nonnegative under convexity.

    Computed as the quadrature sum of the pointwise Bregman gaps of
    z -> Gamma(|z|^2/2), so the sign assertion carries no quadrature noise.
    """
    p1, p2 = PointState(model, u1), PointState(model, u2)
    gam2 = model.coeff.gamma(0.5 * p2.q)
    pointwise = (
        model.coeff.big_gamma(0.5 * p1.q)
        - model.coeff.big_gamma(0.5 * p2.q)
        - gam2 * np.sum(p2.grad * (p1.grad - p2.grad), axis=1)
    )
    return float(model.grid.weight * np.sum(_checked("gap", pointwise)))


def weighted_form(point: PointState, t: float, grad_w: np.ndarray) -> float:
    """The scaled quasilinear pairing int gamma(|grad v|^2/(2 t^2)) <grad v, grad w>
    at v = point.u, with grad_w = grad_s w as an (N, m) array.

    As t -> 0+ the weight converges to gamma at infinity wherever grad v is
    nonzero, so the form converges to gamma_inf times the constant-weight
    pairing; the convergence run is the discrete shadow of the appendix
    result on quasilinear term limits.
    """
    if t <= 0:
        raise ValueError(f"scale t must be positive, got {t}")
    gam = _checked("gamma", point.model.coeff.gamma(0.5 * point.q / t**2))
    return float(point.model.grid.weight * np.sum(gam[:, None] * point.grad * grad_w))


def monotonicity_pairing(coeff: CoefficientModel, z1, z2) -> float:
    """<beta(z1) - beta(z2), z1 - z2> with beta(z) = gamma(|z|^2/2) z.

    Nonnegative for every admissible diffusivity, strictly positive for
    z1 != z2; the sign is what makes the vector field strictly monotone.
    """
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    if z1.shape != z2.shape:
        raise ValueError("vectors must share a shape")
    b1 = coeff.gamma(0.5 * np.dot(z1, z1)) * z1
    b2 = coeff.gamma(0.5 * np.dot(z2, z2)) * z2
    return float(np.dot(b1 - b2, z1 - z2))


def hs_norm(grad_op: NonlocalOperator, u: Field) -> float:
    """Discrete H^s_0 norm: the L2 norm of the fractional gradient."""
    return _hs(grad_op.grid, apply_gradient(grad_op, u))
