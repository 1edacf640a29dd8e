"""Cone-constrained minimization and the numerical mountain pass.

Solutions are sought in the nonnegative cone X = {u >= 0}. Two search
modes cover the two existence mechanisms:

* minimize_cone: projected Newton-CG for the local minimizer the direct
  method produces; truncated CG (_pcg) is preconditioned by (C + I)^{-1},
  C = -div_s grad_s the composition matrix, with the active entries
  zeroed. While the gradient operator holds its table, the inverse of
  C + I (fracops.cho_factor) is built on the first solve and kept with it
  (NonlocalOperator.cached), so a sweep or a bisection factors once;
  above the operator crossover the inverse is approximated by the
  operator's DST-I symbol solve (fracops.symbol_solve, shift 1), and no
  N x N matrix is made. The cone projection is the nodewise positive
  part.

* mountain_pass: the local minimax method (Li & Zhou 2001) in the cone,
  from a low point u_low toward a point u_far below it. A direction v >= 0
  of unit H^s norm has the peak p(v) = u_low + t*(v) v, the energy maximum
  along the ray; v descends the peak energy along the preconditioned
  -E'(p(v)), projected to the cone, with the same Armijo rule as
  minimize_cone, until p(v) is a KKT point. grad_s(u_low + t v) =
  grad_s u_low + t grad_s v, so locating t* on a ray applies no operator:
  a log grid of energies in one vectorized pass brackets it, and Newton on
  the closed-form first and second derivatives pins it. ray_search samples
  E(t d) the same way, from grad_s(t d) = t grad_s(d).

Both solvers, and the experiments' initial guess (the same _pcg on
C + 1e-12 I), precondition by the same (C + I)^{-1} of the model's own
gradient operator: the cached dense inverse up to the operator crossover,
the symbol solve above it. Both solvers carry each iterate as an
energy.PointState, which evaluates grad_s u, the energy, the derivative
representer and the H^s norm once per point: an accepted line-search
trial brings its gradient to the next iteration's derivative, KKT residual
and norm trace. Factors are checked for finite values once, when they
are made; each solve (fracops.cho_solve, fracops.symbol_solve) checks its
own right-hand side and raises NonFiniteError on an inf or a NaN.

First-order optimality over the cone is measured by the KKT residual:
|g_i| on nodes with u_i > 0 and max(0, -g_i) on active nodes, g being the
nodal representer of the energy derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyModel, EnergyOverflowError, PointState, path_energies
from .fracops import (NonlocalOperator, apply_gradient, cho_factor, cho_solve,
                      composition_matrix, symbol_solve)
from .grid import Field, VectorField

__all__ = [
    "SolverOptions",
    "SolveReport",
    "RaySearchResult",
    "project_cone",
    "kkt_residual",
    "minimize_cone",
    "mountain_pass",
    "ray_search",
]

# L2 norm at or below which a cone point counts as the trivial solution
TRIVIAL_L2 = 1e-8
# Newton-CG: c of the active-set width (at 1e-2 the boundary layer of a 2D
# solve went active, and its unscaled -g moves cut every step to 1/32), the
# inner CG cap, and the relative energy change that counts as roundoff
_ACTIVE_SCALE = 1e-4
_CG_MAX = 50
_ROUNDOFF = 1e-12
# Armijo rule: the backtracking factor and the sufficient-decrease slope;
# nodes at or below _TOL_ACTIVE count as active in the KKT residual and
# floor the active-set width
_ARMIJO_FACTOR = 0.5
_ARMIJO_SLOPE = 1e-4
_TOL_ACTIVE = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and first-order tolerance."""

    max_iter: int = 5000
    tol_g: float = 1e-6

    def __post_init__(self):
        # messages start with the field name, which config errors report
        if not 0.0 < self.tol_g < np.inf:
            raise ValueError(f"tol_g must be positive and finite, got {self.tol_g}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


@dataclass
class SolveReport:
    """Outcome of one solve: the field, its energy, first-order residual,
    classification, and solver diagnostics."""

    solution: Field
    energy: float
    kkt_residual: float
    iterations: int
    classification: str
    hs_norm: float
    l2_norm: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RaySearchResult:
    """Sampled energy curve along a ray, with the first crossing if any."""

    t_star: float | None
    t_values: np.ndarray
    energies: np.ndarray

    @property
    def found(self) -> bool:
        return self.t_star is not None


def project_cone(u: Field) -> Field:
    """Nodewise positive part; idempotent."""
    return Field(u.grid, np.maximum(u.values, 0.0))


def kkt_residual(model: EnergyModel, u: Field) -> float:
    """First-order residual of minimization over the cone at u >= 0."""
    return _kkt(PointState(model, u))


def _kkt(point: PointState) -> float:
    g = point.representer.values
    active = point.u.values > _TOL_ACTIVE
    parts = []
    if np.any(active):
        parts.append(np.max(np.abs(g[active])))
    if np.any(~active):
        parts.append(np.max(np.maximum(0.0, -g[~active])))
    return float(max(parts)) if parts else 0.0


def _preconditioner(op: NonlocalOperator):
    """The solve vec -> (C + I)^{-1} vec of a gradient operator.

    Its composition matrix C = -div_s grad_s is the Laplacian the energy
    actually induces, which makes the preconditioned Hessian close to the
    identity in the semilinear regime. The inverse is the operator's cached
    dense inverse (cho_factor) while the operator holds its table, and the
    DST-I symbol solve once it applies by FFT, so no N x N matrix is made
    there. Only the inverse is kept: C is shifted in place and dropped.
    """
    if op.matrix_free:
        return lambda vec: symbol_solve(op, vec, 1.0)

    def factor():
        system = composition_matrix(op)
        system[np.diag_indices_from(system)] += 1.0
        return cho_factor(system)
    inverse = op.cached("preconditioner", factor)
    return lambda vec: cho_solve(inverse, vec)


def _armijo_step(point, trial_at, counts, residual):
    """Backtracking search from point (a PointState) over the trial states
    trial_at(step), step = 1, _ARMIJO_FACTOR, _ARMIJO_FACTOR^2, ...; returns
    (trial, step) or None. A trial is accepted on sufficient decrease of the
    energy along its move; when its energy change is roundoff, it is accepted
    if residual (a first-order measure, zero at KKT points) is smaller there
    than at point: the gradient still resolves progress. trial_at may return
    None, which counts as a rejected trial. counts tallies trials and
    backtracks."""
    w = point.model.grid.weight
    u, g, f_u = point.u, point.representer, point.energy
    r_point = None
    step = 1.0
    for _ in range(60):
        counts["trials"] += 1
        trial = trial_at(step)
        if trial is not None:
            delta = trial.u.values - u.values
            if not np.any(delta):
                return None
            slope = w * np.dot(g.values, delta)
            try:
                f_trial = trial.energy
            except EnergyOverflowError:
                f_trial = np.inf
            if f_trial <= f_u + _ARMIJO_SLOPE * min(slope, 0.0):
                return trial, step
            if abs(f_trial - f_u) <= _ROUNDOFF * max(1.0, abs(f_u)):
                if r_point is None:
                    r_point = residual(point)
                if residual(trial) < r_point:
                    return trial, step
        counts["backtracks"] += 1
        step *= _ARMIJO_FACTOR
    return None


def _pg_norm(point: PointState) -> float:
    """Projected-gradient norm |u - P(u - g)|, zero exactly at KKT points."""
    u = point.u.values
    return float(np.linalg.norm(u - np.maximum(u - point.representer.values, 0.0)))


def _pcg(apply, rhs: np.ndarray, precond, stop: float, max_products: int):
    """Steihaug's truncated preconditioned CG for A x = rhs from x = 0.

    apply is x -> A x and precond r -> M r, M symmetric positive definite.
    CG stops once |r| <= stop, after max_products products, or on
    nonpositive curvature; returns (x, curvature exit), x the iterate so
    far, or the preconditioned right-hand side at the first product.
    """
    x, r = np.zeros_like(rhs), rhs.copy()
    z = precond(r)
    p, rz = z, np.dot(r, z)
    for j in range(max_products):
        ap = apply(p)
        curvature = np.dot(p, ap)
        if curvature <= 0.0:
            return (p if j == 0 else x), True
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= stop:
            break
        z = precond(r)
        rz, rz_old = np.dot(r, z), rz
        p = z + (rz / rz_old) * p
    return x, False


def _newton_direction(point: PointState, free: np.ndarray, precond, counts) -> np.ndarray:
    """_pcg on H_FF d = -g_F, zero off the free set, to the Eisenstat-Walker
    forcing term |r| <= min(0.5, sqrt|r_0|) |r_0| or _CG_MAX products. The
    preconditioner P_F (C + I)^{-1} P_F is the full inverse (the cached
    factor or the symbol solve) with the other entries zeroed, so nothing
    depends on the active set."""
    r = np.where(free, -point.representer.values, 0.0)
    r0 = np.linalg.norm(r)
    if r0 == 0.0:
        return np.zeros_like(r)

    def hessian(p):
        counts["hessian_products"] += 1
        return np.where(free, point.hessian_vec(p), 0.0)

    d, curvature_exit = _pcg(hessian, r, lambda v: np.where(free, precond(v), 0.0),
                             min(0.5, np.sqrt(r0)) * r0, _CG_MAX)
    counts["negative_curvature_exits"] += int(curvature_exit)
    return d


def _hs_length(model: EnergyModel, dgrad: np.ndarray):
    """H^s norm of a difference of points from the difference of their
    gradients dgrad (N, d)."""
    return np.sqrt(model.grid.weight * np.sum(dgrad**2, axis=(-2, -1)))


def _l2(u: Field) -> float:
    return float(np.sqrt(u.grid.weight * np.dot(u.values, u.values)))


def _classify(l2: float, converged: bool) -> str:
    if not converged:
        return "failed"
    return "trivial" if l2 <= TRIVIAL_L2 else "local-min"


_DRAIN_BAND = 1e-4


def _first_order_done(kkt: float, u: Field, tol_g: float) -> bool:
    """Scale-aware termination near the trivial state.

    The gradient shrinks linearly with the iterate near zero, so an
    absolute first-order test would stop a run draining to the trivial
    state a few decades above the classification cut. Inside the band
    (1e-8, 1e-4] the tolerance tightens proportionally, which lets
    trivial-bound runs drain below the cut while genuine small-amplitude
    minimizers still terminate (their residual vanishes exactly at the
    minimizer, not merely linearly).
    """
    if kkt > tol_g:
        return False
    l2 = _l2(u)
    if l2 <= TRIVIAL_L2 or l2 > _DRAIN_BAND:
        return True
    return kkt <= tol_g * (l2 / _DRAIN_BAND)


def minimize_cone(model: EnergyModel, opts: SolverOptions, u0: Field) -> SolveReport:
    """Projected Newton-CG over the cone (Bertsekas 1982, Steihaug 1983).

    Nodes in the epsilon-active set {u_i <= eps, g_i > 0}, eps = min(c max u,
    |u - P(u - g)|) floored at _TOL_ACTIVE, move by -g; the others by the
    truncated Newton step (_newton_direction), preconditioned by (C + I)^{-1}
    of model.grad_op. A projected Armijo search along P(u + alpha d) accepts
    the step; no step raises the energy beyond roundoff (_armijo_step), so
    the iterates stay in the sublevel set of u0.
    Terminates when the KKT residual reaches opts.tol_g; non-convergence is
    reported (classification "failed"), not raised. diagnostics["counts"]
    tallies the line-search trials and backtracks, the Hessian products of
    CG and its negative-curvature exits.
    """
    precond = _preconditioner(model.grad_op)
    point = PointState(model, project_cone(u0))
    counts = dict.fromkeys(("trials", "backtracks", "hessian_products",
                            "negative_curvature_exits"), 0)
    kkt = _kkt(point)
    converged = _first_order_done(kkt, point.u, opts.tol_g)
    it = 0
    energy_trace = [point.energy]

    while not converged and it < opts.max_iter:
        it += 1
        u, g = point.u.values, point.representer.values
        pg_norm = _pg_norm(point)
        eps = max(min(_ACTIVE_SCALE * np.max(u), pg_norm), _TOL_ACTIVE)
        free = (u > eps) | (g <= 0.0)
        direction = np.where(free, _newton_direction(point, free, precond, counts), -g)

        def trial_at(step):
            return PointState(model, project_cone(Field(point.u.grid, u + step * direction)))

        res = _armijo_step(point, trial_at, counts, _pg_norm)
        if res is None:
            break
        point = res[0]
        energy_trace.append(point.energy)
        kkt = _kkt(point)
        converged = _first_order_done(kkt, point.u, opts.tol_g)

    l2 = _l2(point.u)
    return SolveReport(
        solution=point.u, energy=point.energy, kkt_residual=kkt, iterations=it,
        classification=_classify(l2, converged), hs_norm=point.hs_norm, l2_norm=l2,
        diagnostics={"energy_trace": energy_trace, "counts": counts},
    )


def ray_search(model: EnergyModel, direction: Field, t_max: float = 1e3,
               steps: int = 80, t_min: float | None = None,
               margin: float = 0.0) -> RaySearchResult:
    """Sample the energy along t -> E(t * direction) on a log grid.

    Returns the smallest sampled t whose energy drops below E(0) - margin
    (None when the curve never crosses, which callers treat as a failed
    mountain-pass geometry), together with the whole curve.
    """
    d = direction.values
    if not np.any(d):
        raise ValueError("ray direction must be nonzero")
    if np.any(d < 0):
        raise ValueError("ray direction must be nonnegative")
    if t_min is None:
        t_min = t_max * 1e-6
    ts = np.logspace(np.log10(t_min), np.log10(t_max), steps)
    # E(0) first; grad_s(t d) = t grad_s(d), so one apply serves every t
    scales = np.concatenate([[0.0], ts])
    grad_d = apply_gradient(model.grad_op, direction).values
    curve = path_energies(model, scales[:, None] * d, scales[:, None, None] * grad_d)
    zero, energies = curve[0], curve[1:]
    below = np.flatnonzero(energies < zero - margin)
    t_star = float(ts[below[0]]) if below.size else None
    return RaySearchResult(t_star=t_star, t_values=ts, energies=energies)


# ---------------------------------------------------------------------------
# mountain pass
# ---------------------------------------------------------------------------


# peak selection: the log grid of t, as factors 2^-8 ... 2^8 of the current
# peak's distance from u_low, and the cap on safeguarded Newton steps
_RAY_GRID = 2.0 ** np.arange(-8, 9)
_PEAK_NEWTON_MAX = 60


def _ray_peak(model: EnergyModel, low: np.ndarray, grad_low: np.ndarray,
              v: np.ndarray, grad_v: np.ndarray, t0: float, f_low: float) -> float | None:
    """argmax over t > 0 of phi(t) = E(low + t v), searched around t0.

    grad_s(low + t v) = grad_low + t grad_v, so no operator is applied: the
    maximum is bracketed on the log grid t0 * _RAY_GRID with one
    path_energies pass, then refined by Newton on phi'(t) = 0, safeguarded
    by bisection of the bracket. With z = grad_low + t grad_v, y = grad_v,
    u = low + t v, and gamma, gamma' taken at |z|^2 / 2:
    phi'(t) = w [sum gamma z.y - sum (f(u) + h) v] and
    phi''(t) = w [sum (gamma' (z.y)^2 + gamma |y|^2) - sum f'(u) v^2].
    None when no sample inside the grid beats its neighbours and E(low).
    """
    ts = t0 * _RAY_GRID
    try:
        phi = path_energies(model, low + ts[:, None] * v,
                            grad_low + ts[:, None, None] * grad_v)
    except EnergyOverflowError:
        return None
    k = int(np.argmax(phi))
    if k in (0, len(ts) - 1) or not phi[k] > f_low:
        return None
    coeff, h = model.coeff, model.forcing.values
    yy = np.sum(grad_v * grad_v, axis=1)
    lo, t, hi = ts[k - 1], ts[k], ts[k + 1]
    for _ in range(_PEAK_NEWTON_MAX):
        z = grad_low + t * grad_v
        zy = np.sum(z * grad_v, axis=1)
        half_q = 0.5 * np.sum(z * z, axis=1)
        u = low + t * v
        gam = coeff.gamma(half_q)
        d1 = np.dot(gam, zy) - np.dot(model.f(u) + h, v)
        d2 = (np.dot(coeff.gamma_prime(half_q), zy * zy) + np.dot(gam, yy)
              - np.dot(model.f_prime(u), v * v))
        if d1 > 0.0:
            lo = t
        else:
            hi = t
        t_new = t - d1 / d2 if d2 < 0.0 else 0.5 * (lo + hi)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if d1 == 0.0 or abs(t_new - t) <= 1e-15 * t:
            break
        t = t_new
    return float(t)


def mountain_pass(model: EnergyModel, u_low: Field, u_far: Field,
                  opts: SolverOptions) -> SolveReport:
    """Local minimax toward the barrier critical point (Li & Zhou 2001).

    Preconditions: E(u_far) < E(u_low) and both endpoints nonnegative
    (typically u_low is a minimizer or zero, u_far a point found by
    ray_search beyond the barrier). The direction v starts along u_far -
    u_low; a step tries v' = P(t* v - alpha M E'(p(v))), M the (C + I)^{-1}
    of model.grad_op, renormalized, and accepts it by the Armijo rule on the
    peak energy E(p(v')); alpha doubles after each accepted step, up to 1.
    The run stops when the peak's KKT residual reaches opts.tol_g, and
    fails when the direction toward u_far has no peak above E(u_low).
    Returns the peak, whose energy is the min-max level c. u_low is
    evaluated once: its energy and gradient serve every ray.
    diagnostics["counts"] tallies line-search trials and backtracks.
    """
    low_state, far_state = PointState(model, u_low), PointState(model, u_far)
    f_low, f_far = low_state.energy, far_state.energy
    if not f_far < f_low:
        raise ValueError(
            f"mountain-pass geometry violated: E(u_far)={f_far:.6g} is not "
            f"below E(u_low)={f_low:.6g}"
        )
    if np.any(u_low.values < 0) or np.any(u_far.values < 0):
        raise ValueError("mountain-pass endpoints must be nonnegative")

    precond = _preconditioner(model.grad_op)
    grid = model.grid
    low = u_low.values
    grad_low = low_state.grad.values

    def peak_on(ray: np.ndarray) -> PointState | None:
        """The peak on the ray u_low + t ray/|ray|, searched around t = |ray|."""
        grad_ray = apply_gradient(model.grad_op, Field(grid, ray)).values
        t0 = float(_hs_length(model, grad_ray))
        if t0 == 0.0:
            return None
        v, grad_v = ray / t0, grad_ray / t0
        t = _ray_peak(model, low, grad_low, v, grad_v, t0, f_low)
        if t is None:
            return None
        return PointState(model, Field(grid, low + t * v),
                          VectorField(grid, grad_low + t * grad_v))

    endpoint_level = max(f_low, f_far)
    counts = dict.fromkeys(("trials", "backtracks"), 0)
    point = peak_on(np.maximum(u_far.values - low, 0.0))
    budget = opts.max_iter
    if point is None:
        # no peak above E(u_low) toward u_far: the geometry degenerated, and
        # the run fails at u_far, below the endpoint level
        point, budget = far_state, 0
    levels = [point.energy]
    kkt = _kkt(point)
    it = 0
    alpha = 1.0
    while kkt > opts.tol_g and it < budget:
        it += 1
        # t* v - alpha M g: the current ray, moved against the gradient
        ray, move = point.u.values - low, -alpha * precond(point.representer.values)
        res = _armijo_step(point, lambda step: peak_on(np.maximum(ray + step * move, 0.0)),
                           counts, _kkt)
        if res is None:
            break
        point, step = res
        alpha = min(2.0 * alpha * step, 1.0)
        levels.append(point.energy)
        kkt = _kkt(point)

    final = point.u
    f_final = point.energy
    l2_final = _l2(final)
    # a mountain-pass point is a nontrivial critical point strictly above
    # both endpoint levels; a first-order point that drifted to the trivial
    # state or below the barrier means the geometry degenerated
    converged = (kkt <= opts.tol_g and l2_final > TRIVIAL_L2
                 and f_final > endpoint_level)

    return SolveReport(
        solution=final, energy=f_final, kkt_residual=kkt, iterations=it,
        classification="mountain-pass" if converged else "failed",
        hs_norm=point.hs_norm, l2_norm=l2_final,
        diagnostics={
            "levels_head": [float(v) for v in levels[:5]],
            "barrier_min_gap": float(min(levels) - endpoint_level),
            "endpoint_level": float(endpoint_level),
            "counts": counts,
        },
    )
