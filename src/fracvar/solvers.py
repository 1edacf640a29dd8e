"""Cone-constrained minimization and the numerical mountain pass.

Solutions are sought in the nonnegative cone X = {u >= 0}. Two search
modes cover the two existence mechanisms:

* minimize_cone: projected Newton-CG for the local minimizer the direct
  method produces; truncated CG (_pcg) is preconditioned by (C + I)^{-1},
  C = -div_s grad_s the composition matrix, with the active entries
  zeroed. Up to _DENSE_MAX_NODES nodes the inverse of C + I
  (fracops.cho_factor) is built on the first solve and kept with the
  gradient operator (NonlocalOperator.cached), so a sweep or a bisection
  factors once; above that the inverse is approximated by the operator's
  DST-I symbol solve (fracops.symbol_solve, shift 1) scaled by the true
  diagonal of C + I, whose O(N) scaling is kept the same way, and no
  N x N matrix is made. Each CG runs to the Eisenstat-Walker choice-2
  forcing (_forcing), a ratio of successive residuals, so its tolerance
  does not depend on the scale of the energy, but no further than half
  the KKT tolerance the solve stops at (_kkt_tolerance), so that the last
  step does not oversolve. The cone projection is the nodewise positive
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

Both solvers and C's ground state (spectral.composition_ground_state)
precondition by the same (C + I)^{-1} of the model's own gradient
operator: the cached dense inverse up to _DENSE_MAX_NODES nodes, the
symbol solve above, diagonal-scaled everywhere but in the mountain pass
(_preconditioner says why). Both solvers carry each iterate as an
energy.PointState, which evaluates grad_s u, the energy, the derivative
representer and the H^s norm once per point: an accepted line-search
trial brings its gradient to the next iteration's derivative, KKT residual
and norm trace. Factors are checked for finite values once, when they
are made; each solve (fracops.cho_solve, fracops.symbol_solve) checks its
own right-hand side and raises NonFiniteError on an inf or a NaN.

First-order optimality over the cone is measured by the KKT residual:
|g_i| on nodes with u_i > 0 and max(0, -g_i) on active nodes, g being the
nodal representer of the energy derivative. Both solvers end in _report,
which alone decides a solve's verdict and builds its SolveReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyModel, EnergyOverflowError, PointState, path_energies
from .fracops import (NonlocalOperator, apply_gradient, cho_factor, cho_solve,
                      composition_diagonal, composition_matrix, symbol_diagonal,
                      symbol_solve)
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
# Eisenstat-Walker choice 2 forcing: gamma, alpha and the cap, which is
# also the first iteration's eta
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0
_ETA_MAX = 0.5
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


def kkt_residual(point: PointState) -> float:
    """First-order residual of minimization over the cone at point.u >= 0."""
    g = point.representer.values
    active = point.u.values > _TOL_ACTIVE
    parts = []
    if np.any(active):
        parts.append(np.max(np.abs(g[active])))
    if np.any(~active):
        parts.append(np.max(np.maximum(0.0, -g[~active])))
    return float(max(parts)) if parts else 0.0


# Gradient operators on up to this many nodes precondition by the exact
# (C + I)^{-1}, larger ones by the symbol solve. The dense inverse keeps the
# iteration counts low where the symbol solve does not (seed-0 1D mountain
# pass at 384 nodes: 16 iterations with it, 53-55 with the symbol solve),
# and its factor costs about 7 ms at 384 nodes and 16 ms at 512 (one BLAS
# thread, 2-core VM); its N^2 entries and N^3 flops bound it above.
_DENSE_MAX_NODES = 512


def _preconditioner(op: NonlocalOperator, scaled: bool = True):
    """The solve vec -> (C + I)^{-1} vec of a gradient operator.

    Its composition matrix C = -div_s grad_s is the Laplacian the energy
    actually induces, which makes the preconditioned Hessian close to the
    identity in the semilinear regime. The inverse is the operator's cached
    dense inverse (cho_factor) up to _DENSE_MAX_NODES nodes. Above, where
    no N x N matrix is made, it is the DST-I symbol solve P^{-1}, P = S
    diag(sigma + 1) S, scaled by the true diagonal: D^{-1/2} P^{-1}
    D^{-1/2} with D = diag(C + I) / diag(P) (Chan & Ng 1996), both
    diagonals in O(N) (fracops.composition_diagonal, symbol_diagonal) and
    D^{-1/2} kept with the operator. That takes kappa of the preconditioned
    C + I from 39.8 to 18.5 at 2D 48^2 and from 99 to 28 at 1D 384 nodes.
    scaled=False keeps the plain symbol solve: the mountain pass's metric,
    where the scaling left a failing 2D 48^2 run to its whole 8000-step
    budget (35.8 s against 2.2 s). Only the inverse is kept: C is shifted
    in place and dropped.
    """
    if op.n_nodes > _DENSE_MAX_NODES:
        if not scaled:
            return lambda vec: symbol_solve(op, vec, 1.0)
        root = op.cached("symbol_scaling", lambda: np.sqrt(
            symbol_diagonal(op, 1.0) / (composition_diagonal(op) + 1.0)))
        return lambda vec: root * symbol_solve(op, root * vec, 1.0)

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


def _forcing(r_norm: float, r_prev: float | None, eta_prev: float) -> float:
    """Eisenstat-Walker choice 2: eta = gamma (|r| / |r_prev|)^alpha, at
    least gamma eta_prev^alpha when that exceeds 0.1, at most _ETA_MAX, and
    _ETA_MAX with no previous residual (r_prev None, on the first
    iteration, or 0). A ratio of residuals, so it does not change when the
    energy is scaled."""
    if not r_prev:
        return _ETA_MAX
    eta = _EW_GAMMA * (r_norm / r_prev) ** _EW_ALPHA
    floor = _EW_GAMMA * eta_prev**_EW_ALPHA
    if floor > 0.1:
        eta = max(eta, floor)
    return min(eta, _ETA_MAX)


def _newton_direction(point: PointState, free: np.ndarray, precond, counts,
                      r_prev: float | None, eta_prev: float, tol: float):
    """_pcg on H_FF d = -g_F, zero off the free set, to |r| <= max(eta |r_0|,
    tol / 2) with eta the Eisenstat-Walker forcing (_forcing) of |r_0|
    against the previous call's r_prev and eta_prev, or _CG_MAX products.
    tol is the KKT tolerance in force at the point (_kkt_tolerance). The
    floor tol / 2 is Kelley's safeguard against oversolving (Iterative
    Methods for Linear and Nonlinear Equations, 1995, 6.3): at |r| <= tol
    / 2 the Newton model's residual is below half the tolerance at every
    node, and solving further buys nothing the stop can see. The seed-0
    2D 48^2 solve takes 65 products in 9 iterations with the floor and 74
    without, whose last CG ran down to eta = 1.7e-6 for a KKT residual of
    1.2e-7 against tol_g 1e-4. The preconditioner P_F M P_F is the full
    approximate (C + I)^{-1} (the cached factor or the scaled symbol
    solve) with the other entries zeroed, so nothing depends on the active
    set. Returns (d, |r_0|, eta)."""
    r = np.where(free, -point.representer.values, 0.0)
    r0 = np.linalg.norm(r)
    eta = _forcing(r0, r_prev, eta_prev)
    if r0 == 0.0:
        return np.zeros_like(r), r0, eta

    def hessian(p):
        counts["hessian_products"] += 1
        return np.where(free, point.hessian_vec(p), 0.0)

    d, curvature_exit = _pcg(hessian, r, lambda v: np.where(free, precond(v), 0.0),
                             max(eta * r0, 0.5 * tol), _CG_MAX)
    counts["negative_curvature_exits"] += int(curvature_exit)
    return d, r0, eta


def _l2(u: Field) -> float:
    return float(np.sqrt(u.grid.weight * np.dot(u.values, u.values)))


def _report(point: PointState, kkt: float, it: int, converged: bool,
            diagnostics: dict, pass_level: float | None = None) -> SolveReport:
    """The SolveReport of a solve ending at point, and its one verdict. A
    converged minimization (pass_level None) is trivial at L2 norm <=
    TRIVIAL_L2, else local-min; a converged pass is mountain-pass at a
    nontrivial point strictly above pass_level = E(u_low), the higher
    endpoint level (else the geometry degenerated); the rest is failed."""
    l2 = _l2(point.u)
    if not converged:
        verdict = "failed"
    elif pass_level is None:
        verdict = "trivial" if l2 <= TRIVIAL_L2 else "local-min"
    else:
        verdict = "mountain-pass" if l2 > TRIVIAL_L2 and point.energy > pass_level else "failed"
    return SolveReport(solution=point.u, energy=point.energy, kkt_residual=kkt,
                       iterations=it, classification=verdict, hs_norm=point.hs_norm,
                       l2_norm=l2, diagnostics=diagnostics)


_DRAIN_BAND = 1e-4


def _kkt_tolerance(l2: float, tol_g: float) -> float:
    """The KKT tolerance in force at an iterate of L2 norm l2: tol_g, scaled
    by l2 / _DRAIN_BAND inside the band (TRIVIAL_L2, _DRAIN_BAND].

    The gradient shrinks linearly with the iterate near zero, so an
    absolute first-order test would stop a run draining to the trivial
    state a few decades above the classification cut. Inside the band the
    tolerance tightens proportionally, which lets trivial-bound runs drain
    below the cut while genuine small-amplitude minimizers still terminate
    (their residual vanishes exactly at the minimizer, not merely
    linearly). minimize_cone's stop and its Newton-CG floor both read it.
    """
    if l2 <= TRIVIAL_L2 or l2 > _DRAIN_BAND:
        return tol_g
    return tol_g * (l2 / _DRAIN_BAND)


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
    kkt, tol = kkt_residual(point), _kkt_tolerance(_l2(point.u), opts.tol_g)
    converged = kkt <= tol
    it = 0
    energy_trace = [point.energy]
    r_prev, eta = None, _ETA_MAX

    while not converged and it < opts.max_iter:
        it += 1
        u, g = point.u.values, point.representer.values
        pg_norm = _pg_norm(point)
        eps = max(min(_ACTIVE_SCALE * np.max(u), pg_norm), _TOL_ACTIVE)
        free = (u > eps) | (g <= 0.0)
        newton, r_prev, eta = _newton_direction(point, free, precond, counts, r_prev, eta, tol)
        direction = np.where(free, newton, -g)

        def trial_at(step):
            return PointState(model, project_cone(Field(point.u.grid, u + step * direction)))

        res = _armijo_step(point, trial_at, counts, _pg_norm)
        if res is None:
            break
        point = res[0]
        energy_trace.append(point.energy)
        kkt, tol = kkt_residual(point), _kkt_tolerance(_l2(point.u), opts.tol_g)
        converged = kkt <= tol

    return _report(point, kkt, it, converged,
                   {"energy_trace": energy_trace, "counts": counts})


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

    precond = _preconditioner(model.grad_op, scaled=False)
    grid = model.grid
    low = u_low.values
    grad_low = low_state.grad.values

    def peak_on(ray: np.ndarray) -> PointState | None:
        """The peak on the ray u_low + t ray/|ray|, searched around t = |ray|."""
        ray_state = PointState(model, Field(grid, ray))
        t0 = ray_state.hs_norm
        if t0 == 0.0:
            return None
        v, grad_v = ray / t0, ray_state.grad.values / t0
        t = _ray_peak(model, low, grad_low, v, grad_v, t0, f_low)
        if t is None:
            return None
        return PointState(model, Field(grid, low + t * v),
                          VectorField(grid, grad_low + t * grad_v))

    counts = dict.fromkeys(("trials", "backtracks"), 0)
    point = peak_on(np.maximum(u_far.values - low, 0.0))
    budget = opts.max_iter
    if point is None:
        # no peak above E(u_low) toward u_far: the geometry degenerated, and
        # the run fails at u_far, below the endpoint level
        point, budget = far_state, 0
    levels = [point.energy]
    kkt = kkt_residual(point)
    it = 0
    alpha = 1.0
    while kkt > opts.tol_g and it < budget:
        it += 1
        # t* v - alpha M g: the current ray, moved against the gradient
        ray, move = point.u.values - low, -alpha * precond(point.representer.values)
        res = _armijo_step(point, lambda step: peak_on(np.maximum(ray + step * move, 0.0)),
                           counts, kkt_residual)
        if res is None:
            break
        point, step = res
        alpha = min(2.0 * alpha * step, 1.0)
        levels.append(point.energy)
        kkt = kkt_residual(point)

    return _report(point, kkt, it, kkt <= opts.tol_g, {
        "levels_head": [float(v) for v in levels[:5]],
        "barrier_min_gap": float(min(levels) - f_low),
        "endpoint_level": float(f_low),
        "counts": counts,
    }, pass_level=f_low)
