"""Cone-constrained minimization and the numerical mountain pass.

Solutions are sought in the nonnegative cone X = {u >= 0}. Two search
modes cover the two existence mechanisms:

* minimize_cone: projected Newton-CG for the local minimizer the direct
  method produces; truncated CG is preconditioned by (C + I)^{-1},
  C = -div_s grad_s the composition matrix, with the active entries
  zeroed. While the gradient operator holds its table, C and the dense
  Cholesky factor of C + I are built on the first solve and kept with it
  (NonlocalOperator.cached), so a sweep or a bisection factors once; above
  the operator crossover the inverse is approximated by the operator's
  DST-I symbol solve (fracops.symbol_solve, shift 1), and no N x N matrix
  is made. The cone projection is the
  nodewise positive part. An optional ball constraint rescales iterates
  back to radius R in the discrete H^s norm and records which boundary
  variant of the compactness condition was active (sign of <E'(u), u>).

* mountain_pass: a discrete path deformation between two low-energy
  points. Phase A repeatedly locates the path-energy maximizer, applies
  one projected descent step to it, and redistributes the path by equal
  H^s arclength; phase B pins the near-saddle maximizer by minimum-mode
  following (the lowest-curvature direction from exact Hessian-vector
  products, the gradient reflected along it, steps accepted on a
  decreasing preconditioned gradient norm) until the first-order residual
  meets tolerance. Phase A holds the path as one array of values (P, N)
  with their fractional gradients (P, N, d): the path energies are one
  vectorized pass, the gradients of resplined points one batched apply,
  and every H^s length (path segments, the step cap of a move)
  is taken from differences of gradients already held, grad_s being
  linear. ray_search samples E(t d) the same way, from grad_s(t d) =
  t grad_s(d). Both phases precondition by the dense factor of C + I at
  every grid size: phase B's merit is the preconditioned gradient norm,
  and it does not converge with the symbol solve in its place.

Both solvers carry each iterate as an energy.PointState, which evaluates
grad_s u, the energy, the derivative representer and the H^s norm once per
point: an accepted line-search trial brings its gradient to the next
iteration's derivative, KKT residual and norm trace. Factors are checked for
finite values once, when they are made; each solve then checks only its
right-hand side.

First-order optimality over the cone is measured by the KKT residual:
|g_i| on nodes with u_i > 0 and max(0, -g_i) on active nodes, g being the
nodal representer of the energy derivative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .coeffs import check_ball_condition
from .energy import EnergyModel, EnergyOverflowError, PointState, energy, path_energies
from .fracops import (NonlocalOperator, apply_gradient, apply_gradient_batch, composition_matrix,
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
    "coercivity_radius",
]

# L2 norm at or below which a cone point counts as the trivial solution
TRIVIAL_L2 = 1e-8
# Newton-CG: c of the active-set width (at 1e-2 the boundary layer of a 2D
# solve went active, and its unscaled -g moves cut every step to 1/32), the
# inner CG cap, and the relative energy change that counts as roundoff
_ACTIVE_SCALE = 1e-4
_CG_MAX = 50
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget, tolerances, step rule, and path shape.

    ball_radius None means unconstrained (a coercivity-based default is
    derived per run and reported); path options apply to mountain_pass.
    """

    max_iter: int = 5000
    tol_g: float = 1e-6
    armijo_factor: float = 0.5
    armijo_slope: float = 1e-4
    ball_radius: float | None = None
    path_points: int = 41
    path_step_cap: float | None = None
    tol_active: float = 1e-10

    def __post_init__(self):
        # messages start with the field name, which config errors report
        for name in ("tol_g", "tol_active", "ball_radius", "path_step_cap"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not 0.0 < self.armijo_factor < 1.0:
            raise ValueError(f"armijo_factor must lie in (0, 1), got {self.armijo_factor}")
        if not 0.0 < self.armijo_slope < 0.5:
            raise ValueError(f"armijo_slope must lie in (0, 0.5), got {self.armijo_slope}")
        if self.path_points < 3 or self.path_points % 2 == 0:
            raise ValueError(f"path_points must be odd and at least 3, got {self.path_points}")


@dataclass
class SolveReport:
    """Outcome of one solve: the field, its energy, first-order residual,
    classification, and boundary/ball diagnostics."""

    solution: Field
    energy: float
    kkt_residual: float
    iterations: int
    classification: str
    hs_norm: float
    l2_norm: float
    ball_radius: float | None = None
    ball_margin: float | None = None
    level: float | None = None
    boundary: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        diag = {k: v for k, v in self.diagnostics.items()
                if not isinstance(v, (list, tuple)) or len(v) <= 8}
        trace = self.diagnostics.get("energy_trace")
        if trace is not None:
            diag["energy_initial"] = float(trace[0])
            diag["energy_final"] = float(trace[-1])
        return {
            "energy": self.energy,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "classification": self.classification,
            "hs_norm": self.hs_norm,
            "l2_norm": self.l2_norm,
            "ball_radius": self.ball_radius,
            "ball_margin": self.ball_margin,
            "level": self.level,
            "boundary": self.boundary,
            "diagnostics": diag,
        }


@dataclass(frozen=True)
class RaySearchResult:
    """Sampled energy curve along a ray, with the first crossing if any."""

    t_star: float | None
    t_values: np.ndarray
    energies: np.ndarray
    margin: float

    @property
    def found(self) -> bool:
        return self.t_star is not None


def project_cone(u: Field) -> Field:
    """Nodewise positive part; idempotent."""
    return Field(u.grid, np.maximum(u.values, 0.0))


def kkt_residual(model: EnergyModel, u: Field,
                 tol_active: float = SolverOptions.tol_active) -> float:
    """First-order residual of minimization over the cone at u >= 0."""
    return _kkt(PointState(model, u), tol_active)


def _kkt(point: PointState, tol_active: float) -> float:
    g = point.representer.values
    active = point.u.values > tol_active
    parts = []
    if np.any(active):
        parts.append(np.max(np.abs(g[active])))
    if np.any(~active):
        parts.append(np.max(np.maximum(0.0, -g[~active])))
    return float(max(parts)) if parts else 0.0


def coercivity_radius(model: EnergyModel, lambda1: float) -> float | None:
    """Radius estimate of the coercivity ball, None when not coercive.

    From E(u) >= (gamma_min/4)||u||^2 - ||h|| ||u||/sqrt(lambda1) - A|Omega|
    with A = sup_t (F(t) - lambda1 gamma_min t^2 / 4): the zero-sublevel set
    sits inside a computable ball whenever A is finite. The supremum is
    sampled on a log grid; unbounded growth at the far end reports None.
    """
    gmin = model.coeff.gamma_min
    t = np.logspace(-3, 8, 400)
    head = model.big_f(t) - lambda1 * gmin * t**2 / 4.0
    if head[-1] > max(0.0, np.max(head[:-1])):
        return None
    a_const = max(0.0, float(np.max(head)))
    vol = model.grid.spec.volume
    h_l2 = float(np.sqrt(model.grid.weight * np.dot(model.forcing.values,
                                                    model.forcing.values)))
    a = gmin / 4.0
    b = h_l2 / np.sqrt(lambda1)
    c = a_const * vol
    return float((b + np.sqrt(b**2 + 4.0 * a * c)) / (2.0 * a) + 1.0)


def shifted_system(op: NonlocalOperator, shift: float) -> np.ndarray:
    """C + shift * I in a new array.

    C is the composition matrix -div_s grad_s of a gradient operator (any
    other kind raises ValueError), built once per operator and shared
    read-only. The result is Fortran-ordered, the order LAPACK works in, so
    cho_factor(..., overwrite_a=True) factors it in place instead of
    copying it again.
    """
    out = np.array(op.cached("composition", lambda: composition_matrix(op)), order="F")
    out[np.diag_indices_from(out)] += shift
    return out


def _check_finite(rhs: np.ndarray) -> np.ndarray:
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    return rhs


def _solve(factor, rhs: np.ndarray) -> np.ndarray:
    """cho_solve against a factor that cho_factor checked for finite values
    when it was made; only the O(N) right-hand side is checked here."""
    return cho_solve(factor, _check_finite(rhs), check_finite=False)


class _Preconditioner:
    """Apply (C + I)^{-1} of a gradient operator.

    Its composition matrix -div_s grad_s is the Laplacian the energy
    actually induces, which makes the preconditioned Hessian close to the
    identity in the semilinear regime. The inverse is the operator's cached
    dense Cholesky factor; with symbol=True and an operator that applies by
    FFT it is the DST-I symbol solve instead. None degrades to the identity.
    """

    def __init__(self, op: NonlocalOperator | None, symbol: bool = False):
        self._factor = self._op = None
        if op is not None and symbol and op.matrix_free:
            self._op = op
        elif op is not None:
            self._factor = op.cached("preconditioner", lambda: cho_factor(
                shifted_system(op, 1.0), overwrite_a=True))

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        if self._op is not None:
            return symbol_solve(self._op, _check_finite(vec), 1.0)
        if self._factor is None:
            return vec
        return _solve(self._factor, vec)


def _ball_rescale(point: PointState, radius: float | None, boundary: dict) -> PointState:
    if radius is None:
        return point
    nrm = point.hs_norm
    if nrm <= radius:
        return point
    u = point.u
    scaled = PointState(point.model, Field(u.grid, u.values * (radius / nrm)))
    g = scaled.representer
    inner = float(u.grid.weight * np.dot(g.values, scaled.u.values))
    boundary["hits"] = boundary.get("hits", 0) + 1
    boundary["last_inner_product"] = inner
    # boundary variant (b) needs <E'(u), u> <= 0 on the sphere; a positive
    # pairing means the rescaled point is not a descent-compatible boundary
    # state and is flagged as variant (c)
    boundary["condition"] = "b" if inner <= 0 else "c"
    return scaled


def _armijo_step(model, opts, point, direction, step0=1.0, radius=None,
                 boundary=None, step_cap=None, counts=None, pg_norm=None):
    """Backtracking projected step from point (a PointState) along
    direction; returns (trial state, step) or None. Given pg_norm (the
    point's _pg_norm), a trial whose energy change is roundoff is accepted
    when its projected-gradient norm is smaller: the gradient still
    resolves progress there. counts tallies trials and backtracks."""
    boundary = boundary if boundary is not None else {}
    counts = counts if counts is not None else Counter()
    w = model.grid.weight
    u, g, f_u = point.u, point.representer, point.energy
    step = step0
    for _ in range(60):
        counts["trials"] += 1
        trial = PointState(model, project_cone(Field(u.grid, u.values + step * direction)))
        if step_cap is not None:
            # the move's H^s norm from the two gradients (grad_s is linear);
            # the trial's gradient is needed for its energy anyway
            if _hs_length(model, trial.grad.values - point.grad.values) > step_cap:
                counts["backtracks"] += 1
                step *= opts.armijo_factor
                continue
        trial = _ball_rescale(trial, radius, boundary)
        delta = trial.u.values - u.values
        if not np.any(delta):
            return None
        slope = w * np.dot(g.values, delta)
        try:
            f_trial = trial.energy
        except EnergyOverflowError:
            f_trial = np.inf
        if f_trial <= f_u + opts.armijo_slope * min(slope, 0.0):
            return trial, step
        if (pg_norm is not None and abs(f_trial - f_u) <= _ROUNDOFF * max(1.0, abs(f_u))
                and _pg_norm(trial) < pg_norm):
            return trial, step
        counts["backtracks"] += 1
        step *= opts.armijo_factor
    return None


def _pg_norm(point: PointState) -> float:
    """Projected-gradient norm |u - P(u - g)|, zero exactly at KKT points."""
    u = point.u.values
    return float(np.linalg.norm(u - np.maximum(u - point.representer.values, 0.0)))


def _newton_direction(point: PointState, free: np.ndarray, precond, counts) -> np.ndarray:
    """Steihaug's truncated PCG for H_FF d = -g_F, zero off the free set.

    The preconditioner P_F (C + I)^{-1} P_F is the full inverse (the cached
    factor or the symbol solve) with the other entries zeroed, so nothing
    depends on the active set. CG
    stops at the Eisenstat-Walker forcing term |r| <= min(0.5, sqrt|r_0|)
    |r_0|, after _CG_MAX products, or on nonpositive curvature, returning
    the iterate so far, or the preconditioned gradient at the first product.
    """
    r = np.where(free, -point.representer.values, 0.0)
    d = np.zeros_like(r)
    r0 = np.linalg.norm(r)
    if r0 == 0.0:
        return d
    stop = min(0.5, np.sqrt(r0)) * r0
    z = np.where(free, precond(r), 0.0)
    p, rz = z, np.dot(r, z)
    for j in range(_CG_MAX):
        hp = np.where(free, point.hessian_vec(p), 0.0)
        counts["cg_iterations"] += 1
        counts["hessian_products"] += 1
        curvature = np.dot(p, hp)
        if curvature <= 0.0:
            counts["negative_curvature_exits"] += 1
            return p if j == 0 else d
        alpha = rz / curvature
        d += alpha * p
        r -= alpha * hp
        if np.linalg.norm(r) <= stop:
            break
        z = np.where(free, precond(r), 0.0)
        rz, rz_old = np.dot(r, z), rz
        p = z + (rz / rz_old) * p
    return d


def _hs_length(model: EnergyModel, dgrad: np.ndarray):
    """H^s norm of a difference of points from the difference of their
    gradients dgrad (N, d), or per row of a stack (P, N, d)."""
    return np.sqrt(model.grid.weight * np.sum(dgrad**2, axis=(-2, -1)))


def _classify(u: Field, converged: bool) -> str:
    l2 = float(np.sqrt(u.grid.weight * np.dot(u.values, u.values)))
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
    l2 = float(np.sqrt(u.grid.weight * np.dot(u.values, u.values)))
    if l2 <= TRIVIAL_L2 or l2 > _DRAIN_BAND:
        return True
    return kkt <= tol_g * (l2 / _DRAIN_BAND)


def minimize_cone(model: EnergyModel, opts: SolverOptions, u0: Field,
                  precond_op: NonlocalOperator | None = None,
                  lambda1: float | None = None) -> SolveReport:
    """Projected Newton-CG over the cone (Bertsekas 1982, Steihaug 1983).

    Nodes in the epsilon-active set {u_i <= eps, g_i > 0}, eps = min(c max u,
    |u - P(u - g)|) floored at opts.tol_active, move by -g; the others by
    the truncated Newton step (_newton_direction). A projected Armijo search
    along P(u + alpha d), with the ball rescale, accepts the step.
    Terminates when the KKT residual reaches opts.tol_g; non-convergence is
    reported (classification "failed"), not raised. Without a ball radius,
    10x the coercivity-ball estimate is used (and reported) if the model is
    coercive. diagnostics["counts"] tallies the search and CG work.
    """
    precond = _Preconditioner(precond_op, symbol=True)
    point = PointState(model, project_cone(u0))

    radius = opts.ball_radius
    if radius is None and lambda1 is not None:
        est = coercivity_radius(model, lambda1)
        if est is not None:
            radius = 10.0 * est

    boundary: dict = {"hits": 0, "condition": None, "last_inner_product": None}
    counts = dict.fromkeys(("trials", "backtracks", "cg_iterations", "hessian_products",
                            "negative_curvature_exits"), 0)
    kkt = _kkt(point, opts.tol_active)
    converged = _first_order_done(kkt, point.u, opts.tol_g)
    it = 0
    energy_trace = [point.energy]
    hs_trace_max = point.hs_norm

    while not converged and it < opts.max_iter:
        it += 1
        u, g = point.u.values, point.representer.values
        pg_norm = _pg_norm(point)
        eps = max(min(_ACTIVE_SCALE * np.max(u), pg_norm), opts.tol_active)
        free = (u > eps) | (g <= 0.0)
        direction = np.where(free, _newton_direction(point, free, precond, counts), -g)
        res = _armijo_step(model, opts, point, direction, radius=radius,
                           boundary=boundary, counts=counts, pg_norm=pg_norm)
        if res is None:
            break
        point = res[0]
        energy_trace.append(point.energy)
        hs_trace_max = max(hs_trace_max, point.hs_norm)
        kkt = _kkt(point, opts.tol_active)
        converged = _first_order_done(kkt, point.u, opts.tol_g)

    u = point.u
    l2 = float(np.sqrt(u.grid.weight * np.dot(u.values, u.values)))
    hs = point.hs_norm
    ball_margin = None
    if model.reaction is not None:
        h_l2 = float(np.sqrt(model.grid.weight
                             * np.dot(model.forcing.values, model.forcing.values)))
        r_eff = radius if radius is not None else max(model.reaction.onset_t0, hs, 1.0)
        r_eff = max(r_eff, model.reaction.onset_t0)
        ball_margin = check_ball_condition(r_eff, model.reaction, h_l2).margin
    return SolveReport(
        solution=u, energy=point.energy, kkt_residual=kkt, iterations=it,
        classification=_classify(u, converged), hs_norm=hs, l2_norm=l2,
        ball_radius=radius, ball_margin=ball_margin, boundary=boundary,
        diagnostics={"energy_trace": energy_trace, "hs_trace_max": hs_trace_max,
                     "counts": counts},
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
    return RaySearchResult(t_star=t_star, t_values=ts, energies=energies,
                           margin=margin)


# ---------------------------------------------------------------------------
# mountain pass
# ---------------------------------------------------------------------------


def _respline(model: EnergyModel, vals: np.ndarray, grads: np.ndarray):
    """Redistribute the path points (values (P, N), gradients (P, N, d)) at
    equal H^s arclength, endpoints fixed; returns new (values, gradients).

    Segment lengths come from the gradients the path holds (grad_s is
    linear). A new point is a convex combination of two nonnegative
    neighbours, so it stays in the cone; the new gradients come from one
    batched product.
    """
    cum = np.concatenate([[0.0], np.cumsum(_hs_length(model, np.diff(grads, axis=0)))])
    total = cum[-1]
    if total == 0.0:
        return vals, grads
    targets = np.linspace(0.0, total, len(vals))[1:-1]
    k = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(vals) - 2)
    seg = cum[k + 1] - cum[k]
    lam = np.divide(targets - cum[k], seg, out=np.zeros_like(seg), where=seg != 0.0)
    new_vals, new_grads = vals.copy(), grads.copy()
    new_vals[1:-1] = (1.0 - lam)[:, None] * vals[k] + lam[:, None] * vals[k + 1]
    new_grads[1:-1] = apply_gradient_batch(model.grad_op, new_vals[1:-1])
    return new_vals, new_grads


def _refresh_unstable_mode(point: PointState, v, precond, sweeps=4):
    """Estimate the lowest-curvature direction at a point.

    Preconditioned Rayleigh-quotient descent on the exact Hessian (one
    forward and one transposed table apply per product); this is the
    minimum-mode step of dimer-type saddle search.
    """
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(sweeps):
        hv = point.hessian_vec(v)
        lam = float(np.dot(v, hv))
        resid = hv - lam * v
        step = precond(resid)
        v = v - step
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            break
        v = v / nrm
    return v, lam


def mountain_pass(model: EnergyModel, u_low: Field, u_far: Field,
                  opts: SolverOptions,
                  precond_op: NonlocalOperator | None = None,
                  r_h: float | None = None,
                  sphere_samples: int = 32, seed: int = 0) -> SolveReport:
    """Discrete path deformation toward the barrier critical point.

    Preconditions: E(u_far) < E(u_low) and both endpoints nonnegative
    (typically u_low is a minimizer or zero, u_far a point found by
    ray_search beyond the barrier). Returns the limiting path maximizer
    with its min-max level c; if r_h is supplied the report also records a
    sampled sphere infimum at radius r_h for the barrier inequality
    c >= alpha(r_h) > 0.
    """
    f_low = energy(model, u_low)
    f_far = energy(model, u_far)
    if not f_far < f_low:
        raise ValueError(
            f"mountain-pass geometry violated: E(u_far)={f_far:.6g} is not "
            f"below E(u_low)={f_low:.6g}"
        )
    if np.any(u_low.values < 0) or np.any(u_far.values < 0):
        raise ValueError("mountain-pass endpoints must be nonnegative")

    precond = _Preconditioner(precond_op)
    grid = model.grid
    w = grid.weight
    p_count = opts.path_points
    # the path: values (P, N) on the segment, projected to the cone, and
    # their gradients (P, N, d) from one batched product
    lam = np.linspace(0.0, 1.0, p_count)[:, None]
    vals = np.maximum((1 - lam) * u_low.values + lam * u_far.values, 0.0)
    grads = apply_gradient_batch(model.grad_op, vals)

    def path_point(k: int) -> PointState:
        return PointState(model, Field(grid, vals[k]), VectorField(grid, grads[k]))

    total_len = float(_hs_length(model, grads[-1] - grads[0]))
    step_cap = opts.path_step_cap
    if step_cap is None:
        # one path segment: keeps the maximizer from teleporting into the
        # unbounded valley beyond the barrier
        step_cap = max(total_len / (p_count - 1), 1e-12)

    endpoint_level = max(f_low, f_far)
    barrier_min_gap = np.inf
    levels: list[float] = []
    kkt = np.inf
    it = 0
    budget_a = min(max(opts.max_iter // 4, 20), 400, opts.max_iter)
    stall = 0
    best_kkt = np.inf

    while it < budget_a:
        it += 1
        energies = path_energies(model, vals, grads)
        k = 1 + int(np.argmax(energies[1:-1]))
        level = float(energies[k])
        levels.append(level)
        barrier_min_gap = min(barrier_min_gap, level - endpoint_level)
        peak = path_point(k)
        kkt = _kkt(peak, opts.tol_active)
        if kkt <= opts.tol_g:
            break
        if kkt < 0.9 * best_kkt:
            best_kkt, stall = kkt, 0
        else:
            stall += 1
            if stall >= 30:
                break
        direction = -precond(peak.representer.values)
        res = _armijo_step(model, opts, peak, direction,
                           step0=1.0, step_cap=step_cap)
        if res is not None:
            vals[k], grads[k] = res[0].u.values, res[0].grad.values
        vals, grads = _respline(model, vals, grads)

    # phase B: minimum-mode-following polish of the near-barrier maximizer.
    # The gradient component along the unstable direction is reflected, so
    # plain descent dynamics converge to the index-1 saddle; steps are
    # accepted only when the preconditioned gradient norm decreases, which
    # rules out sliding down the unbounded valley.
    energies = path_energies(model, vals, grads)
    k = 1 + int(np.argmax(energies[1:-1]))
    point = path_point(k)
    mode = vals[min(k + 1, p_count - 1)] - vals[max(k - 1, 0)]
    if not np.any(mode):
        mode = np.ones(grid.n_nodes)

    def merit(at: PointState) -> tuple[float, np.ndarray]:
        """Preconditioned gradient norm at a point, and that gradient."""
        pg = precond(at.representer.values)
        return float(np.sqrt(w) * np.linalg.norm(pg)), pg

    m_u, pg = merit(point)
    kkt = _kkt(point, opts.tol_active)
    converged = kkt <= opts.tol_g
    alpha = 1.0
    while not converged and it < opts.max_iter:
        it += 1
        mode, curvature = _refresh_unstable_mode(point, mode, precond)
        d = -pg
        if curvature < 0.0:
            # reflect the component along the unstable mode
            d += 2.0 * mode * (np.dot(pg, mode) / np.dot(mode, mode))
        alpha = min(2.0 * alpha, 1.0)
        accepted = False
        u = point.u
        for _ in range(40):
            trial = PointState(model, project_cone(Field(u.grid, u.values + alpha * d)))
            if not np.any(trial.u.values - u.values):
                break
            m_t, pg_t = merit(trial)
            if m_t <= m_u * (1.0 - 1e-4 * alpha) or m_t < m_u * 0.999:
                point, m_u, pg = trial, m_t, pg_t
                accepted = True
                break
            alpha *= 0.5
        level = point.energy
        levels.append(level)
        barrier_min_gap = min(barrier_min_gap, level - endpoint_level)
        kkt = _kkt(point, opts.tol_active)
        if kkt <= opts.tol_g:
            converged = True
        if not accepted and alpha < 1e-14:
            break

    final = point.u
    f_final = point.energy
    l2_final = float(np.sqrt(w * np.dot(final.values, final.values)))
    # a mountain-pass point is a nontrivial critical point strictly above
    # both endpoint levels; a first-order point that drifted to the trivial
    # state or below the barrier means the geometry degenerated
    converged = (kkt <= opts.tol_g and l2_final > TRIVIAL_L2
                 and f_final > endpoint_level)

    diagnostics: dict = {
        "levels_head": [float(v) for v in levels[:5]],
        "level_final": f_final,
        "barrier_min_gap": float(barrier_min_gap),
        "endpoint_level": float(endpoint_level),
    }
    if r_h is not None:
        rng = np.random.default_rng(seed)
        samples = np.maximum(rng.standard_normal((sphere_samples, grid.n_nodes)), 0.0)
        sample_grads = apply_gradient_batch(model.grad_op, samples)
        norms = _hs_length(model, sample_grads)
        keep = norms != 0.0
        scale = r_h / norms[keep]
        sphere_vals = path_energies(model, scale[:, None] * samples[keep],
                                    scale[:, None, None] * sample_grads[keep])
        diagnostics["sphere_radius"] = r_h
        diagnostics["sphere_inf_sampled"] = float(np.min(sphere_vals))
        diagnostics["level_above_sphere_inf"] = bool(f_final >= np.min(sphere_vals))

    return SolveReport(
        solution=final, energy=f_final, kkt_residual=kkt, iterations=it,
        classification="mountain-pass" if converged else "failed",
        hs_norm=point.hs_norm, l2_norm=l2_final,
        level=f_final, diagnostics=diagnostics,
    )
