"""Regime experiments, the operator identity suite, and the scaling-limit check.

Three experiment families mirror the structure of the existence theory:

* sublinear regime: sweep the reaction strength nu, read each cone
  minimizer's verdict (trivial / local-min), and locate the threshold
  by bisection. Small nu admits only the trivial solution; large nu
  produces a negative-energy nontrivial minimizer; any nonzero forcing
  makes the minimizer nontrivial for every nu.

* linear-growth regime: the two-solution pipeline. Eigenpair, hypothesis
  audit, cone minimization (the local minimizer), a ray search along the
  ground state to find a point below the minimizer's level, a mountain
  pass between them, and a distinctness check of the two critical points.

* identity suite / scaling limit: quantitative checks of the operator
  calculus (duality, independent divergence quadrature, composition with
  refinement, the one-dimensional sign-pattern computation) and of the
  convergence of the scaled quasilinear form to its constant-coefficient
  limit.

Experiments never assert a theorem conclusion when the hypothesis audit is
violated; negative controls are expected to fail their geometry checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from . import coeffs as coeffs_mod
from .coeffs import CoefficientModel, HypothesisReport, ReactionModel
from .energy import (EnergyModel, PointState, convexity_gap, hs_norm, monotonicity_pairing,
                     weighted_form)
# perfbench's traced runs wrap cho_factor and cho_solve by these module names
from .fracops import (NonlocalOperator, apply_divergence, apply_gradient,
                      assemble_gradient, assemble_laplacian, cho_factor, cho_solve,
                      composition_residual, normalizing_constants)
from .grid import (DomainSpec, Field, Grid, build_grid, field_from_function, l2_inner,
                   read_field)
from .solvers import (RaySearchResult, SolveReport, SolverOptions, minimize_cone, mountain_pass,
                      project_cone, ray_search)
from .spectral import EigenPair, composition_ground_state, first_eigenpair

__all__ = [
    "RegimeConfig",
    "PreparedProblem",
    "SublinearRun",
    "LinearRun",
    "RegimeReport",
    "IdentityCheck",
    "IdentityReport",
    "ConvergenceReport",
    "prepare",
    "default_initial_guess",
    "run_sublinear_regime",
    "linear_threshold",
    "find_nu_threshold",
    "run_linear_regime",
    "verify_identities",
    "appendix_convergence",
]


# forcing kind -> defaults of the keys it reads (a file path has none)
FORCING_KINDS = {"zero": {}, "eigenfunction": {"scale": 1.0}, "file": {"path": None}}


def forcing_spec(forcing: dict) -> dict:
    """The forcing with its kind's defaults filled in; keys the kind does not
    read, a path that is not a string and a scale that is not a finite
    nonnegative number are rejected (messages start with the key)."""
    kind = forcing.get("kind", "zero")
    if not isinstance(kind, str) or kind not in FORCING_KINDS:
        raise ValueError(f"kind must be one of {tuple(FORCING_KINDS)}, got {kind!r}")
    spec = {"kind": kind, **FORCING_KINDS[kind], **forcing}
    unread = spec.keys() - {"kind", *FORCING_KINDS[kind]}
    if unread:
        raise ValueError(f'{min(unread)} is not read by forcing kind "{kind}"')
    scale = spec.get("scale", 0.0)
    if isinstance(scale, bool) or not isinstance(scale, Real) or not 0.0 <= scale < np.inf:
        raise ValueError(f"scale must be a finite nonnegative number, got {scale!r}")
    if not isinstance(spec.get("path", ""), str):
        raise ValueError(f"path must name an FVFD file, got {spec['path']!r}")
    return spec


@dataclass(frozen=True)
class RegimeConfig:
    """Fully determined experiment setup (grid, operator, families, sweep);
    families (params None: the defaults) and forcing are stored filled in."""

    domain: DomainSpec
    s: float = 0.5
    coefficient: tuple[str, dict | None] = ("power", None)
    reaction: tuple[str, dict | None] = ("saturating", None)
    forcing: dict = field(default_factory=dict)
    solver: SolverOptions = field(default_factory=SolverOptions)
    sweep: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coefficient", (
            self.coefficient[0], coeffs_mod.make_coefficient(*self.coefficient).params))
        object.__setattr__(self, "reaction", (
            self.reaction[0], coeffs_mod.make_reaction(*self.reaction).params))
        object.__setattr__(self, "forcing", forcing_spec(self.forcing))
        object.__setattr__(self, "sweep", tuple(float(v) for v in self.sweep))


@dataclass(frozen=True, eq=False)
class PreparedProblem:
    """The gradient operator and L's first eigenpair shared by the runs of one
    config; L itself is assembled for the eigenpair only."""

    config: RegimeConfig
    grid: Grid
    grad_op: NonlocalOperator
    eigenpair: EigenPair
    coefficient: CoefficientModel

    @property
    def lambda1(self) -> float:
        return self.eigenpair.value


@dataclass(frozen=True)
class SublinearRun:
    nu: float
    report: SolveReport


@dataclass(frozen=True)
class LinearRun:
    h_scale: float
    minimizer: SolveReport
    ray: RaySearchResult
    geometry_ok: bool
    pass_report: SolveReport | None
    distance: float | None
    distinct: bool | None


@dataclass(frozen=True)
class RegimeReport:
    runs: tuple
    audit: HypothesisReport
    lambda1: float


@contextmanager
def timed(timings: dict, key: str):
    """Add the wall-clock seconds of the with-block to timings[key]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + (time.perf_counter() - t0)


def prepare(config: RegimeConfig, timings: dict | None = None) -> PreparedProblem:
    """Assemble grid, operators, and the first eigenpair for a config.

    timings, when given, receives the wall-clock seconds of the operator
    assembly (assemble_seconds) and of the eigenpair (eigenpair_seconds).
    """
    timings = {} if timings is None else timings
    grid = build_grid(config.domain)
    with timed(timings, "assemble_seconds"):
        grad_op = assemble_gradient(grid, config.s)
        lap_op = assemble_laplacian(grid, config.s)
    with timed(timings, "eigenpair_seconds"):
        pair = first_eigenpair(lap_op)
    coeff = coeffs_mod.make_coefficient(*config.coefficient)
    return PreparedProblem(config=config, grid=grid, grad_op=grad_op, eigenpair=pair,
                           coefficient=coeff)


def _prepared(config: RegimeConfig, prep: PreparedProblem | None) -> PreparedProblem:
    """prep with config in place of its own (the operators are shared), or
    prepare(config) when it is None. A prep of another domain, order s or
    coefficient would solve a different problem: ValueError, naming the field."""
    if prep is None:
        return prepare(config)
    for name in ("domain", "s", "coefficient"):
        have, want = getattr(prep.config, name), getattr(config, name)
        if have != want:
            raise ValueError(f"{name}: the prepared problem has {have!r}, the config {want!r}")
    return replace(prep, config=config)


def build_forcing(prep: PreparedProblem) -> Field:
    """Realize the config's forcing spec: zero, a multiple of phi1, or a file field."""
    spec = prep.config.forcing
    if spec["kind"] == "eigenfunction":
        return Field(prep.grid, spec["scale"] * prep.eigenpair.function.values)
    if spec["kind"] == "file":
        return read_field(spec["path"], prep.grid)
    return Field(prep.grid, np.zeros(prep.grid.n_nodes))


def default_initial_guess(prep: PreparedProblem) -> Field:
    """Deterministic start of every solve, forced or not: 1e-3 phi1.

    The first Newton-CG step from it solves the energy's own quadratic
    model there, with the minimizer's (C + I)^{-1}, so a forcing needs no
    start of its own."""
    return Field(prep.grid, 1e-3 * prep.eigenpair.function.values)


def _reaction_with(config: RegimeConfig, **overrides) -> ReactionModel:
    fam, params = config.reaction
    return coeffs_mod.make_reaction(fam, {**params, **overrides})


def _solve_once(prep: PreparedProblem, reaction: ReactionModel, h: Field,
                u0: Field | None = None) -> SolveReport:
    """minimize_cone from u0, or from default_initial_guess when it is None."""
    model = EnergyModel(grad_op=prep.grad_op, coeff=prep.coefficient,
                        reaction=reaction, forcing=h)
    u0 = default_initial_guess(prep) if u0 is None else u0
    return minimize_cone(model, prep.config.solver, u0)


def run_sublinear_regime(config: RegimeConfig,
                         prep: PreparedProblem | None = None) -> RegimeReport:
    """Sweep nu for a sublinear reaction, one cone minimization per value."""
    prep = _prepared(config, prep)
    base = _reaction_with(config)
    if base.growth_class != "sublinear":
        raise ValueError(f"sublinear regime needs a sublinear family, got {base.family!r}")
    audit = coeffs_mod.check_hypotheses(prep.coefficient, base, prep.lambda1,
                                        dimension=prep.grid.dimension, s=config.s)
    h = build_forcing(prep)
    runs = tuple(SublinearRun(nu=nu, report=_solve_once(prep, _reaction_with(config, nu=nu), h))
                 for nu in config.sweep)
    return RegimeReport(runs=runs, audit=audit, lambda1=prep.lambda1)


def linear_threshold(config: RegimeConfig,
                     prep: PreparedProblem | None = None) -> tuple[float, EigenPair]:
    """nu_lin, the nu at which u = 0 loses linear stability, and the ground
    state of C = -div_s grad_s it comes from
    (spectral.composition_ground_state, kept with the gradient operator):
    nu_lin = gamma(0) lambda_min(C) / g'(0), g the reaction at nu = 1.
    gamma(0) C is the energy's quadratic form at 0, so for zero forcing
    E''(0) is positive definite below nu_lin and indefinite above it."""
    prep = _prepared(config, prep)
    pair = composition_ground_state(prep.grad_op)
    slope = float(_reaction_with(config, nu=1.0).f_prime(0.0))
    return float(prep.coefficient.gamma(0.0)) * pair.value / slope, pair


# find_nu_threshold's final relative bracket width
REL_WIDTH = 1e-2


def find_nu_threshold(config: RegimeConfig,
                      prep: PreparedProblem | None = None,
                      runs: tuple[SublinearRun, ...] = ()) -> float:
    """The nu between a trivial and a local-min verdict, to a relative
    bracket width REL_WIDTH.

    The bracket rests on the solves' classification alone: sorted by nu,
    the sweep's verdicts must read trivial ... trivial, local-min ...
    local-min (a failed one is no evidence), else ValueError listing them,
    and a probe that ends failed raises ValueError naming its nu instead
    of moving the bracket "trivial below, local-min above". runs are
    sweep solves of this config already done (run_sublinear_regime's);
    their nu values take their verdicts instead of being solved again.
    The sweep values are solved from default_initial_guess.

    For zero forcing two probes placed from the spectrum come first
    (linear_threshold; w = 0.4 REL_WIDTH). The upper one, at
    nu_lin (1 + w) R(phi_C+) / lambda_min(C) (phi_C the ground state of C,
    R the Rayleigh quotient of C; the factor is 1 when phi_C >= 0), starts
    from t* phi_C+, t* the minimizer of E on ray_search's log grid, and
    runs only when E(t* phi_C+) < E(0): the solver never raises the energy,
    so the probe cannot drain to u = 0. The lower one, at nu_lin (1 - w),
    starts from the upper one's solution. When both certify, the bracket
    is 0.8 REL_WIDTH wide and no bisection step is solved; when the
    prediction is off (a fold, a displaced spectrum) the bracket left is
    bisected, as it is for nonzero forcing. Each bisection probe starts
    from the solution at the bracket's nontrivial end (natural-parameter
    continuation, Keller 1977). A probe outside the bracket is skipped.
    """
    prep = _prepared(config, prep)
    h = build_forcing(prep)

    def solve(nu: float, u0: Field | None = None) -> SolveReport:
        return _solve_once(prep, _reaction_with(config, nu=nu), h, u0)

    solved = {run.nu: run.report for run in runs}
    reports = {nu: solved[nu] if nu in solved else solve(nu) for nu in sorted(config.sweep)}
    verdicts = [rep.classification for rep in reports.values()]
    k, n = verdicts.count("trivial"), len(verdicts)
    if not 0 < k < n or verdicts != ["trivial"] * k + ["local-min"] * (n - k):
        raise ValueError("sweep does not bracket a trivial -> local-min transition: "
                         + ", ".join(f"nu={nu:g}:{v}" for nu, v in zip(reports, verdicts)))
    lo, hi = list(reports)[k - 1:k + 1]
    u_hi = reports[hi].solution

    def probe(nu: float, u0: Field) -> None:
        nonlocal lo, hi, u_hi
        if not lo < nu < hi:
            return
        rep = solve(nu, u0)
        if rep.classification == "failed":
            raise ValueError(f"the probe at nu={nu:g} failed after {rep.iterations} iterations")
        if rep.classification == "local-min":
            hi, u_hi = nu, rep.solution
        else:
            lo = nu

    if not np.any(h.values):
        nu_lin, ground = linear_threshold(config, prep)
        w = 0.4 * REL_WIDTH
        # u = 0 is stable in the cone up to gamma(0) min_{u >= 0} R(u) / g'(0),
        # between nu_lin and nu_lin R(phi_C+) / lambda_min (equal when phi_C >= 0)
        direction = project_cone(ground.function)
        rayleigh = hs_norm(prep.grad_op, direction) ** 2 / l2_inner(direction, direction)
        up = nu_lin * rayleigh / ground.value * (1.0 + w)
        if lo < up < hi:
            model = EnergyModel(grad_op=prep.grad_op, coeff=prep.coefficient,
                                reaction=_reaction_with(config, nu=up), forcing=h)
            ray = ray_search(model, direction)
            if ray.found:
                t_min = ray.t_values[np.argmin(ray.energies)]
                probe(up, Field(prep.grid, t_min * direction.values))
                probe(nu_lin * (1.0 - w), u_hi)
    while (hi - lo) > REL_WIDTH * 0.5 * (hi + lo):
        probe(0.5 * (lo + hi), u_hi)
    return 0.5 * (lo + hi)


def run_linear_regime(config: RegimeConfig,
                      prep: PreparedProblem | None = None,
                      timings: dict | None = None) -> RegimeReport:
    """Two-solution pipeline for the asymptotically linear reaction.

    Per sweep value delta (the forcing scale h = delta * phi1): minimize
    over the cone, search the ray t -> E(t phi1) for a point below the
    minimizer, run the mountain pass between them, and check that the two
    critical points are distinct. A failed ray search is recorded as a
    failed geometry (no second solution is claimed), which is the expected
    outcome of the negative controls. timings, when given, gets the seconds
    of the three stages summed over the sweep values (minimize_seconds with
    the initial guess, ray_seconds, mountain_pass_seconds).
    """
    prep = _prepared(config, prep)
    base = _reaction_with(config)
    if base.growth_class != "linear":
        raise ValueError(f"linear regime needs a linear-growth family, got {base.family!r}")
    audit = coeffs_mod.check_hypotheses(prep.coefficient, base, prep.lambda1,
                                        dimension=prep.grid.dimension, s=config.s)
    timings = timings if timings is not None else {}
    for key in ("minimize_seconds", "ray_seconds", "mountain_pass_seconds"):
        timings.setdefault(key, 0.0)

    runs = []
    for delta in config.sweep:
        h = Field(prep.grid, delta * prep.eigenpair.function.values)
        model = EnergyModel(grad_op=prep.grad_op, coeff=prep.coefficient,
                            reaction=base, forcing=h)
        with timed(timings, "minimize_seconds"):
            u0 = default_initial_guess(prep)
            rep1 = minimize_cone(model, config.solver, u0)
        margin = abs(rep1.energy) * (1.0 + 1e-3) + 1e-12
        with timed(timings, "ray_seconds"):
            ray = ray_search(model, prep.eigenpair.function, margin=margin)
        if not ray.found:
            runs.append(LinearRun(h_scale=delta, minimizer=rep1, ray=ray,
                                  geometry_ok=False, pass_report=None,
                                  distance=None, distinct=None))
            continue
        u_far = Field(prep.grid, ray.t_star * prep.eigenpair.function.values)
        low = (rep1.solution if rep1.classification == "local-min"
               else Field(prep.grid, np.zeros(prep.grid.n_nodes)))
        with timed(timings, "mountain_pass_seconds"):
            rep2 = mountain_pass(model, low, u_far, config.solver)
        dist = hs_norm(prep.grad_op, Field(prep.grid,
                                           rep1.solution.values - rep2.solution.values))
        distinct = (None if "failed" in (rep1.classification, rep2.classification)
                    else bool(dist >= 0.1 * max(rep1.hs_norm, rep2.hs_norm, 0.1)))
        runs.append(LinearRun(h_scale=delta, minimizer=rep1, ray=ray,
                              geometry_ok=True, pass_report=rep2,
                              distance=dist, distinct=distinct))
    return RegimeReport(runs=tuple(runs), audit=audit, lambda1=prep.lambda1)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    value: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# normalized bump sharpness of the composition test, per dimension: the 1D
# refinement study needs the sharp bump that keeps the exterior-truncation
# share of the residual subdominant, while the 2D smoke bound runs at a
# resolvable width
COMPOSITION_BUMP_SHARPNESS = {1: 640.0, 2: 10.0}
COMPOSITION_DOMAIN = ((-1.0, 1.0),)
# the 2D smoke bound's own grid: the residual falls with h, and on the
# unit square at s = 0.5 it is 0.28 on 8 x 8 cells, 0.16 on 12 x 12 and
# 0.03 on 32 x 32, so a config's coarse grid would fail the 10% bound
COMPOSITION_GRID_2D = DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(32, 32))
# the orders s of the composition and divergence-oracle checks
IDENTITY_S_VALUES = (0.3, 0.5, 0.7)
# the sign-pattern computation's order, line length and cell count
SIGN_PATTERN_S = 0.5
SIGN_PATTERN_WIDTH = 32.0
SIGN_PATTERN_NODES = 512


def _composition_bump(grid: Grid) -> Field:
    center = np.array([0.5 * (a + b) for a, b in grid.spec.bounds])
    r2 = np.sum((grid.nodes - center) ** 2, axis=1)
    width2 = min((b - a) for a, b in grid.spec.bounds) ** 2
    sharp = COMPOSITION_BUMP_SHARPNESS[grid.dimension]
    return Field(grid, np.exp(-sharp * r2 / (width2 / 4.0)))


def _duality_check(grid, grad_op, rng) -> IdentityCheck:
    worst = 0.0
    for _ in range(20):
        u = Field(grid, rng.standard_normal(grid.n_nodes))
        phi = rng.standard_normal((grid.n_nodes, len(grad_op.kernel)))
        lhs = l2_inner(u, apply_divergence(grad_op, phi))
        rhs = -grid.weight * np.sum(phi * apply_gradient(grad_op, u))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return IdentityCheck("duality", worst, 1e-12, worst <= 1e-12)


def _divergence_oracle_check(s: float) -> IdentityCheck:
    """Table divergence against adaptive continuum quadrature of the same
    integral (zero-extended smooth phi), an evaluation path independent of
    the assembled table."""
    from scipy.integrate import quad  # only this check needs it, and it is slow to import

    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(256,)))
    grad_op = assemble_gradient(grid, s)
    phi_fn = lambda x: np.sin(np.pi * x) * np.exp(-8.0 * (x - 0.4) ** 2)
    phi = field_from_function(grid, phi_fn).values[:, None]
    table_div = apply_divergence(grad_op, phi).values
    mu, _ = normalizing_constants(1, s)

    def phi_ext(y):
        return phi_fn(y) if 0.0 < y < 1.0 else 0.0

    def direct(x):
        rmax = max(x, 1.0 - x)

        def slope(r):
            if r < 1e-9:
                e = 1e-6
                return (phi_ext(x + e) - phi_ext(x - e)) / e
            return (phi_ext(x + r) - phi_ext(x - r)) / r

        cut = min(x, 1.0 - x, 0.05)
        near, _ = quad(slope, 0.0, cut, weight="alg", wvar=(-s, 0.0), limit=200)
        far_fn = lambda r: (phi_ext(x + r) - phi_ext(x - r)) * r ** (-1.0 - s)
        pts = sorted({p for p in (x, 1.0 - x) if cut < p < rmax})
        far, _ = quad(far_fn, cut, rmax, points=pts or None, limit=400)
        return mu * (near + far)

    oracle = np.array([direct(x) for x in grid.nodes[:, 0]])
    rel = float(np.linalg.norm(table_div - oracle) / np.linalg.norm(oracle))
    return IdentityCheck(f"divergence_oracle_s{s}", rel, 0.02, rel <= 0.02)


def _composition_checks(s: float) -> list[IdentityCheck]:
    residuals = []
    for n in (64, 128, 256):
        grid = build_grid(DomainSpec(bounds=COMPOSITION_DOMAIN, nodes=(n,)))
        u = _composition_bump(grid)
        grad_op = assemble_gradient(grid, s)
        lap_op = assemble_laplacian(grid, s)
        residuals.append(composition_residual(grad_op, lap_op, u))
    final = residuals[-1]
    mono = all(a > b for a, b in zip(residuals, residuals[1:]))
    return [
        IdentityCheck(f"composition_s{s}", final, 0.05, final <= 0.05),
        IdentityCheck(f"composition_decreasing_s{s}", float(mono), 1.0, mono),
    ]


def sign_pattern_checks() -> list[IdentityCheck]:
    """The one-dimensional positive/negative-part computation.

    On the truncated line of the SIGN_PATTERN_* constants, the fractional
    gradient of the positive part of the identity is positive at sample
    points on both sides of the origin, the negative part's gradient is
    negative, and their L2 pairing is strictly negative - the obstruction
    to the classical truncation argument for nonnegativity.
    """
    half = SIGN_PATTERN_WIDTH / 2.0
    grid = build_grid(DomainSpec(bounds=((-half, half),), nodes=(SIGN_PATTERN_NODES,)))
    grad_op = assemble_gradient(grid, SIGN_PATTERN_S)
    x = grid.nodes[:, 0]
    u_plus = Field(grid, np.maximum(x, 0.0))
    u_minus = Field(grid, np.maximum(-x, 0.0))
    gp = apply_gradient(grad_op, u_plus)[:, 0]
    gm = apply_gradient(grad_op, u_minus)[:, 0]
    samples = (0.5, 1.0, 2.0, 4.0, -0.5, -1.0, -2.0, -4.0)
    idx = [int(np.argmin(np.abs(x - v))) for v in samples]
    plus_min = float(np.min(gp[idx]))
    minus_max = float(np.max(gm[idx]))
    pairing = float(grid.weight * np.dot(gp, gm))
    return [
        IdentityCheck("sign_grad_plus_positive", plus_min, 0.0, plus_min > 0.0),
        IdentityCheck("sign_grad_minus_negative", minus_max, 0.0, minus_max < 0.0),
        IdentityCheck("sign_pairing_negative", pairing, 0.0, pairing < 0.0),
    ]


def _energy_property_checks(prep: PreparedProblem, rng) -> list[IdentityCheck]:
    h = Field(prep.grid, np.zeros(prep.grid.n_nodes))
    model = EnergyModel(grad_op=prep.grad_op, coeff=prep.coefficient,
                        reaction=None, forcing=h)
    worst_gap = np.inf
    for _ in range(100):
        u1 = Field(prep.grid, rng.standard_normal(prep.grid.n_nodes))
        u2 = Field(prep.grid, rng.standard_normal(prep.grid.n_nodes))
        worst_gap = min(worst_gap, convexity_gap(model, u1, u2))
    worst_pair = np.inf
    d = prep.grid.dimension
    for _ in range(1000):
        z1 = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        z2 = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        worst_pair = min(worst_pair, monotonicity_pairing(prep.coefficient, z1, z2))
    return [
        IdentityCheck("convexity_gap_min", float(worst_gap), -1e-10, worst_gap >= -1e-10),
        IdentityCheck("monotonicity_min", float(worst_pair), -1e-12, worst_pair >= -1e-12),
    ]


def verify_identities(config: RegimeConfig,
                      prep: PreparedProblem | None = None) -> IdentityReport:
    """Run the operator identity suite and the energy property checks.

    Duality and the convexity/monotonicity properties run on the config's
    grid. In 1D the suite adds the continuum divergence oracle, the
    composition refinement study at each s of IDENTITY_S_VALUES and the
    sign-pattern computation. In 2D it adds a composition smoke bound (10%)
    at each of IDENTITY_S_VALUES on its own grid, COMPOSITION_GRID_2D.
    """
    prep = _prepared(config, prep)
    rng = np.random.default_rng(config.seed)
    checks: list[IdentityCheck] = [_duality_check(prep.grid, prep.grad_op, rng)]
    if prep.grid.dimension == 1:
        for s in IDENTITY_S_VALUES:
            checks.extend(_composition_checks(s))
            checks.append(_divergence_oracle_check(s))
        checks.extend(sign_pattern_checks())
    else:
        grid = build_grid(COMPOSITION_GRID_2D)
        u = _composition_bump(grid)
        for s in IDENTITY_S_VALUES:
            res = composition_residual(assemble_gradient(grid, s), assemble_laplacian(grid, s), u)
            checks.append(IdentityCheck(f"composition_2d_s{s}", res, 0.10, res <= 0.10))
    checks.extend(_energy_property_checks(prep, rng))
    return IdentityReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# scaling limit of the quasilinear form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    scales: tuple[float, ...]
    values: tuple[float, ...]
    limit: float
    rel_errors: tuple[float, ...]
    final_rel_error: float
    nonincreasing_from_2: bool


def appendix_convergence(config: RegimeConfig,
                         prep: PreparedProblem | None = None) -> ConvergenceReport:
    """Evaluate the scaled quasilinear form along t_n = 2^{-n}, n = 0..12.

    With v = w (a scaled smooth bump) every term of the form is
    nonnegative and the deviation from the gamma-at-infinity limit
    decreases pointwise as t shrinks, so the error sequence is monotone
    by construction once the scale regime is reached; the run verifies it.
    """
    prep = _prepared(config, prep)
    grid = prep.grid
    center = np.array([0.5 * (a + b) for a, b in grid.spec.bounds])
    width2 = min((b - a) for a, b in grid.spec.bounds) ** 2
    r2 = np.sum((grid.nodes - center) ** 2, axis=1)
    v = Field(grid, 20.0 * np.exp(-40.0 * r2 / width2))
    model = EnergyModel(grad_op=prep.grad_op, coeff=prep.coefficient, reaction=None,
                        forcing=Field(grid, np.zeros(grid.n_nodes)))
    point = PointState(model, v)
    pairing = float(grid.weight * np.sum(point.grad**2))
    limit = prep.coefficient.gamma_inf * pairing

    scales = tuple(2.0 ** (-k) for k in range(13))
    values = tuple(weighted_form(point, t, point.grad) for t in scales)
    rel = tuple(abs(val - limit) / abs(limit) for val in values)
    mono = all(a >= b - 1e-15 for a, b in zip(rel[2:], rel[3:]))
    return ConvergenceReport(scales=scales, values=values, limit=limit,
                             rel_errors=rel, final_rel_error=rel[-1],
                             nonincreasing_from_2=bool(mono))
