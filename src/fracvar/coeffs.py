"""Diffusivity and reaction families with numerical hypothesis audits.

The quasilinear diffusivity is described by a primitive Gamma with
derivative gamma, pinched between positive constants gamma_min <= gamma(t)
<= gamma_max with a limit gamma_inf at infinity, and with t -> Gamma(t^2)
convex. Reactions come in two growth classes: genuinely sublinear ones
(f = nu * g with g(t) = o(t) at infinity) and asymptotically linear ones.

The existence theory hangs on asymptotic statements (limsup/liminf slope
comparisons against gamma * lambda1). Those are not decidable by a finite
computation, so the audits here sample log-spaced ranges and label their
verdicts "verified-sampled", reserving "verified-analytic" for bounds the
family carries in closed form. A failed sample is a hard "violated".
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = [
    "CoefficientModel",
    "ReactionModel",
    "HypothesisReport",
    "make_coefficient",
    "make_reaction",
    "check_hypotheses",
]

# family name -> its parameters' defaults, used whole when no params are given
COEFFICIENT_FAMILIES = {
    "power": {"A": 1.0, "B": 2.0, "p": 1.5},
    "constant": {"c": 1.0},
}
REACTION_FAMILIES = {
    "saturating": {"nu": 1.0, "amplitude": 1.0},
    "cubic_saturating": {"kappa": 1.0},
    "linear": {"kappa": 1.0},
}
# scale factors that given params may leave out; they keep their default
_OPTIONAL_PARAMS = frozenset({"amplitude"})


@dataclass(frozen=True)
class CoefficientModel:
    """Diffusivity family: primitive Gamma, derivative gamma, and the
    closed-form bounds gamma_min, gamma_max and gamma_inf."""

    family: str
    params: dict
    gamma_min: float
    gamma_max: float
    gamma_inf: float

    def gamma(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return np.full_like(t, self.params["c"])
        a, b, p = self.params["A"], self.params["B"], self.params["p"]
        return a + (b * p / 2.0) * (1.0 + t) ** (p / 2.0 - 1.0)

    def gamma_prime(self, t):
        """Derivative of gamma, in closed form."""
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return np.zeros_like(t)
        b, p = self.params["B"], self.params["p"]
        return (b * p / 2.0) * (p / 2.0 - 1.0) * (1.0 + t) ** (p / 2.0 - 2.0)

    def big_gamma(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return self.params["c"] * t
        a, b, p = self.params["A"], self.params["B"], self.params["p"]
        return a * t + b * ((1.0 + t) ** (p / 2.0) - 1.0)

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


@dataclass(frozen=True)
class ReactionModel:
    """Reaction family: f with primitive F and growth class; for the
    sublinear class f = nu * g."""

    family: str
    params: dict
    growth_class: str

    def f(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "saturating":
            return self.params["nu"] * self.params["amplitude"] * t / (1.0 + np.abs(t))
        if self.family == "cubic_saturating":
            k = self.params["kappa"]
            return k * t**3 / (1.0 + t**2)
        k = self.params["kappa"]
        return k * t

    def f_prime(self, t):
        """Derivative of f, in closed form."""
        t = np.asarray(t, dtype=float)
        if self.family == "saturating":
            return self.params["nu"] * self.params["amplitude"] / (1.0 + np.abs(t)) ** 2
        if self.family == "cubic_saturating":
            # k t^2 (3 + t^2) / (1 + t^2)^2, as two bounded ratios
            t2 = t * t
            return self.params["kappa"] * (t2 / (1.0 + t2)) * ((3.0 + t2) / (1.0 + t2))
        return np.full_like(t, self.params["kappa"])

    def big_f(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "saturating":
            return self.params["nu"] * self.params["amplitude"] * (np.abs(t) - np.log1p(np.abs(t)))
        if self.family == "cubic_saturating":
            k = self.params["kappa"]
            return 0.5 * k * (t**2 - np.log1p(t**2))
        k = self.params["kappa"]
        return 0.5 * k * t**2

    def g(self, t):
        """Underlying g of the sublinear class (f = nu * g)."""
        if self.growth_class != "sublinear":
            raise ValueError(f"family {self.family!r} has no sublinear factor g")
        t = np.asarray(t, dtype=float)
        return self.params["amplitude"] * t / (1.0 + np.abs(t))

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


@dataclass(frozen=True)
class HypothesisReport:
    """Per-hypothesis verdicts of a (coefficient, reaction) pair.

    Verdicts take values in {verified-analytic, verified-sampled, violated,
    inconclusive}; witnesses holds the sampled quantities the verdicts were
    based on.
    """

    verdicts: dict
    witnesses: dict

    def all_verified(self) -> bool:
        return all(v.startswith("verified") for v in self.verdicts.values())


def _family_params(kind: str, families: dict, family: str, params: dict | None) -> dict:
    """Parameters of one family: its defaults when params is None, else
    params with every name known, present (unless optional), and a finite
    positive number. Messages start with the offending parameter name."""
    if family not in families:
        raise ValueError(f"unknown {kind} family {family!r}; known: {tuple(families)}")
    defaults = families[family]
    if params is None:
        return dict(defaults)
    for name in params:
        if name not in defaults:
            raise ValueError(f"{name} is not a parameter of the {family} family; "
                             f"known: {', '.join(defaults)}")
    out = {}
    for name, default in defaults.items():
        if name not in params and name not in _OPTIONAL_PARAMS:
            raise ValueError(f"{name} is missing; the {family} family needs it")
        value = params.get(name, default)
        if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be a finite positive number for the "
                             f"{family} family, got {value!r}")
        out[name] = float(value)
    return out


def make_coefficient(family: str, params: dict | None = None) -> CoefficientModel:
    """Build a diffusivity model; params None means the family's defaults.

    "power": Gamma(t) = A t + B ((1+t)^{p/2} - 1) with A, B > 0 and
    1 < p < 2; gamma decreases from A + B p/2 at zero to the limit A.
    "constant": gamma == c > 0.
    """
    params = _family_params("coefficient", COEFFICIENT_FAMILIES, family, params)
    if family == "power":
        a, b, p = params["A"], params["B"], params["p"]
        if not 1.0 < p < 2.0:
            raise ValueError(f"p must lie in (1, 2) for the power family, got {p}")
        return CoefficientModel(
            family=family, params=params,
            gamma_min=a, gamma_max=a + b * p / 2.0, gamma_inf=a,
        )
    c = params["c"]
    return CoefficientModel(
        family=family, params=params,
        gamma_min=c, gamma_max=c, gamma_inf=c,
    )


def make_reaction(family: str, params: dict | None = None) -> ReactionModel:
    """Build a reaction model; params None means the family's defaults.

    "saturating": f(t) = nu * amplitude * t / (1 + |t|), sublinear class
    (slope nu*amplitude at 0, slope 0 at infinity, |f| <= nu*amplitude*|t|
    everywhere; amplitude may be left out and rescales the factor g).
    "cubic_saturating": f(t) = kappa t^3 / (1 + t^2), linear class (slope 0
    at 0, slope kappa at infinity, f(t) <= kappa t for t > 0).
    "linear": f(t) = kappa t (the negative-control family: slope at 0
    equals the slope at infinity).
    """
    params = _family_params("reaction", REACTION_FAMILIES, family, params)
    growth_class = "sublinear" if family == "saturating" else "linear"
    return ReactionModel(family=family, params=params, growth_class=growth_class)


# ---------------------------------------------------------------------------
# hypothesis audits
# ---------------------------------------------------------------------------

_SMALL_T = np.logspace(-6.0, -1.0, 60)
_LARGE_T = np.logspace(2.0, 6.0, 60)


def _audit_coefficient(coeff: CoefficientModel, verdicts, witnesses):
    t = np.concatenate([[0.0], np.logspace(-6, 6, 200)])
    gam = coeff.gamma(t)
    tol = 1e-12 * max(1.0, coeff.gamma_max)
    in_bounds = bool(
        np.all(gam >= coeff.gamma_min - tol) and np.all(gam <= coeff.gamma_max + tol)
    )
    positive = coeff.gamma_min > 0
    witnesses["gamma_range"] = (float(gam.min()), float(gam.max()))
    # both families carry their bounds in closed form
    verdicts["gamma1"] = "verified-analytic" if in_bounds and positive else "violated"

    # midpoint convexity of m(t) = Gamma(t^2) on the 496 pairs a < b of a
    # 32-point log grid: deterministic, and numpy.random stays unimported
    t = np.logspace(-4, 3, 32)
    a, b = (t[i] for i in np.triu_indices(t.size, 1))
    m = lambda t: coeff.big_gamma(np.asarray(t) ** 2)
    lhs = m(0.5 * (a + b))
    rhs = 0.5 * (m(a) + m(b))
    defect = float(np.min(rhs - lhs))
    witnesses["convexity_min_defect"] = defect
    scale = 1e-10 * max(1.0, float(np.max(np.abs(rhs))))
    verdicts["gamma2"] = "verified-sampled" if defect >= -scale else "violated"


def _audit_linear_reaction(reaction, coeff, lambda1, verdicts, witnesses, crit_p):
    slope_small = np.max(reaction.f(_SMALL_T) / _SMALL_T)
    witnesses["f1_max_small_slope"] = float(slope_small)
    thresh = coeff.gamma_min * lambda1
    verdicts["f1"] = "verified-sampled" if slope_small < thresh else "violated"

    ratio = reaction.f(_LARGE_T) / _LARGE_T**crit_p
    witnesses["f2_exponent"] = crit_p
    witnesses["f2_final_ratio"] = float(ratio[-1])
    decaying = ratio[-1] <= 1e-3 * max(ratio[0], 1e-300) or ratio[-1] < 1e-12
    verdicts["f2"] = "verified-sampled" if decaying else "inconclusive"

    slope_large = reaction.f(_LARGE_T) / _LARGE_T
    witnesses["f3_min_large_slope"] = float(np.min(slope_large))
    target = coeff.gamma_inf * lambda1
    verdicts["f3"] = (
        "verified-sampled" if np.min(slope_large) >= target * (1.0 - 1e-9) else "violated"
    )

    bounded = np.max(slope_large) < 1e12 and slope_large[-1] <= 10.0 * max(slope_large[0], 1e-300)
    witnesses["f4_final_slope"] = float(slope_large[-1])
    verdicts["f4"] = "verified-sampled" if bounded else "violated"


def _audit_sublinear_reaction(reaction, verdicts, witnesses):
    t = np.logspace(3.0, 6.0, 40)
    slopes = np.abs(reaction.g(t) / t)
    witnesses["g1_final_slope"] = float(slopes[-1])
    small = slopes[-1] <= 1e-2 and np.all(np.diff(slopes) <= 1e-15)
    verdicts["g1"] = "verified-sampled" if small else "inconclusive"

    # midpoint-rule quadrature of g as an oracle-grade integral of G(t0), t0 = 1
    rq = np.linspace(0.0, 1.0, 20001)
    mid = 0.5 * (rq[1:] + rq[:-1])
    g_t0 = float(np.sum(reaction.g(mid)) * (rq[1] - rq[0]))
    witnesses["g2_G_at_t0"] = g_t0
    verdicts["g2"] = "verified-sampled" if g_t0 > 0 else "violated"

    tt = np.logspace(-6.0, 6.0, 200)
    cg = float(np.max(np.abs(reaction.g(tt) / tt)))
    witnesses["g3_bound_Cg"] = cg
    verdicts["g3"] = "verified-sampled" if np.isfinite(cg) else "violated"


def check_hypotheses(coeff: CoefficientModel, reaction: ReactionModel,
                     lambda1: float, dimension: int = 1,
                     s: float = 0.5) -> HypothesisReport:
    """Numerically audit the standing assumptions of the existence theory.

    Slope conditions are sampled on log grids (t in [1e-6, 1e-1] near zero,
    [1e2, 1e6] at infinity) against the thresholds gamma_min * lambda1 and
    gamma_inf * lambda1. The critical exponent entering the subcritical
    growth check is 2d/(d-2s) when d > 2s and infinity otherwise (standard
    convention; the check uses the midpoint of the admissible range, capped
    at 2).
    """
    if lambda1 <= 0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    verdicts: dict = {}
    witnesses: dict = {}
    _audit_coefficient(coeff, verdicts, witnesses)
    if reaction.growth_class == "sublinear":
        _audit_sublinear_reaction(reaction, verdicts, witnesses)
    else:
        if dimension > 2 * s:
            two_star = 2.0 * dimension / (dimension - 2.0 * s)
            crit_p = min(2.0, 0.5 * (1.0 + (two_star - 1.0)))
        else:
            crit_p = 2.0
        _audit_linear_reaction(reaction, coeff, lambda1, verdicts, witnesses, crit_p)
    return HypothesisReport(verdicts=verdicts, witnesses=witnesses)
