import numpy as np
import pytest

from fracvar import check_hypotheses, make_coefficient, make_reaction


class TestCoefficientFamilies:
    def test_power_family_analytics(self, power_coeff):
        assert power_coeff.gamma_min == 1.0
        assert power_coeff.gamma_max == pytest.approx(1.0 + 2.0 * 1.5 / 2.0)
        assert power_coeff.gamma_inf == 1.0

    def test_gamma_at_zero_finite_difference(self, power_coeff):
        # derivative of the primitive at 0 as the oracle for gamma(0)
        eps = 1e-7
        fd = (power_coeff.big_gamma(eps) - power_coeff.big_gamma(0.0)) / eps
        assert power_coeff.gamma(0.0) == pytest.approx(2.5, rel=1e-6)
        assert fd == pytest.approx(power_coeff.gamma(0.0), rel=1e-5)

    def test_primitive_vanishes_at_zero(self, power_coeff):
        assert power_coeff.big_gamma(0.0) == 0.0
        const = make_coefficient("constant", {"c": 3.0})
        assert const.big_gamma(0.0) == 0.0

    def test_gamma_limit_at_infinity(self, power_coeff):
        # decay rate is t^{p/2-1} = t^{-1/4} for p = 1.5, so the 1e-2 band
        # is reached around t ~ 5e8
        assert abs(power_coeff.gamma(1e9) - 1.0) <= 1e-2
        ts = np.logspace(4, 9, 6)
        gaps = np.abs(power_coeff.gamma(ts) - power_coeff.gamma_inf)
        assert np.all(np.diff(gaps) < 0)

    def test_derivative_matches_gamma_log_spaced(self, power_coeff):
        ts = np.logspace(-3, 5, 100)
        eps = 1e-6 * np.maximum(ts, 1.0)
        fd = (power_coeff.big_gamma(ts + eps) - power_coeff.big_gamma(ts - eps)) / (2 * eps)
        assert np.allclose(fd, power_coeff.gamma(ts), rtol=1e-6)

    @pytest.mark.parametrize("family", ["power", "constant"])
    def test_gamma_prime_matches_finite_differences(self, family):
        coeff = make_coefficient(family)
        ts = np.logspace(-3, 5, 100)
        eps = 1e-6 * np.maximum(ts, 1.0)
        fd = (coeff.gamma(ts + eps) - coeff.gamma(ts - eps)) / (2 * eps)
        assert np.allclose(coeff.gamma_prime(ts), fd, rtol=1e-5, atol=1e-12)

    def test_squared_argument_midpoint_convexity(self, power_coeff, rng):
        m = lambda t: power_coeff.big_gamma(np.asarray(t) ** 2)
        a = 10.0 ** rng.uniform(-3, 3, size=1000)
        b = 10.0 ** rng.uniform(-3, 3, size=1000)
        gap = 0.5 * (m(a) + m(b)) - m(0.5 * (a + b))
        assert np.min(gap) >= -1e-10 * max(1.0, float(np.max(np.abs(m(b)))))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_coefficient("power", {"A": -1.0, "B": 2.0, "p": 1.5})
        with pytest.raises(ValueError):
            make_coefficient("power", {"A": 1.0, "B": 2.0, "p": 2.5})
        with pytest.raises(ValueError):
            make_coefficient("constant", {"c": 0.0})
        with pytest.raises(ValueError):
            make_coefficient("mystery", {})


class TestReactionFamilies:
    def test_cubic_saturating_slopes(self):
        r = make_reaction("cubic_saturating", {"kappa": 3.0})
        t = np.logspace(-6, -2, 20)
        assert np.max(r.f(t) / t) < 1e-3          # slope -> 0 at the origin
        t = np.logspace(4, 6, 20)
        assert np.min(r.f(t) / t) == pytest.approx(3.0, rel=1e-6)

    def test_saturating_primitive_positive(self):
        r = make_reaction("saturating", {"nu": 1.0})
        # quadrature oracle for the primitive of g at 1: 1 - ln 2
        grid = np.linspace(0.0, 1.0, 200001)
        mid = 0.5 * (grid[1:] + grid[:-1])
        quadrature = float(np.sum(r.g(mid)) * (grid[1] - grid[0]))
        assert quadrature == pytest.approx(1.0 - np.log(2.0), abs=1e-8)

    def test_primitive_derivative_consistency(self):
        for fam, params in (("saturating", {"nu": 2.0}),
                            ("cubic_saturating", {"kappa": 3.0}),
                            ("linear", {"kappa": 1.5})):
            r = make_reaction(fam, params)
            ts = np.logspace(-3, 4, 80)
            eps = 1e-6 * np.maximum(ts, 1.0)
            fd = (r.big_f(ts + eps) - r.big_f(ts - eps)) / (2 * eps)
            assert np.allclose(fd, r.f(ts), rtol=1e-5, atol=1e-12)

    @pytest.mark.parametrize("family,params", [("saturating", {"nu": 2.0, "amplitude": 0.5}),
                                               ("cubic_saturating", {"kappa": 3.0}),
                                               ("linear", {"kappa": 1.5})])
    def test_f_prime_matches_finite_differences(self, family, params):
        r = make_reaction(family, params)
        ts = np.concatenate([-np.logspace(-3, 4, 40), np.logspace(-3, 4, 80)])
        eps = 1e-6 * np.maximum(np.abs(ts), 1.0)
        fd = (r.f(ts + eps) - r.f(ts - eps)) / (2 * eps)
        assert np.allclose(r.f_prime(ts), fd, rtol=1e-5, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_reaction("saturating", {"nu": -1.0})
        with pytest.raises(ValueError):
            make_reaction("cubic_saturating", {"kappa": 0.0})
        with pytest.raises(ValueError):
            make_reaction("unknown", {})


class TestHypothesisAudit:
    def test_constant_gamma_cubic_reaction_verified(self):
        lam1 = 2.0
        coeff = make_coefficient("constant", {"c": 1.0})
        reaction = make_reaction("cubic_saturating", {"kappa": 2.0 * lam1})
        rep = check_hypotheses(coeff, reaction, lam1)
        assert rep.verdicts["f1"] == "verified-sampled"   # slope -> 0 < lam1
        assert rep.verdicts["f3"] == "verified-sampled"   # 2 lam1 >= lam1
        assert rep.verdicts["f4"] == "verified-sampled"   # finite limit
        assert rep.verdicts["gamma1"] == "verified-analytic"
        assert rep.verdicts["gamma2"] == "verified-sampled"

    def test_power_family_audit_passes(self, power_coeff):
        reaction = make_reaction("saturating", {"nu": 5.0})
        rep = check_hypotheses(power_coeff, reaction, 2.3)
        assert rep.all_verified()
        assert rep.witnesses["g3_bound_Cg"] == pytest.approx(1.0, rel=1e-4)

    def test_pure_linear_violates_f1(self, power_coeff):
        lam1 = 2.3
        reaction = make_reaction("linear", {"kappa": power_coeff.gamma_min * lam1})
        rep = check_hypotheses(power_coeff, reaction, lam1)
        assert rep.verdicts["f1"] == "violated"

    def test_weak_cubic_violates_f3(self, power_coeff):
        lam1 = 2.3
        reaction = make_reaction("cubic_saturating",
                                 {"kappa": 0.5 * power_coeff.gamma_min * lam1})
        rep = check_hypotheses(power_coeff, reaction, lam1)
        assert rep.verdicts["f3"] == "violated"

    def test_requires_positive_lambda(self, power_coeff):
        reaction = make_reaction("saturating", {"nu": 1.0})
        with pytest.raises(ValueError):
            check_hypotheses(power_coeff, reaction, 0.0)

