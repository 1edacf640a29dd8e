import numpy as np
import pytest

from fracvar import (DomainSpec, EnergyModel, Field, PointState, apply_gradient,
                     assemble_gradient, build_grid, composition_residual, convexity_gap,
                     field_from_function, fracops, hs_norm, kkt_residual, make_coefficient,
                     make_reaction, monotonicity_pairing, path_energies, weighted_form)
from fracvar.coeffs import COEFFICIENT_FAMILIES, REACTION_FAMILIES
from fracvar.energy import EnergyOverflowError


@pytest.fixture(scope="module")
def zero_h(grid_1d_128):
    return Field(grid_1d_128, np.zeros(128))


@pytest.fixture(scope="module")
def quasilinear_model(grad_128, power_coeff, zero_h):
    reaction = make_reaction("cubic_saturating", {"kappa": 3.0})
    return EnergyModel(grad_op=grad_128, coeff=power_coeff, reaction=reaction,
                       forcing=zero_h)


def pairing(point, phi):
    """E'(u)[phi] from the representer: w <representer, phi>."""
    return float(point.u.grid.weight * np.dot(point.representer.values, phi.values))


def directional(point, phi):
    """E'(u)[phi] by the raw quadrature of the derivative formula,
    w [sum flux . grad_s phi - f(u) phi - h phi]: forward applies only, an
    evaluation path independent of the representer's transposed apply."""
    model = point.model
    gphi = apply_gradient(model.grad_op, phi)
    return float(model.grid.weight * (
        np.sum(point.flux * gphi.values)
        - np.dot(model.f(point.u.values), phi.values)
        - np.dot(model.forcing.values, phi.values)
    ))


def test_zero_field_zero_energy(quasilinear_model, grid_1d_128):
    z = Field(grid_1d_128, np.zeros(128))
    assert PointState(quasilinear_model, z).energy == 0.0


def test_quadratic_case_matches_laplacian_form(grid_1d_128, grad_128, lap_128, rng):
    # gamma == 1, f == 0: the energy is the gradient-table Dirichlet form,
    # which matches the assembled Laplacian's quadratic form up to the
    # composition residual of the test field
    coeff = make_coefficient("constant", {"c": 1.0})
    h = Field(grid_1d_128, np.abs(rng.standard_normal(128)))
    model = EnergyModel(grad_op=grad_128, coeff=coeff, reaction=None, forcing=h)
    w = grid_1d_128.weight
    for _ in range(5):
        sharp = rng.uniform(20, 60)
        cen = rng.uniform(0.35, 0.65)
        u = field_from_function(grid_1d_128, lambda x: np.exp(-sharp * (x - cen) ** 2))
        e = PointState(model, u).energy
        lap_quad = 0.5 * w * np.dot(u.values, lap_128.to_dense() @ u.values) \
            - w * np.dot(h.values, u.values)
        grad_quad = e + w * np.dot(h.values, u.values)
        comp = composition_residual(grad_128, lap_128, u)
        assert abs(e - lap_quad) <= 0.5 * comp * abs(grad_quad) + 1e-12


def test_small_amplitude_scaling_quadratic(quasilinear_model, grid_1d_128):
    # f'(0) = 0 and h = 0, so E(t u) has no linear term: the log-log slope
    # of t -> E(t u) at small t is 2
    u = field_from_function(grid_1d_128, lambda x: np.exp(-30 * (x - 0.5) ** 2))
    ts = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    es = np.array([PointState(quasilinear_model, Field(grid_1d_128, t * u.values)).energy
                   for t in ts])
    slope = np.polyfit(np.log(ts), np.log(np.abs(es)), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_gradient_zero_at_origin(quasilinear_model, grid_1d_128):
    z = Field(grid_1d_128, np.zeros(128))
    assert np.all(PointState(quasilinear_model, z).representer.values == 0.0)


def test_gradient_matches_central_differences(quasilinear_model, grid_1d_128, rng):
    for _ in range(20):
        u = Field(grid_1d_128, rng.standard_normal(128))
        phi = Field(grid_1d_128, rng.standard_normal(128))
        drv = pairing(PointState(quasilinear_model, u), phi)
        eps = 1e-5 * np.linalg.norm(u.values) / np.linalg.norm(phi.values)
        plus = PointState(quasilinear_model, Field(grid_1d_128, u.values + eps * phi.values))
        minus = PointState(quasilinear_model, Field(grid_1d_128, u.values - eps * phi.values))
        fd = (plus.energy - minus.energy) / (2 * eps)
        assert abs(drv - fd) <= 1e-5 * max(1.0, abs(fd))


def test_representer_reproduces_directional(quasilinear_model, grid_1d_128, rng):
    u = Field(grid_1d_128, rng.standard_normal(128))
    point = PointState(quasilinear_model, u)
    for _ in range(10):
        phi = Field(grid_1d_128, rng.standard_normal(128))
        drv = pairing(point, phi)
        assert abs(drv - directional(point, phi)) <= 1e-12 * (1 + abs(drv))


@pytest.mark.parametrize("grid_name, op_name", [("grid_1d_128", "grad_128"),
                                                 ("grid_2d_16", "grad_2d_16")], ids=["1d", "2d"])
def test_point_state_applies_the_table_once_each_way(request, count_calls, power_coeff, rng,
                                                     grid_name, op_name):
    # the energy, the representer, the norm and the KKT residual, each read
    # twice, cost one forward and one transposed apply of the gradient table
    grid, grad_op = request.getfixturevalue(grid_name), request.getfixturevalue(op_name)
    n = grid.n_nodes
    model = EnergyModel(grad_op=grad_op, coeff=power_coeff,
                        reaction=make_reaction("cubic_saturating"),
                        forcing=Field(grid, np.abs(rng.standard_normal(n))))
    forward = count_calls(fracops.apply_gradient)
    transposed = count_calls(fracops.apply_divergence)
    point = PointState(model, Field(grid, np.maximum(rng.standard_normal(n), 0.0)))
    reads = [(point.energy, point.representer, point.hs_norm, kkt_residual(point))
             for _ in range(2)]
    assert (len(forward), len(transposed)) == (1, 1)
    assert reads[0][1] is reads[1][1]


def test_convexity_gap_zero_at_equal(quasilinear_model, grid_1d_128, rng):
    u = Field(grid_1d_128, rng.standard_normal(128))
    assert convexity_gap(quasilinear_model, u, u) == 0.0


def test_convexity_gap_nonnegative_100_pairs(quasilinear_model, grid_1d_128, rng):
    worst = np.inf
    for _ in range(100):
        u1 = Field(grid_1d_128, rng.standard_normal(128))
        u2 = Field(grid_1d_128, rng.standard_normal(128))
        worst = min(worst, convexity_gap(quasilinear_model, u1, u2))
    assert worst >= -1e-10


def test_convexity_gap_constant_gamma_closed_form(grid_1d_128, grad_128, zero_h, rng):
    c = 2.0
    coeff = make_coefficient("constant", {"c": c})
    model = EnergyModel(grad_op=grad_128, coeff=coeff, reaction=None, forcing=zero_h)
    u1 = Field(grid_1d_128, rng.standard_normal(128))
    u2 = Field(grid_1d_128, rng.standard_normal(128))
    gap = convexity_gap(model, u1, u2)
    diff = Field(grid_1d_128, u1.values - u2.values)
    expected = 0.5 * c * hs_norm(grad_128, diff) ** 2
    assert gap == pytest.approx(expected, rel=1e-10)
    assert gap >= 0.0


def test_quasilinear_part_constant_gamma(grid_1d_128, grad_128, zero_h, rng):
    coeff = make_coefficient("constant", {"c": 2.0})
    model = EnergyModel(grad_op=grad_128, coeff=coeff, reaction=None, forcing=zero_h)
    u = Field(grid_1d_128, rng.standard_normal(128))
    # f == 0 and h == 0: the energy is the quasilinear part int Gamma(q / 2)
    assert PointState(model, u).energy == pytest.approx(hs_norm(grad_128, u) ** 2, rel=1e-12)


class TestWeightedForm:
    def test_constant_gamma_independent_of_scale(self, grid_1d_128, grad_128, zero_h, rng):
        c = 2.0
        coeff = make_coefficient("constant", {"c": c})
        model = EnergyModel(grad_op=grad_128, coeff=coeff, reaction=None, forcing=zero_h)
        v = Field(grid_1d_128, rng.standard_normal(128))
        w_fld = Field(grid_1d_128, rng.standard_normal(128))
        base = weighted_form(model, 1.0, v, w_fld)
        for t in (1.0, 0.25, 1e-3):
            assert weighted_form(model, t, v, w_fld) == base

    def test_converges_to_gamma_inf_pairing(self, grid_1d_128, grad_128, power_coeff, zero_h):
        from fracvar import apply_gradient

        model = EnergyModel(grad_op=grad_128, coeff=power_coeff, reaction=None,
                            forcing=zero_h)
        v = field_from_function(grid_1d_128,
                                lambda x: 20.0 * np.exp(-40 * (x - 0.5) ** 2))
        gv = apply_gradient(grad_128, v).values
        limit = power_coeff.gamma_inf * grid_1d_128.weight * np.sum(gv**2)
        errs = [abs(weighted_form(model, 2.0**-k, v, v) - limit) / abs(limit)
                for k in range(13)]
        assert errs[-1] <= 0.01
        assert all(a >= b - 1e-15 for a, b in zip(errs[2:], errs[3:]))

    def test_orthogonalized_direction_vanishes(self, grid_1d_128, grad_128,
                                               power_coeff, zero_h, rng):
        from fracvar import apply_gradient

        model = EnergyModel(grad_op=grad_128, coeff=power_coeff, reaction=None,
                            forcing=zero_h)
        v = field_from_function(grid_1d_128,
                                lambda x: 20.0 * np.exp(-40 * (x - 0.5) ** 2))
        w_raw = Field(grid_1d_128, rng.standard_normal(128))
        gv = apply_gradient(grad_128, v).values
        gw = apply_gradient(grad_128, w_raw).values
        # orthogonalize against the constant-weight pairing numerically
        alpha = np.sum(gv * gw) / np.sum(gv * gv)
        w_fld = Field(grid_1d_128, w_raw.values - alpha * v.values)
        base = abs(weighted_form(model, 1.0, v, w_fld))
        tail = abs(weighted_form(model, 2.0**-12, v, w_fld))
        scale = power_coeff.gamma_inf * grid_1d_128.weight * np.sum(gv**2)
        assert tail <= 0.02 * scale
        assert tail <= base + 1e-12

    def test_rejects_nonpositive_scale(self, quasilinear_model, grid_1d_128):
        v = Field(grid_1d_128, np.ones(128))
        with pytest.raises(ValueError):
            weighted_form(quasilinear_model, 0.0, v, v)


class TestMonotonicityPairing:
    def test_against_zero_vector(self, power_coeff):
        z1 = np.array([1.0, 2.0])
        val = monotonicity_pairing(power_coeff, z1, np.zeros(2))
        mag2 = float(np.dot(z1, z1))
        assert val == pytest.approx(power_coeff.gamma(mag2 / 2.0) * mag2, rel=1e-12)
        assert val > 0.0

    def test_zero_at_equal(self, power_coeff, rng):
        z = rng.standard_normal(2)
        assert monotonicity_pairing(power_coeff, z, z) == 0.0

    def test_1000_random_pairs(self, power_coeff, rng):
        worst = np.inf
        worst_sep = np.inf
        for _ in range(1000):
            z1 = rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2)
            z2 = rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2)
            val = monotonicity_pairing(power_coeff, z1, z2)
            worst = min(worst, val)
            gap2 = float(np.sum((z1 - z2) ** 2))
            if gap2 >= 1e-6:
                worst_sep = min(worst_sep, val / gap2)
        assert worst >= -1e-12
        assert worst_sep >= 1e-12


def test_overflow_reported_not_clamped(quasilinear_model, grid_1d_128):
    huge = Field(grid_1d_128, np.full(128, 1e160))
    with pytest.raises(EnergyOverflowError):
        PointState(quasilinear_model, huge).energy


def test_nonneg_forcing_enforced(grad_128, power_coeff, grid_1d_128):
    h = Field(grid_1d_128, -np.ones(128))
    with pytest.raises(ValueError, match="nonneg"):
        EnergyModel(grad_op=grad_128, coeff=power_coeff, reaction=None, forcing=h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_forcing_enforced(grad_128, power_coeff, grid_1d_128, bad):
    # NaN passes the sign test, and the solver then misreports an overflow
    values = np.ones(128)
    values[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        EnergyModel(grad_op=grad_128, coeff=power_coeff, reaction=None,
                    forcing=Field(grid_1d_128, values))


def gradients(grad_op, vals):
    """The fractional gradients of the rows of vals, stacked (P, N, d)."""
    return np.stack([apply_gradient(grad_op, Field(grad_op.grid, v)).values for v in vals])


class TestPathEnergies:
    def test_matches_per_point_energy(self, quasilinear_model, grid_1d_128, grad_128, rng):
        vals = np.abs(rng.standard_normal((9, 128))) * np.logspace(-3, 2, 9)[:, None]
        vals[0] = 0.0
        batched = path_energies(quasilinear_model, vals, gradients(grad_128, vals))
        single = np.array([PointState(quasilinear_model, Field(grid_1d_128, v)).energy
                           for v in vals])
        assert np.allclose(batched, single, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("scale,overflows", [(1.0, False), (1e70, False), (1e160, True)])
    def test_raises_where_energy_does(self, quasilinear_model, grid_1d_128, grad_128,
                                      scale, overflows):
        row = np.full(128, scale)
        vals = np.stack([np.zeros(128), row])
        grads = gradients(grad_128, vals)
        if overflows:
            with pytest.raises(EnergyOverflowError):
                PointState(quasilinear_model, Field(grid_1d_128, row)).energy
            with pytest.raises(EnergyOverflowError):
                path_energies(quasilinear_model, vals, grads)
        else:
            assert np.isfinite(PointState(quasilinear_model, Field(grid_1d_128, row)).energy)
            assert np.all(np.isfinite(path_energies(quasilinear_model, vals, grads)))


def _central_difference_hvp(model, u, v, eps):
    grid = model.grid
    plus = PointState(model, Field(grid, u + eps * v)).representer.values
    minus = PointState(model, Field(grid, u - eps * v)).representer.values
    return (plus - minus) / (2.0 * eps)


class TestHessianVec:
    @pytest.mark.parametrize("coeff_family", sorted(COEFFICIENT_FAMILIES))
    @pytest.mark.parametrize("reaction_family", sorted(REACTION_FAMILIES))
    def test_matches_central_differences(self, grid_1d_128, grad_128, zero_h, rng,
                                         coeff_family, reaction_family):
        model = EnergyModel(grad_op=grad_128, coeff=make_coefficient(coeff_family),
                            reaction=make_reaction(reaction_family), forcing=zero_h)
        for _ in range(3):
            u = 0.1 + np.abs(rng.standard_normal(128))
            v = rng.standard_normal(128)
            exact = PointState(model, Field(grid_1d_128, u)).hessian_vec(v)
            fd = _central_difference_hvp(model, u, v, 1e-5 * np.linalg.norm(u) / np.linalg.norm(v))
            assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(exact)

    def test_matches_central_differences_2d(self, grid_2d_16, grad_2d_16, rng):
        h = Field(grid_2d_16, np.zeros(grid_2d_16.n_nodes))
        model = EnergyModel(grad_op=grad_2d_16, coeff=make_coefficient("power"),
                            reaction=make_reaction("cubic_saturating"), forcing=h)
        u = 0.1 + np.abs(rng.standard_normal(grid_2d_16.n_nodes))
        v = rng.standard_normal(grid_2d_16.n_nodes)
        exact = PointState(model, Field(grid_2d_16, u)).hessian_vec(v)
        fd = _central_difference_hvp(model, u, v, 1e-5 * np.linalg.norm(u) / np.linalg.norm(v))
        assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(exact)

    def test_symmetric(self, quasilinear_model, grid_1d_128, rng):
        point = PointState(quasilinear_model, Field(grid_1d_128, np.abs(rng.standard_normal(128))))
        a, b = rng.standard_normal(128), rng.standard_normal(128)
        lhs, rhs = np.dot(a, point.hessian_vec(b)), np.dot(b, point.hessian_vec(a))
        assert lhs == pytest.approx(rhs, rel=1e-12)
