import numpy as np
import pytest

from fracvar import DomainSpec, Field, build_grid, field_from_function, l2_inner


def test_uniform_partition_1d():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(8,)))
    assert grid.n_nodes == 8
    assert np.allclose(grid.nodes[:, 0], (np.arange(8) + 0.5) / 8.0)
    assert grid.weight == pytest.approx(1.0 / 8.0)


def test_product_grid_2d():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(4, 4)))
    assert grid.n_nodes == 16
    assert grid.weight == pytest.approx(1.0 / 16.0)


def test_weight_sum_matches_volume():
    grid = build_grid(DomainSpec(bounds=((-1.0, 1.0),), nodes=(256,)))
    assert grid.weight * grid.n_nodes == pytest.approx(2.0, rel=1e-12)


def test_refinement_halves_spacing_exactly():
    coarse = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
    fine = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(128,)))
    assert fine.n_nodes == 2 * coarse.n_nodes
    assert fine.spacing[0] == pytest.approx(coarse.spacing[0] / 2.0, abs=0.0)
    # every coarse node is the midpoint of two fine nodes, no drift
    assert np.allclose(coarse.nodes[:, 0], 0.5 * (fine.nodes[::2, 0] + fine.nodes[1::2, 0]))


@pytest.mark.parametrize("bounds,nodes", [
    (((1.0, 0.0),), (8,)),          # a >= b
    (((0.0, np.inf),), (8,)),       # non-finite
    (((0.0, 1.0),), (3,)),          # too few nodes
    (((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (4, 4, 4)),  # d = 3
])
def test_domain_spec_rejects_bad_input(bounds, nodes):
    with pytest.raises(ValueError):
        DomainSpec(bounds=bounds, nodes=nodes)


def test_field_sampling_constant():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(8,)))
    fld = field_from_function(grid, lambda x: 1.0)
    assert np.all(fld.values == 1.0)


def test_field_samples_cell_centers():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(4,)))
    fld = field_from_function(grid, lambda x: x)
    assert np.allclose(fld.values, [0.125, 0.375, 0.625, 0.875])


def test_field_rejects_non_finite():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(8,)))
    with pytest.raises(ValueError, match="non-finite"):
        field_from_function(grid, lambda x: np.nan)


def test_l2_inner_volume():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
    one = field_from_function(grid, lambda x: 1.0)
    assert l2_inner(one, one) == pytest.approx(1.0, rel=1e-12)


def test_l2_inner_midpoint_rule():
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(256,)))
    one = field_from_function(grid, lambda x: 1.0)
    ident = field_from_function(grid, lambda x: x)
    assert l2_inner(one, ident) == pytest.approx(0.5, abs=1e-6)


def test_l2_inner_bilinear_and_symmetric(rng):
    grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(32,)))
    f = Field(grid, rng.standard_normal(32))
    g = Field(grid, rng.standard_normal(32))
    assert l2_inner(f, g) == pytest.approx(l2_inner(g, f), rel=1e-14)
    neg = Field(grid, -g.values)
    assert l2_inner(neg, g) == pytest.approx(-l2_inner(g, g), rel=1e-14)
    assert l2_inner(g, g) > 0


def test_l2_inner_grid_mismatch():
    g1 = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(8,)))
    g2 = build_grid(DomainSpec(bounds=((0.0, 2.0),), nodes=(8,)))
    with pytest.raises(ValueError, match="different grids"):
        l2_inner(field_from_function(g1, lambda x: 1.0),
                 field_from_function(g2, lambda x: 1.0))
