"""Shared fixtures: assembled operators are expensive enough to cache per session."""

import sys

import numpy as np
import pytest

from fracvar import (DomainSpec, assemble_gradient, assemble_laplacian,
                     build_grid, first_eigenpair, make_coefficient)
from fracvar.fracops import composition_matrix


@pytest.fixture(scope="session")
def grid_1d_128():
    return build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(128,)))


@pytest.fixture(scope="session")
def grad_128(grid_1d_128):
    return assemble_gradient(grid_1d_128, 0.5)


@pytest.fixture(scope="session")
def lap_128(grid_1d_128):
    return assemble_laplacian(grid_1d_128, 0.5)


@pytest.fixture(scope="session")
def eig_128(lap_128):
    return first_eigenpair(lap_128)


@pytest.fixture(scope="session")
def comp_matrix_128(grad_128):
    return composition_matrix(grad_128)


@pytest.fixture(scope="session")
def power_coeff():
    return make_coefficient("power", {"A": 1.0, "B": 2.0, "p": 1.5})


@pytest.fixture(scope="session")
def grid_2d_16():
    return build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(16, 16)))


@pytest.fixture(scope="session")
def grad_2d_16(grid_2d_16):
    return assemble_gradient(grid_2d_16, 0.5)


@pytest.fixture(scope="session")
def lap_2d_16(grid_2d_16):
    return assemble_laplacian(grid_2d_16, 0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def count_calls(monkeypatch):
    """count(fn) replaces every module-level binding of fn in the fracvar
    package by a counting wrapper (so calls through `from .fracops import
    ...` names are seen too) and returns the list that gets one entry per
    call; the bindings are restored after the test."""
    def count(fn) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "fracvar" or name.startswith("fracvar."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, key, counted)
        return calls
    return count
