"""Property tests of the configuration contract and the field file format.

The snapshot that parse_config returns is itself a valid configuration that
parses back to the same snapshot, a non-finite value at any numeric key is
a ConfigError that names the key, and a field written in the FVFD format
reads back bit for bit.
"""

import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracvar import DomainSpec, Field, QuadratureParams, SolverOptions, build_grid
from fracvar.cli import ConfigError, parse_config, read_field, write_field

SETTINGS = settings(max_examples=60, deadline=None)


def _parse(cfg: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        return parse_config(path)


def _positive(hi=1e6):
    return st.floats(min_value=1e-12, max_value=hi, allow_nan=False, allow_infinity=False)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


OPERATOR = {
    "rho0": st.floats(min_value=1e-6, max_value=0.5),
    "rho_tail": _optional(_positive(1e3)),
    "tail_correction": st.booleans(),
    "near_cells": st.integers(0, 32),
    "n_theta": st.integers(64, 8192),
    "nyquist_stabilization": st.floats(min_value=0.0, max_value=10.0),
}
SOLVER = {
    "max_iter": st.integers(0, 10**6),
    "tol_g": _positive(1.0),
    "armijo_factor": st.floats(min_value=1e-6, max_value=0.999),
    "armijo_slope": st.floats(min_value=1e-6, max_value=0.499),
    "ball_radius": _optional(_positive()),
    "path_points": st.integers(1, 100).map(lambda k: 2 * k + 1),
    "path_step_cap": _optional(_positive()),
    "tol_active": _positive(1.0),
}
COEFFICIENTS = st.one_of(
    st.fixed_dictionaries({"A": _positive(), "B": _positive(),
                           "p": st.floats(min_value=1.001, max_value=1.999)}).map(
        lambda p: {"family": "power", "params": p}),
    st.fixed_dictionaries({"c": _positive()}).map(
        lambda p: {"family": "constant", "params": p}),
)
REACTIONS = st.one_of(
    st.fixed_dictionaries({"nu": _positive()}, optional={"amplitude": _positive()}).map(
        lambda p: {"family": "saturating", "params": p}),
    st.sampled_from(["cubic_saturating", "linear"]).flatmap(
        lambda fam: st.fixed_dictionaries({"kappa": _positive()}).map(
            lambda p: {"family": fam, "params": p})),
)
FORCINGS = st.one_of(
    st.just({"kind": "zero"}),
    st.fixed_dictionaries({"kind": st.just("eigenfunction")},
                          optional={"scale": st.floats(min_value=0.0, max_value=1e3)}),
)


def test_strategies_cover_every_dataclass_field():
    assert set(OPERATOR) == {f.name for f in dataclasses.fields(QuadratureParams)}
    assert set(SOLVER) == {f.name for f in dataclasses.fields(SolverOptions)}


@SETTINGS
@given(
    operator=st.fixed_dictionaries({}, optional=OPERATOR),
    solver=st.fixed_dictionaries({}, optional=SOLVER),
    coefficient=COEFFICIENTS,
    reaction=REACTIONS,
    forcing=FORCINGS,
    sweep=st.lists(_positive(), max_size=4),
    seed=st.integers(0, 2**31),
    threads=st.integers(1, 4),
)
def test_snapshot_is_a_fixed_point(operator, solver, coefficient, reaction, forcing,
                                   sweep, seed, threads):
    cfg = {
        "domain": {"bounds": [[0.0, 1.0]], "nodes": [16]},
        "operator": {"s": 0.5, **operator},
        "coefficient": coefficient,
        "reaction": reaction,
        "forcing": forcing,
        "solver": solver,
        "sweep": {"values": sweep},
        "seed": seed,
        "threads": threads,
    }
    snapshot = _parse(cfg)
    assert _parse(snapshot) == snapshot
    for key, value in operator.items():
        assert snapshot["operator"][key] == value
    for key, value in solver.items():
        assert snapshot["solver"][key] == value


BASE = {
    "domain": {"bounds": [[0.0, 1.0]], "nodes": [16]},
    "operator": {"s": 0.5},
    "coefficient": {"family": "power", "params": {"A": 1.0, "B": 2.0, "p": 1.5}},
    "reaction": {"family": "saturating", "params": {"nu": 1.0, "amplitude": 1.0}},
    "forcing": {"kind": "eigenfunction", "scale": 1.0},
    "sweep": {"values": [1.0]},
}
# (path into the config, the key name the error must carry)
NUMERIC_KEYS = (
    [(("operator", "s"), "operator.s")]
    + [(("operator", f.name), f"operator.{f.name}") for f in dataclasses.fields(QuadratureParams)
       if f.type != "bool"]
    + [(("solver", f.name), f"solver.{f.name}") for f in dataclasses.fields(SolverOptions)]
    + [(("coefficient", "params", k), f"coefficient.params.{k}") for k in ("A", "B", "p")]
    + [(("reaction", "params", k), f"reaction.params.{k}") for k in ("nu", "amplitude")]
    + [(("forcing", "scale"), "forcing.scale"),
       (("sweep", "values", 0), "sweep.values[0]"),
       (("domain", "bounds", 0, 1), "domain.bounds"),
       (("domain", "nodes", 0), "domain.nodes"),
       (("seed",), "seed"),
       (("threads",), "threads")]
)


@pytest.mark.parametrize("path,name", NUMERIC_KEYS, ids=[name for _, name in NUMERIC_KEYS])
@settings(max_examples=10, deadline=None)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_value_names_its_key(path, name, value):
    cfg = json.loads(json.dumps(BASE))
    node = cfg
    for part in path[:-1]:
        node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
    node[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(name)):
        _parse(cfg)


@st.composite
def fields(draw):
    """A finite field on a 1D or 2D grid; values span the float64 range,
    signed zeros and subnormals included."""
    nodes = draw(st.one_of(st.tuples(st.integers(4, 64)),
                           st.tuples(st.integers(4, 12), st.integers(4, 12))))
    grid = build_grid(DomainSpec(bounds=tuple((0.0, 1.0) for _ in nodes), nodes=nodes))
    values = draw(arrays(np.float64, grid.n_nodes,
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Field(grid, values)


@SETTINGS
@given(fld=fields())
def test_field_file_round_trip_is_bit_exact(fld):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.fvfd"
        write_field(path, fld)
        back = read_field(path, fld.grid)
    assert back.values.tobytes() == fld.values.tobytes()
