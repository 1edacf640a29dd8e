"""Property tests of the configuration contract and the field file format.

The snapshot that parse_config returns is itself a valid configuration that
parses back to the same snapshot, a non-finite value or a JSON bool at any
numeric key is a ConfigError that names the key, the README's config table lists the keys
and defaults the parser materializes, and a field written in the FVFD
format reads back bit for bit.
"""

import dataclasses
import importlib
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

from fracvar import DomainSpec, Field, SolverOptions, build_grid
from fracvar.cli import ConfigError, parse_config, read_field, write_field

SETTINGS = settings(max_examples=60, deadline=None)


def _parse(cfg: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        return parse_config(path)


def _positive(hi=1e6):
    return st.floats(min_value=1e-12, max_value=hi, allow_nan=False, allow_infinity=False)


SOLVER = {
    "max_iter": st.integers(0, 10**6),
    "tol_g": _positive(1.0),
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
    assert set(SOLVER) == {f.name for f in dataclasses.fields(SolverOptions)}


@SETTINGS
@given(
    s=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
    solver=st.fixed_dictionaries({}, optional=SOLVER),
    coefficient=COEFFICIENTS,
    reaction=REACTIONS,
    forcing=FORCINGS,
    sweep=st.lists(_positive(), max_size=4),
    seed=st.integers(0, 2**31),
    threads=st.sampled_from([{}, {"threads": 1}]),
)
def test_snapshot_is_a_fixed_point(s, solver, coefficient, reaction, forcing,
                                   sweep, seed, threads):
    cfg = {
        "domain": {"bounds": [[0.0, 1.0]], "nodes": [16]},
        "operator": {"s": s},
        "coefficient": coefficient,
        "reaction": reaction,
        "forcing": forcing,
        "solver": solver,
        "sweep": {"values": sweep},
        "seed": seed,
        **threads,
    }
    snapshot = _parse(cfg)
    assert _parse(snapshot) == snapshot
    assert snapshot["operator"] == {"s": s}
    for key, value in solver.items():
        assert snapshot["solver"][key] == value


README = Path(__file__).resolve().parents[1] / "README.md"
# a backticked key and its parenthesized default, which may hold one level
# of parentheses itself ("(required, in (0, 1))")
_README_KEY = re.compile(r"`(\w+)`(?:\s*\(((?:[^()]|\([^()]*\))*)\))?")


def _readme_row(label: str):
    """The keys of one row of the README config table, and the default of
    each key whose default is a plain literal (a number, true, false or
    null before any colon)."""
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 3 and cells[1] == label:
            keys, defaults = set(), {}
            for key, default in _README_KEY.findall(cells[2]):
                keys.add(key)
                try:
                    value = json.loads(default.split(":")[0])
                except ValueError:
                    continue
                if not isinstance(value, (str, list, dict)):
                    defaults[key] = value
            return keys, defaults
    raise AssertionError(f"README has no config table row {label!r}")


# a quoted module constant: `fracops.NEAR_CELLS` = 8
_README_CONSTANT = re.compile(r"`(\w+)\.([A-Z_][A-Z0-9_]*)`\s*=\s*(-?\d+(?:\.\d+)?(?:e-?\d+)?)")


def test_readme_quoted_constants_match_the_code():
    quotes = _README_CONSTANT.findall(README.read_text())
    assert {f"{module}.{name}" for module, name, _ in quotes} >= {
        "fracops.NEAR_CELLS", "fracops.SELF_CELL", "fracops.N_THETA",
        "fracops.NYQUIST_STABILIZATION", "fracops._DENSE_MAX_NODES", "spectral._EXACT_MAX_NODES"}
    for module, name, value in quotes:
        assert getattr(importlib.import_module(f"fracvar.{module}"), name) == float(value), name


def test_readme_config_table_matches_the_parser():
    snapshot = _parse({"domain": {"bounds": [[0.0, 1.0]], "nodes": [16]},
                       "operator": {"s": 0.5}})
    sections = {"`operator`": snapshot["operator"], "`solver`": snapshot["solver"],
                "root": {k: v for k, v in snapshot.items() if not isinstance(v, dict)}}
    for label, section in sections.items():
        keys, defaults = _readme_row(label)
        assert keys == set(section), label
        # the order s is required and has no default
        assert defaults or set(section) == {"s"}, label
        for key, value in defaults.items():
            assert section[key] == value, (label, key)


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


def _base_with(path, value) -> dict:
    """A copy of BASE with value at path."""
    cfg = json.loads(json.dumps(BASE))
    node = cfg
    for part in path[:-1]:
        node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("path,name", NUMERIC_KEYS, ids=[name for _, name in NUMERIC_KEYS])
@settings(max_examples=10, deadline=None)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_value_names_its_key(path, name, value):
    with pytest.raises(ConfigError, match=re.escape(name)):
        _parse(_base_with(path, value))


@pytest.mark.parametrize("path,name", NUMERIC_KEYS, ids=[name for _, name in NUMERIC_KEYS])
@pytest.mark.parametrize("value", [True, False])
def test_bool_value_names_its_key(path, name, value):
    with pytest.raises(ConfigError, match=re.escape(name)):
        _parse(_base_with(path, value))


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
