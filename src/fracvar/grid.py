"""Uniform cell-centered grids on a box domain with the exterior-zero convention.

The solver works on a bounded open box Omega in R^d (d = 1 or 2), discretized
by a uniform cell-centered grid. Scalar fields are defined by one value per
cell center and are *implicitly zero everywhere outside Omega*; this is the
structural counterpart of the nonlocal Dirichlet condition u = 0 on
R^d \\ Omega, not a boundary row of a matrix. Vector fields carry one
d-vector per node.

Cell-centered uniform spacing is deliberate: the singular-kernel quadrature
weights of the nonlocal operators become translation invariant, so a whole
dense operator table can be built from O(N) unique kernel integrals.

Field files use the FVFD binary format: magic "FVFD", little-endian u32
dimension, little-endian u32 node count, then the nodal values as
little-endian 8-byte floats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DomainSpec",
    "Grid",
    "Field",
    "VectorField",
    "build_grid",
    "field_from_function",
    "l2_inner",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box domain and per-axis resolution.

    bounds[k] = (a_k, b_k) with a_k < b_k; nodes[k] = number of cells along
    axis k (at least 4). dimension is len(bounds) and must be 1 or 2.
    """

    bounds: tuple[tuple[float, float], ...]
    nodes: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        nodes = tuple(int(n) for n in self.nodes)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "nodes", nodes)
        d = len(bounds)
        if d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {d}")
        if len(nodes) != d:
            raise ValueError("bounds and nodes must have the same length")
        for k, ((a, b), n) in enumerate(zip(bounds, nodes)):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"axis {k}: bounds must be finite, got ({a}, {b})")
            if not a < b:
                raise ValueError(f"axis {k}: need a < b, got ({a}, {b})")
            if n < 4:
                raise ValueError(f"axis {k}: need at least 4 nodes per axis, got {n}")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / n for (a, b), n in zip(self.bounds, self.nodes))

    def to_dict(self) -> dict:
        return {
            "bounds": [list(ab) for ab in self.bounds],
            "nodes": list(self.nodes),
        }

    @staticmethod
    def from_dict(data: dict) -> "DomainSpec":
        return DomainSpec(
            bounds=tuple(tuple(ab) for ab in data["bounds"]),
            nodes=tuple(data["nodes"]),
        )


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centered discretization of a DomainSpec.

    nodes is an (N, d) array of cell centers in row-major axis order
    (axis 0 slow, axis 1 fast in 2D); weight is the constant quadrature
    weight prod_k h_k attached to every node.
    """

    spec: DomainSpec
    nodes: np.ndarray = field(repr=False)
    weight: float

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def spacing(self) -> tuple[float, ...]:
        return self.spec.spacing

    @property
    def shape(self) -> tuple[int, ...]:
        return self.spec.nodes


def build_grid(spec: DomainSpec) -> Grid:
    """Build the cell-centered grid for a domain spec.

    Nodes sit at a_k + (i + 1/2) h_k; every node carries the same measure
    weight prod_k h_k, so the weights sum to |Omega| exactly up to roundoff.
    """
    axes = [
        a + (np.arange(n) + 0.5) * ((b - a) / n)
        for (a, b), n in zip(spec.bounds, spec.nodes)
    ]
    if spec.dimension == 1:
        nodes = axes[0][:, None]
    else:
        x0, x1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.column_stack([x0.ravel(), x1.ravel()])
    weight = float(np.prod(spec.spacing))
    nodes.setflags(write=False)
    return Grid(spec=spec, nodes=nodes, weight=weight)


@dataclass(frozen=True)
class Field:
    """Scalar field: one value per interior node, zero outside Omega."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field needs {self.grid.n_nodes} nodal values, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class VectorField:
    """Vector field: one d-vector per interior node."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_nodes, self.grid.dimension)
        if values.shape != expected:
            raise ValueError(f"vector field needs shape {expected}, got {values.shape}")
        object.__setattr__(self, "values", values)


def field_from_function(grid: Grid, fn: Callable[..., float]) -> Field:
    """Sample a pointwise map at the cell centers.

    fn receives the d coordinates of a node as separate arguments and must
    return a finite value at every node.
    """
    values = np.array([fn(*node) for node in grid.nodes], dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(
            f"function returned a non-finite value at node {bad} "
            f"(coordinates {tuple(grid.nodes[bad])})"
        )
    return Field(grid=grid, values=values)


def _check_same_grid(f1, f2):
    if f1.grid is not f2.grid and f1.grid.spec != f2.grid.spec:
        raise ValueError("fields live on different grids")


def l2_inner(f1: Field, f2: Field) -> float:
    """Discrete L2(Omega) pairing sum_i w_i f1_i f2_i."""
    _check_same_grid(f1, f2)
    return float(f1.grid.weight * np.dot(f1.values, f2.values))


_FVFD_MAGIC = b"FVFD"


def write_field(path, fld: Field) -> None:
    """Write the nodal values in the FVFD binary format."""
    with open(path, "wb") as fh:
        fh.write(_FVFD_MAGIC)
        fh.write(struct.pack("<I", fld.grid.dimension))
        fh.write(struct.pack("<I", fld.grid.n_nodes))
        fh.write(fld.values.astype("<f8").tobytes())


def read_field(path, grid: Grid) -> Field:
    """Read an FVFD file back onto a grid; header mismatches and non-finite
    values are fatal."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        payload = fh.read()
    if header[:4] != _FVFD_MAGIC:
        raise ValueError(f"bad field magic {header[:4]!r}, expected {_FVFD_MAGIC!r}")
    if len(header) < 12:
        raise ValueError(f"field header has {len(header)} bytes, expected 12")
    d, n = struct.unpack("<II", header[4:])
    if d != grid.dimension:
        raise ValueError(f"field dimension {d} does not match grid dimension {grid.dimension}")
    if n != grid.n_nodes:
        raise ValueError(f"field has {n} nodes, grid has {grid.n_nodes}")
    if len(payload) != 8 * n:
        raise ValueError(f"field payload has {len(payload)} bytes, expected {8 * n}")
    values = np.frombuffer(payload, dtype="<f8").copy()
    if not np.all(np.isfinite(values)):
        raise ValueError("field has non-finite values")
    return Field(grid, values)
