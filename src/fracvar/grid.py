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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainSpec",
    "Grid",
    "Field",
    "VectorField",
    "build_grid",
    "field_from_function",
    "l2_inner",
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

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in self.bounds]))

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

    def contains(self, point: Sequence[float]) -> bool:
        """True if the point lies strictly inside Omega."""
        return all(a < x < b for x, (a, b) in zip(point, self.spec.bounds))

    def node_index(self, multi_index: Sequence[int]) -> int:
        """Flat index of a per-axis cell index."""
        return int(np.ravel_multi_index(tuple(multi_index), self.shape))


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

    def __call__(self, point: Sequence[float]) -> float:
        """Value at an arbitrary point: nearest node inside Omega, 0 outside."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if not self.grid.contains(point):
            return 0.0
        idx = []
        for x, (a, b), n in zip(point, self.grid.spec.bounds, self.grid.shape):
            h = (b - a) / n
            idx.append(min(n - 1, max(0, int((x - a) / h))))
        return float(self.values[self.grid.node_index(idx)])


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
