"""Structured spatial meshes: 1D intervals and 2D tensor grids of rectangles.

Nodes carry two boolean masks: the control subdomain (where the control
forcing acts) and an optional observation subdomain (where tracking is
measured).  An element belongs to a subdomain when all of its nodes do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Raised for degenerate or inconsistent mesh data."""


@dataclass(eq=False)
class SpatialMesh:
    """Nodal mesh of an interval or an axis-aligned rectangle.

    Parameters
    ----------
    dimension : int
        1 or 2.
    coords : ndarray, shape (n_nodes, dimension)
        Node coordinates; 1D nodes strictly increasing, 2D nodes forming a
        tensor grid ordered with the x index fastest.
    elements : ndarray of int
        (n_elements, 2) segments in 1D, (n_elements, 4) rectangles in 2D
        with corners ordered (x0y0, x1y0, x0y1, x1y1).
    control_mask : ndarray of bool, shape (n_nodes,)
        Control subdomain indicator; must contain at least one full element.
    observation_mask : ndarray of bool or None
        Observation subdomain indicator; None means the whole domain.
    """

    dimension: int
    coords: np.ndarray
    elements: np.ndarray
    control_mask: np.ndarray
    observation_mask: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        self.elements = np.asarray(self.elements, dtype=int)
        self.control_mask = np.asarray(self.control_mask, dtype=bool)
        if self.dimension not in (1, 2):
            raise MeshError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.coords.shape[1] != self.dimension:
            raise MeshError("coordinate array does not match mesh dimension")
        if self.control_mask.shape != (self.n_nodes,):
            raise MeshError("control mask length does not match node count")
        if self.observation_mask is not None:
            self.observation_mask = np.asarray(self.observation_mask, dtype=bool)
            if self.observation_mask.shape != (self.n_nodes,):
                raise MeshError("observation mask length does not match node count")
        if self.dimension == 1:
            x = self.coords[:, 0]
            if np.any(np.diff(x) <= 0):
                raise MeshError("1D nodes must be strictly increasing")
        if self.element_volumes().min() <= 0:
            raise MeshError("mesh contains a non-positive element volume")
        if not self.control_elements().any():
            raise MeshError("control subdomain contains no full element")

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_volumes(self) -> np.ndarray:
        if self.dimension == 1:
            a, b = self.elements[:, 0], self.elements[:, 1]
            return self.coords[b, 0] - self.coords[a, 0]
        p0 = self.coords[self.elements[:, 0]]
        p3 = self.coords[self.elements[:, 3]]
        return (p3[:, 0] - p0[:, 0]) * (p3[:, 1] - p0[:, 1])

    def element_mask(self, node_mask: np.ndarray) -> np.ndarray:
        """Elements whose every node lies in ``node_mask``."""
        return node_mask[self.elements].all(axis=1)

    def control_elements(self) -> np.ndarray:
        return self.element_mask(self.control_mask)

    @property
    def control_index(self) -> np.ndarray:
        return np.flatnonzero(self.control_mask)


def interval_mesh(length: float, n_nodes: int, control: tuple[float, float],
                  observation: tuple[float, float] | None = None) -> SpatialMesh:
    """Uniform mesh of [0, length] with ``n_nodes`` nodes.

    ``control`` and ``observation`` are coordinate intervals; nodes inside
    them (inclusive, with a small tolerance) are marked.
    """
    if n_nodes < 3:
        raise MeshError("interval mesh needs at least 3 nodes")
    if length <= 0:
        raise MeshError("length must be positive")
    x = np.linspace(0.0, float(length), n_nodes)
    elements = np.column_stack([np.arange(n_nodes - 1), np.arange(1, n_nodes)])
    tol = 1e-12 * length
    lo, hi = control
    mask = (x >= lo - tol) & (x <= hi + tol)
    obs = None
    if observation is not None:
        olo, ohi = observation
        obs = (x >= olo - tol) & (x <= ohi + tol)
    return SpatialMesh(1, x[:, None], elements, mask, obs)


def rectangle_mesh(lengths: tuple[float, float], shape: tuple[int, int],
                   control: tuple[tuple[float, float], tuple[float, float]],
                   observation=None) -> SpatialMesh:
    """Tensor grid of ``shape`` = (nx, ny) rectangles on [0,Lx] x [0,Ly]."""
    nx, ny = shape
    if nx < 2 or ny < 2:
        raise MeshError("rectangle mesh needs at least 2 elements per axis")
    lx, ly = lengths
    xs = np.linspace(0.0, float(lx), nx + 1)
    ys = np.linspace(0.0, float(ly), ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    coords = np.column_stack([gx.ravel(), gy.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    elements = np.column_stack([nid(ii, jj), nid(ii + 1, jj), nid(ii, jj + 1), nid(ii + 1, jj + 1)])

    def box_mask(box):
        (x0, x1), (y0, y1) = box
        tol = 1e-12 * max(lx, ly)
        return ((coords[:, 0] >= x0 - tol) & (coords[:, 0] <= x1 + tol)
                & (coords[:, 1] >= y0 - tol) & (coords[:, 1] <= y1 + tol))

    obs = box_mask(observation) if observation is not None else None
    return SpatialMesh(2, coords, elements, box_mask(control), obs)
