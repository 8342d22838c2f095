"""Uniform cell-centered 1-D grid and the basic finite-volume calculus.

Conventions used throughout the package:

* cell fields are numpy arrays of length ``n_cells`` holding cell-center
  values,
* face fields are numpy arrays of length ``n_cells + 1`` holding values on
  cell interfaces, with the two boundary faces carrying zero whenever the
  field represents a physical flux (no-flux boundary).

``gradient`` takes cell fields to face fields. The divergence of a face
flux back to cells is taken in ``pde.rhs``, its one user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError, SizeMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform subdivision of the interval [a, b] into cells.

    Parameters
    ----------
    a, b : float
        Domain endpoints, a < b, with a finite length b - a.
    n_cells : int
        Number of cells, at least 2; a float is truncated to an int.

    Attributes
    ----------
    dx : float
        Cell width (b - a) / n_cells.
    centers : numpy.ndarray
        Cell centers, centers[i] = a + (i + 0.5) * dx.
    """

    a: float
    b: float
    n_cells: int
    dx: float = field(init=False)
    centers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # NaN, an infinite endpoint and a length that overflows fail it too
        if not 0.0 < self.b - self.a < math.inf:
            raise InvalidDomainError(
                f"domain endpoints must be finite with a < b, got a={self.a}, b={self.b}"
            )
        if not 2 <= self.n_cells < math.inf:
            raise InvalidDomainError(
                f"need at least 2 cells, got n_cells={self.n_cells}"
            )
        object.__setattr__(self, "n_cells", int(self.n_cells))
        dx = (self.b - self.a) / self.n_cells
        centers = self.a + (np.arange(self.n_cells) + 0.5) * dx
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "centers", centers)

    @property
    def length(self) -> float:
        """Measure of the domain, b - a."""
        return self.b - self.a

    def check_cell_field(self, u: np.ndarray, name: str = "cell field") -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_cells,):
            raise SizeMismatchError(
                f"{name} must have shape ({self.n_cells},), got {u.shape}"
            )
        return u


def make_grid(a: float, b: float, n_cells: int) -> Grid:
    """Build a Grid; raises InvalidDomainError for bad endpoints or n_cells < 2."""
    return Grid(float(a), float(b), n_cells)


def gradient(u: np.ndarray, g: Grid) -> np.ndarray:
    """Face-centered difference quotient of a cell field.

    Interior face i+1/2 gets (u[i+1] - u[i]) / dx; the boundary faces get 0,
    the discrete counterpart of a homogeneous Neumann condition. A stack of
    cell fields, one per row, is taken row by row.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (g.n_cells,):
        raise SizeMismatchError(f"cell fields must have {g.n_cells} entries, got {u.shape}")
    out = np.zeros(u.shape[:-1] + (g.n_cells + 1,))
    out[..., 1:-1] = (u[..., 1:] - u[..., :-1]) / g.dx
    return out


def neighbor_mean(u: np.ndarray) -> np.ndarray:
    """Means of adjacent entries along the last axis, 0.5 * (u[:-1] + u[1:]).

    Takes a face field to cell values, or a cell field to the interior
    faces; a stack of fields, one per row, row by row. No shape check: it
    runs inside the explicit time loop.
    """
    return 0.5 * (u[..., :-1] + u[..., 1:])


def integrate(u: np.ndarray, g: Grid) -> float:
    """Midpoint quadrature: sum(u) * dx."""
    u = g.check_cell_field(u)
    return float(u.sum() * g.dx)
