"""Uniform cell-centered 1-D grid and the basic finite-volume calculus.

Conventions used throughout the package:

* cell fields are numpy arrays of length ``n_cells`` holding cell-center
  values,
* face fields are numpy arrays of length ``n_cells + 1`` holding values on
  cell interfaces, with the two boundary faces carrying zero whenever the
  field represents a physical flux (no-flux boundary).

``gradient`` and ``divergence`` are exact adjoints of each other up to the
sign: sum(phi * divergence(f)) * dx == -sum(gradient(phi) * f) * dx holds to
rounding because both sides telescope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryFluxError, InvalidDomainError, SizeMismatchError


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

    def check_face_field(self, f: np.ndarray, name: str = "face field") -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_cells + 1,):
            raise SizeMismatchError(
                f"{name} must have shape ({self.n_cells + 1},), got {f.shape}"
            )
        return f


def make_grid(a: float, b: float, n_cells: int) -> Grid:
    """Build a Grid; raises InvalidDomainError for bad endpoints or n_cells < 2."""
    return Grid(float(a), float(b), n_cells)


def gradient(u: np.ndarray, g: Grid) -> np.ndarray:
    """Face-centered difference quotient of a cell field.

    Interior face i+1/2 gets (u[i+1] - u[i]) / dx; the boundary faces get 0,
    the discrete counterpart of a homogeneous Neumann condition.
    """
    u = g.check_cell_field(u)
    out = np.zeros(g.n_cells + 1)
    out[1:-1] = (u[1:] - u[:-1]) / g.dx
    return out


def neighbor_mean(u: np.ndarray) -> np.ndarray:
    """Means of adjacent entries along the last axis, 0.5 * (u[:-1] + u[1:]).

    Takes a face field to cell values, or a cell field to the interior
    faces; a stack of fields, one per row, row by row. No shape check: it
    runs inside the explicit time loop.
    """
    return 0.5 * (u[..., :-1] + u[..., 1:])


def divergence(f: np.ndarray, g: Grid) -> np.ndarray:
    """Cell-centered divergence of a face flux.

    Cell i gets (f[i+1] - f[i]) / dx. The boundary faces must carry exactly
    zero (no-flux); anything else raises BoundaryFluxError. Because the sum
    over cells telescopes, integrate(divergence(f), g) == 0 identically.
    """
    f = g.check_face_field(f, "flux")
    if f[0] != 0.0 or f[-1] != 0.0:
        raise BoundaryFluxError(
            f"boundary faces must carry zero flux, got f[0]={f[0]}, f[-1]={f[-1]}"
        )
    return (f[1:] - f[:-1]) / g.dx


def integrate(u: np.ndarray, g: Grid) -> float:
    """Midpoint quadrature: sum(u) * dx."""
    u = g.check_cell_field(u)
    return float(u.sum() * g.dx)
