"""Near-field spherical-wavefront channels with visibility-region masking.

A point at l sees element n through the free-space response

    a_n(l) = lambda / (4 pi d_n) * exp(-j 2 pi d_n / lambda),  d_n = ||l_n - l||,

where both the amplitude and the phase vary across the aperture. Over a
non-stationary channel only a contiguous run of elements, the visibility
region, is unblocked; the effective channel is the array response on that
run and zero on every other element. VisibilityRegion.rows maps a region to
its elements, and every stage selects them through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularGeometryError
from .geometry import UpaGeometry

def min_vr_span(n: int, eta: float) -> int:
    """Smallest allowed index span (end - start) of a visibility region."""
    if n < 2:
        raise ValueError(f"array must have at least 2 elements, got {n}")
    if not 0 < eta < 1:
        raise ValueError(f"proportional factor must lie in (0, 1), got {eta}")
    return math.ceil(eta * n)


@dataclass(frozen=True)
class VisibilityRegion:
    """Contiguous run of unblocked element indices, 1-based and inclusive."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start != int(self.start) or self.end != int(self.end):
            raise ValueError("visibility region bounds must be integers")
        if self.start < 1:
            raise ValueError(f"visibility region start must be >= 1, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"visibility region must span at least two elements, got "
                f"[{self.start}, {self.end}]"
            )

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def rows(self, n: int) -> slice:
        """0-based slice of the region's elements in an n-element array."""
        if self.end > n:
            raise ValueError(f"visibility region end {self.end} exceeds array size {n}")
        return slice(self.start - 1, self.end)


@dataclass(frozen=True)
class ErState:
    """Ground-truth state of one energy receiver."""

    position: np.ndarray
    vr: VisibilityRegion
    reflection: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError(f"position must have shape (3,), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("position must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        refl = complex(self.reflection)
        if not (math.isfinite(refl.real) and math.isfinite(refl.imag)):
            raise ValueError("reflection coefficient must be finite")
        object.__setattr__(self, "reflection", refl)


def _as_point(point) -> np.ndarray:
    pos = np.asarray(point, dtype=float)
    if pos.shape != (3,):
        raise ValueError(f"point must have shape (3,), got {pos.shape}")
    return pos


def point_distances(geom: UpaGeometry, points: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Distances from the elements in rows to each column of points, shape (P, n_rows).

    points is a (3, P) array, one point per column. One subtraction forms the
    three offset rows of every point, which are squared and summed
    (x + y) + z as in grid_distances, so each row has the bits of that point
    alone and of the same point on the grid path. A point on an element has
    a zero distance: this function does not check, its callers do.
    """
    part = np.subtract(points.astype(float, copy=False)[:, :, None], geom.coords[:, None, rows])
    part *= part
    dists = (part[0] + part[1]) + part[2]
    return np.sqrt(dists, out=dists)


def grid_distances(geom: UpaGeometry, grid, rows=slice(None)) -> np.ndarray:
    """Distances from the elements in rows to every point of a grid.

    grid is (xs, ys, zs), one 1-D coordinate array per axis, and names every
    point (x, y, z) of their product; the result has shape
    (len(xs), len(ys), len(zs), n_rows). The squared offsets are summed one
    axis at a time, in the order (x + y) + z that np.linalg.norm also uses,
    so no (points, elements, 3) array forms. Each axis reads one contiguous
    row of geom.coords. A single point given as a (3, 1) array, the form
    steering_vector uses, takes point_distances, with the same arithmetic
    and so the same bits. Raises SingularGeometryError when a point
    coincides with an element.
    """
    elems = geom.coords[:, rows]
    n = elems.shape[1]
    if isinstance(grid, np.ndarray) and grid.shape == (3, 1):
        dists = point_distances(geom, grid, rows).reshape(1, 1, 1, n)
        # Counts NaN as nonzero, as np.any(dists == 0.0) does, in one cheap pass.
        singular = np.count_nonzero(dists) < n
    else:
        parts = []
        for ax, coords in enumerate(grid):
            part = np.subtract.outer(np.asarray(coords, dtype=float), elems[ax])
            part *= part
            shape = [1, 1, 1, n]
            shape[ax] = part.shape[0]
            parts.append(part.reshape(shape))
        dists = (parts[0] + parts[1]) + parts[2]
        np.sqrt(dists, out=dists)
        # The min is cheaper than counting over a whole grid. A NaN min hides
        # whether a zero sits beside the NaN, so only then count.
        low = dists.min(initial=np.inf)
        singular = low == 0 or (np.isnan(low) and np.count_nonzero(dists) < dists.size)
    if singular:
        raise SingularGeometryError("a candidate point coincides with an array element")
    return dists


def free_space(geom: UpaGeometry, dists: np.ndarray) -> np.ndarray:
    """Free-space responses lambda / (4 pi d) exp(-j 2 pi d / lambda) at distances d."""
    amp = geom.wavelength / (4.0 * np.pi * dists)
    return amp * np.exp(-2j * np.pi / geom.wavelength * dists)


def array_response(geom: UpaGeometry, grid, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Distances and free-space responses of the elements in rows over a grid.

    grid is (xs, ys, zs) as in grid_distances, and both results have shape
    (len(xs), len(ys), len(zs), n_rows). A single point is the grid
    point[:, None].
    """
    dists = grid_distances(geom, grid, rows)
    return dists, free_space(geom, dists)


def radial_rows(geom: UpaGeometry, point, dists: np.ndarray, rows=slice(None)) -> np.ndarray:
    """(u_n - u) / d_n for the elements in rows, one C-ordered row per axis u.

    point is one point (3,) and dists its (n_rows,) distances. The
    derivative and Hessian kernels share these rows: a caller that needs both
    forms them once and passes them as radial.
    """
    radial = geom.coords[:, rows] - np.asarray(point, dtype=float)[:, None]
    radial /= dists
    return radial


def response_derivatives(
    geom: UpaGeometry,
    point,
    dists: np.ndarray,
    entries: np.ndarray,
    rows=slice(None),
    out=None,
    radial=None,
) -> np.ndarray:
    """Partial derivatives of the responses at one point, shape (3, n_rows).

    dists and entries are the point's (n_rows,) results of array_response,
    and row u of the result is the derivative along axis u. Differentiating
    amplitude and phase of each entry gives

        d a_n / d u = a_n(l) * ( (u_n - u) / d_n^2 + j 2 pi (u_n - u) / (lambda d_n) ),

    with u_n the element coordinate on axis u, read from the contiguous rows
    of geom.coords. The bracket is written as the real and imaginary parts of
    the result, which then takes the product in place, so the only complex
    array is the result itself. Its bits are those of
    entries * (radial / d + (2j pi / lambda) * radial), radial = (u_n - u) / d_n,
    and it is C-ordered. With out, a complex (3, n_rows) array, the result is
    written there. radial, when given, is radial_rows at the point.
    """
    if radial is None:
        radial = radial_rows(geom, point, dists, rows)
    if out is None:
        out = np.empty_like(radial, dtype=complex)
    np.divide(radial, dists, out=out.real)
    np.multiply(radial, 2.0 * np.pi / geom.wavelength, out=out.imag)
    return np.multiply(entries, out, out=out)


def response_hessians(
    geom: UpaGeometry,
    point,
    dists: np.ndarray,
    entries: np.ndarray,
    rows=slice(None),
    radial=None,
) -> np.ndarray:
    """Second partial derivatives of the responses at one point, shape (3, 3, n_rows).

    With r_u = (u_n - u) / d_n and c_n = 1 / d_n + j 2 pi / lambda, the first
    derivative is a_n c_n r_u, and differentiating it once more gives

        d2 a_n / du dv = a_n * ( r_u r_v (c_n^2 + c_n / d_n + 1 / d_n^2) - delta_uv c_n / d_n ).

    u_n is read from the contiguous rows of geom.coords, as in
    response_derivatives, and radial, when given, is radial_rows at the point.
    """
    if radial is None:
        radial = radial_rows(geom, point, dists, rows)
    c = 1.0 / dists + 2j * np.pi / geom.wavelength
    hess = entries * radial[:, None, :] * radial[None, :, :] * (c * c + c / dists + 1.0 / dists**2)
    # Rows 0, 4 and 8 of the nine (u, v) rows are the diagonal u = v.
    hess.reshape(9, -1)[::4] -= entries * c / dists
    return hess


def steering_vector(geom: UpaGeometry, point, rows=slice(None)) -> np.ndarray:
    """Spherical-wavefront array response of the elements in rows at a point.

    Entry n carries the free-space amplitude lambda / (4 pi d_n) and the
    propagation phase exp(-j 2 pi d_n / lambda), with d_n the exact distance
    from element n to the point (no far-field plane-wave approximation).
    rows defaults to the full aperture.
    """
    pos = _as_point(point)
    return array_response(geom, pos[:, None], rows)[1].reshape(-1)


def channel(geom: UpaGeometry, er: ErState) -> np.ndarray:
    """Effective channel of a receiver: the array response on its region, zero elsewhere."""
    rows = er.vr.rows(geom.n_elements)
    h = np.zeros(geom.n_elements, dtype=complex)
    h[rows] = steering_vector(geom, er.position, rows)
    return h
