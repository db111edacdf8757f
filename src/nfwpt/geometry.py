"""Uniform planar array geometry for the large-aperture transmitter."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class UpaGeometry:
    """Rectangular antenna array lying in the yoz plane, centered on the origin.

    Element n (1-based) sits at ``positions[n - 1]``. The linear index runs
    y-major, n = (i_z - 1) * n_y + i_y with i_y in 1..n_y and i_z in 1..n_z,
    so a contiguous index window covers whole rows of constant height z.

    coords is positions.T as its own read-only, C-contiguous (3, N) array,
    built with the geometry: row u holds every element's coordinate on axis
    u in one contiguous run, which the per-point distance and derivative
    kernels read. positions itself stays C-ordered (N, 3), so a mean over
    its rows sums as it always has.
    """

    n_y: int
    n_z: int
    carrier_freq: float
    wavelength: float
    spacing: float
    positions: np.ndarray
    coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coords = np.ascontiguousarray(self.positions.T)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n_elements(self) -> int:
        return self.n_y * self.n_z


def build_upa(
    n_y: int,
    n_z: int,
    carrier_freq: float,
    spacing: float | None = None,
) -> UpaGeometry:
    """Construct an n_y-by-n_z planar array at the given carrier frequency.

    The default element pitch is half a wavelength. Element x coordinates are
    all zero; y and z coordinates are symmetric about the origin.
    """
    if n_y < 1 or n_z < 1:
        raise ValueError(f"array dimensions must be positive, got {n_y}x{n_z}")
    if carrier_freq <= 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_freq}")
    wavelength = SPEED_OF_LIGHT / carrier_freq
    if spacing is None:
        spacing = wavelength / 2.0
    elif spacing <= 0:
        raise ValueError(f"element spacing must be positive, got {spacing}")

    y = (np.arange(n_y) - (n_y - 1) / 2.0) * spacing
    z = (np.arange(n_z) - (n_z - 1) / 2.0) * spacing
    positions = np.column_stack(
        [np.zeros(n_y * n_z), np.tile(y, n_z), np.repeat(z, n_y)]
    )
    positions.setflags(write=False)
    return UpaGeometry(
        n_y=n_y,
        n_z=n_z,
        carrier_freq=float(carrier_freq),
        wavelength=wavelength,
        spacing=float(spacing),
        positions=positions,
    )
