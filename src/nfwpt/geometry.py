"""Uniform planar array geometry for the large-aperture transmitter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class UpaGeometry:
    """Rectangular antenna array lying in the yoz plane, centered on the origin.

    Element n (1-based) sits at ``coords[:, n - 1]``. The linear index runs
    y-major, n = (i_z - 1) * n_y + i_y with i_y in 1..n_y and i_z in 1..n_z,
    so a contiguous index window covers whole rows of constant height z.

    coords, a read-only, C-contiguous (3, N) array, is the only copy of the
    element coordinates: row u holds every element's coordinate on axis u in
    one contiguous run, which every distance and derivative kernel reads.
    """

    n_y: int
    n_z: int
    carrier_freq: float
    wavelength: float
    spacing: float
    coords: np.ndarray

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
    if not carrier_freq > 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_freq}")
    wavelength = SPEED_OF_LIGHT / carrier_freq
    if spacing is None:
        spacing = wavelength / 2.0
    elif not spacing > 0:
        raise ValueError(f"element spacing must be positive, got {spacing}")

    y = (np.arange(n_y) - (n_y - 1) / 2.0) * spacing
    z = (np.arange(n_z) - (n_z - 1) / 2.0) * spacing
    coords = np.stack([np.zeros(n_y * n_z), np.tile(y, n_z), np.repeat(z, n_y)])
    coords.setflags(write=False)
    return UpaGeometry(
        n_y=n_y,
        n_z=n_z,
        carrier_freq=float(carrier_freq),
        wavelength=wavelength,
        spacing=float(spacing),
        coords=coords,
    )
