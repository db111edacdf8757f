"""Backscatter echo simulation for the sensing stage.

During its slot a receiver reflects the probe back through the same masked
channel, so symbol t arrives at the array as

    y(t) = b * h * (h^T x) + z(t),

with b the complex reflection coefficient and z(t) circularly-symmetric
Gaussian noise, independent across elements and symbols. Because the probe
is held constant over the slot, the column sum of the echo block is a
sufficient statistic for (position, b).
"""

from __future__ import annotations

import numpy as np


def uniform_probe(geom, p_max: float) -> np.ndarray:
    """Constant probe that splits the power budget evenly over the elements."""
    if p_max <= 0:
        raise ValueError(f"probe power must be positive, got {p_max}")
    return np.full(geom.n_elements, np.sqrt(p_max / geom.n_elements), dtype=complex)


def simulate_echo(
    h: np.ndarray,
    b: complex,
    probe: np.ndarray,
    slot_len: int,
    noise_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate one receiver's echo slot under the constant probe.

    Returns the read-only (N, slot_len) block, one column per symbol. Each
    complex noise entry draws two independent zero-mean normals (real block
    first, then imaginary), each with variance noise_power / 2. Each drawn
    block is scaled in place and added to the signal's part straight into
    the real or the imaginary part of the block, so no complex temporary
    forms; the sums are those of signal + (real noise + 1j * imaginary noise).
    """
    h = np.asarray(h, dtype=complex)
    probe = np.asarray(probe, dtype=complex)
    if h.shape != probe.shape or h.ndim != 1:
        raise ValueError(f"channel {h.shape} and probe {probe.shape} must be equal-length vectors")
    if slot_len < 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    if noise_power < 0:
        raise ValueError(f"noise power must be nonnegative, got {noise_power}")
    signal = complex(b) * h * (h @ probe)
    if noise_power > 0:
        samples = np.empty((h.size, slot_len), dtype=complex)
        scale = np.sqrt(noise_power / 2.0)
        for part, mean in ((samples.real, signal.real), (samples.imag, signal.imag)):
            noise = rng.standard_normal((h.size, slot_len))
            noise *= scale
            np.add(noise, mean[:, None], out=part)
    else:
        samples = np.broadcast_to(signal[:, None], (h.size, slot_len)).astype(complex)
    samples.setflags(write=False)
    return samples


def aggregate(samples: np.ndarray) -> np.ndarray:
    """Column sum of the echo block, the statistic every later stage consumes.

    Columns are accumulated in time order, so the result is reproducible
    against any independent in-order summation.
    """
    total = samples[:, 0].copy()
    for t in range(1, samples.shape[1]):
        total += samples[:, t]
    return total
