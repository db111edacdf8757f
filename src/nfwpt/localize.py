"""Receiver localization from the aggregated echo.

With the reflection coefficient concentrated out, the position estimate
maximizes

    q(l) = |h(l)^H y_bar|^2 / ||h(l)||^2,

where h(l) is the channel at the candidate over the identified visibility
region: the array response on the region's elements and zero on the rest, so
every evaluation runs on the region's slice, VisibilityRegion.rows, only.

The search has three parts.

- A coarse lattice over the prior uncertainty box picks the seed: the
  lattice point with the highest q, the first one in lattice order on a tie.
  A prefilter scores every point cheaply, one x-plane at a time in buffers
  reused across planes. With t = d_n / lambda, it reduces the phase exactly
  in float64 to 2 pi (t - floor t), rounds it to float32 and takes
  single-precision cos and sin; the amplitude 1 / d_n stays in float64 (the
  factor lambda / 4 pi cancels from q). If rho bounds the error of each
  phasor, then |s~ - s| <= rho sqrt(e) ||y_bar||, which bounds the prefilter
  score q~ within dq = rho ||y_bar|| (2 sqrt(q~) + rho ||y_bar||) of q. Only
  points with q~ + dq >= max(q~ - dq) can hold the maximum. Each of them is
  probed exactly, one at a time in lattice order, by the same double-precision
  kernel as every other candidate, and the first maximum among them is the
  seed.
- A bound-constrained Levenberg-Marquardt ascent climbs from it. With
  s = h^H y_bar and e = ||h||^2, the analytic first and second derivatives of
  h give the gradient g and the Hessian H of q in closed form; for example

      g_u = 2 Re(conj(s) D_u^H y_bar) / e - 2 |s|^2 Re(h^H D_u) / e^2.

  Each iteration solves (-H_F + mu diag M_F) delta = g_F on the free axes F,
  where M = 2 |s / e|^2 Re(D^H D - (D^H h)(h^H D) / e) is the Gauss-Newton
  matrix, which is never negative on its diagonal and so sets the damping
  scale. An axis is free unless the box pins it or the point sits on a box
  face with the gradient pointing out of the box. The step is clipped to the
  box and kept only if q rises; mu shrinks after a kept step and grows after a
  rejected one or while the damped matrix is not positive definite. A kept
  step is doubled for as long as q keeps rising.
- The objective is sharply peaked across the ray from the visibility region
  toward the estimate but nearly flat along it (the range direction), and
  along that ray it can have a second, higher maximum at the far side of the
  box. Once the ascent stops, q is sampled along the ray across the box, and
  the ascent restarts from any sample that beats the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    VisibilityRegion,
    _as_point,
    array_response,
    grid_distances,
    response_derivatives,
    response_hessians,
)
from .errors import DegenerateChannelError
from .geometry import UpaGeometry

# Levenberg-Marquardt damping: first nonzero value, factor per kept or
# rejected step, and the cap beyond which no ascent step is deemed to exist.
_MU_START = 1e-3
_MU_FACTOR = 8.0
_MU_CAP = 1e8
# Linearizations the ascent may take in total, over all restarts.
_MAX_ITERS = 50

# Bound rho on |p~ - p| for one prefilter phasor p~ against the exact
# exp(-j 2 pi d / lambda). The reduced phase 2 pi (t - floor t) carries only
# float64 rounding (about 1e-12 rad while d is below 1e3 wavelengths);
# rounding it to float32 on [0, 2 pi) moves it by at most 2^-22, about
# 2.4e-7 rad; float32 cos and sin are each within a few float32 ulps, 6e-8
# near 1. Together that is below 5e-7 (3.0e-7 measured). The float64 sums of
# q~ and of the exact re-score each add at most n * 1.1e-16 per term, below
# 3e-13 for the 2304 elements of a 48x48 array. rho keeps a margin of 20 over
# all of it, so the point that the exact score ranks first always survives.
_PHASOR_ERROR = 1e-5

# A channel energy below the smallest normal float carries too few bits to score.
_TINY = np.finfo(float).tiny

# Seed lattice points per axis over the search box (one on a zero-width axis),
# and the samples the ray check takes across it.
_LATTICE_POINTS = 9


@dataclass(frozen=True)
class LocalizationResult:
    """Position estimate and search diagnostics.

    objective is concentrated_objective at the estimate. iterations counts
    linearizations of the ascent (gradient and Hessian evaluations);
    evaluations counts the candidates the search scored: lattice points, the
    prefilter survivors probed exactly, ascent trials and ray samples. converged means the search stopped at a
    stationary point that no ray sample beats, not at the iteration cap.
    """

    position_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    evaluations: int


def concentrated_objective(
    geom: UpaGeometry, y_bar: np.ndarray, candidate, vr_hat: VisibilityRegion
) -> float:
    """Concentrated likelihood score q of one candidate position.

    One probe of the region slice: the channel is zero on the rest of the aperture.
    """
    rows = _region_rows(geom, vr_hat, y_bar)
    return _probe(geom, np.asarray(y_bar, dtype=complex)[rows], rows, _as_point(candidate)).q


def _region_rows(geom: UpaGeometry, vr: VisibilityRegion, y_bar) -> slice:
    """Rows of the region's slice, once vr and y_bar fit the array."""
    n = geom.n_elements
    rows = vr.rows(n)
    if np.shape(y_bar) != (n,):
        raise ValueError(
            f"y_bar must have one entry per element, shape ({n},), got {np.shape(y_bar)}"
        )
    return rows


@dataclass(frozen=True)
class _Probe:
    """Response of the region slice at one candidate and its score."""

    point: np.ndarray
    dists: np.ndarray
    h: np.ndarray
    s: complex
    e: float
    q: float


def _probe(geom: UpaGeometry, y: np.ndarray, rows: slice, point: np.ndarray) -> _Probe:
    dists, resp = array_response(geom, point[:, None], rows)
    h = resp.reshape(-1)
    s = complex(np.vdot(h, y))
    e = float(np.vdot(h, h).real)
    if e < _TINY:
        raise DegenerateChannelError(f"masked response energy {e:.3g} is subnormal")
    return _Probe(point, dists.reshape(-1), h, s, e, abs(s) ** 2 / e)


def _ascent_model(geom: UpaGeometry, y: np.ndarray, rows: slice, at: _Probe):
    """Gradient, Hessian and Gauss-Newton diagonal of q at a probed point."""
    d = response_derivatives(geom, at.point, at.dists, at.h, rows)
    d2 = response_hessians(geom, at.point, at.dists, at.h, rows)
    s, e = at.s, at.e
    s_u = d.conj() @ y
    s_uv = d2.conj() @ y
    h_d = d @ at.h.conj()
    d_d = (d.conj() @ d.T).real
    e_u = 2.0 * h_d.real
    e_uv = 2.0 * (d_d + (d2 @ at.h.conj()).real)
    p = abs(s) ** 2
    p_u = 2.0 * (np.conj(s) * s_u).real
    p_uv = 2.0 * (np.outer(s_u, s_u.conj()) + np.conj(s) * s_uv).real
    grad = p_u / e - p * e_u / e**2
    cross = np.outer(p_u, e_u)
    hess = (
        p_uv / e
        - (cross + cross.T) / e**2
        - p * e_uv / e**2
        + 2.0 * p * np.outer(e_u, e_u) / e**3
    )
    try:
        gain = 2.0 * abs(s / e) ** 2
    except OverflowError:
        raise ValueError("localizer curvature overflows: the echo dwarfs the channel") from None
    gn_diag = gain * (np.diag(d_d) - np.abs(h_d) ** 2 / e)
    return grad, hess, gn_diag


def prefilter_scores(
    geom: UpaGeometry, y: np.ndarray, rows: slice, grid
) -> tuple[np.ndarray, np.ndarray]:
    """Prefilter scores q~ of every lattice point and their bounds dq.

    y is the echo on the region slice rows and grid is (xs, ys, zs). Both
    results are flat, in lattice order, and |q~ - q| <= dq for the exact
    score q of each point (module docstring).
    """
    n = y.size
    plane = (1, grid[1].size, grid[2].size)
    count = plane[1] * plane[2]
    dists = np.empty(plane + (n,))
    flat = dists.reshape(count, n)
    phase = np.empty((count, n))
    phase32 = np.empty((count, n), dtype=np.float32)
    amp = np.empty((count, n))
    parts = np.empty((2 * count, n))
    cos, sin = parts[:count], parts[count:]
    sums = np.empty((2 * count, 2))
    echo = np.stack([y.real, y.imag], axis=1)
    power = np.empty((grid[0].size, count))
    energy = np.empty((grid[0].size, count))
    inv_wavelength = 1.0 / geom.wavelength
    for i in range(grid[0].size):
        grid_distances(geom, (grid[0][i : i + 1], grid[1], grid[2]), rows, out=dists)
        np.multiply(flat, inv_wavelength, out=phase)
        np.subtract(phase, np.floor(phase, out=amp), out=phase)
        phase *= 2.0 * np.pi
        phase32[...] = phase
        np.reciprocal(flat, out=amp)
        np.cos(phase32, out=cos)
        cos *= amp
        np.sin(phase32, out=sin)
        sin *= amp
        # s = sum_n amp_n (cos - j sin)(Re y_n - j Im y_n).
        np.matmul(parts, echo, out=sums)
        re = sums[:count, 0] - sums[count:, 1]
        im = sums[:count, 1] + sums[count:, 0]
        power[i] = re * re + im * im
        energy[i] = np.einsum("ij,ij->i", amp, amp)
    q = (power / energy).reshape(-1)
    reach = _PHASOR_ERROR * math.sqrt(np.vdot(y, y).real)
    return q, reach * (2.0 * np.sqrt(q) + reach)


def lattice_seed(geom: UpaGeometry, y: np.ndarray, rows: slice, grid) -> tuple[_Probe, int]:
    """Probe of the first lattice point with the highest q, and the probe count.

    The prefilter keeps the points that may hold the maximum, and each of them
    is probed exactly, in lattice order. When every point survives, as for a
    zero echo, that is the whole lattice.
    """
    q, dq = prefilter_scores(geom, y, rows, grid)
    if not (np.isfinite(q).all() and np.isfinite(dq).all()):
        raise ValueError("lattice scores are not finite: the echo overflows")
    survivors = np.flatnonzero(q + dq >= np.max(q - dq))
    index = np.unravel_index(survivors, tuple(g.size for g in grid))
    points = np.stack([g[i] for g, i in zip(grid, index)], axis=1)
    # max keeps the first of equal scores, as np.argmax does.
    return max((_probe(geom, y, rows, p) for p in points), key=lambda at: at.q), survivors.size


def _ray_samples(origin, point, lo, hi, count):
    """Evenly spaced points of the ray from origin through point inside the box."""
    direction = point - origin
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return []
    u = direction / norm
    t_lo, t_hi = -np.inf, np.inf
    for i in range(3):
        if u[i] != 0.0:
            ends = sorted(((lo[i] - point[i]) / u[i], (hi[i] - point[i]) / u[i]))
            t_lo, t_hi = max(t_lo, ends[0]), min(t_hi, ends[1])
    if not t_lo < t_hi:
        return []
    return [np.clip(point + t * u, lo, hi) for t in np.linspace(t_lo, t_hi, count)]


def locate_er(
    geom: UpaGeometry,
    y_bar: np.ndarray,
    vr_hat: VisibilityRegion,
    search_box,
    *,
    tol: float = 1e-4,
) -> LocalizationResult:
    """Lattice seed, bound-constrained Newton ascent and ray check.

    The lattice has _LATTICE_POINTS points per axis (one on a zero-width
    axis). lattice_seed picks its point with the highest q, the first in
    lattice order on a tie: the single-precision prefilter bounds every
    score within dq, and only the points it cannot rule out are probed
    exactly. The ascent described in the module docstring starts from the
    best of those probes and runs for at most _MAX_ITERS linearizations in
    total. It stops at a stationary point: a kept step shorter than tol that
    puts no axis on a box face, no free axis, or a damping past its cap. The
    ray check then either restarts it or ends the search. Every iterate
    stays in the box and pinned axes never move.
    """
    lo = np.asarray(search_box[0], dtype=float)
    hi = np.asarray(search_box[1], dtype=float)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("search box must give (3,) lower and upper corners")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"search box must be finite: lower {lo}, upper {hi}")
    if np.any(lo > hi):
        raise ValueError(f"search box is empty: lower {lo} exceeds upper {hi}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rows = _region_rows(geom, vr_hat, y_bar)
    y = np.asarray(y_bar, dtype=complex)[rows]
    pinned = hi <= lo
    grid = [np.linspace(lo[i], hi[i], 1 if pinned[i] else _LATTICE_POINTS) for i in range(3)]
    current, probed = lattice_seed(geom, y, rows, grid)
    evaluations = math.prod(g.size for g in grid) + probed
    origin = geom.coords[:, rows].mean(axis=1)

    mu = _MU_START
    iterations = 0
    converged = False
    while iterations < _MAX_ITERS:
        iterations += 1
        point = current.point
        grad, hess, gn_diag = _ascent_model(geom, y, rows, current)
        # A zero Gauss-Newton curvature means D_u is parallel to h, where the
        # gradient along u vanishes too.
        free = ~pinned & (gn_diag > 0)
        free &= ~((point <= lo) & (grad < 0)) & ~((point >= hi) & (grad > 0))
        kept = None
        if free.any():
            neg_hess = -hess[np.ix_(free, free)]
            scale = np.diag(gn_diag[free])
            while mu <= _MU_CAP:
                try:
                    chol = np.linalg.cholesky(neg_hess + mu * scale)
                except np.linalg.LinAlgError:
                    mu *= _MU_FACTOR
                    continue
                step = np.zeros(3)
                step[free] = np.linalg.solve(chol.T, np.linalg.solve(chol, grad[free]))
                trial = _probe(geom, y, rows, np.clip(point + step, lo, hi))
                evaluations += 1
                if trial.q > current.q:
                    kept = trial
                    mu /= _MU_FACTOR
                    break
                mu *= _MU_FACTOR
        stationary = kept is None
        if kept is not None:
            while True:
                far = np.clip(2.0 * kept.point - point, lo, hi)
                if np.array_equal(far, kept.point):
                    break
                doubled = _probe(geom, y, rows, far)
                evaluations += 1
                if not doubled.q > kept.q:
                    break
                kept = doubled
            # A step that puts an axis on a face leaves the other axes to
            # adjust to it, however short the step was.
            moved = kept.point != point
            landed = np.any(moved & ((kept.point == lo) | (kept.point == hi)))
            stationary = np.linalg.norm(kept.point - point) < tol and not landed
            current = kept
        if stationary:
            samples = [
                _probe(geom, y, rows, p)
                for p in _ray_samples(origin, current.point, lo, hi, _LATTICE_POINTS)
            ]
            evaluations += len(samples)
            better = max(samples, key=lambda c: c.q, default=current)
            if better.q > current.q:
                current = better
                mu = _MU_START
            else:
                converged = True
                break

    point = current.point.copy()
    point.setflags(write=False)
    return LocalizationResult(
        position_hat=point,
        objective=concentrated_objective(geom, y_bar, point, vr_hat),
        iterations=iterations,
        converged=converged,
        evaluations=evaluations,
    )
