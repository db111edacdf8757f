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
  reused across planes. It works in wavelength units: with the coordinates
  scaled by 1 / lambda once, the distance t_n = d_n / lambda is the phase in
  turns, and the squared y and z offsets of a plane are formed once per call.
  It reduces the phase exactly in float64 to 2 pi (t - floor t), rounds it to
  float32 and takes single-precision cos and sin; the amplitude 1 / t_n stays
  in float64 (the factor lambda / 4 pi cancels from q). A point on an element
  makes its 1 / t_n, and so its energy sum, infinite, which is the prefilter's
  only singularity check. If rho bounds the error of each phasor, then
  |s~ - s| <= rho sqrt(e) ||y_bar||, which bounds the prefilter score q~
  within dq = rho ||y_bar|| (2 sqrt(q~) + rho ||y_bar||) of q. Only points
  with q~ + dq >= max(q~ - dq) can hold the maximum. Each of them is probed
  exactly, one at a time in lattice order, by the same double-precision
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

  The sums over the region come from BLAS products; g, H, M and the step,
  one to three unknowns, are Python floats. The step is solved in closed
  form: a Cholesky factor L of the damped block, then forward and back
  substitution. Where a pivot is not positive the factor does not exist, and
  there is no step. Python float arithmetic raises where numpy would return
  inf or nan, and such an error ends the search in a ValueError.
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
    response_derivatives,
    response_hessians,
)
from .errors import DegenerateChannelError, SingularGeometryError
from .geometry import UpaGeometry

# Levenberg-Marquardt damping: first nonzero value, factor per kept or
# rejected step, and the cap beyond which no ascent step is deemed to exist.
_MU_START = 1e-3
_MU_FACTOR = 8.0
_MU_CAP = 1e8
# Linearizations the ascent may take in total, over all restarts.
_MAX_ITERS = 50

# Bound rho on |p~ - p| for one prefilter phasor p~ against the exact
# exp(-j 2 pi d / lambda). The wavelength-unit distance t = d / lambda comes
# from coordinates each scaled by 1 / lambda with one rounding, so t carries a
# relative error of a few float64 ulps: about 1e-12 rad of phase while d is
# below 1e3 wavelengths, and the reduction t - floor t adds none. Rounding
# the reduced phase to float32 on [0, 2 pi) moves it by at most 2^-22, about
# 2.4e-7 rad; float32 cos and sin are each within a few float32 ulps, 6e-8
# near 1. Together that is below 5e-7 (3.0e-7 measured). The amplitude 1 / t
# is off by a few float64 ulps, and the float64 sums of q~ and of the exact
# re-score each add at most n * 1.1e-16 per term, below 3e-13 for the 2304
# elements of a 48x48 array. rho keeps a margin of 20 over all of it, so the
# point that the exact score ranks first always survives.
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
    """Gradient, Hessian and Gauss-Newton diagonal of q at a probed point.

    The sums over the region come from BLAS products; the 3 x 3 algebra on
    them runs on Python floats, and the results are nested lists. With
    r = s / e and w = |r|^2, q = e w and no power of s or e is formed.
    """
    d = response_derivatives(geom, at.point, at.dists, at.h, rows)
    d2 = response_hessians(geom, at.point, at.dists, at.h, rows)
    h_conj = at.h.conj()
    s_u = (d.conj() @ y).tolist()
    s_uv = (d2.conj() @ y).tolist()
    h_d = (d @ h_conj).tolist()
    d_d = (d.conj() @ d.T).real.tolist()
    d2_h = (d2 @ h_conj).real.tolist()
    e = at.e
    r = at.s / e
    w = r.real * r.real + r.imag * r.imag
    if w == math.inf:
        raise ValueError("localizer curvature overflows: the echo dwarfs the channel")
    r_bar = r.conjugate()
    axes = range(3)
    # With p = |s|^2 and its derivatives p_u: a_u = p_u / e, p_u / e^2 = a_u / e
    # and p / e^2 = w, so these are the terms of grad and hess in the docstring.
    a = [2.0 * (r_bar * s_u[u]).real for u in axes]
    e_u = [2.0 * h_d[u].real for u in axes]
    grad = [a[u] - w * e_u[u] for u in axes]
    hess = [
        [
            2.0 * (r_bar * s_uv[u][v]).real
            - 2.0 * w * (d_d[u][v] + d2_h[u][v])
            + (
                2.0 * (s_u[u] * s_u[v].conjugate()).real
                - a[u] * e_u[v]
                - a[v] * e_u[u]
                + 2.0 * w * e_u[u] * e_u[v]
            )
            / e
            for v in axes
        ]
        for u in axes
    ]
    gn_diag = [
        2.0 * w * (d_d[u][u] - (h_d[u].real * h_d[u].real + h_d[u].imag * h_d[u].imag) / e)
        for u in axes
    ]
    return grad, hess, gn_diag


def _cholesky_solve(a, b):
    """Solution x of a x = b through the Cholesky factor a = L L^T, or None
    where the factor does not exist.

    a is a small symmetric matrix as nested lists of floats, of which only the
    lower triangle is read, as LAPACK's potrf reads it; b is a list. The factor
    does not exist once a pivot is not positive, potrf's test; a nan pivot
    fails it too, where np.linalg.cholesky returns a nan factor. Forward
    substitution L z = b and back substitution L^T x = z then give x.
    """
    m = len(b)
    chol = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            acc = a[i][j]
            for k in range(j):
                acc -= chol[i][k] * chol[j][k]
            if i > j:
                chol[i][j] = acc / chol[j][j]
            elif acc > 0.0:
                chol[i][i] = math.sqrt(acc)
            else:
                return None
    x = list(b)
    for i in range(m):
        for k in range(i):
            x[i] -= chol[i][k] * x[k]
        x[i] /= chol[i][i]
    for i in reversed(range(m)):
        for k in range(i + 1, m):
            x[i] -= chol[k][i] * x[k]
        x[i] /= chol[i][i]
    return x


def prefilter_scores(
    geom: UpaGeometry, y: np.ndarray, rows: slice, grid
) -> tuple[np.ndarray, np.ndarray]:
    """Prefilter scores q~ of every lattice point and their bounds dq.

    y is the echo on the region slice rows and grid is (xs, ys, zs). Both
    results are flat, in lattice order, and |q~ - q| <= dq for the exact
    score q of each point (module docstring). Raises SingularGeometryError
    when a lattice point coincides with an element of the region.
    """
    n = y.size
    # In wavelength units a distance t is the phase in turns, and 1 / t is the
    # amplitude up to the factor lambda / 4 pi, which cancels from q.
    elems = geom.coords[:, rows] / geom.wavelength
    xs, ys, zs = (np.asarray(g, dtype=float) / geom.wavelength for g in grid)
    count = ys.size * zs.size
    dx = np.subtract.outer(xs, elems[0])
    dx *= dx
    dy = np.subtract.outer(ys, elems[1])
    dy *= dy
    dz = np.subtract.outer(zs, elems[2])
    dz *= dz
    # The squared y and z offsets are the same on every x-plane.
    yz = (dy[:, None, :] + dz[None, :, :]).reshape(count, n)
    amp = np.empty((count, n))
    phase32 = np.empty((count, n), dtype=np.float32)
    parts = np.empty((2 * count, n))
    # The sin half holds the plane's distances until its sines overwrite them.
    cos, sin = parts[:count], parts[count:]
    sums = np.empty((2 * count, 2))
    echo = np.stack([y.real, y.imag], axis=1)
    power = np.empty((xs.size, count))
    energy = np.empty((xs.size, count))
    # A point on an element makes its 1 / t, and so its energy, infinite.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(xs.size):
            turns = np.add(yz, dx[i], out=sin)
            np.sqrt(turns, out=turns)
            np.subtract(turns, np.floor(turns, out=amp), out=amp)
            np.multiply(amp, 2.0 * np.pi, out=phase32)
            np.reciprocal(turns, out=amp)
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
        if np.isinf(energy).any():
            raise SingularGeometryError("a candidate point coincides with an array element")
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


def _clip(x: float, lo: float, hi: float) -> float:
    """x clipped to [lo, hi]; a nan stays nan, as under np.clip."""
    return min(max(x, lo), hi)


def _ascend(
    geom: UpaGeometry,
    y: np.ndarray,
    rows: slice,
    current: _Probe,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
):
    """Bound-constrained Levenberg-Marquardt ascent from current, with the
    ray check (module docstring).

    Returns the final probe, the linearizations taken, whether the search
    converged and the candidates it scored. The point, box and model are
    Python floats; only the probes run on numpy.
    """
    origin = geom.coords[:, rows].mean(axis=1)
    box = list(zip(lo.tolist(), hi.tolist()))
    mu = _MU_START
    iterations = evaluations = 0
    while iterations < _MAX_ITERS:
        iterations += 1
        point = current.point.tolist()
        grad, hess, gn_diag = _ascent_model(geom, y, rows, current)
        # A zero Gauss-Newton curvature means D_u is parallel to h, where the
        # gradient along u vanishes too.
        free = [
            u
            for u, (x, (b_lo, b_hi)) in enumerate(zip(point, box))
            if b_lo < b_hi
            and gn_diag[u] > 0
            and not (x <= b_lo and grad[u] < 0)
            and not (x >= b_hi and grad[u] > 0)
        ]
        kept = None
        if free:
            g_free = [grad[u] for u in free]
            while mu <= _MU_CAP:
                damped = [
                    [-hess[u][v] + (mu * gn_diag[u] if u == v else 0.0) for v in free]
                    for u in free
                ]
                delta = _cholesky_solve(damped, g_free)
                if delta is None:
                    mu *= _MU_FACTOR
                    continue
                target = list(point)
                for u, du in zip(free, delta):
                    target[u] = _clip(point[u] + du, *box[u])
                trial = _probe(geom, y, rows, np.array(target))
                evaluations += 1
                if trial.q > current.q:
                    kept = trial
                    mu /= _MU_FACTOR
                    break
                mu *= _MU_FACTOR
        stationary = kept is None
        if kept is not None:
            while True:
                at = kept.point.tolist()
                far = [_clip(2.0 * k - x, *b) for k, x, b in zip(at, point, box)]
                if far == at:
                    break
                doubled = _probe(geom, y, rows, np.array(far))
                evaluations += 1
                if not doubled.q > kept.q:
                    break
                kept = doubled
            # A step that puts an axis on a face leaves the other axes to
            # adjust to it, however short the step was.
            landed = any(
                k != x and (k == b_lo or k == b_hi) for k, x, (b_lo, b_hi) in zip(at, point, box)
            )
            stationary = math.dist(at, point) < tol and not landed
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
                return current, iterations, True, evaluations
    return current, iterations, False, evaluations


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
    try:
        seed, probed = lattice_seed(geom, y, rows, grid)
        current, iterations, converged, steps = _ascend(geom, y, rows, seed, lo, hi, tol)
    except (ZeroDivisionError, OverflowError):
        # Python float arithmetic raises where numpy would return inf or nan.
        raise ValueError("localizer scores leave the float range: the echo dwarfs the channel") from None
    evaluations = math.prod(g.size for g in grid) + probed + steps

    point = current.point.copy()
    point.setflags(write=False)
    return LocalizationResult(
        position_hat=point,
        objective=concentrated_objective(geom, y_bar, point, vr_hat),
        iterations=iterations,
        converged=converged,
        evaluations=evaluations,
    )
