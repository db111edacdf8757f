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
  A prefilter scores every point cheaply, one x-plane at a time. It works in
  wavelength units: with the coordinates scaled by 1 / lambda once, a
  distance t_n = d_n / lambda is the phase in turns, and 1 / t_n the
  amplitude up to the factor lambda / 4 pi, which cancels from q. One
  float32 stage, _phasor_planes, forms the phasors of a set of elements. A
  float32 t would hold the phase to only about 2^-24 t turns, so the stage
  measures each distance from the point's distance T to the elements'
  center, t - T = N / (t + T) with N = t^2 - T^2 formed from per-axis terms;
  the row-wide phase 2 pi T cancels from q on any subset of the columns, and
  the error grows with the elements' radius, not with t. One scorer,
  _scores, takes one float32 product of the phasors with the echo and one
  float32 energy sum, and combines them in float64. The phasor rows come
  from one of two places:
  - a box's first use in a command, and with it every locate of a command
    that locates each box once, forms them now, on the region's elements;
  - from a box's second use on, they are read from the box's seed table, on
    the region's columns. The box, prior +- 2 D, and the array stay fixed
    for a whole command, and so do its phasors; only the echo and the
    region change. The first use of a (geometry, lattice) pair only records
    it in a small memo; the second stores the stage's phasors of every
    lattice point over the full aperture, as they come.
  If rho bounds the error of each phasor, then |s~ - s| <= rho sqrt(e)
  ||y_bar||, which bounds the prefilter score q~ within
  dq = rho ||y_bar|| (2 sqrt(q~) + rho ||y_bar||) of q; rho adds the
  scorer's float32 sums to the stage's error over the elements the phasors
  were formed on (_phasor_error), so a table's bound, over the full
  aperture, is a little wider than a first locate's. Where that bound says
  nothing, as at a 1e30 Hz carrier, or a float32 value could leave its
  normal range, no point is scored and every point survives, and a box gets
  no table. A lattice point on an element of the region is found exactly,
  from its float64 squared offsets, and raises. Only points with
  q~ + dq >= max(q~ - dq) can hold the maximum. Each of them is probed
  exactly, in lattice order, by the same double-precision kernel as every
  other candidate, and the first maximum among them is the seed, wherever
  the phasors came from. The kernel scores a batch of points at once with
  the bits each has alone: one distance and response computation over the
  batch (channel.point_distances), and np.vecdot for each point's own dot
  products, which match np.vdot on that row bit for bit (a test in
  tests/test_channel.py guards this). The survivors go through it in
  batches of about _BUILD_BYTES, and the ray samples below in one batch;
  the ascent's steps, each depending on the last, stay one at a time.
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

  The sums over the region come from BLAS products, over derivative and
  Hessian rows that share one set of radial rows (u_n - u) / d_n; g, H, M
  and the step, one to three unknowns, are Python floats. The step is
  solved in closed form: a Cholesky factor L of the damped block, then
  forward and back substitution. Where a pivot is not positive the factor
  does not exist, and there is no step. Python float arithmetic raises
  where numpy would return inf or nan, and such an error ends the search in
  a ValueError.
- The objective is sharply peaked across the ray from the visibility region
  toward the estimate but nearly flat along it (the range direction), and
  along that ray it can have a second, higher maximum at the far side of the
  box. Once the ascent stops, q is sampled along the ray across the box, in
  one batch, and the ascent restarts from the first best sample if it beats
  the estimate.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .channel import (
    VisibilityRegion,
    _as_point,
    free_space,
    off_element_count,
    point_distances,
    radial_rows,
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

# Bound rho on the prefilter's error, in the sense that the score q~ of each
# lattice point lies within dq = rho ||y|| (2 sqrt(q~) + rho ||y||) of q.
# Below, u = 2^-24, t is a distance in wavelengths, E the elements the
# phasors were formed on (the region's on a first locate, the full aperture
# in a seed table) and M the region's elements, the columns a call scores.
#
# The stage, _phasor_planes, has the phase 2 pi r with r = t - T =
# N / (t + T) (its docstring). A float32 t would hold the phase to only
# about 2 pi u t, 2e-4 rad at 600 wavelengths, and a bound that wide keeps
# many more points; r is held to about u A instead, where A is E's radius
# about its center. With R the largest and t_lo a lower bound on the
# smallest distance (the nearest lattice point's distance to the center less
# A) and g = (R + A) / t_lo >= (T + f) / t for every element at f <= A from
# the center, first order in u:
# - N is the float32 sum of its (y, z) and x terms, each formed in float64
#   and rounded once, so within 2u (f^2 + 2 T f); t^2 = N + T^2 within
#   3u (T + f)^2, so t within (1.5 g^2 + 1) u t and the amplitude 1 / t
#   within (1.5 g^2 + 2) u;
# - t + T >= f, T, t, so N / (t + T) is within u f (10 + 1.5 g^2), and the
#   product with 2 pi within 2 pi u A (12 + 1.5 g^2) rad;
# - float32 cos and sin are within 1.5 float32 ulps, 3u each, and their
#   products with the amplitude add u each: 7.75 u with the amplitude's 2u;
# - the float64 steps on both sides, here and in the exact probes, move the
#   phase by at most 2 pi 2^-50 (R + A + |center|): 3e-12 rad for the
#   built-in boxes at 28 GHz, 1e-2 at 1e20 Hz.
# That sum, rho1, bounds |p~ - p| / |p| for each phasor p~ of E, with p the
# exact probes' phasor times the row-wide exp(j 2 pi T), which cancels from
# q on any subset of E's columns. So a seed table serves every region by
# its columns, with rho1 over the full aperture, and adds no rounding of its
# own: it stores the stage's float32 values as they come.
#
# The scorer, _scores, adds on the M columns:
# - the echo divided by its largest |entry| and rounded to float32, within
#   u |y_n| per entry;
# - the product, four float32 dots of M terms, each within M u of the sum of
#   its terms' moduli, combined into s in float64: within 1.5 M u of
#   sqrt(e) ||y||;
# - the energy, two float32 sums of M squares, within M u of sum |p~|^2,
#   which is within 2 rho1 of e.
# So |s~ - s| <= (rho1 + (1.5 M + 1) u) sqrt(e) ||y|| and e~ = e (1 + delta)
# with |delta| <= 2 rho1 + M u. Since sqrt(q) <= ||y||, the energy moves
# sqrt(q~) by at most |delta| / 2 ||y||, and in all sqrt(q~) lies within
# (2 rho1 + (2M + 1) u) ||y|| of sqrt(q). rho, _phasor_error plus
# _sum_error, covers that with a margin of _MARGIN over 2 rho1 and
# (M + 4) 2^-23 for the sums; the float64 steps of the scorer add a few
# 2^-53. At 32x32 rho is about 2e-4 on a first locate, where a float32 t
# would need 1e-3 and more.
#
# An entry below the normal float32 range adds at most 2^-149, which the
# bound needs no term for while every t lies in [_F32_FLOOR, 2^50]: so
# where t_lo is below _F32_FLOOR, as for a lattice point on an element of
# E, or rho is 1 or more, or a score is not finite, no point is scored. Any
# rho >= 1 then holds for q~ = 0, since q <= ||y||^2; _NO_BOUND keeps a
# margin over it. The rho of a box over the full aperture and all its
# columns bounds every region's, so a box where that rho is 1 or more, from
# about 3e21 Hz on for the built-in boxes, gets no table.
_MARGIN = 2.0
_F32_FLOOR = 2.0**-40
_NO_BOUND = 4.0


def _sum_error(m: int) -> float:
    """rho's term for the scorer's float32 sums over m columns."""
    return (m + 4) * 2.0**-23


# The seed-table memo: at most _TABLES_MAX boxes, the last used at the end,
# and no table above _TABLE_BYTES (about 11,500 elements). A build's
# buffers take about _BUILD_BYTES, and so does a batch of exact probes.
_TABLES_MAX = 4
_TABLE_BYTES = 2**26
_BUILD_BYTES = 2**18


@dataclass
class _TableEntry:
    """A box the memo has seen: its geometry, which keeps the key's id its
    own, and, once built, its table (None where the box gets none) and the
    table's _phasor_error over the full aperture."""

    geom: UpaGeometry
    built: bool = False
    table: np.ndarray | None = None
    rho: float = math.inf


_tables: OrderedDict[tuple, _TableEntry] = OrderedDict()

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
    prefilter survivors probed exactly, ascent trials and ray samples.
    converged means the search stopped at a stationary point that no ray
    sample beats, not at the iteration cap.
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


# The exact kernel holds about 64 bytes per point and element at once: the
# distances, the amplitudes and three complex arrays.
_PROBE_BYTES = 64


def _probes(geom: UpaGeometry, y: np.ndarray, rows: slice, points: np.ndarray) -> list[_Probe]:
    """Exact probes of the columns of points, a (3, P) array, in order.

    One distance and response kernel covers every point, and np.vecdot takes
    each point's two dot products over its own contiguous row, with the bits
    of np.vdot on that row alone; so every probe has the bits it has when it
    is the only point. The first failing point in order raises, as a loop of
    single probes would: SingularGeometryError for a point on an element,
    DegenerateChannelError for a subnormal energy, and OverflowError where
    its score leaves the float range.
    """
    dists = point_distances(geom, points, rows)
    # Only the points before the first one on an element are scored.
    count = off_element_count(dists)
    dists = dists[:count]
    h = free_space(geom, dists)
    s = np.vecdot(h, y).tolist()
    e = np.vecdot(h, h).real.tolist()
    probes = []
    for k in range(count):
        if e[k] < _TINY:
            raise DegenerateChannelError(f"masked response energy {e[k]:.3g} is subnormal")
        probes.append(_Probe(points[:, k], dists[k], h[k], s[k], e[k], abs(s[k]) ** 2 / e[k]))
    if count < points.shape[1]:
        raise SingularGeometryError("a candidate point coincides with an array element")
    return probes


def _probe(geom: UpaGeometry, y: np.ndarray, rows: slice, point: np.ndarray) -> _Probe:
    """Exact probe of one point (3,)."""
    return _probes(geom, y, rows, point[:, None])[0]


def _ascent_model(geom: UpaGeometry, y: np.ndarray, rows: slice, at: _Probe):
    """Gradient, Hessian and Gauss-Newton diagonal of q at a probed point.

    The sums over the region come from BLAS products; the 3 x 3 algebra on
    them runs on Python floats, and the results are nested lists. With
    r = s / e and w = |r|^2, q = e w and no power of s or e is formed.
    """
    radial = radial_rows(geom, at.point, at.dists, rows)
    d = response_derivatives(geom, at.point, at.dists, at.h, rows, radial=radial)
    d2 = response_hessians(geom, at.point, at.dists, at.h, rows, radial=radial)
    h_conj = at.h.conj()
    d_conj = d.conj()
    s_u = (d_conj @ y).tolist()
    s_uv = (d2.conj() @ y).tolist()
    h_d = (d @ h_conj).tolist()
    d_d = (d_conj @ d.T).real.tolist()
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


def _phasor_planes(elems: np.ndarray, axes):
    """The prefilter's float32 phasors of the elements elems over the lattice
    axes, both in wavelengths, one x-plane at a time (module docstring).

    Yields, for each x in lattice order, the plane as a (1, 2 P, elements)
    block, P the points of the plane: amp cos(phase) stacked over
    amp sin(phase), with amp = 1 / t and the phase 2 pi (t - T), T the
    point's distance to the elements' center.
    With P = point - center and F = element - center, t^2 = T^2 + N and
    t - T = N / (t + T), where N = |F|^2 - 2 P.F. N is the sum of a (y, z)
    term, formed once per call, and an x term, formed once per plane; each
    is formed in float64 and rounded to float32 once, and so is T^2. The
    buffers are reused: each plane overwrites the last.
    """
    _, offsets, (xs, ys, zs) = _region_frame(elems, axes)
    count = ys.size * zs.size
    cross = np.empty((ys.size, zs.size, offsets.shape[1]), dtype=np.float32)
    y_terms = -2.0 * np.multiply.outer(ys, offsets[1])
    z_terms = -2.0 * np.multiply.outer(zs, offsets[2])
    np.add(y_terms[:, None, :], z_terms[None, :, :], out=cross)
    cross = cross.reshape(count, -1)
    near = np.einsum("ij,ij->j", offsets, offsets) - 2.0 * np.multiply.outer(xs, offsets[0])
    yz = (ys[:, None] * ys[:, None] + zs * zs).reshape(-1, 1)
    amp = np.empty(cross.shape, dtype=np.float32)
    phase = np.empty(cross.shape, dtype=np.float32)
    parts = np.empty((1, 2 * count, cross.shape[1]), dtype=np.float32)
    cos, sin = parts[0, :count], parts[0, count:]
    for x, term in zip(xs, near.astype(np.float32)):
        square = yz + x * x
        num = np.add(cross, term, out=phase)
        np.add(num, square.astype(np.float32), out=amp)
        np.sqrt(amp, out=amp)
        # The sin half holds t + T until the sines overwrite it.
        np.add(amp, np.sqrt(square).astype(np.float32), out=sin)
        np.divide(num, sin, out=num)
        num *= np.float32(2.0 * np.pi)
        np.reciprocal(amp, out=amp)
        np.cos(phase, out=cos)
        cos *= amp
        np.sin(phase, out=sin)
        sin *= amp
        yield parts


def _wavelengths(geom: UpaGeometry, rows: slice, grid):
    """The coordinates of the elements in rows and the lattice axes, in
    wavelengths."""
    return geom.coords[:, rows] / geom.wavelength, [g / geom.wavelength for g in grid]


def _region_frame(elems: np.ndarray, axes):
    """The center of the elements' bounding box, their offsets F from it and
    the lattice axes measured from it, in wavelengths."""
    center = (elems.min(axis=1) + elems.max(axis=1)) / 2.0
    return center, elems - center[:, None], [g - c for g, c in zip(axes, center)]


def _phasor_error(elems: np.ndarray, axes) -> float:
    """rho's term for the stage's phasors of the elements elems over the
    lattice axes, both in wavelengths: _MARGIN 2 rho1 with A, R, t_lo and
    the span R + A + |center| of the comment above _MARGIN, or inf where
    t_lo is below _F32_FLOOR."""
    center, offsets, axes = _region_frame(elems, axes)
    radius = math.sqrt(float(np.einsum("ij,ij->j", offsets, offsets).max()))
    squares = [g * g for g in axes]
    far = math.sqrt(sum(float(s.max()) for s in squares))
    close = math.sqrt(sum(float(s.min()) for s in squares)) - radius
    if not close >= _F32_FLOOR:
        return math.inf
    span = far + radius + math.hypot(*center)
    g2 = ((far + radius) / close) ** 2
    phase = 2.0 * math.pi * (2.0**-24 * radius * (12.0 + 1.5 * g2) + 2.0**-50 * span)
    return _MARGIN * 2.0 * (phase + 2.0**-24 * (1.5 * g2 + 7.75))


def _on_element(elems: np.ndarray, axes) -> bool:
    """Whether a lattice point coincides with an element: all three of its
    float64 squared offsets are zero."""
    hit = np.ones(elems.shape[1], dtype=bool)
    for g, e in zip(axes, elems):
        offset = np.subtract.outer(g, e)
        hit &= (offset * offset == 0.0).any(axis=0)
    return bool(hit.any())


def _scores(blocks, y: np.ndarray, shape) -> np.ndarray:
    """q~ of every lattice point of the given shape, flat in lattice order,
    from its phasors on the columns of y.

    blocks are float32 arrays of whole x-planes in lattice order, shape
    (planes, 2 P, columns) with P the points of a plane, each plane's P
    amp cos(phase) rows over its P amp sin(phase) rows: one plane at a time
    from _phasor_planes, or a seed table's columns in one block, whose
    products BLAS still takes plane by plane. The echo is divided by its
    largest |entry| before it is rounded to float32, and the scale is
    restored in float64.
    """
    count = shape[1] * shape[2]
    top = float(np.abs(y).max())
    scale = top if top > 0.0 else 1.0
    echo = (np.stack([y.real, y.imag], axis=1) / scale).astype(np.float32)
    sums = np.empty((shape[0], 2, count, 2), dtype=np.float32)
    squares = np.empty((shape[0], 2, count), dtype=np.float32)
    at = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for parts in blocks:
            planes = slice(at, at + parts.shape[0])
            np.matmul(parts, echo, out=sums[planes].reshape(-1, 2 * count, 2))
            np.einsum("pij,pij->pi", parts, parts, out=squares[planes].reshape(-1, 2 * count))
            at = planes.stop
        sums, squares = sums.astype(float), squares.astype(float)
        # s = sum_n amp_n (cos - j sin)(Re y_n - j Im y_n), combined in float64.
        re = sums[:, 0, :, 0] - sums[:, 1, :, 1]
        im = sums[:, 0, :, 1] + sums[:, 1, :, 0]
        energy = squares[:, 0] + squares[:, 1]
        return ((re * re + im * im) / energy * scale * scale).reshape(-1)


def _build_table(geom: UpaGeometry, grid) -> np.ndarray:
    """The lattice's seed table over the full aperture: the x-planes of
    _phasor_planes over every element, as they come, shape (x values,
    2 P, elements) in float32 with P the points of a plane, 8 bytes per
    point and element.

    The stage runs on a few y values of the lattice at a time, so that its
    buffers stay near _BUILD_BYTES, whatever the size of the array; each
    point's phasors do not depend on the others in its call.
    """
    elems, (xs, ys, zs) = _wavelengths(geom, slice(None), grid)
    table = np.empty((xs.size, 2, ys.size, zs.size, geom.n_elements), dtype=np.float32)
    # parts, amp, the phase and the (y, z) terms take 20 bytes per point and element.
    step = max(1, _BUILD_BYTES // (20 * zs.size * geom.n_elements))
    for j in range(0, ys.size, step):
        planes = _phasor_planes(elems, (xs, ys[j : j + step], zs))
        for block, parts in zip(table[:, :, j : j + step], planes):
            block[...] = parts.reshape(block.shape)
    return table.reshape(xs.size, -1, geom.n_elements)


def _table_key(geom: UpaGeometry, grid) -> tuple:
    """The memo's key of a box: the geometry's id and the lattice's axes."""
    return (id(geom), *(g.tobytes() for g in grid))


def _seed_table(geom: UpaGeometry, grid) -> _TableEntry | None:
    """The box's memo entry from its second use on if it has a table, else None.

    The memo keeps the _TABLES_MAX boxes used last. A box's first use records
    it and its second builds its table, so a command that locates each box
    once builds none; a box evicted before it comes back starts again. A box
    gets no table when the table would exceed _TABLE_BYTES or when its rho
    over the full aperture and all its columns is 1 or more (the comment
    above _MARGIN). The key holds the geometry's id, and the entry holds the
    geometry itself, so that id cannot be reused while the entry lives.
    """
    key = _table_key(geom, grid)
    entry = _tables.get(key)
    if entry is None:
        _tables[key] = _TableEntry(geom)
        if len(_tables) > _TABLES_MAX:
            _tables.popitem(last=False)
        return None
    _tables.move_to_end(key)
    if not entry.built:
        n = geom.n_elements
        entry.rho = _phasor_error(*_wavelengths(geom, slice(None), grid))
        fits = math.prod(g.size for g in grid) * n * 8 <= _TABLE_BYTES
        if fits and entry.rho + _sum_error(n) < 1.0:
            entry.table = _build_table(geom, grid)
        entry.built = True
    return entry if entry.table is not None else None


def clear_seed_tables() -> None:
    """Empty the seed-table memo; cli.main does so at the start of every command."""
    _tables.clear()


def prefilter_scores(
    geom: UpaGeometry, y: np.ndarray, rows: slice, grid
) -> tuple[np.ndarray, np.ndarray]:
    """Prefilter scores q~ of every lattice point and their bounds dq.

    y is the echo on the region slice rows and grid is (xs, ys, zs). Both
    results are flat, in lattice order, and |q~ - q| <= dq for the exact
    score q of each point (module docstring). From the second call on the
    same geometry object and lattice, the phasors are the region's columns
    of the box's seed table, which the memo holds; before that, and for a
    box that gets no table, they are formed for this call on the region's
    elements. Where the bound says nothing or a score is not finite, every
    point gets q~ = 0 and dq from rho = _NO_BOUND, so every point survives.
    Raises SingularGeometryError when a lattice point coincides with an
    element of the region.
    """
    grid = [np.asarray(g, dtype=float) for g in grid]
    shape = tuple(g.size for g in grid)
    entry = _seed_table(geom, grid)
    if entry is None:
        elems, axes = _wavelengths(geom, rows, grid)
        rho, blocks = _phasor_error(elems, axes), _phasor_planes(elems, axes)
    else:
        start, stop, _ = rows.indices(geom.n_elements)
        rho, blocks = entry.rho, [entry.table[:, :, start:stop]]
    rho += _sum_error(y.size)
    q = _scores(blocks, y, shape) if rho < 1.0 else None
    if q is None or not np.isfinite(q).all():
        if _on_element(*_wavelengths(geom, rows, grid)):
            raise SingularGeometryError("a candidate point coincides with an array element")
        q, rho = np.zeros(math.prod(shape)), _NO_BOUND
    reach = rho * math.sqrt(np.vdot(y, y).real)
    return q, reach * (2.0 * np.sqrt(q) + reach)


def lattice_seed(geom: UpaGeometry, y: np.ndarray, rows: slice, grid) -> tuple[_Probe, int]:
    """Probe of the first lattice point with the highest q, and the probe count.

    The prefilter keeps the points that may hold the maximum, and each of them
    is probed exactly, in lattice order, in batches of about _BUILD_BYTES.
    When every point survives, as for a zero echo, that is the whole lattice.
    The seed does not depend on where the phasors came from, but the count
    can: a table's bound, over the full aperture, keeps a few more points
    than a first locate's, over the region.
    """
    q, dq = prefilter_scores(geom, y, rows, grid)
    if not (np.isfinite(q).all() and np.isfinite(dq).all()):
        raise ValueError("lattice scores are not finite: the echo overflows")
    survivors = np.flatnonzero(q + dq >= np.max(q - dq))
    index = np.unravel_index(survivors, tuple(g.size for g in grid))
    points = np.stack([g[i] for g, i in zip(grid, index)])
    step = max(1, _BUILD_BYTES // (_PROBE_BYTES * y.size))
    best = None
    for start in range(0, survivors.size, step):
        for at in _probes(geom, y, rows, points[:, start : start + step]):
            # Only a higher score replaces the best, so the first of equal
            # scores stays, as under max and np.argmax.
            if best is None or at.q > best.q:
                best = at
    return best, survivors.size


def _ray_samples(origin, point, lo, hi, count):
    """Evenly spaced points of the ray from origin through point inside the
    box, one per column of a (3, count) array; (3, 0) where there is no ray."""
    direction = point - origin
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.empty((3, 0))
    u = direction / norm
    t_lo, t_hi = -np.inf, np.inf
    for i in range(3):
        if u[i] != 0.0:
            ends = sorted(((lo[i] - point[i]) / u[i], (hi[i] - point[i]) / u[i]))
            t_lo, t_hi = max(t_lo, ends[0]), min(t_hi, ends[1])
    if not t_lo < t_hi:
        return np.empty((3, 0))
    # Column k is point + t_k u, clipped to the box, as for each t_k alone.
    ts = np.linspace(t_lo, t_hi, count)
    return np.clip(point[:, None] + ts * u[:, None], lo[:, None], hi[:, None])


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
            samples = _probes(
                geom, y, rows, _ray_samples(origin, current.point, lo, hi, _LATTICE_POINTS)
            )
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
    if not tol > 0:
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
