"""Fisher information, position CRB, and sensing-duration planning.

The unknown parameter vector is theta = (x, y, z, Re b, Im b). Over one slot
of tau constant probe symbols x the aggregated model mean is
mu = b h (x^T h), with h the channel on the visibility region's M elements
(zero elsewhere, so no other element adds to any sum). Writing hd_u for the
derivative of h along coordinate u, its Jacobian is

    J = [h, hd_x, hd_y, hd_z] C,

an (M, 4) block times the 4 x 5 matrix C that the rank-one probe gives:
position column u holds b x^T hd_u on h and b x^T h on hd_u, and the columns
of Re b and Im b hold x^T h and j x^T h on h. The Gaussian-noise Fisher
information is F = (2 tau / sigma_r^2) Re(J^H J).

fim() never forms J^H J, whose conditioning is that of J squared. It takes
the QR factor R of the block, so that Re(J^H J) = K^T K with the 8 x 5 real
matrix K = [Re(R C); Im(R C)]. With the columns of K scaled to unit norm and
factored again, K = Q U D with U upper triangular, and

    F = tau S U^T U S,    S = sqrt(2 / sigma_r^2) D,

so U^T U is F equilibrated to a unit diagonal, its condition number is
cond(U)^2, and the CRB of axis i is (U^-1 U^-T)_ii / (tau S_ii^2): the
squared norm of row i of U^-1 over tau S_ii^2. Against a 60-digit CRB of the
same double-precision block this measured within 0.06 cond(U) u
(tests/test_crb.py), where inverting the formed F loses up to cond(U)^2 u.

Planning needs the information at the 27 points of each receiver's prior
lattice, so fim() takes the lattice as per-axis offsets and evaluates every
point in one call: one point_distances (the one float64 distance kernel)
and one free_space over the lattice's points on the region's elements,
then, one z-row of the grid at a time, a loop that writes each point's
derivative rows into its C-ordered (4, M) block, one np.vecdot for the
probe projections x^T u and one QR of the row's blocks, and finally the
5 x 5 work in batched calls over every point. np.vecdot reduces each row
with the bits of x.dot on that row alone, and LAPACK factors each stack item
on its own (tests in tests/test_channel.py and tests/test_crb.py guard
both), so a point's results have the same bits whatever other points share
a call.

Every block of F is proportional to tau, so FisherInfo stores the
per-symbol matrix and its root, and crb(tau) * tau is the same for every
tau. F is also quadratic in the probe: for the constant probe
x = sqrt(P / N) 1 the position CRB at budget P is the 1 W CRB over P, and
the planner (harness.plan) evaluates each lattice once at 1 W. That law is
exact in real arithmetic only: the probe sqrt(P / N) is rounded, so U at a
budget's own probe and at 1 W differ in their last bits, which the CRB
amplifies by up to about cond(U).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ErState, VisibilityRegion, free_space, off_element_count, point_distances,
    response_derivatives, steering_vector,
)
from .errors import (
    DegenerateChannelError, InfeasibleBlockError, SingularFimError, SingularGeometryError
)
from .geometry import UpaGeometry

_COND_LIMIT = 1e12
# Smallest normal float. A subnormal channel energy, probe gain or matrix
# carries too few bits for any check on the information to mean anything.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FisherInfo:
    """5x5 real Fisher information in the order (x, y, z, Re b, Im b).

    base_matrix holds the information contributed by a single probe symbol,
    already scaled by 2 / noise_power; the full matrix for the slot is
    tau * base_matrix. root, which fim() fills, is its square root as a pair
    (unit, scale): unit is upper triangular with unit-norm columns, and
    base_matrix is S unit^T unit S with S = diag(scale), up to rounding. A
    FisherInfo built from a matrix alone has no root; crb_position() then
    takes one from a Cholesky factor. fim() over a lattice stacks one matrix
    and one root per point along a leading axis.
    """

    base_matrix: np.ndarray
    tau: int
    root: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def matrix(self) -> np.ndarray:
        full = self.tau * self.base_matrix
        full.setflags(write=False)
        return full


@dataclass(frozen=True)
class CrbReport:
    """Position CRB split by axis, in squared meters."""

    crb_total: float
    per_axis: tuple[float, float, float]
    tau: int


# Extreme finite inputs (a huge reflection or budget, a tiny noise power) can
# overflow in planning. The checks on the results raise for them, so no numpy
# warning needs to escape.
_QUIET = np.errstate(all="ignore")


@_QUIET
def fim(
    geom: UpaGeometry,
    er_nominal: ErState,
    probe: np.ndarray,
    slot_len: int,
    noise_power: float,
    offsets=None,
) -> FisherInfo:
    """Fisher information and its square root at a nominal receiver state.

    offsets, when given, is (dx, dy, dz), one 1-D displacement array per
    axis: the information is then evaluated at the nominal position plus
    every displacement of their product, and base_matrix and the root stack
    one point each along a leading axis, in product order. Without offsets
    the nominal position is the only point and base_matrix is 5 x 5. Every
    sum runs over the rows of the nominal visibility region only. The root
    comes from two QR factorizations per point (module docstring), and
    base_matrix is (2 / noise_power) K^T K.
    A matrix that is not finite, at any point, raises SingularFimError;
    otherwise the first failing point in product order raises:
    DegenerateChannelError for a zero channel, SingularFimError for a
    channel energy, probe gain or largest matrix entry below the smallest
    normal float. Only inputs at the edge of the float range fail these
    checks.
    """
    if not noise_power > 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if not slot_len >= 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    n = geom.n_elements
    x = np.asarray(probe, dtype=complex)
    if x.shape != (n,):
        raise ValueError(f"probe shape {x.shape} does not match channel shape {(n,)}")
    center = er_nominal.position
    if offsets is None:
        grid = center[:, None]
    else:
        if len(offsets) != 3:
            raise ValueError(f"offsets must hold one array per axis, got {len(offsets)}")
        grid = [
            center[ax] + np.asarray(d, dtype=float).reshape(-1) for ax, d in enumerate(offsets)
        ]
        if not all(np.all(np.isfinite(coords)) for coords in grid):
            raise ValueError("position must be finite")
    rows = er_nominal.vr.rows(n)
    x = x[rows]
    points = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 3)
    dists = point_distances(geom, points.T, rows)
    if off_element_count(dists) < len(dists):
        raise SingularGeometryError("a candidate point coincides with an array element")
    entries = free_space(geom, dists)
    # A point's block holds h in row 0 and its derivative rows below, each
    # row one contiguous run, as np.vecdot needs for its bits. The blocks of
    # one z-row of the grid are factored per call while fresh in the cache,
    # so the buffer and np.linalg.qr's copy of it stay small beside the grid
    # response (one call over the whole grid took twice as long at 32 x 32,
    # and one call per x-plane raised the traced peak 1.4-fold).
    blocks = np.empty((len(grid[2]), 4, x.size), dtype=complex)
    projections = np.empty((len(points), 4), dtype=complex)
    r = np.empty((len(points), min(x.size, 4), 4), dtype=complex)
    for start in range(0, len(points), len(blocks)):
        chunk = slice(start, start + len(blocks))
        for point, dist, h, block in zip(points[chunk], dists[chunk], entries[chunk], blocks):
            block[0] = h
            response_derivatives(geom, point, dist, h, rows, out=block[1:])
        projections[chunk] = np.vecdot(x.conj(), blocks)
        r[chunk] = np.linalg.qr(blocks.transpose(0, 2, 1), mode="r")
    b = er_nominal.reflection
    coeffs = [
        [
            [b * v for v in xd] + [xh, 1j * xh],
            [b * xh, 0, 0, 0, 0],
            [0, b * xh, 0, 0, 0],
            [0, 0, b * xh, 0, 0],
        ]
        for xh, *xd in projections.tolist()
    ]
    # Re(J^H J) = K^T K. A region of fewer than 4 elements has fewer than 4
    # rows of R, and K keeps zero rows in their place.
    product = r @ np.array(coeffs)
    k = np.zeros((len(points), 8, 5))
    k[:, : product.shape[1]] = product.real
    k[:, 4 : 4 + product.shape[1]] = product.imag
    mats = (k.transpose(0, 2, 1) @ k) * (2.0 / noise_power)
    if not np.isfinite(mats).all():
        raise SingularFimError("Fisher information is not finite: the planning inputs overflow")

    zero = ~entries.any(axis=1)
    gain = np.minimum(np.abs(r[:, 0, 0]), np.abs(projections[:, 0])) ** 2
    underflow = (gain < _TINY) | (np.abs(mats).max(axis=(1, 2)) < _TINY)
    failed = zero | underflow
    if failed.any():
        if zero[failed.argmax()]:
            raise DegenerateChannelError("nominal channel is identically zero")
        raise SingularFimError("Fisher information underflows: the planning inputs are too small")
    norms = np.linalg.norm(k, axis=1)
    unit = np.linalg.qr(k / norms[:, None, :], mode="r")
    scale = norms * math.sqrt(2.0 / noise_power)
    mats.setflags(write=False)
    if offsets is None:
        mats, unit, scale = mats[0], unit[0], scale[0]
    return FisherInfo(base_matrix=mats, tau=int(slot_len), root=(unit, scale))


def fim_finite_difference(
    geom: UpaGeometry,
    er_nominal: ErState,
    probe: np.ndarray,
    slot_len: int,
    noise_power: float,
    step: float = 1e-7,
) -> FisherInfo:
    """Reference Fisher information from central differences of the model mean.

    Builds the Jacobian of mu(theta) = b * h(l) (h(l)^T x) numerically in the
    position coordinates (analytically in b, where mu is linear) and returns
    (2 tau / sigma_r^2) Re(J^H J), over the rows of the nominal visibility
    region. Kept independent of fim() so the two routes can arbitrate each
    other.
    """
    if not noise_power > 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if not slot_len >= 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(probe, dtype=complex)
    n = geom.n_elements
    if x.shape != (n,):
        raise ValueError(f"probe shape {x.shape} does not match channel shape {(n,)}")
    rows = er_nominal.vr.rows(n)
    x = x[rows]
    b = er_nominal.reflection

    def mean(point: np.ndarray) -> np.ndarray:
        h = steering_vector(geom, point, rows)
        return b * h * (h @ x)

    cols = []
    for ax in range(3):
        offset = np.zeros(3)
        offset[ax] = step
        cols.append(
            (mean(er_nominal.position + offset) - mean(er_nominal.position - offset))
            / (2.0 * step)
        )
    h = steering_vector(geom, er_nominal.position, rows)
    mu_b = h * (h @ x)
    cols.append(mu_b)
    cols.append(1j * mu_b)
    jac = np.column_stack(cols)
    mat = (2.0 / noise_power) * (jac.conj().T @ jac).real
    mat.setflags(write=False)
    return FisherInfo(base_matrix=mat, tau=int(slot_len))


def crb_position(info: FisherInfo) -> CrbReport:
    """Position CRB from a square root of the Fisher information.

    The parameter vector mixes meters with a unitless reflection, so the raw
    matrix carries a large artificial scale spread. Conditioning is therefore
    judged after symmetric diagonal equilibration, which measures actual
    parameter coupling rather than units, and the CRB is read from the
    equilibrated root (_root). Dividing the per-symbol CRB by tau keeps
    crb(tau) * tau exactly constant. A lattice FisherInfo, which stacks one
    matrix per point, is rejected: lattice_crb() reduces such a stack.
    """
    shape = np.shape(info.base_matrix)
    if shape != (5, 5):
        raise ValueError(
            f"crb_position takes one 5 x 5 Fisher information, got shape {shape}; "
            "use lattice_crb for a lattice"
        )
    unit, scale = _root(info)
    per_axis = tuple(float(v) for v in _axis_crbs(unit[None], scale[None], info.tau)[0])
    return CrbReport(crb_total=float(sum(per_axis)), per_axis=per_axis, tau=info.tau)


def _root(info: FisherInfo) -> tuple[np.ndarray, np.ndarray]:
    """The root (unit, scale) of one 5 x 5 FisherInfo: fim()'s, or
    scale = sqrt(diag) and unit the upper Cholesky factor of the matrix
    equilibrated by it. A matrix whose diagonal is not positive or that is
    not finite gets scale 0, and one whose equilibrated matrix has no
    Cholesky factor a zero unit, which _axis_crbs finds singular."""
    if info.root is not None:
        return info.root
    mat = info.base_matrix
    diag = np.diagonal(mat)
    if not (np.all(diag > 0) and np.all(np.isfinite(mat))):
        return np.zeros((5, 5)), np.zeros(5)
    scale = np.sqrt(diag)
    inv_scale = 1.0 / scale
    try:
        unit = np.linalg.cholesky(mat * inv_scale[:, None] * inv_scale[None, :], upper=True)
    except np.linalg.LinAlgError:
        unit = np.zeros((5, 5))
    return unit, scale


@_QUIET
def _axis_crbs(unit: np.ndarray, scale: np.ndarray, tau: int) -> np.ndarray:
    """Per-axis position CRBs, shape (P, 3), of a stack of per-symbol roots:
    unit (P, 5, 5), upper triangular with unit-norm columns, and scale (P, 5).

    One call on the stack gives every cond(unit)^2, the condition number of
    the equilibrated information, and every unit^-1 (module docstring). Like
    a loop over crb_position, this raises at the first point in stack order
    with a scale that is not positive or an ill-conditioned matrix.
    """
    valid = np.all(scale > 0, axis=1)
    # Only the points before the first invalid one can raise first.
    usable = len(valid) if valid.all() else int(valid.argmin())
    cond = np.linalg.cond(unit[:usable]) ** 2
    bad = ~np.isfinite(cond) | (cond >= _COND_LIMIT)
    if bad.any():
        raise SingularFimError(
            f"equilibrated Fisher information condition number {cond[bad.argmax()]:.3e} "
            f"exceeds {_COND_LIMIT:.0e}"
        )
    if usable < len(valid):
        raise SingularFimError("Fisher information has a nonpositive diagonal entry")
    rows = np.linalg.inv(unit)[:, :3]
    return (rows * rows).sum(axis=2) / (scale[:, :3] * scale[:, :3]) / tau


@dataclass(frozen=True)
class LatticeCrb:
    """One receiver's single-symbol position CRB over its prior lattice (m^2),
    and the visibility region the lattice was evaluated on."""

    nominal: float
    worst: float
    region: VisibilityRegion


# Index of the zero displacement in product((-D, 0, +D), repeat=3) order.
_NOMINAL_CORNER = 13


@_QUIET
def lattice_crb(
    geom: UpaGeometry,
    priors: list[tuple],
    error_bounds,
    probe: np.ndarray,
    noise_power: float,
) -> tuple[LatticeCrb, ...]:
    """Nominal and worst single-symbol position CRB of each receiver prior.

    priors lists one (position, visibility region, reflection) triple per
    receiver; error_bounds is one (D_x, D_y, D_z) triple shared by all priors
    or one triple per prior. Each prior is displaced over the lattice
    {-D, 0, +D}^3, and one fim() call at tau = 1 evaluates all 27 points in
    product order. The first failing point raises the error it raises on its
    own, except that fim()'s checks (zero channel, a matrix that is not
    finite or underflows) cover the whole lattice before any point's
    conditioning is judged. Every SingularFimError names
    the receiver, er1 for the first prior; a lattice CRB that is not finite
    and positive, which only an overflowing or underflowing input gives,
    raises one too.
    """
    if not priors:
        raise ValueError("at least one receiver prior is required")
    bounds = np.asarray(error_bounds, dtype=float)
    if bounds.shape == (3,):
        bounds = np.tile(bounds, (len(priors), 1))
    if bounds.shape != (len(priors), 3):
        raise ValueError(
            f"error bounds must have shape (3,) or ({len(priors)}, 3), got {bounds.shape}"
        )
    if np.any(bounds < 0):
        raise ValueError("error bounds must be nonnegative")

    out = []
    for k, ((position, vr, reflection), dvec) in enumerate(zip(priors, bounds), 1):
        state = ErState(position, vr, reflection)
        try:
            info = fim(geom, state, probe, 1, noise_power, offsets=[(-d, 0.0, d) for d in dvec])
            per_axis = _axis_crbs(*info.root, info.tau)
            # Summed as crb_position sums its Python floats: (x + y) + z.
            crbs = ((per_axis[:, 0] + per_axis[:, 1]) + per_axis[:, 2]).tolist()
            bad = next((c for c in crbs if not 0 < c < math.inf), None)
            if bad is not None:
                raise SingularFimError(
                    f"single-symbol position CRB {bad:.3e} is not finite and positive"
                )
        except SingularFimError as exc:
            raise SingularFimError(f"er{k}: {exc}") from None
        out.append(LatticeCrb(nominal=crbs[_NOMINAL_CORNER], worst=max(crbs), region=vr))
    return tuple(out)


def min_sensing_duration(crbs, gamma: float, block_len: int) -> int:
    """Smallest slot length whose position CRB meets the target gamma.

    crbs holds one LatticeCrb per receiver, as lattice_crb() returns them,
    and the worst point of every lattice decides. The CRB scales exactly as
    1 / tau, so tau = max(1, ceil(worst / gamma)). Every receiver senses for
    tau symbols, and some of the block must be left for charging.
    """
    if not crbs:
        raise ValueError("at least one receiver CRB is required")
    if not gamma > 0:
        raise ValueError(f"accuracy target must be positive, got {gamma}")
    if not block_len >= 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    need = max(c.worst for c in crbs) / gamma
    # From need >= block_len on, the slot alone fills the block. ceil is not
    # taken there: it raises on an infinite need, and a huge finite one would
    # print hundreds of digits.
    tau = max(1, math.ceil(need)) if need < block_len else np.ceil(need)
    if not len(crbs) * tau < block_len:
        raise InfeasibleBlockError(
            f"sensing needs {len(crbs)} x {tau:.6g} symbols but the block has {block_len}"
        )
    return tau
