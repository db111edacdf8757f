"""Fisher information, position CRB, and sensing-duration planning.

The unknown parameter vector is theta = (x, y, z, Re b, Im b). Over one slot
of tau constant probe symbols the aggregated model mean is linear in b and
nonlinear in position, and the Gaussian-noise Fisher information takes the
block form

    F = (2 / sigma_r^2) * [[ Re G_pp,  Re g_pb, -Im g_pb ],
                           [ Re g_pb^T,  Re g_bb, -Im g_bb ],
                           [-Im g_pb^T, -Im g_bb,  Re g_bb ]]

with, writing h for the channel on the visibility region's elements, hd_u
for its derivative along coordinate u and S for the probe sample covariance
on those elements (the channel is zero elsewhere, so no other element adds
to any form),

    G_uv  = tau |b|^2 ( hd_u^H hd_v (h^H S* h) + hd_u^H h (h^H S* hd_v)
                        + h^H hd_v (hd_u^H S* h) + h^H h (hd_u^H S* hd_v) ),
    g_ub  = tau ( hd_u^H h (b* h^H S* h) + h^H h (b* hd_u^H S* h) ),
    g_bb  = tau ( h^H h ) ( h^H S* h ).

The probe is constant over the slot, so S = x x^H has rank one and every
quadratic form factors as u^H S* v = conj(x^T u) (x^T v). fim() therefore
projects h and the three derivatives onto the probe once and builds each form
from two scalars, in O(N) with no N x N array.

Planning needs the FIM at the 27 points of each receiver's prior lattice, so
fim() takes the lattice as per-axis offsets and evaluates every point in one
call: one array_response over the grid on the region's M elements, then, one
point at a time, that point's (3, M) derivative rows and its 5 x 5 matrix,
and finally one eigvalsh, cond and inv over the (points, 5, 5) stack. Each
point's channel and derivative rows are written into one C-ordered (4, M)
block that the loop reuses. No array spans points, axes and elements at
once, so every temporary of the loop stays small. The matrix is
ill-conditioned, so the order of every sum counts. A point's 14 reductions,
the probe projections x . u and the inner products vdot(u, v) over its rows,
come from three np.vecdot calls on the block; vecdot reduces each row on its
own, with the bits of x.dot and np.vdot on that row alone (a test in
tests/test_channel.py guards this). The Python scalars they give are
combined in the same order as for a single point. A product through gemv
(np.matmul, np.matvec), a reduction batched across points, or one over a
strided row rounds differently and moves the worst CRB in its last digits.

Every block is proportional to tau, so F(tau) = tau * F(1) exactly and the
position CRB scales as 1 / tau. FisherInfo therefore stores the per-symbol
matrix F(1) and reconstructs F(tau) on demand, which keeps the scaling law
exact in floating point instead of approximate.

F is also quadratic in the probe: every form above carries S = x x^H once,
so for the constant probe x = sqrt(P / N) 1 the information at budget P is
P times the information at 1 W, and the position CRB scales as 1 / P. The
planner (harness.plan) therefore evaluates each lattice once with the 1 W
probe and divides by the budget. Unlike the tau law this one is exact in
real arithmetic only: the probe sqrt(P / N) is rounded, so F at a budget's
own probe and P * F(1 W) differ in their last bits, and the ill-conditioned
inverse amplifies that by up to its equilibrated condition number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ErState, VisibilityRegion, array_response, response_derivatives, steering_vector
)
from .errors import DegenerateChannelError, InfeasibleBlockError, SingularFimError
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
    tau * base_matrix. fim() over a lattice stacks one such matrix per point
    along a leading axis.
    """

    base_matrix: np.ndarray
    tau: int

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
    """Closed-form Fisher information at a nominal receiver state.

    offsets, when given, is (dx, dy, dz), one 1-D displacement array per
    axis: the information is then evaluated at the nominal position plus
    every displacement of their product, and base_matrix stacks one 5 x 5
    matrix per point along a leading axis, in product order. Without
    offsets the nominal position is the only point and base_matrix is 5 x 5.
    Every form sums over the rows of the nominal visibility region only.
    The grid's responses come from one array_response; each point's channel,
    derivative rows and matrix are then built on their own, from three
    np.vecdot calls over the point's (4, M) block and scalar algebra on
    Python lists, so a point's matrix has the same bits whatever other
    points share the call (see the module docstring). A matrix that is not
    finite, at any point, raises SingularFimError; otherwise the first
    failing point in product order raises: DegenerateChannelError for a zero
    channel, SingularFimError for a channel energy, probe gain or largest
    matrix entry below the smallest normal float, or for a matrix that lost
    positive semidefiniteness. Only inputs at the edge of the float range
    fail these checks.
    """
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if slot_len < 1:
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
    dists, entries = array_response(geom, grid, rows)
    dists = dists.reshape(-1, x.size)
    entries = entries.reshape(-1, x.size)
    points = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 3)
    b = er_nominal.reflection
    b2, b_conj = abs(b) ** 2, b.conjugate()
    x_conj = x.conj()
    mats, zero, underflow = [], [], []
    # Row 0 holds the point's channel h and rows 1-3 its derivative rows. C
    # order puts every row in one contiguous run: a strided row would make
    # the reductions below sum in another order.
    block = np.empty((4, x.size), dtype=complex)
    derivs = block[1:]
    for point, dist, h in zip(points, dists, entries):
        zero.append(not h.any())
        block[0] = h
        response_derivatives(geom, point, dist, h, rows, out=derivs)
        # x^T u for u = h and each derivative: u^H S* v = conj(x^T u) (x^T v).
        # np.vecdot takes each row's reduction on its own, with the bits of
        # x.dot(u) and np.vdot(u, v) on that row. Each result becomes a
        # Python scalar once; the algebra on them rounds as numpy scalars do,
        # in the same order.
        xh, *xd = np.vecdot(x_conj, block).tolist()
        hh, *dh = np.vecdot(block, h).tolist()
        dd = np.vecdot(derivs[:, None], derivs[None, :]).tolist()
        hh = hh.real
        xh_conj = xh.conjugate()
        xd_conj = [v.conjugate() for v in xd]
        # vdot(h, d) is the exact conjugate of vdot(d, h) (tests/oracles.py
        # takes vdot(h, d) and the oracle tests compare bits).
        hd = [v.conjugate() for v in dh]

        hsh = xh_conj * xh
        underflow.append(min(hh, hsh.real) < _TINY)
        mat = [[0.0] * 5 for _ in range(5)]
        for i in range(3):
            for j in range(i, 3):
                g_uv = b2 * (
                    dd[i][j] * hsh
                    + dh[i] * xh_conj * xd[j]
                    + hd[j] * xd_conj[i] * xh
                    + hh * xd_conj[i] * xd[j]
                )
                mat[i][j] = mat[j][i] = g_uv.real
        for i in range(3):
            g_ub = dh[i] * b_conj * hsh + hh * b_conj * xd_conj[i] * xh
            mat[i][3] = mat[3][i] = g_ub.real
            mat[i][4] = mat[4][i] = -g_ub.imag
        g_bb = hh * hsh
        mat[3][3] = mat[4][4] = g_bb.real
        mat[3][4] = mat[4][3] = -g_bb.imag
        mats.append(mat)
    mats = np.array(mats, dtype=float).reshape(-1, 5, 5)
    zero, underflow = np.array(zero, dtype=bool), np.array(underflow, dtype=bool)
    mats *= 2.0 / noise_power
    # eigvalsh does not converge on a matrix that is not finite.
    if not np.isfinite(mats).all():
        raise SingularFimError("Fisher information is not finite: the planning inputs overflow")

    scale = np.abs(mats).max(axis=(1, 2))
    underflow |= scale < _TINY
    lost = np.linalg.eigvalsh(mats).min(axis=1) < -1e-8 * scale
    failed = zero | underflow | lost
    if failed.any():
        first = failed.argmax()
        if zero[first]:
            raise DegenerateChannelError("nominal channel is identically zero")
        if underflow[first]:
            raise SingularFimError(
                "Fisher information underflows: the planning inputs are too small"
            )
        raise SingularFimError("Fisher information lost positive semidefiniteness")
    mats.setflags(write=False)
    return FisherInfo(base_matrix=mats if offsets is not None else mats[0], tau=int(slot_len))


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
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if slot_len < 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    if step <= 0:
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
    """Position CRB from the inverse Fisher information.

    The parameter vector mixes meters with a unitless reflection, so the raw
    matrix carries a large artificial scale spread. Conditioning is therefore
    judged after symmetric diagonal equilibration, which measures actual
    parameter coupling rather than units; the inverse is computed through the
    same scaling. Inverting the per-symbol matrix and dividing by tau keeps
    crb(tau) * tau exactly constant. A lattice FisherInfo, which stacks one
    matrix per point, is rejected: lattice_crb() reduces such a stack.
    """
    shape = np.shape(info.base_matrix)
    if shape != (5, 5):
        raise ValueError(
            f"crb_position takes one 5 x 5 Fisher information, got shape {shape}; "
            "use lattice_crb for a lattice"
        )
    per_axis = tuple(float(v) for v in _axis_crbs(info.base_matrix[None], info.tau)[0])
    return CrbReport(crb_total=float(sum(per_axis)), per_axis=per_axis, tau=info.tau)


@_QUIET
def _axis_crbs(base: np.ndarray, tau: int) -> np.ndarray:
    """Per-axis position CRBs, shape (P, 3), of a (P, 5, 5) stack of per-symbol FIMs.

    The conditioning and the inverse of every matrix come from one call on
    the stack. Like a loop over crb_position, this raises at the first point
    in stack order with a nonpositive diagonal or an ill-conditioned matrix.
    """
    diag = np.diagonal(base, axis1=1, axis2=2)
    valid = np.all(diag > 0, axis=1) & np.all(np.isfinite(base), axis=(1, 2))
    # Only the points before the first invalid one can raise first.
    usable = len(valid) if valid.all() else int(valid.argmin())
    scale = 1.0 / np.sqrt(diag[:usable])
    balanced = base[:usable] * scale[:, :, None] * scale[:, None, :]
    cond = np.linalg.cond(balanced)
    bad = ~np.isfinite(cond) | (cond >= _COND_LIMIT)
    if bad.any():
        raise SingularFimError(
            f"equilibrated Fisher information condition number {cond[bad.argmax()]:.3e} "
            f"exceeds {_COND_LIMIT:.0e}"
        )
    if usable < len(valid):
        raise SingularFimError("Fisher information has a nonpositive diagonal entry")
    cov = np.linalg.inv(balanced) * scale[:, :, None] * scale[:, None, :] / tau
    return np.diagonal(cov, axis1=1, axis2=2)[:, :3]


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
    finite or underflows, lost semidefiniteness) cover the whole lattice
    before any point's conditioning is judged. Every SingularFimError names
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
            per_axis = _axis_crbs(info.base_matrix, info.tau)
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
    if gamma <= 0:
        raise ValueError(f"accuracy target must be positive, got {gamma}")
    if block_len < 1:
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
