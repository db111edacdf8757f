"""Fisher information, position CRB, and sensing-duration planning.

The unknown parameter vector is theta = (x, y, z, Re b, Im b). Over one slot
of tau constant probe symbols the aggregated model mean is linear in b and
nonlinear in position, and the Gaussian-noise Fisher information takes the
block form

    F = (2 / sigma_r^2) * [[ Re G_pp,  Re g_pb, -Im g_pb ],
                           [ Re g_pb^T,  Re g_bb, -Im g_bb ],
                           [-Im g_pb^T, -Im g_bb,  Re g_bb ]]

with, writing hd_u for the masked channel derivative along coordinate u and
S for the probe sample covariance,

    G_uv  = tau |b|^2 ( hd_u^H hd_v (h^H S* h) + hd_u^H h (h^H S* hd_v)
                        + h^H hd_v (hd_u^H S* h) + h^H h (hd_u^H S* hd_v) ),
    g_ub  = tau ( hd_u^H h (b* h^H S* h) + h^H h (b* hd_u^H S* h) ),
    g_bb  = tau ( h^H h ) ( h^H S* h ).

The probe is constant over the slot, so S = x x^H has rank one and every
quadratic form factors as u^H S* v = conj(x^T u) (x^T v). fim() therefore
projects h and the three derivatives onto the probe once and builds each form
from two scalars, in O(N) with no N x N array.

Every block is proportional to tau, so F(tau) = tau * F(1) exactly and the
position CRB scales as 1 / tau. FisherInfo therefore stores the per-symbol
matrix F(1) and reconstructs F(tau) on demand, which keeps the scaling law
exact in floating point instead of approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import ErState, channel, channel_derivative, steering_vector, vr_cover
from .errors import DegenerateChannelError, InfeasibleBlockError, SingularFimError
from .geometry import UpaGeometry

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class FisherInfo:
    """5x5 real Fisher information in the order (x, y, z, Re b, Im b).

    base_matrix holds the information contributed by a single probe symbol;
    the full matrix for the slot is tau * base_matrix.
    """

    base_matrix: np.ndarray
    tau: int
    noise_power: float

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


def sample_covariance(probe: np.ndarray, slot_len: int) -> np.ndarray:
    """Per-symbol sample covariance of the probe, constant over the slot.

    This is the dense N x N form x x^H; fim() uses its rank-one factors.
    """
    if slot_len < 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    x = np.asarray(probe, dtype=complex)
    if x.ndim != 1:
        raise ValueError(f"probe must be a vector, got shape {x.shape}")
    return np.outer(x, x.conj())


def fim(
    geom: UpaGeometry,
    er_nominal: ErState,
    probe: np.ndarray,
    slot_len: int,
    noise_power: float,
) -> FisherInfo:
    """Closed-form Fisher information at a nominal receiver state."""
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if slot_len < 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    h = channel(geom, er_nominal)
    if not np.any(h):
        raise DegenerateChannelError("nominal channel is identically zero")
    derivs = [
        channel_derivative(geom, er_nominal.position, er_nominal.vr, ax)
        for ax in ("x", "y", "z")
    ]
    x = np.asarray(probe, dtype=complex)
    if x.shape != h.shape:
        raise ValueError(f"probe shape {x.shape} does not match channel shape {h.shape}")
    b = er_nominal.reflection
    # x^T u for u = h and each derivative: u^H S* v = conj(x^T u) (x^T v).
    xh = x @ h
    xd = [x @ d for d in derivs]

    hh = np.vdot(h, h).real
    hsh = np.conj(xh) * xh
    mat = np.zeros((5, 5))
    for i in range(3):
        for j in range(i, 3):
            g_uv = abs(b) ** 2 * (
                np.vdot(derivs[i], derivs[j]) * hsh
                + np.vdot(derivs[i], h) * np.conj(xh) * xd[j]
                + np.vdot(h, derivs[j]) * np.conj(xd[i]) * xh
                + hh * np.conj(xd[i]) * xd[j]
            )
            mat[i, j] = mat[j, i] = g_uv.real
    for i in range(3):
        g_ub = (
            np.vdot(derivs[i], h) * np.conj(b) * hsh
            + hh * np.conj(b) * np.conj(xd[i]) * xh
        )
        mat[i, 3] = mat[3, i] = g_ub.real
        mat[i, 4] = mat[4, i] = -g_ub.imag
    g_bb = hh * hsh
    mat[3, 3] = mat[4, 4] = g_bb.real
    mat[3, 4] = mat[4, 3] = -g_bb.imag
    mat *= 2.0 / noise_power

    scale = np.abs(mat).max()
    if scale > 0 and np.linalg.eigvalsh(mat).min() < -1e-8 * scale:
        raise ArithmeticError("Fisher information lost positive semidefiniteness")
    mat.setflags(write=False)
    return FisherInfo(base_matrix=mat, tau=int(slot_len), noise_power=float(noise_power))


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
    (2 tau / sigma_r^2) Re(J^H J). Kept independent of fim() so the two routes
    can arbitrate each other.
    """
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if slot_len < 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(probe, dtype=complex)
    cover = vr_cover(er_nominal.vr, geom.n_elements)
    b = er_nominal.reflection

    def mean(point: np.ndarray) -> np.ndarray:
        masked = steering_vector(geom, point) * cover
        return b * masked * (masked @ x)

    cols = []
    for ax in range(3):
        offset = np.zeros(3)
        offset[ax] = step
        cols.append(
            (mean(er_nominal.position + offset) - mean(er_nominal.position - offset))
            / (2.0 * step)
        )
    h = channel(geom, er_nominal)
    mu_b = h * (h @ x)
    cols.append(mu_b)
    cols.append(1j * mu_b)
    jac = np.column_stack(cols)
    mat = (2.0 / noise_power) * (jac.conj().T @ jac).real
    mat.setflags(write=False)
    return FisherInfo(base_matrix=mat, tau=int(slot_len), noise_power=float(noise_power))


def crb_position(info: FisherInfo) -> CrbReport:
    """Position CRB from the inverse Fisher information.

    The parameter vector mixes meters with a unitless reflection, so the raw
    matrix carries a large artificial scale spread. Conditioning is therefore
    judged after symmetric diagonal equilibration, which measures actual
    parameter coupling rather than units; the inverse is computed through the
    same scaling. Inverting the per-symbol matrix and dividing by tau keeps
    crb(tau) * tau exactly constant.
    """
    base = info.base_matrix
    diag = np.diag(base).copy()
    if np.any(diag <= 0) or not np.all(np.isfinite(base)):
        raise SingularFimError("Fisher information has a nonpositive diagonal entry")
    scale = 1.0 / np.sqrt(diag)
    balanced = base * scale[:, None] * scale[None, :]
    cond = np.linalg.cond(balanced)
    if not np.isfinite(cond) or cond >= _COND_LIMIT:
        raise SingularFimError(
            f"equilibrated Fisher information condition number {cond:.3e} "
            f"exceeds {_COND_LIMIT:.0e}"
        )
    cov = np.linalg.inv(balanced) * scale[:, None] * scale[None, :] / info.tau
    per_axis = (float(cov[0, 0]), float(cov[1, 1]), float(cov[2, 2]))
    return CrbReport(crb_total=float(sum(per_axis)), per_axis=per_axis, tau=info.tau)


@dataclass(frozen=True)
class LatticeCrb:
    """One receiver's single-symbol position CRB over its prior lattice (m^2)."""

    nominal: float
    worst: float


# Index of the zero displacement in product((-D, 0, +D), repeat=3) order.
_NOMINAL_CORNER = 13


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
    {-D, 0, +D}^3 in product order, one fim() call per point at tau = 1.
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
    for (position, vr, reflection), dvec in zip(priors, bounds):
        center = np.asarray(position, dtype=float)
        crbs = [
            crb_position(
                fim(geom, ErState(center + np.asarray(off), vr, reflection), probe, 1, noise_power)
            ).crb_total
            for off in product(*[(-d, 0.0, d) for d in dvec])
        ]
        out.append(LatticeCrb(nominal=crbs[_NOMINAL_CORNER], worst=max(crbs)))
    return tuple(out)


def min_sensing_duration(crbs, gamma: float, block_len: int, robust: bool = True) -> int:
    """Smallest slot length whose position CRB meets the target gamma.

    crbs holds one LatticeCrb per receiver, as lattice_crb() returns them.
    With robust=True the worst point of every lattice decides; otherwise only
    the nominal points count. The CRB scales exactly as 1 / tau, so
    tau = max(1, ceil(worst / gamma)). Every receiver senses for tau symbols,
    and some of the block must be left for charging.
    """
    if not crbs:
        raise ValueError("at least one receiver CRB is required")
    if gamma <= 0:
        raise ValueError(f"accuracy target must be positive, got {gamma}")
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    worst = max(c.worst if robust else c.nominal for c in crbs)
    tau = max(1, math.ceil(worst / gamma))
    if len(crbs) * tau >= block_len:
        raise InfeasibleBlockError(
            f"sensing needs {len(crbs)} x {tau} symbols but the block has {block_len}"
        )
    return int(tau)
