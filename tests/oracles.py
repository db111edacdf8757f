"""Reference forms that only the tests use.

Each helper here is a slower or denser route to something the package
computes another way, kept so the tests can arbitrate the fast path:

- vr_cover, masked_response: a region's 0/1 cover vector over the array and
  the full-aperture response multiplied by it. channel() must equal the
  masked response bit for bit inside the region and be 0 outside it.
- channel_derivative: one masked derivative row at one point.
- response_derivatives_expression: channel.response_derivatives as one
  expression with complex temporaries; the kernel must match its bits and
  its C-ordered (3, n_rows) layout, which the expression inherits from the
  contiguous coordinate rows of geom.coords, and any subset
  of its axis rows must match the expression formed on those axes alone.
- point_block: one state's (4, M) block, channel() and three
  channel_derivative() rows over the elements the cover keeps.
- fim_per_point, crb_per_point, lattice_crb_per_point: the Fisher
  information, its root and the position CRB of one point, from QR
  factorizations of that point's block alone, and the planning lattice as a
  loop over them. crb.fim, crb.crb_position and crb.lattice_crb must match
  them bit for bit.
- sample_covariance, dense_weighted, beam_covariance, isotropic_covariance:
  the N x N matrices the package never forms.
- nominal_sensing_duration: slot planning from the nominal lattice points
  only.
- lattice_scores: the localizer's seed lattice scored in one double-precision
  array_response over every point; np.argmax of it is the seed that
  localize.lattice_seed must pick.
- full_aperture_objective: localize.concentrated_objective from the masked
  full-aperture response instead of one probe of the region slice.
- cholesky_solve: the localizer's damped step through LAPACK, the
  np.linalg.cholesky factor and two np.linalg.solve calls, against which
  localize._cholesky_solve, the same step in closed form, is checked.
- echo_expression: echo.simulate_echo as complex array expressions, the
  signal block plus the complex noise block; simulate_echo, which writes
  the noise into the block's real and imaginary parts, must match its bits.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from nfwpt.channel import (
    ErState,
    VisibilityRegion,
    array_response,
    channel,
    response_derivatives,
    steering_vector,
)
from nfwpt.crb import CrbReport, FisherInfo, LatticeCrb
from nfwpt.errors import DegenerateChannelError, SingularFimError

_AXES = {"x": 0, "y": 1, "z": 2}


def vr_cover(vr: VisibilityRegion, n: int) -> np.ndarray:
    """0/1 cover vector of a visibility region over an n-element array."""
    if vr.end > n:
        raise ValueError(f"visibility region end {vr.end} exceeds array size {n}")
    cover = np.zeros(n)
    cover[vr.start - 1 : vr.end] = 1.0
    return cover


def masked_response(geom, point, vr: VisibilityRegion) -> np.ndarray:
    """Full-aperture steering vector at a point times the region's cover."""
    return steering_vector(geom, point) * vr_cover(vr, geom.n_elements)


def channel_derivative(geom, point, vr: VisibilityRegion, axis: str) -> np.ndarray:
    """Partial derivative of the masked channel with respect to one coordinate.

    Row `axis` of response_derivatives over the full aperture; entries outside
    the visibility region are zero.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    pos = np.asarray(point, dtype=float)
    if pos.shape != (3,):
        raise ValueError(f"point must have shape (3,), got {pos.shape}")
    dists, entries = array_response(geom, pos[:, None])
    deriv = response_derivatives(geom, pos, dists.reshape(-1), entries.reshape(-1))
    return deriv[_AXES[axis]] * vr_cover(vr, geom.n_elements)


def response_derivatives_expression(
    geom, point, dists, entries, rows=slice(None), axes=slice(None)
) -> np.ndarray:
    """entries * (radial / d + (2j pi / lambda) * radial), radial = (u_n - u) / d.

    point is one point (3,); axes selects the derivative axes to form, all
    three by default.
    """
    pos = np.asarray(point, dtype=float)
    diff = geom.coords.T[rows, axes].T - pos[axes, None]
    radial = diff / dists
    bracket = radial / dists + 2j * np.pi / geom.wavelength * radial
    # Named, so numpy cannot reuse an unnamed temporary of 256 KB or more in
    # place: it would multiply as bracket * entries, and numpy's complex
    # product does not round symmetrically in its operands.
    return entries * bracket


def point_block(geom, er_nominal: ErState) -> np.ndarray:
    """The (4, M) block [h, hd_x, hd_y, hd_z] of one state over the elements
    its region's cover keeps, from channel() and channel_derivative()."""
    kept = vr_cover(er_nominal.vr, geom.n_elements) == 1.0
    rows = [channel(geom, er_nominal)] + [
        channel_derivative(geom, er_nominal.position, er_nominal.vr, ax) for ax in ("x", "y", "z")
    ]
    return np.array([row[kept] for row in rows])


def fim_per_point(
    geom, er_nominal: ErState, probe, slot_len: int, noise_power: float
) -> FisherInfo:
    """Fisher information and its root of one state, from one QR of its block.

    The block is point_block's, the probe projections are x.dot of its rows,
    and J = [h, hd] C is factored as crb.fim factors each point of a stack.
    """
    block = point_block(geom, er_nominal)
    if not block[0].any():
        raise DegenerateChannelError("nominal channel is identically zero")
    x = np.asarray(probe, dtype=complex)[vr_cover(er_nominal.vr, geom.n_elements) == 1.0]
    xh, *xd = (x.dot(row) for row in block)
    b = er_nominal.reflection
    coeff = np.array(
        [
            [b * v for v in xd] + [xh, 1j * xh],
            [b * xh, 0, 0, 0, 0],
            [0, b * xh, 0, 0, 0],
            [0, 0, b * xh, 0, 0],
        ]
    )
    product = np.linalg.qr(block.T, mode="r") @ coeff
    k = np.zeros((8, 5))
    k[: len(product)] = product.real
    k[4 : 4 + len(product)] = product.imag
    norms = np.linalg.norm(k, axis=0)
    unit = np.linalg.qr(k / norms, mode="r")
    mat = (k.T @ k) * (2.0 / noise_power)
    mat.setflags(write=False)
    root = (unit, norms * math.sqrt(2.0 / noise_power))
    return FisherInfo(base_matrix=mat, tau=int(slot_len), root=root)


def crb_per_point(info: FisherInfo) -> CrbReport:
    """Position CRB of one root (unit, scale): row norms of unit^-1 over scale."""
    unit, scale = info.root
    if np.any(scale <= 0):
        raise SingularFimError("Fisher information has a nonpositive diagonal entry")
    cond = np.linalg.cond(unit) ** 2
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularFimError(
            f"equilibrated Fisher information condition number {cond:.3e} exceeds 1e+12"
        )
    rows = np.linalg.inv(unit)[:3]
    per_axis = (rows * rows).sum(axis=1) / (scale[:3] * scale[:3]) / info.tau
    per_axis = tuple(float(v) for v in per_axis)
    return CrbReport(crb_total=float(sum(per_axis)), per_axis=per_axis, tau=info.tau)


def lattice_points(position, bounds):
    """The 27 points position + {-D, 0, +D}^3 in product order."""
    center = np.asarray(position, dtype=float)
    return [center + np.asarray(off) for off in product(*[(-d, 0.0, d) for d in bounds])]


def lattice_crb_per_point(geom, priors, bounds_per_prior, probe, noise_power):
    """lattice_crb as one fim_per_point and crb_per_point call per lattice point.

    A SingularFimError names its receiver, er1 for the first prior.
    """
    out = []
    for k, ((position, vr, reflection), bounds) in enumerate(zip(priors, bounds_per_prior), 1):
        try:
            crbs = [
                crb_per_point(
                    fim_per_point(geom, ErState(point, vr, reflection), probe, 1, noise_power)
                ).crb_total
                for point in lattice_points(position, bounds)
            ]
        except SingularFimError as exc:
            raise SingularFimError(f"er{k}: {exc}") from None
        out.append(LatticeCrb(nominal=crbs[13], worst=max(crbs), region=vr))
    return tuple(out)


def sample_covariance(probe, slot_len: int) -> np.ndarray:
    """Per-symbol sample covariance of the probe, constant over the slot: x x^H."""
    if slot_len < 1:
        raise ValueError(f"slot length must be >= 1, got {slot_len}")
    x = np.asarray(probe, dtype=complex)
    if x.ndim != 1:
        raise ValueError(f"probe must be a vector, got shape {x.shape}")
    return np.outer(x, x.conj())


def dense_weighted(weighted) -> np.ndarray:
    """The N x N weighted channel matrix A = G G^H of a WeightedChannels."""
    return weighted.factor @ weighted.factor.conj().T


def beam_covariance(solution) -> np.ndarray:
    """The rank-one transmit covariance P v v^H of a BeamformerSolution."""
    return solution.power * np.outer(solution.direction, solution.direction.conj())


def isotropic_covariance(p_max: float, n_elements: int) -> np.ndarray:
    """Unfocused covariance that spreads the budget evenly: (P / N) I."""
    if p_max <= 0:
        raise ValueError(f"power budget must be positive, got {p_max}")
    if n_elements < 1:
        raise ValueError(f"element count must be positive, got {n_elements}")
    return (p_max / n_elements) * np.eye(n_elements)


def nominal_sensing_duration(crbs, gamma: float) -> int:
    """Smallest slot length whose nominal-point CRBs meet gamma, ignoring the lattice."""
    if gamma <= 0:
        raise ValueError(f"accuracy target must be positive, got {gamma}")
    return max(1, math.ceil(max(c.nominal for c in crbs) / gamma))


def lattice_scores(geom, y, rows, grid) -> np.ndarray:
    """Concentrated score |h^H y|^2 / ||h||^2 of every lattice point, in lattice order."""
    _, entries = array_response(geom, grid, rows)
    entries = entries.reshape(-1, y.size)
    return np.abs(entries @ y.conj()) ** 2 / (np.abs(entries) ** 2).sum(axis=1)


def full_aperture_objective(geom, y_bar, candidate, vr) -> float:
    """|h^H y|^2 / ||h||^2 with h the masked N-element response at the candidate."""
    h = masked_response(geom, candidate, vr)
    e = np.vdot(h, h).real
    if e == 0.0:
        raise DegenerateChannelError("masked response is identically zero")
    return float(abs(np.vdot(h, y_bar)) ** 2 / e)


def cholesky_solve(a, b):
    """x with a x = b from the Cholesky factor L of a, solving L z = b and then
    L^T x = z; None where np.linalg.cholesky finds a not positive definite."""
    try:
        chol = np.linalg.cholesky(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, np.asarray(b, dtype=float)))


def echo_expression(h, b, probe, slot_len: int, noise_power: float, rng) -> np.ndarray:
    """signal + (scale N_re + 1j scale N_im), N_re drawn before N_im, as one
    complex expression over the (N, slot_len) block."""
    signal = complex(b) * h * (h @ probe)
    samples = np.broadcast_to(signal[:, None], (h.size, slot_len)).astype(complex)
    if noise_power > 0:
        scale = np.sqrt(noise_power / 2.0)
        noise = scale * rng.standard_normal((h.size, slot_len))
        noise = noise + 1j * scale * rng.standard_normal((h.size, slot_len))
        samples = samples + noise
    return samples
