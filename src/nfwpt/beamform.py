"""Energy covariance design for the charging stage.

The weighted harvested power sum beta_1 h_1^H R h_1 + ... is linear in the
transmit covariance R, so over the feasible set {R >= 0, tr R <= P} the
optimum sits at an extreme point: a rank-one covariance along the principal
eigenvector of the weighted channel matrix A = sum_k beta_k h_k h_k^H, using
the full power budget. The largest eigenvalue certifies optimality, since
tr(A R) <= lambda_max(A) tr(R) for every feasible R.

A has rank at most K, the number of receivers, and is never formed: it is
kept as A = G G^H with the N x K factor G = [sqrt(beta_k) h_k]. The K x K
Gram matrix G^H G shares the nonzero eigenvalues of A, and its principal
eigenvector u maps to the beam v = G u / ||G u||, so the solve costs O(N K^2)
instead of the O(N^3) of a dense eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBlockError

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class BeamformerSolution:
    """Rank-one transmit covariance: power on a unit beam direction."""

    direction: np.ndarray
    power: float
    objective: float
    certificate: float


@dataclass(frozen=True)
class WeightedChannels:
    """Weighted channel matrix in factored form, A = G G^H.

    factor is the N x K matrix G whose column k is sqrt(beta_k) h_k; A is
    Hermitian positive semidefinite by construction. The array form of this
    object is the factor, the data the solver reads.
    """

    factor: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.factor, dtype=complex)
        if g.ndim != 2 or 0 in g.shape:
            raise ValueError(f"factor must be a nonempty N x K matrix, got shape {g.shape}")
        g.setflags(write=False)
        object.__setattr__(self, "factor", g)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The factor G as an array.

        Its one reader is perfbench/tracer.py, which sizes the solver input
        through np.asarray(matrix).nbytes.
        """
        return np.array(self.factor, dtype=dtype, copy=True if copy is None else copy)


def weighted_channel_matrix(channels, weights) -> WeightedChannels:
    """Weighted sum of channel outer products, as its N x K factor."""
    if len(channels) != len(weights):
        raise ValueError(
            f"got {len(channels)} channels but {len(weights)} weights"
        )
    if len(channels) == 0:
        raise ValueError("at least one channel is required")
    for w in weights:
        if not w >= 0:
            raise ValueError(f"weights must be nonnegative, got {w}")
    vectors = [np.asarray(h, dtype=complex) for h in channels]
    if any(h.ndim != 1 or h.shape != vectors[0].shape for h in vectors):
        raise ValueError(
            f"channels must be vectors of equal length, got shapes {[h.shape for h in vectors]}"
        )
    root_w = np.sqrt(np.asarray(weights, dtype=float))
    return WeightedChannels(factor=np.column_stack(vectors) * root_w)


def solve_energy_covariance(weighted: WeightedChannels, p_max: float) -> BeamformerSolution:
    """Optimal covariance under the power budget, with optimality certificate.

    The beam direction is the principal eigenvector of A = G G^H, taken from
    the K x K Gram matrix G^H G and phase-normalized so its largest-magnitude
    entry is real positive; the eigenpair residual ||G G^H v - lambda v|| is
    checked against 1e-10 times max(lambda, max_ij |A_ij|). A zero matrix
    falls back to the first standard basis direction with zero objective.
    """
    if not p_max > 0:
        raise ValueError(f"power budget must be positive, got {p_max}")
    if not isinstance(weighted, WeightedChannels):
        raise TypeError(
            f"expected the WeightedChannels from weighted_channel_matrix, "
            f"got {type(weighted).__name__}"
        )
    g = weighted.factor
    # max_ij |A_ij| of a PSD matrix sits on its diagonal, sum_k |G_ik|^2.
    scale = float((g.real**2 + g.imag**2).sum(axis=1).max())
    if scale == 0.0:
        direction = np.zeros(g.shape[0], dtype=complex)
        direction[0] = 1.0
        direction.setflags(write=False)
        return BeamformerSolution(direction, float(p_max), 0.0, 0.0)

    eigvals, eigvecs = np.linalg.eigh(g.conj().T @ g)
    lam = float(eigvals[-1])
    v = g @ eigvecs[:, -1]
    k = int(np.argmax(np.abs(v)))
    v = v * (v[k].conjugate() / abs(v[k]))
    v = v / np.linalg.norm(v)
    projected = g.conj().T @ v
    residual = np.linalg.norm(g @ projected - lam * v)
    if residual > _RESIDUAL_TOL * max(abs(lam), scale):
        raise ArithmeticError(
            f"eigenpair residual {residual:.3e} exceeds tolerance for scale {scale:.3e}"
        )
    objective = float(p_max * np.vdot(projected, projected).real)
    v.setflags(write=False)
    return BeamformerSolution(
        direction=v, power=float(p_max), objective=objective, certificate=lam
    )


def harvested_power(h_true: np.ndarray, solution: BeamformerSolution) -> float:
    """Instantaneous RF power collected by a receiver under the beam."""
    h = np.asarray(h_true, dtype=complex)
    if h.shape != solution.direction.shape:
        raise ValueError(
            f"channel shape {h.shape} does not match beam shape {solution.direction.shape}"
        )
    return float(solution.power * abs(np.vdot(h, solution.direction)) ** 2)


def average_harvested_power(
    h_true: np.ndarray,
    solution: BeamformerSolution,
    tau: int,
    n_ers: int,
    block_len: int,
) -> float:
    """Block-average harvested power after paying the sensing overhead.

    Charging runs for block_len - n_ers * tau of the block_len symbols; the
    tau = 0 case (no sensing, full block) is allowed.
    """
    if not tau >= 0:
        raise ValueError(f"slot length must be nonnegative, got {tau}")
    if not (n_ers >= 1 and block_len >= 1):
        raise ValueError("receiver count and block length must be positive")
    if n_ers * tau >= block_len:
        raise InfeasibleBlockError(
            f"sensing {n_ers} x {tau} symbols consumes the {block_len}-symbol block"
        )
    duty = (block_len - n_ers * tau) / block_len
    return duty * harvested_power(h_true, solution)

