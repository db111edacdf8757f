"""Visibility-region identification from aggregated echo magnitudes.

Elements inside the visibility region receive the backscattered probe on top
of noise, elements outside receive noise alone, so the aggregated magnitudes
split into two level groups. The window search charges every element left
outside a candidate window its observed magnitude and every element inside a
flat rate alpha, then minimizes that cost over all windows of admissible span.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .channel import VisibilityRegion, min_vr_span
from .errors import InfeasibleWindowError


def estimate_power_levels(y_bar: np.ndarray, n_alpha: int) -> tuple[float, float]:
    """Estimate the outside/inside magnitude levels from order statistics.

    Averages the n_alpha smallest aggregated magnitudes for the outside level
    and the n_alpha largest for the inside level. Valid whenever the true
    region leaves at least n_alpha elements on each side.
    """
    mags = np.abs(np.asarray(y_bar))
    if mags.ndim != 1:
        raise ValueError(f"aggregated echo must be a vector, got shape {mags.shape}")
    if not 1 <= n_alpha <= mags.size // 2:
        raise ValueError(
            f"n_alpha must lie in 1..{mags.size // 2} for {mags.size} elements, got {n_alpha}"
        )
    mags = np.sort(mags)
    return float(mags[:n_alpha].mean()), float(mags[-n_alpha:].mean())


def scaling_factor(p_out: float, p_in: float) -> float:
    """Midpoint window rate between the outside and inside levels."""
    if p_out < 0 or p_in < 0:
        raise ValueError(f"power levels must be nonnegative, got ({p_out}, {p_in})")
    if p_out > p_in:
        raise ValueError(f"outside level {p_out} exceeds inside level {p_in}")
    if p_out == p_in:
        warnings.warn(
            "inside and outside magnitude levels coincide; the window rate is "
            "uninformative and identification may be arbitrary",
            RuntimeWarning,
            stacklevel=2,
        )
    return 0.5 * (p_out + p_in)


def identify_vr(y_bar: np.ndarray, eta: float, alpha: float) -> VisibilityRegion:
    """Minimum-cost window over all admissible windows, in O(N) for typical input.

    The cost of a window [s, e] is

        f(s, e) = sum of |y_bar| outside the window + alpha * (e - s + 1),

    evaluated from a prefix sum P as P[s-1] + (P[N] - P[e]) + alpha (e - s + 1).
    Admissible windows have s in 1..floor((1 - eta) N) and e - s >= ceil(eta N).
    Ties break toward the smallest window, then the smallest start.

    The cost separates as (P[s-1] - alpha s) + (P[N] - P[e] + alpha e) + alpha,
    so a running minimum of the first term gives every end its best start.
    That sum rounds differently, so it only nominates ends: every end whose
    separated cost lies within a rounding bound of the minimum has all its
    windows scored with the expression above and compared by
    (cost, size, start), which returns exactly the window an exhaustive scan
    of that expression returns. Inputs with many near-ties nominate many ends
    and cost up to O(N^2).
    """
    mags = np.abs(np.asarray(y_bar))
    if mags.ndim != 1:
        raise ValueError(f"aggregated echo must be a vector, got shape {mags.shape}")
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not alpha >= 0 or not math.isfinite(alpha):
        raise ValueError(f"window rate must be finite and nonnegative, got {alpha}")
    if not np.all(np.isfinite(mags)):
        raise ValueError("aggregated echo must be finite")
    n = mags.size
    span = min_vr_span(n, eta)
    start_max = math.floor((1.0 - eta) * n)
    if start_max < 1 or 1 + span > n:
        raise InfeasibleWindowError(
            f"no window of span >= {span} fits in {n} elements with eta = {eta}"
        )

    prefix = np.concatenate([[0.0], np.cumsum(mags)])
    total = prefix[n]
    ends = np.arange(1 + span, n + 1)
    last_start = np.minimum(ends - span, start_max)
    head = prefix[:start_max] - alpha * np.arange(1, start_max + 1)
    tail = (total - prefix[ends]) + alpha * ends
    separated = np.minimum.accumulate(head)[last_start - 1] + tail

    # Rounding bound. Every exact intermediate of either expression (a prefix
    # value, alpha k for k <= N, and the sums and differences formed from
    # them) lies in [-S, S] with S = P[N] + alpha N, so each floating-point
    # operation errs by at most u * 2S (u = eps / 2, with ample room for the
    # error carried in). The scored expression rounds 4 times, so it is
    # within e1 = 8 u S of the exact cost f; the separated sum without its
    # constant alpha rounds 6 times, so it is within e2 = 12 u S of f - alpha.
    # If w wins the scored comparison, then for any window v,
    # f(w) <= scored(w) + e1 <= scored(v) + e1 <= f(v) + 2 e1, hence
    # separated(w) <= separated(v) + 2 (e1 + e2) = separated(v) + 40 u S.
    # The same holds for every window tied with w. The running minimum and
    # rounding are monotone, so an end's value is at most that of each of its
    # windows, and the minimum over ends is separated(v) for some window v:
    # every tied window therefore lies at an end within 40 u S of it.
    margin = 40.0 * (0.5 * np.finfo(float).eps) * (total + alpha * n)
    nominated = np.flatnonzero(separated <= separated.min() + margin)

    best: tuple[float, int, int] | None = None  # (cost, size, start)
    best_end = 0
    for i in nominated:
        e = int(ends[i])
        starts = np.arange(1, last_start[i] + 1)
        costs = prefix[starts - 1] + (total - prefix[e]) + alpha * (e - starts + 1)
        # Last minimum, so the largest start and the smallest window for this end.
        j = costs.size - 1 - int(np.argmin(costs[::-1]))
        key = (float(costs[j]), e - int(starts[j]) + 1, int(starts[j]))
        if best is None or key < best:
            best = key
            best_end = e
    return VisibilityRegion(best[2], best_end)
