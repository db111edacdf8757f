"""Tests for power-level estimation and window-search region identification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfwpt import build_upa, estimate_power_levels, identify_vr, scaling_factor
from nfwpt.channel import ErState, VisibilityRegion, channel, min_vr_span
from nfwpt.echo import aggregate, simulate_echo, uniform_probe
from nfwpt.errors import InfeasibleWindowError


def _window_cost(y_mag, start, end, alpha):
    outside = y_mag.sum() - y_mag[start - 1 : end].sum()
    return outside + alpha * (end - start + 1)


def _brute_force_vr(y_bar, eta, alpha):
    """Enumerate every feasible window; mirror the (cost, size, start) tie-break."""
    n = len(y_bar)
    span = min_vr_span(n, eta)
    y_mag = np.abs(y_bar)
    best = None
    for start in range(1, n + 1):
        for end in range(start + span, n + 1):
            key = (_window_cost(y_mag, start, end, alpha), end - start + 1, start)
            if best is None or key < best:
                best = key
                best_window = (start, end)
    if best is None:
        raise InfeasibleWindowError("no feasible window")
    return VisibilityRegion(*best_window)


def _prefix_scan_vr(y_bar, eta, alpha):
    """Exact-rounding oracle: score every window start with the expression
    identify_vr scores its nominated windows with, one start at a time."""
    mags = np.abs(np.asarray(y_bar))
    n = mags.size
    span = min_vr_span(n, eta)
    start_max = math.floor((1.0 - eta) * n)
    if start_max < 1 or 1 + span > n:
        raise InfeasibleWindowError("no feasible window")
    prefix = np.concatenate([[0.0], np.cumsum(mags)])
    total = prefix[n]
    best = None  # (cost, size, start)
    best_end = 0
    for s in range(1, start_max + 1):
        ends = np.arange(s + span, n + 1)
        if ends.size == 0:  # start_max may round past n - span
            continue
        costs = prefix[s - 1] + (total - prefix[ends]) + alpha * (ends - s + 1)
        i = int(np.argmin(costs))  # first minimum, so the smallest end for this start
        key = (float(costs[i]), int(ends[i] - s + 1), s)
        if best is None or key < best:
            best = key
            best_end = int(ends[i])
    return VisibilityRegion(best[2], best_end)


def test_constant_vector_power_levels():
    p_out, p_in = estimate_power_levels(np.ones(64, dtype=complex), 8)
    assert (p_out, p_in) == (1.0, 1.0)


def test_two_level_vector_power_levels():
    y = np.ones(256, dtype=complex)
    y[40:104] = 10.0
    p_out, p_in = estimate_power_levels(y, 32)
    assert (p_out, p_in) == (1.0, 10.0)


def test_power_levels_are_ordered_on_random_input():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        p_out, p_in = estimate_power_levels(y, rng.integers(1, 65))
        assert p_out <= p_in


def test_power_levels_reject_bad_counts():
    y = np.ones(64, dtype=complex)
    for bad in (0, -2, 33):
        with pytest.raises(ValueError):
            estimate_power_levels(y, bad)


def test_scaling_factor_midpoints_and_degeneracy():
    assert scaling_factor(1.0, 10.0) == 5.5
    eps = 1e-12
    assert scaling_factor(0.0, 2 * eps) == pytest.approx(eps)
    with pytest.warns(RuntimeWarning):
        assert scaling_factor(3.0, 3.0) == 3.0
    with pytest.raises(ValueError):
        scaling_factor(2.0, 1.0)


def test_noiseless_window_recovery_is_exact():
    geom = build_upa(16, 16, 28e9)
    rng = np.random.default_rng(5)
    for _ in range(10):
        start = int(rng.integers(1, 150))
        end = start + int(rng.integers(70, 100))
        er = ErState(
            position=rng.uniform([0.5, -1, -1], [3, 1, 1]),
            vr=VisibilityRegion(start, end),
            reflection=1.0,
        )
        h = channel(geom, er)
        y = aggregate(simulate_echo(h, 1.0, uniform_probe(geom, 1.0), 1, 0.0, rng))
        p_out, p_in = estimate_power_levels(y, 32)
        got = identify_vr(y, 0.25, scaling_factor(p_out, p_in))
        assert (got.start, got.end) == (start, end)


def test_window_search_matches_brute_force_on_noisy_input():
    rng = np.random.default_rng(17)
    for n in (16, 32, 64):
        for _ in range(20):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            width = int(rng.integers(n // 4 + 1, n // 2 + 1))
            start = int(rng.integers(0, n - width)) + 1
            y[start - 1 : start - 1 + width] *= 6.0
            alpha = float(rng.uniform(0.5, 3.0))
            got = identify_vr(y, 0.25, alpha)
            ref = _brute_force_vr(y, 0.25, alpha)
            assert (got.start, got.end) == (ref.start, ref.end)


def test_costly_inclusion_shrinks_to_minimal_window():
    # Constant magnitude 1 with alpha > 1: every included element costs more
    # than excluding it recovers, so the smallest feasible window wins and the
    # (cost, size, start) tie-break picks the first start.
    y = np.ones(16, dtype=complex)
    got = identify_vr(y, 0.25, 2.0)
    assert got.size == min_vr_span(16, 0.25) + 1
    assert got.start == 1
    ref = _brute_force_vr(y, 0.25, 2.0)
    assert (got.start, got.end) == (ref.start, ref.end)


def test_cheap_inclusion_grows_to_the_full_array():
    # Constant magnitude 1 with alpha < 1: excluding an element loses more
    # than its alpha rent, so the full-aperture window wins.
    y = np.ones(16, dtype=complex)
    got = identify_vr(y, 0.25, 0.1)
    assert (got.start, got.end) == (1, 16)
    ref = _brute_force_vr(y, 0.25, 0.1)
    assert (got.start, got.end) == (ref.start, ref.end)


def test_identified_window_always_satisfies_region_invariants():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(8, 65))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta = float(rng.uniform(0.1, 0.6))
        vr = identify_vr(y, eta, float(rng.uniform(0.1, 2.0)))
        assert 1 <= vr.start < vr.end <= n
        assert vr.size >= min_vr_span(n, eta) + 1


def test_infeasible_window_constraints_raise():
    y = np.ones(8, dtype=complex)
    with pytest.raises(InfeasibleWindowError):
        identify_vr(y, 0.999, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(8, 300),
    eta=st.floats(0.05, 0.7),
    levels=st.integers(1, 4),
    half_alpha=st.integers(0, 10),
    unit=st.sampled_from([1.0, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_search_matches_the_prefix_scan_on_tie_heavy_input(
    n, eta, levels, half_alpha, unit, seed
):
    # Small-integer magnitudes with an integer or half-integer rate make many
    # windows cost exactly the same, so the (cost, size, start) tie-break
    # decides. In tenths the same ties are broken by rounding alone, which
    # the separated sum does differently from the scored expression.
    rng = np.random.default_rng(seed)
    mags = rng.integers(0, levels + 1, n) * unit
    y = mags.astype(complex)
    alpha = half_alpha / 2.0 * unit
    try:
        ref = _prefix_scan_vr(y, eta, alpha)
    except InfeasibleWindowError:
        with pytest.raises(InfeasibleWindowError):
            identify_vr(y, eta, alpha)
        return
    got = identify_vr(y, eta, alpha)
    assert (got.start, got.end) == (ref.start, ref.end)


def test_window_search_matches_the_prefix_scan_on_noisy_input():
    rng = np.random.default_rng(29)
    for n in (256, 1024):
        for _ in range(10):
            y = np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            width = int(rng.integers(n // 4 + 1, n // 2 + 1))
            start = int(rng.integers(0, n - width))
            y[start : start + width] *= rng.uniform(1.0, 4.0)
            alpha = float(rng.uniform(0.5, 3.0))
            got = identify_vr(y, 0.25, alpha)
            ref = _prefix_scan_vr(y, 0.25, alpha)
            assert (got.start, got.end) == (ref.start, ref.end)


def test_rejects_non_finite_input():
    y = np.ones(16, dtype=complex)
    for alpha in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            identify_vr(y, 0.25, alpha)
    y[3] = math.nan
    with pytest.raises(ValueError):
        identify_vr(y, 0.25, 1.0)
