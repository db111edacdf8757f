"""Tests for the concentrated-likelihood position search and reflection estimate."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfwpt import (
    build_upa,
    concentrated_objective,
    default_config,
    estimate_b,
    harness,
    locate_er,
    localize,
)
from nfwpt.channel import ErState, VisibilityRegion, channel
from nfwpt.echo import aggregate, simulate_echo, uniform_probe
from nfwpt.errors import (
    DegenerateChannelError,
    SingularGeometryError,
    UnidentifiableReflectionError,
)
from oracles import full_aperture_b, full_aperture_objective, lattice_scores

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _noiseless_scene(seed, n_y=16, n_z=16, tau=3):
    rng = np.random.default_rng(seed)
    geom = build_upa(n_y, n_z, 28e9)
    n = geom.n_elements
    start = int(rng.integers(1, n - n // 3))
    end = start + int(rng.integers(n // 4 + 1, n // 3))
    er = ErState(
        position=rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0]),
        vr=VisibilityRegion(start, min(end, n)),
        reflection=complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())),
    )
    probe = uniform_probe(geom, 1.0)
    h = channel(geom, er)
    y = aggregate(simulate_echo(h, er.reflection, probe, tau, 0.0, rng))
    return geom, er, probe, y, tau


def test_objective_peaks_at_the_true_position():
    geom, er, probe, y, tau = _noiseless_scene(0)
    peak = concentrated_objective(geom, y, er.position, er.vr)
    assert peak == pytest.approx(np.vdot(y, y).real, rel=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        candidate = rng.uniform([0.3, -1.5, -1.5], [3.5, 1.5, 1.5])
        assert concentrated_objective(geom, y, candidate, er.vr) <= peak * (1 + 1e-12)


def test_objective_is_zero_for_zero_observation():
    geom = build_upa(8, 8, 28e9)
    y = np.zeros(64, dtype=complex)
    vr = VisibilityRegion(5, 40)
    for point in ([1.0, 0.0, 0.0], [2.0, 0.5, -0.5]):
        assert concentrated_objective(geom, y, point, vr) == 0.0


def test_noiseless_recovery_hits_the_true_position():
    for seed in range(3):
        geom, er, probe, y, tau = _noiseless_scene(seed)
        box = (er.position - 0.3, er.position + 0.3)
        result = locate_er(geom, y, er.vr, box, probe, tau)
        assert np.linalg.norm(result.position_hat - er.position) < 1e-4
        assert result.converged
        # The 9 x 9 x 9 lattice plus a few dozen refinement candidates.
        assert 9**3 < result.evaluations < 9**3 + 100


def test_recovery_survives_an_off_center_search_box():
    # With the truth away from the box center, no coarse lattice node lands on
    # it, so the refinement has to walk the nearly flat range direction on its
    # own.
    for seed in range(3):
        geom, er, probe, y, tau = _noiseless_scene(seed)
        shift = np.array([0.11, -0.07, 0.13])
        box = (er.position + shift - 0.3, er.position + shift + 0.3)
        result = locate_er(geom, y, er.vr, box, probe, tau)
        assert np.linalg.norm(result.position_hat - er.position) < 1e-4
        assert result.converged


def test_degenerate_box_returns_the_single_point():
    geom, er, probe, y, tau = _noiseless_scene(4)
    box = (er.position, er.position)
    result = locate_er(geom, y, er.vr, box, probe, tau)
    np.testing.assert_array_equal(result.position_hat, er.position)
    assert result.converged
    # One lattice point on a fully pinned box, the one survivor probed exactly.
    assert result.evaluations == 2


def test_hitting_the_iteration_cap_is_not_convergence():
    geom, er, probe, y, tau = _noiseless_scene(2)
    shift = np.array([0.11, -0.07, 0.13])
    box = (er.position + shift - 0.3, er.position + shift + 0.3)
    capped = locate_er(geom, y, er.vr, box, probe, tau, max_iters=1)
    assert capped.iterations == 1
    assert not capped.converged
    full = locate_er(geom, y, er.vr, box, probe, tau)
    assert full.converged
    assert full.iterations > 1


def test_reflection_estimate_is_exact_in_the_noiseless_case():
    geom, er, probe, y, tau = _noiseless_scene(6)
    b_hat = estimate_b(geom, y, er.position, er.vr, probe, tau)
    assert b_hat == pytest.approx(er.reflection, rel=1e-12)


def test_reflection_estimate_is_linear_in_the_observation():
    geom, er, probe, y, tau = _noiseless_scene(7)
    rng = np.random.default_rng(8)
    y2 = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    b1 = estimate_b(geom, y, er.position, er.vr, probe, tau)
    b2 = estimate_b(geom, y2, er.position, er.vr, probe, tau)
    b12 = estimate_b(geom, y + y2, er.position, er.vr, probe, tau)
    assert b12 == pytest.approx(b1 + b2, rel=1e-12)


def test_zero_observation_gives_zero_reflection():
    geom, er, probe, _, tau = _noiseless_scene(9)
    y = np.zeros(geom.n_elements, dtype=complex)
    assert estimate_b(geom, y, er.position, er.vr, probe, tau) == 0


def test_orthogonal_probe_makes_the_reflection_unidentifiable():
    geom, er, _, y, tau = _noiseless_scene(5)
    h = channel(geom, er)
    probe = np.zeros(geom.n_elements, dtype=complex)
    probe[0], probe[1] = h[1], -h[0]
    with pytest.raises(UnidentifiableReflectionError):
        estimate_b(geom, y, er.position, er.vr, probe, tau)


@st.composite
def _region_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    side = draw(st.integers(2, 24))
    region = draw(st.sampled_from(["any", "two elements", "first element", "last element"]))
    rng = np.random.default_rng(seed)
    geom = build_upa(side, side, 28e9)
    n = geom.n_elements
    start = 1 if region == "first element" else int(rng.integers(1, n))
    if region == "two elements":
        end = start + 1
    else:
        end = n if region == "last element" else int(rng.integers(start + 1, n + 1))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    probe = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    points = rng.uniform([0.3, -1.0, -1.0], [3.0, 1.0, 1.0], size=(4, 3))
    return geom, y, VisibilityRegion(start, end), probe, points


@settings(max_examples=60, deadline=None)
@given(_region_problems())
def test_region_slice_scores_match_the_full_aperture_forms(problem):
    geom, y, vr, probe, points = problem
    for point in points:
        assert concentrated_objective(geom, y, point, vr) == pytest.approx(
            full_aperture_objective(geom, y, point, vr), rel=1e-12
        )
        assert estimate_b(geom, y, point, vr, probe, 3) == pytest.approx(
            full_aperture_b(geom, y, point, vr, probe, 3), rel=1e-12
        )


def test_region_slice_scores_raise_what_the_full_aperture_forms_raise():
    geom, er, probe, y, tau = _noiseless_scene(13, n_y=8, n_z=8)
    i = er.vr.start - 1
    h = channel(geom, er)
    orthogonal = np.zeros(geom.n_elements, dtype=complex)
    orthogonal[i], orthogonal[i + 1] = h[i + 1], -h[i]
    # At this carrier every |h_n|^2 underflows to zero.
    tiny = build_upa(4, 4, 1e170)
    scored = [
        (ValueError, (geom, y, er.position, VisibilityRegion(2, geom.n_elements + 1))),
        (ValueError, (geom, y, er.position[:2], er.vr)),
        (ValueError, (geom, np.append(y, 0.0), er.position, er.vr)),
        (SingularGeometryError, (geom, y, geom.positions[i + 1], er.vr)),
        (DegenerateChannelError, (tiny, np.ones(16), [1.0, 0.0, 0.0], VisibilityRegion(3, 9))),
    ]
    for error, args in scored:
        b_args = (*args, np.ones(args[0].n_elements, dtype=complex), 1)
        for fn, fn_args in [
            (concentrated_objective, args),
            (full_aperture_objective, args),
            (estimate_b, b_args),
            (full_aperture_b, b_args),
        ]:
            with pytest.raises(error):
                fn(*fn_args)
    # The probe and the slot length reach only the reflection estimate.
    for error, x, slot_len in [
        (UnidentifiableReflectionError, orthogonal, tau),
        (ValueError, probe, 0),
        (ValueError, np.append(probe, 0.0), tau),
    ]:
        for fn in (estimate_b, full_aperture_b):
            with pytest.raises(error):
                fn(geom, y, er.position, er.vr, x, slot_len)


def test_an_element_outside_the_region_is_no_singularity():
    geom, er, probe, y, tau = _noiseless_scene(14)
    vr = VisibilityRegion(10, 60)
    outside = geom.positions[4]
    with pytest.raises(SingularGeometryError):
        full_aperture_objective(geom, y, outside, vr)
    assert concentrated_objective(geom, y, outside, vr) >= 0.0
    assert np.isfinite(estimate_b(geom, y, outside, vr, probe, tau))


def test_locate_validates_box_and_tolerance():
    geom, er, probe, y, tau = _noiseless_scene(10)
    lo, hi = er.position - 0.2, er.position + 0.2
    with pytest.raises(ValueError):
        locate_er(geom, y, er.vr, (hi, lo), probe, tau)
    with pytest.raises(ValueError):
        locate_er(geom, y, er.vr, (lo, hi), probe, tau, tol=0.0)
    with pytest.raises(ValueError):
        locate_er(geom, y, er.vr, (lo, hi), probe, tau, max_iters=0)
    with pytest.raises(ValueError, match="one entry per element"):
        locate_er(geom, y[:-1], er.vr, (lo, hi), probe, tau)
    with pytest.raises(ValueError, match="one entry per element"):
        locate_er(geom, y, er.vr, (lo, hi), np.append(probe, 0.0), tau)


def test_result_reports_reflection_consistent_with_estimate():
    geom, er, probe, y, tau = _noiseless_scene(11)
    box = (er.position - 0.3, er.position + 0.3)
    result = locate_er(geom, y, er.vr, box, probe, tau)
    direct = estimate_b(geom, y, result.position_hat, er.vr, probe, tau)
    assert result.b_hat == pytest.approx(direct, rel=1e-12)


def _golden_max(fn, lo, hi, iters):
    """Golden-section maximization of fn on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


def _ray_extent(point, u, lo, hi):
    """Parameter range t keeping point + t*u inside the box, or None if empty."""
    t_lo, t_hi = -math.inf, math.inf
    for i in range(3):
        if u[i] == 0.0:
            continue
        t0 = (lo[i] - point[i]) / u[i]
        t1 = (hi[i] - point[i]) / u[i]
        t_lo = max(t_lo, min(t0, t1))
        t_hi = min(t_hi, max(t0, t1))
    if not t_lo < t_hi:
        return None
    return t_lo, t_hi


def _golden_oracle(geom, y, vr, box, tol=1e-4, max_cycles=50, line_iters=30):
    """Slow reference search: the best 9 x 9 x 9 lattice point, then cyclic
    golden-section sweeps along x, y, z and the ray from the array center,
    keeping only improvements. Returns the position and its objective."""
    lo, hi = (np.asarray(c, dtype=float) for c in box)

    def q(point):
        return concentrated_objective(geom, y, point, vr)

    lattice = [np.array(p) for p in np.stack(
        np.meshgrid(*[np.linspace(lo[i], hi[i], 9) for i in range(3)], indexing="ij"), -1
    ).reshape(-1, 3)]
    scores = [q(p) for p in lattice]
    point = lattice[int(np.argmax(scores))].copy()
    best = max(scores)
    for _ in range(max_cycles):
        previous = point.copy()
        for ax in range(3):
            if hi[ax] <= lo[ax]:
                continue

            def along(c, ax=ax):
                trial = point.copy()
                trial[ax] = c
                return q(trial)

            c_new, v_new = _golden_max(along, lo[ax], hi[ax], line_iters)
            if v_new > best:
                point[ax] = c_new
                best = v_new
        radius = float(np.linalg.norm(point))
        extent = _ray_extent(point, point / radius, lo, hi) if radius > 0 else None
        if extent is not None:
            u = point / radius
            t_new, v_new = _golden_max(lambda t: q(point + t * u), *extent, line_iters)
            if v_new > best:
                point = point + t_new * u
                best = v_new
        if np.linalg.norm(point - previous) < tol:
            break
    return point, best


def _run_trial_inputs(monkeypatch, schemes, trials, side=16):
    """locate_er arguments of run_trial on the built-in scenario, side x side."""
    captured = []
    real = harness.locate_er

    def record(*args, **kwargs):
        captured.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "locate_er", record)
    base = default_config()
    base = replace(base, array=replace(base.array, n_y=side, n_z=side))
    for scheme in schemes:
        cfg = replace(base, scheme=scheme)
        for t in range(trials):
            harness.run_trial(cfg, t)
    return captured


def test_estimate_never_trails_the_golden_section_oracle(monkeypatch):
    inputs = _run_trial_inputs(monkeypatch, ("proposed", "no_vr", "equal_time"), 6)
    assert len(inputs) >= 30
    for geom, y, vr, box, probe, tau in inputs:
        result = locate_er(geom, y, vr, box, probe, tau)
        _, oracle = _golden_oracle(geom, y, vr, box)
        assert result.objective >= oracle * (1 - 1e-9)
        lo, hi = box
        assert np.all(lo <= result.position_hat) and np.all(result.position_hat <= hi)
        assert result.converged


@st.composite
def _search_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    side = draw(st.integers(8, 16))
    pinned = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    rng = np.random.default_rng(seed)
    geom = build_upa(side, side, 28e9)
    n = geom.n_elements
    start = int(rng.integers(1, n - 1))
    vr = VisibilityRegion(start, int(rng.integers(start + 1, n + 1)))
    center = rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0])
    half = np.where(pinned, 0.0, rng.uniform(0.02, 0.3, size=3))
    truth = center + rng.uniform(-half, half)
    er = ErState(position=truth, vr=vr, reflection=complex(np.exp(2j * np.pi * rng.uniform())))
    probe = uniform_probe(geom, 1.0)
    h = channel(geom, er)
    noise = float(10.0 ** rng.uniform(-3, 1)) * np.vdot(h, h).real / n
    y = aggregate(simulate_echo(h, er.reflection, probe, 1, noise, rng))
    return geom, y, vr, (center - half, center + half), probe, pinned


@settings(max_examples=40, deadline=None)
@given(_search_problems())
def test_estimate_stays_in_the_box_and_beats_the_lattice(problem):
    geom, y, vr, box, probe, pinned = problem
    lo, hi = box
    result = locate_er(geom, y, vr, box, probe, 1)
    point = result.position_hat
    assert np.all(lo <= point) and np.all(point <= hi)
    np.testing.assert_array_equal(point[pinned], lo[pinned])
    lattice = np.stack(
        np.meshgrid(*[np.linspace(lo[i], hi[i], 9) for i in range(3)], indexing="ij"), -1
    ).reshape(-1, 3)
    best = max(concentrated_objective(geom, y, p, vr) for p in lattice)
    assert result.objective >= best * (1 - 1e-12)
    assert result.objective == concentrated_objective(geom, y, point, vr)
    again = locate_er(geom, y, vr, box, probe, 1)
    assert again.position_hat.tobytes() == point.tobytes()
    assert again.objective == result.objective


def _seed_inputs(y_bar, vr, box):
    """Echo slice, region rows and 9 x 9 x 9 lattice axes as locate_er builds them."""
    lo, hi = (np.asarray(c, dtype=float) for c in box)
    rows = slice(vr.start - 1, vr.end)
    grid = [np.linspace(lo[i], hi[i], 1 if hi[i] <= lo[i] else 9) for i in range(3)]
    return np.asarray(y_bar, dtype=complex)[rows], rows, grid


def _assert_seed_matches_the_oracle(geom, y, rows, grid):
    exact = lattice_scores(geom, y, rows, grid)
    q, dq = localize.prefilter_scores(geom, y, rows, grid)
    assert np.all(np.abs(q - exact) <= dq / 10)
    seed, probed = localize.lattice_seed(geom, y, rows, grid)
    index = np.unravel_index(np.argmax(exact), tuple(g.size for g in grid))
    at = localize._probe(geom, y, rows, np.array([g[i] for g, i in zip(grid, index)]))
    assert seed.point.tobytes() == at.point.tobytes()
    assert (seed.s, seed.e, seed.q) == (at.s, at.e, at.q)
    assert 1 <= probed <= exact.size


@pytest.mark.parametrize("side", [16, 32])
def test_seed_is_the_full_lattice_argmax_on_run_trial_inputs(monkeypatch, side):
    inputs = _run_trial_inputs(monkeypatch, ("proposed", "no_vr", "equal_time"), 3, side)
    assert len(inputs) >= 12
    for geom, y_bar, vr, box, _, _ in inputs:
        _assert_seed_matches_the_oracle(geom, *_seed_inputs(y_bar, vr, box))


@st.composite
def _seed_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    side = draw(st.integers(4, 24))
    pinned = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    two_elements = draw(st.booleans())
    snr_db = draw(st.one_of(st.none(), st.floats(-20.0, 60.0)))
    rng = np.random.default_rng(seed)
    geom = build_upa(side, side, 28e9)
    n = geom.n_elements
    start = int(rng.integers(1, n))
    end = start + 1 if two_elements else int(rng.integers(start + 1, n + 1))
    vr = VisibilityRegion(start, end)
    center = rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0])
    half = np.where(pinned, 0.0, rng.uniform(0.02, 0.3, size=3))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if snr_db is not None:
        truth = center + rng.uniform(-half, half)
        h = channel(geom, ErState(position=truth, vr=vr))
        y += math.sqrt(2 * vr.size * 10 ** (snr_db / 10)) * h / np.linalg.norm(h)
    return geom, y, vr, (center - half, center + half)


@settings(max_examples=60, deadline=None)
@given(_seed_problems())
def test_seed_prefilter_is_within_its_bound_and_keeps_the_argmax(problem):
    geom, y_bar, vr, box = problem
    _assert_seed_matches_the_oracle(geom, *_seed_inputs(y_bar, vr, box))


def test_zero_echo_scores_the_whole_lattice_once(monkeypatch):
    geom, er, probe, _, tau = _noiseless_scene(12)
    box = (er.position - 0.2, er.position + 0.2)
    y, rows, grid = _seed_inputs(np.zeros(geom.n_elements), er.vr, box)
    probed = []
    real = localize._probe

    def record(geom, y, rows, point):
        probed.append(point)
        return real(geom, y, rows, point)

    monkeypatch.setattr(localize, "_probe", record)
    seed, count = localize.lattice_seed(geom, y, rows, grid)
    # Every point ties at q = 0, so every point survives; the seed is index 0.
    lattice = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 3)
    np.testing.assert_array_equal(np.array(probed), lattice)
    assert count == len(lattice)
    np.testing.assert_array_equal(seed.point, lattice[0])
    result = locate_er(geom, np.zeros(geom.n_elements, dtype=complex), er.vr, box, probe, tau)
    np.testing.assert_array_equal(result.position_hat, box[0])


@pytest.mark.parametrize("corner", [0, 1])
def test_a_lattice_point_on_an_element_is_rejected(corner):
    geom = build_upa(8, 8, 28e9)
    element = geom.positions[27]
    box = (element, element + 0.2) if corner == 0 else (element - 0.2, element)
    y = np.ones(geom.n_elements, dtype=complex)
    probe = uniform_probe(geom, 1.0)
    with pytest.raises(SingularGeometryError):
        locate_er(geom, y, VisibilityRegion(1, geom.n_elements), box, probe, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", [0, 1])
def test_a_non_finite_search_box_is_rejected_up_front(bad, corner):
    geom, er, probe, y, tau = _noiseless_scene(10)
    box = [er.position - 0.2, er.position + 0.2]
    box[corner][1] = bad
    with pytest.raises(ValueError, match="search box must be finite"):
        locate_er(geom, y, er.vr, box, probe, tau)
