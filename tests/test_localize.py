"""Tests for the concentrated-likelihood position search."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfwpt import (
    ScenarioConfig,
    build_upa,
    concentrated_objective,
    harness,
    locate_er,
    localize,
)
from nfwpt.channel import ErState, VisibilityRegion, channel
from nfwpt.cli import main
from nfwpt.echo import aggregate, simulate_echo, uniform_probe
from nfwpt.errors import DegenerateChannelError, SingularGeometryError
from oracles import cholesky_solve, full_aperture_objective, lattice_scores

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _noiseless_scene(seed, n_y=16, n_z=16):
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
    y = aggregate(simulate_echo(h, er.reflection, probe, 3, 0.0, rng))
    return geom, er, y


def test_objective_peaks_at_the_true_position():
    geom, er, y = _noiseless_scene(0)
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
        geom, er, y = _noiseless_scene(seed)
        box = (er.position - 0.3, er.position + 0.3)
        result = locate_er(geom, y, er.vr, box)
        assert np.linalg.norm(result.position_hat - er.position) < 1e-4
        assert result.converged
        # The 9 x 9 x 9 lattice plus a few dozen refinement candidates.
        assert 9**3 < result.evaluations < 9**3 + 100


def test_recovery_survives_an_off_center_search_box():
    # With the truth away from the box center, no coarse lattice node lands on
    # it, so the refinement has to walk the nearly flat range direction on its
    # own.
    for seed in range(3):
        geom, er, y = _noiseless_scene(seed)
        shift = np.array([0.11, -0.07, 0.13])
        box = (er.position + shift - 0.3, er.position + shift + 0.3)
        result = locate_er(geom, y, er.vr, box)
        assert np.linalg.norm(result.position_hat - er.position) < 1e-4
        assert result.converged


def test_degenerate_box_returns_the_single_point():
    geom, er, y = _noiseless_scene(4)
    box = (er.position, er.position)
    result = locate_er(geom, y, er.vr, box)
    np.testing.assert_array_equal(result.position_hat, er.position)
    assert result.converged
    # One lattice point on a fully pinned box, the one survivor probed exactly.
    assert result.evaluations == 2


def test_hitting_the_iteration_cap_is_not_convergence(monkeypatch):
    geom, er, y = _noiseless_scene(2)
    shift = np.array([0.11, -0.07, 0.13])
    box = (er.position + shift - 0.3, er.position + shift + 0.3)
    full = locate_er(geom, y, er.vr, box)
    assert full.converged
    assert 1 < full.iterations < localize._MAX_ITERS
    monkeypatch.setattr(localize, "_MAX_ITERS", 1)
    capped = locate_er(geom, y, er.vr, box)
    assert capped.iterations == 1
    assert not capped.converged


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
    points = rng.uniform([0.3, -1.0, -1.0], [3.0, 1.0, 1.0], size=(4, 3))
    return geom, y, VisibilityRegion(start, end), points


@settings(max_examples=60, deadline=None)
@given(_region_problems())
def test_region_slice_scores_match_the_full_aperture_forms(problem):
    geom, y, vr, points = problem
    for point in points:
        assert concentrated_objective(geom, y, point, vr) == pytest.approx(
            full_aperture_objective(geom, y, point, vr), rel=1e-12
        )


def test_region_slice_scores_raise_what_the_full_aperture_forms_raise():
    geom, er, y = _noiseless_scene(13, n_y=8, n_z=8)
    i = er.vr.start - 1
    # At this carrier every |h_n|^2 underflows to zero.
    tiny = build_upa(4, 4, 1e170)
    scored = [
        (ValueError, (geom, y, er.position, VisibilityRegion(2, geom.n_elements + 1))),
        (ValueError, (geom, y, er.position[:2], er.vr)),
        (ValueError, (geom, np.append(y, 0.0), er.position, er.vr)),
        (SingularGeometryError, (geom, y, geom.coords.T[i + 1], er.vr)),
        (DegenerateChannelError, (tiny, np.ones(16), [1.0, 0.0, 0.0], VisibilityRegion(3, 9))),
    ]
    for error, args in scored:
        for fn in (concentrated_objective, full_aperture_objective):
            with pytest.raises(error):
                fn(*args)


def test_an_element_outside_the_region_is_no_singularity():
    geom, er, y = _noiseless_scene(14)
    vr = VisibilityRegion(10, 60)
    outside = geom.coords.T[4]
    with pytest.raises(SingularGeometryError):
        full_aperture_objective(geom, y, outside, vr)
    assert concentrated_objective(geom, y, outside, vr) >= 0.0
    h = channel(geom, ErState(outside, vr))
    assert np.all(np.isfinite(h)) and np.count_nonzero(h) == vr.size


def test_locate_validates_box_and_tolerance():
    geom, er, y = _noiseless_scene(10)
    lo, hi = er.position - 0.2, er.position + 0.2
    with pytest.raises(ValueError):
        locate_er(geom, y, er.vr, (hi, lo))
    with pytest.raises(ValueError):
        locate_er(geom, y, er.vr, (lo, hi), tol=0.0)
    with pytest.raises(ValueError, match="one entry per element"):
        locate_er(geom, y[:-1], er.vr, (lo, hi))
    # tol is keyword-only, so a stale (probe, slot length) pair cannot bind to it.
    with pytest.raises(TypeError):
        locate_er(geom, y, er.vr, (lo, hi), np.ones(geom.n_elements), 3)


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


def _run_trial_inputs(monkeypatch, schemes, trials, side=16, carrier_freq=28e9):
    """locate_er arguments of run_trial on the built-in scenario, side x side."""
    captured = []
    real = harness.locate_er

    def record(*args, **kwargs):
        captured.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "locate_er", record)
    base = ScenarioConfig()
    base = replace(base, array=replace(base.array, n_y=side, n_z=side, carrier_freq=carrier_freq))
    for scheme in schemes:
        cfg = replace(base, scheme=scheme)
        for t in range(trials):
            harness.run_trial(cfg, t)
    return captured


def test_estimate_never_trails_the_golden_section_oracle(monkeypatch):
    inputs = _run_trial_inputs(monkeypatch, ("proposed", "no_vr", "equal_time"), 6)
    assert len(inputs) >= 30
    for geom, y, vr, box in inputs:
        result = locate_er(geom, y, vr, box)
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
    return geom, y, vr, (center - half, center + half), pinned


@settings(max_examples=40, deadline=None)
@given(_search_problems())
def test_estimate_stays_in_the_box_and_beats_the_lattice(problem):
    geom, y, vr, box, pinned = problem
    lo, hi = box
    result = locate_er(geom, y, vr, box)
    point = result.position_hat
    assert np.all(lo <= point) and np.all(point <= hi)
    np.testing.assert_array_equal(point[pinned], lo[pinned])
    lattice = np.stack(
        np.meshgrid(*[np.linspace(lo[i], hi[i], 9) for i in range(3)], indexing="ij"), -1
    ).reshape(-1, 3)
    best = max(concentrated_objective(geom, y, p, vr) for p in lattice)
    assert result.objective >= best * (1 - 1e-12)
    assert result.objective == concentrated_objective(geom, y, point, vr)
    again = locate_er(geom, y, vr, box)
    assert again.position_hat.tobytes() == point.tobytes()
    assert again.objective == result.objective


def _seed_inputs(y_bar, vr, box):
    """Echo slice, region rows and 9 x 9 x 9 lattice axes as locate_er builds them."""
    lo, hi = (np.asarray(c, dtype=float) for c in box)
    rows = slice(vr.start - 1, vr.end)
    grid = [np.linspace(lo[i], hi[i], 1 if hi[i] <= lo[i] else 9) for i in range(3)]
    return np.asarray(y_bar, dtype=complex)[rows], rows, grid


def _table(geom, grid):
    """The memo's seed table of the box, None when the box has none."""
    return localize._tables[localize._table_key(geom, grid)].table


def _route_seeds(geom, y, rows, grid, tabulated=True):
    """lattice_seed on the direct route and then on the table route, once
    every prefilter score is checked within dq / 10 of the exact score on
    both.

    On a fresh memo the first call on a box takes the direct route and the
    second reads the box's table, which it builds unless the box gets none.
    """
    exact = lattice_scores(geom, y, rows, grid)
    localize.clear_seed_tables()
    for route in ("direct", "table"):
        q, dq = localize.prefilter_scores(geom, y, rows, grid)
        assert np.all(np.abs(q - exact) <= dq / 10), route
    assert (_table(geom, grid) is not None) == tabulated
    localize.clear_seed_tables()
    seeds = [localize.lattice_seed(geom, y, rows, grid) for route in ("direct", "table")]
    for _, probed in seeds:
        assert 1 <= probed <= exact.size
    return [seed for seed, _ in seeds]


def _assert_same_probe(seed, at):
    assert seed.point.tobytes() == at.point.tobytes()
    assert (seed.s, seed.e, seed.q) == (at.s, at.e, at.q)


def _assert_seed_matches_the_oracle(geom, y, rows, grid, tabulated=True):
    """On both routes, every prefilter score is within dq / 10 of the exact
    score, and the seed is the probe of the exact argmax, bit for bit."""
    exact = lattice_scores(geom, y, rows, grid)
    index = np.unravel_index(np.argmax(exact), tuple(g.size for g in grid))
    at = localize._probe(geom, y, rows, np.array([g[i] for g, i in zip(grid, index)]))
    for seed in _route_seeds(geom, y, rows, grid, tabulated):
        _assert_same_probe(seed, at)


@pytest.mark.parametrize("side", [16, 32])
def test_seed_is_the_full_lattice_argmax_on_run_trial_inputs(monkeypatch, side):
    inputs = _run_trial_inputs(monkeypatch, ("proposed", "no_vr", "equal_time"), 3, side)
    assert len(inputs) >= 12
    for geom, y_bar, vr, box in inputs:
        _assert_seed_matches_the_oracle(geom, *_seed_inputs(y_bar, vr, box))


@pytest.mark.parametrize("factor", [1e-40, 1e40])
def test_both_routes_keep_the_argmax_of_an_echo_scaled_far_from_one(monkeypatch, factor):
    inputs = _run_trial_inputs(monkeypatch, ("proposed", "no_vr"), 2)
    for geom, y_bar, vr, box in inputs:
        _assert_seed_matches_the_oracle(geom, *_seed_inputs(y_bar * factor, vr, box))


def test_both_routes_pick_the_same_seed_at_a_1e30_carrier(monkeypatch):
    # The amplitudes 1 / t are near 1e-22: unscaled, their squares would fall
    # below the float32 range. The array is so small against the distances
    # that every lattice score is nearly the same, so every point survives
    # and the seed is the first maximum of the exact probes, whose last bits
    # the batched oracle need not share.
    inputs = _run_trial_inputs(monkeypatch, ("equal_time",), 4, carrier_freq=1e30)
    assert len(inputs) == 8
    for geom, y_bar, vr, box in inputs:
        assert geom.carrier_freq == 1e30
        y, rows, grid = _seed_inputs(y_bar, vr, box)
        lattice = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 3)
        at = max((localize._probe(geom, y, rows, p) for p in lattice), key=lambda p: p.q)
        for seed in _route_seeds(geom, y, rows, grid):
            _assert_same_probe(seed, at)


@st.composite
def _seed_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    side = draw(st.integers(4, 48))
    # Arrays up to 48x48, whose regions reach the widest radius the direct
    # route's float32 bound grows with, and boxes out to 30 m, about 2,800
    # wavelengths at 28 GHz, where a float32 distance would hold the phase to
    # only about 1e-3 rad.
    stretch = draw(st.floats(1.0, 10.0))
    pinned = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    two_elements = draw(st.booleans())
    snr_db = draw(st.one_of(st.none(), st.floats(-20.0, 60.0)))
    rng = np.random.default_rng(seed)
    geom = build_upa(side, side, 28e9)
    n = geom.n_elements
    start = int(rng.integers(1, n))
    end = start + 1 if two_elements else int(rng.integers(start + 1, n + 1))
    vr = VisibilityRegion(start, end)
    center = rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0]) * stretch
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


@pytest.mark.parametrize("side", [16, 32])
def test_a_first_locate_probes_a_few_points(monkeypatch, side):
    # The float32 route measures each distance from the point's distance to
    # the region's center, so its bound grows with the region, not with the
    # range, and stays near 1e-4: a first locate probes a handful of points,
    # not the dozens that a float32 distance's 2^-24 t turns would keep.
    inputs = _run_trial_inputs(monkeypatch, ("proposed",), 4, side)
    counts = []
    for geom, y_bar, vr, box in inputs:
        y, rows, grid = _seed_inputs(y_bar, vr, box)
        localize.clear_seed_tables()
        _, rho = localize._direct_scores(geom, y, rows, grid)
        assert rho < 5e-4
        counts.append(localize.lattice_seed(geom, y, rows, grid)[1])
    assert max(counts) <= 9 and sum(counts) <= 4 * len(counts)


def test_zero_echo_scores_the_whole_lattice_once(monkeypatch):
    geom, er, _ = _noiseless_scene(12)
    box = (er.position - 0.2, er.position + 0.2)
    y, rows, grid = _seed_inputs(np.zeros(geom.n_elements), er.vr, box)
    probed = []
    real = localize._probes

    def record(geom, y, rows, points):
        probed.extend(points.T)
        return real(geom, y, rows, points)

    monkeypatch.setattr(localize, "_probes", record)
    lattice = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 3)
    # Every point ties at q = 0 on either route, so every point survives; the
    # seed is index 0.
    for route in ("direct", "table"):
        probed.clear()
        seed, count = localize.lattice_seed(geom, y, rows, grid)
        np.testing.assert_array_equal(np.array(probed), lattice)
        assert count == len(lattice)
        np.testing.assert_array_equal(seed.point, lattice[0])
    assert _table(geom, grid) is not None
    result = locate_er(geom, np.zeros(geom.n_elements, dtype=complex), er.vr, box)
    np.testing.assert_array_equal(result.position_hat, box[0])


def _assert_same_fields(batched, alone):
    assert batched.point.tobytes() == alone.point.tobytes()
    assert batched.dists.tobytes() == alone.dists.tobytes()
    assert batched.h.tobytes() == alone.h.tobytes()
    assert (batched.s, batched.e, batched.q) == (alone.s, alone.e, alone.q)


@pytest.mark.parametrize("side", [8, 16, 48])
def test_batched_probes_equal_probes_one_at_a_time(side):
    geom, er, y_bar = _noiseless_scene(side, n_y=side, n_z=side)
    rows = er.vr.rows(geom.n_elements)
    y = y_bar[rows]
    rng = np.random.default_rng(side)
    for count in (1, 2, 9, 30):
        points = er.position[:, None] + rng.uniform(-0.3, 0.3, size=(3, count))
        batch = localize._probes(geom, y, rows, points)
        assert len(batch) == count
        for k, at in enumerate(batch):
            _assert_same_fields(at, localize._probe(geom, y, rows, points[:, k].copy()))
    assert localize._probes(geom, y, rows, np.empty((3, 0))) == []


def test_a_batch_raises_the_error_of_its_first_failing_point():
    geom, er, y_bar = _noiseless_scene(3, n_y=8, n_z=8)
    rows = er.vr.rows(geom.n_elements)
    y = y_bar[rows]
    # At 1e153 m every |h_n|^2 is subnormal, and so is their sum.
    far = np.array([1e153, 0.0, 0.0])
    on_element = geom.coords[:, er.vr.start]
    fine = er.position
    with pytest.raises(DegenerateChannelError):
        localize._probe(geom, y, rows, far)
    with pytest.raises(SingularGeometryError):
        localize._probe(geom, y, rows, on_element)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order, error in (
            ((fine, far, on_element), DegenerateChannelError),
            ((fine, on_element, far), SingularGeometryError),
            ((on_element, far, fine), SingularGeometryError),
            ((far, fine, on_element), DegenerateChannelError),
        ):
            with pytest.raises(error):
                localize._probes(geom, y, rows, np.stack(order, axis=1))


def test_survivor_batches_stay_near_the_prefilter_footprint():
    # A zero echo keeps all 729 points of a 48x48 box. Probed in one batch
    # over the full aperture they would peak near 80 MB; in batches of about
    # _BUILD_BYTES the seed's peak stays within 2 _BUILD_BYTES of the
    # prefilter's (about 7.4 MB).
    geom, er, _ = _noiseless_scene(48, n_y=48, n_z=48)
    box = (er.position - 0.2, er.position + 0.2)
    vr = VisibilityRegion(1, geom.n_elements)
    y, rows, grid = _seed_inputs(np.zeros(geom.n_elements), vr, box)

    def peak(call):
        localize.clear_seed_tables()
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    prefilter, _ = peak(lambda: localize.prefilter_scores(geom, y, rows, grid))
    seed_peak, (_, count) = peak(lambda: localize.lattice_seed(geom, y, rows, grid))
    assert count == 729
    assert seed_peak <= prefilter + 2 * localize._BUILD_BYTES


def _on_element(corner):
    """An 8x8 array and a box with a corner, a lattice point, on element 28."""
    geom = build_upa(8, 8, 28e9)
    element = geom.coords.T[27]
    box = (element, element + 0.2) if corner == 0 else (element - 0.2, element)
    return geom, box


@pytest.mark.parametrize("corner", [0, 1])
def test_a_lattice_point_on_an_element_is_rejected(corner):
    geom, box = _on_element(corner)
    y = np.ones(geom.n_elements, dtype=complex)
    vr = VisibilityRegion(1, geom.n_elements)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # The prefilter scores the lattice first, so it is the one to raise,
        # on the first call and on the second alike: such a box gets no table.
        for route in ("direct", "table"):
            with pytest.raises(SingularGeometryError):
                localize.prefilter_scores(geom, *_seed_inputs(y, vr, box))
        with pytest.raises(SingularGeometryError):
            locate_er(geom, y, vr, box)
    assert [str(w.message) for w in caught] == []
    assert _table(geom, _seed_inputs(y, vr, box)[2]) is None


@pytest.mark.parametrize("corner", [0, 1])
def test_a_lattice_point_on_an_element_outside_the_region_scores_on_both_calls(corner):
    geom, box = _on_element(corner)
    rng = np.random.default_rng(corner)
    y_bar = rng.standard_normal(geom.n_elements) + 1j * rng.standard_normal(geom.n_elements)
    vr = VisibilityRegion(40, geom.n_elements)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_seed_matches_the_oracle(geom, *_seed_inputs(y_bar, vr, box), tabulated=False)
        for route in ("direct", "table"):
            result = locate_er(geom, y_bar, vr, box)
            assert np.all(box[0] <= result.position_hat) and np.all(result.position_hat <= box[1])
    assert [str(w.message) for w in caught] == []


def _record_builds(monkeypatch):
    """The memo keys of the boxes whose seed tables get built, in order."""
    built = []
    real = localize._build_table

    def record(geom, grid):
        built.append(localize._table_key(geom, grid))
        return real(geom, grid)

    monkeypatch.setattr(localize, "_build_table", record)
    return built


def _outcome(result):
    return (
        result.position_hat.tobytes(),
        result.objective,
        result.iterations,
        result.converged,
        result.evaluations,
    )


class TestSeedTableMemo:
    def test_a_one_trial_simulate_builds_no_table(self, monkeypatch, capsys):
        built = _record_builds(monkeypatch)
        assert main(["simulate", "--trials", "1"]) == 0
        capsys.readouterr()
        assert built == []
        # Each receiver's box was seen once.
        assert [entry.built for entry in localize._tables.values()] == [False, False]

    def test_a_gamma_sweep_builds_one_table_per_receiver(self, monkeypatch, capsys):
        built = _record_builds(monkeypatch)
        assert main(["sweep-gamma", "--trials", "1"]) == 0
        capsys.readouterr()
        assert len(built) == len(set(built)) == len(ScenarioConfig().ers)
        assert all(localize._tables[key].table is not None for key in built)

    def test_every_command_starts_with_an_empty_memo(self, monkeypatch, capsys):
        built = _record_builds(monkeypatch)
        sweep = ["sweep-gamma", "--trials", "1"]
        assert main(sweep) == 0
        assert len(built) == 2 and len(localize._tables) == 2
        assert main(["crb"]) == 0
        assert not localize._tables
        assert main(sweep) == 0
        # The second sweep builds its own tables, on its own geometry.
        assert len(built) == 4 and set(built[:2]).isdisjoint(built[2:])
        capsys.readouterr()

    def test_more_boxes_than_the_bound_in_turn_take_the_direct_route(self, monkeypatch):
        built = _record_builds(monkeypatch)
        geom, er, y = _noiseless_scene(5)
        boxes = [
            (er.position - 0.2 + 0.01 * k, er.position + 0.2 + 0.01 * k)
            for k in range(localize._TABLES_MAX + 1)
        ]
        fresh = []
        for box in boxes:
            localize.clear_seed_tables()
            fresh.append(_outcome(locate_er(geom, y, er.vr, box)))
        localize.clear_seed_tables()
        for cycle in range(3):
            assert [_outcome(locate_er(geom, y, er.vr, box)) for box in boxes] == fresh
        # Each box was evicted before it came back, so none got a table.
        assert built == []
        assert len(localize._tables) == localize._TABLES_MAX

    def test_boxes_within_the_bound_get_one_table_each(self, monkeypatch):
        built = _record_builds(monkeypatch)
        geom, er, y = _noiseless_scene(5)
        boxes = [
            (er.position - 0.2 + 0.01 * k, er.position + 0.2 + 0.01 * k)
            for k in range(localize._TABLES_MAX)
        ]
        fresh = []
        for box in boxes:
            localize.clear_seed_tables()
            fresh.append(_outcome(locate_er(geom, y, er.vr, box))[:4])
        localize.clear_seed_tables()
        # evaluations may differ: the table's wider bound can let more points
        # survive to an exact probe.
        for cycle in range(3):
            assert [_outcome(locate_er(geom, y, er.vr, box))[:4] for box in boxes] == fresh
        assert len(built) == len(set(built)) == len(boxes)

    def test_an_equal_geometry_is_another_box(self, monkeypatch):
        built = _record_builds(monkeypatch)
        geom, er, y_bar = _noiseless_scene(6)
        y, rows, grid = _seed_inputs(y_bar, er.vr, (er.position - 0.2, er.position + 0.2))
        for call in range(2):
            localize.prefilter_scores(geom, y, rows, grid)
        twin = build_upa(geom.n_y, geom.n_z, geom.carrier_freq)
        localize.prefilter_scores(twin, y, rows, grid)
        assert built == [localize._table_key(geom, grid)]
        # The memo holds each geometry, so its id cannot pass to another.
        held = [entry.geom for entry in localize._tables.values()]
        assert len(held) == 2 and held[0] is geom and held[1] is twin


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", [0, 1])
def test_a_non_finite_search_box_is_rejected_up_front(bad, corner):
    geom, er, y = _noiseless_scene(10)
    box = [er.position - 0.2, er.position + 0.2]
    box[corner][1] = bad
    with pytest.raises(ValueError, match="search box must be finite"):
        locate_er(geom, y, er.vr, box)


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_float_range_errors_of_the_search_end_in_a_value_error(monkeypatch, error):
    geom, er, y = _noiseless_scene(3)

    def out_of_range(*args):
        raise error("float arithmetic left the range")

    monkeypatch.setattr(localize, "_ascent_model", out_of_range)
    with pytest.raises(ValueError, match="float range") as info:
        locate_er(geom, y, er.vr, (er.position - 0.2, er.position + 0.2))
    assert type(info.value) is ValueError


@st.composite
def _damped_systems(draw, definite):
    """A symmetric system of one to three unknowns, its right-hand side and
    its eigenvalues: within [1e-2, 10] when definite, so the condition number
    stays below 1e3, and otherwise of either sign and at least 1e-10 from 0,
    both relative to the drawn scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigenvalues = 10.0 ** rng.uniform(-2.0 if definite else -10.0, 1.0, m)
    if not definite:
        eigenvalues *= rng.choice([-1.0, 1.0], m)
    scale = 10.0 ** rng.uniform(-100.0, 100.0)
    a = scale * (basis * eigenvalues) @ basis.T
    return (a + a.T) / 2.0, scale * rng.standard_normal(m), eigenvalues


@settings(max_examples=200, deadline=None)
@given(_damped_systems(definite=True))
def test_closed_form_step_matches_the_lapack_route(system):
    a, b, _ = system
    step = localize._cholesky_solve(a.tolist(), b.tolist())
    expected = cholesky_solve(a, b)
    assert np.linalg.norm(np.subtract(step, expected)) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=200, deadline=None)
@given(_damped_systems(definite=False))
def test_closed_form_step_exists_exactly_where_the_factor_does(system):
    a, b, eigenvalues = system
    step = localize._cholesky_solve(a.tolist(), b.tolist())
    expected = cholesky_solve(a, b)
    assert (step is None) == (expected is None) == (eigenvalues.min() < 0)


def test_closed_form_step_rejects_a_nan_pivot():
    # The LAPACK route returns a nan step here, which no probe could keep.
    assert np.isnan(cholesky_solve([[math.nan]], [1.0])).all()
    assert localize._cholesky_solve([[math.nan]], [1.0]) is None
    assert localize._cholesky_solve([[1.0, 0.0], [math.nan, 1.0]], [1.0, 1.0]) is None
