"""Tests for steering vectors, visibility masks, and channel derivatives."""

import numpy as np
import pytest

from nfwpt import build_upa, fim, fim_finite_difference, locate_er
from nfwpt.channel import (
    ErState,
    VisibilityRegion,
    array_response,
    channel,
    grid_distances,
    min_vr_span,
    response_derivatives,
    response_hessians,
    steering_vector,
)
from nfwpt.errors import SingularGeometryError
from oracles import (
    channel_derivative,
    masked_response,
    response_derivatives_expression,
    vr_cover,
)


def _high_precision_steering(geom, point):
    """Per-entry steering oracle evaluated in extended precision."""
    pos = np.asarray(geom.coords.T, dtype=np.longdouble)
    pt = np.asarray(point, dtype=np.longdouble)
    d = np.sqrt(((pos - pt) ** 2).sum(axis=1))
    lam = np.longdouble(geom.wavelength)
    amp = lam / (4 * np.pi * d)
    phase = -2 * np.pi * d / lam
    return (amp * np.cos(phase)).astype(float) + 1j * (amp * np.sin(phase)).astype(float)


def test_single_element_on_axis_has_zero_phase():
    geom = build_upa(1, 1, 28e9)
    d = 100 * geom.wavelength
    entry = steering_vector(geom, (d, 0.0, 0.0))[0]
    assert entry.real == pytest.approx(geom.wavelength / (4 * np.pi * d), rel=1e-12)
    assert abs(entry.imag) < 1e-12 * abs(entry.real)


def test_reference_scene_magnitudes():
    geom = build_upa(16, 16, 28e9)
    a = steering_vector(geom, (1.0, 2.0, 3.0))
    expected = geom.wavelength / (4 * np.pi * np.sqrt(14.0))
    assert np.abs(a).mean() == pytest.approx(expected, rel=5e-3)
    assert expected == pytest.approx(2.277e-4, rel=1e-3)
    # Sub-percent spread from element offsets only.
    assert np.abs(a).max() / np.abs(a).min() < 1.05


def test_steering_matches_extended_precision_oracle():
    geom = build_upa(8, 8, 28e9)
    rng = np.random.default_rng(7)
    for _ in range(5):
        point = rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0])
        a = steering_vector(geom, point)
        ref = _high_precision_steering(geom, point)
        np.testing.assert_allclose(a, ref, rtol=1e-10)


def test_entry_magnitude_decreases_with_element_distance():
    geom = build_upa(16, 16, 28e9)
    point = np.array([0.8, 0.4, -0.3])
    a = steering_vector(geom, point)
    d = np.linalg.norm(geom.coords.T - point, axis=1)
    order = np.argsort(d)
    mags, dist = np.abs(a)[order], d[order]
    # Strict decrease wherever the distance strictly increases (symmetric
    # element pairs share a distance and a magnitude).
    grows = np.diff(dist) > 1e-12
    assert np.all(np.diff(mags)[grows] < 0)
    assert np.all(np.diff(mags) <= 0)


def test_steering_at_element_location_is_rejected():
    geom = build_upa(4, 4, 28e9)
    with pytest.raises(SingularGeometryError):
        steering_vector(geom, geom.coords.T[5])


def test_visibility_region_validation():
    vr = VisibilityRegion(65, 128)
    assert vr.size == 64
    with pytest.raises(ValueError):
        VisibilityRegion(0, 10)
    with pytest.raises(ValueError):
        VisibilityRegion(10, 10)
    with pytest.raises(ValueError):
        VisibilityRegion(12, 4)


def test_min_vr_span_values():
    assert min_vr_span(256, 0.25) == 64
    assert min_vr_span(10, 0.31) == 4
    with pytest.raises(ValueError):
        min_vr_span(10, 0.0)
    with pytest.raises(ValueError):
        min_vr_span(10, 1.0)
    with pytest.raises(ValueError):
        min_vr_span(1, 0.25)


def test_cover_counts_and_placement():
    full = vr_cover(VisibilityRegion(1, 16), 16)
    np.testing.assert_array_equal(full, np.ones(16))
    cover = vr_cover(VisibilityRegion(65, 128), 256)
    assert cover.sum() == 64
    assert set(np.nonzero(cover)[0] + 1) == set(range(65, 129))
    for vr in (VisibilityRegion(3, 9), VisibilityRegion(1, 2), VisibilityRegion(15, 16)):
        assert vr_cover(vr, 16).sum() == vr.size
        # rows selects exactly the elements the cover keeps.
        np.testing.assert_array_equal(np.arange(16)[vr.rows(16)], np.flatnonzero(vr_cover(vr, 16)))
    with pytest.raises(ValueError):
        vr_cover(VisibilityRegion(5, 20), 16)


def test_channel_is_the_masked_full_aperture_response():
    rng = np.random.default_rng(21)
    for side in (4, 8, 16):
        geom = build_upa(side, side, 28e9)
        n = geom.n_elements
        for start, end in ((1, n), (1, 2), (n - 1, n), (n // 4, 3 * n // 4)):
            vr = VisibilityRegion(start, end)
            point = rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0])
            h = channel(geom, ErState(point, vr))
            masked = masked_response(geom, point, vr)
            inside = vr.rows(n)
            np.testing.assert_array_equal(h[inside], masked[inside])
            outside = np.ones(n, dtype=bool)
            outside[inside] = False
            assert np.all(h[outside] == 0) and np.all(masked[outside] == 0)


def test_every_stage_rejects_a_region_past_the_array_alike():
    geom = build_upa(4, 4, 28e9)
    er = ErState(position=np.array([1.0, 0.2, 0.3]), vr=VisibilityRegion(5, 17))
    message = "^visibility region end 17 exceeds array size 16$"
    box = (er.position - 0.1, er.position + 0.1)
    calls = (
        lambda: er.vr.rows(16),
        lambda: channel(geom, er),
        lambda: fim(geom, er, np.ones(16, dtype=complex), 1, 1e-15),
        lambda: fim_finite_difference(geom, er, np.ones(16, dtype=complex), 1, 1e-15),
        lambda: locate_er(geom, np.ones(16, dtype=complex), er.vr, box),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_full_cover_channel_equals_steering():
    geom = build_upa(8, 8, 28e9)
    er = ErState(position=np.array([1.0, 0.2, 0.4]), vr=VisibilityRegion(1, 64), reflection=1.0)
    np.testing.assert_array_equal(channel(geom, er), steering_vector(geom, er.position))


def test_partial_cover_energy_matches_direct_sum():
    geom = build_upa(16, 16, 28e9)
    er = ErState(position=np.array([1.0, 2.0, 3.0]), vr=VisibilityRegion(65, 128), reflection=1.0)
    h = channel(geom, er)
    a = steering_vector(geom, er.position)
    direct = sum(abs(a[n - 1]) ** 2 for n in range(65, 129))
    assert np.vdot(h, h).real == pytest.approx(direct, rel=1e-14)
    assert np.all(h[:64] == 0) and np.all(h[128:] == 0)


def test_disjoint_regions_give_orthogonal_channels():
    geom = build_upa(16, 16, 28e9)
    pos = np.array([1.0, 2.0, 3.0])
    h1 = channel(geom, ErState(position=pos, vr=VisibilityRegion(1, 100), reflection=1.0))
    h2 = channel(geom, ErState(position=pos, vr=VisibilityRegion(101, 256), reflection=1.0))
    assert np.vdot(h1, h2) == 0


def test_derivative_vanishes_by_symmetry():
    # Every element and the target sit at y = 0, so the y-derivative factor
    # (y_n - y) is exactly zero entrywise.
    geom = build_upa(1, 2, 28e9)
    d = channel_derivative(geom, (0.7, 0.0, 0.0), VisibilityRegion(1, 2), "y")
    np.testing.assert_array_equal(d, np.zeros(2, dtype=complex))


def test_derivative_is_masked_outside_region():
    geom = build_upa(8, 8, 28e9)
    vr = VisibilityRegion(10, 30)
    for axis in ("x", "y", "z"):
        d = channel_derivative(geom, (0.9, 0.1, -0.2), vr, axis)
        assert np.all(d[:9] == 0) and np.all(d[30:] == 0)
        assert np.all(d[9:30] != 0)


def test_derivative_matches_central_differences():
    geom = build_upa(8, 8, 28e9)
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(5):
        point = rng.uniform([0.5, -0.8, -0.8], [3.0, 0.8, 0.8])
        vr = VisibilityRegion(5, 50)
        cover = vr_cover(vr, geom.n_elements)
        for ax, unit in zip("xyz", np.eye(3)):
            analytic = channel_derivative(geom, point, vr, ax)
            fd = (
                steering_vector(geom, point + step * unit)
                - steering_vector(geom, point - step * unit)
            ) / (2 * step) * cover
            scale = np.abs(fd).max()
            np.testing.assert_allclose(analytic, fd, atol=1e-5 * scale)


def test_second_derivatives_match_central_differences():
    geom = build_upa(8, 8, 28e9)
    rng = np.random.default_rng(12)
    step = 1e-6
    vr = VisibilityRegion(5, 50)
    for _ in range(5):
        point = rng.uniform([0.5, -0.8, -0.8], [3.0, 0.8, 0.8])
        dists, entries = array_response(geom, point[:, None])
        analytic = response_hessians(geom, point, dists.reshape(-1), entries.reshape(-1))
        np.testing.assert_allclose(analytic, analytic.transpose(1, 0, 2), rtol=1e-14)
        for v, unit in enumerate(np.eye(3)):
            for u, ax in enumerate("xyz"):
                fd = (
                    channel_derivative(geom, point + step * unit, vr, ax)
                    - channel_derivative(geom, point - step * unit, vr, ax)
                ) / (2 * step)
                np.testing.assert_allclose(
                    analytic[u, v, 4:50], fd[4:50], atol=1e-5 * np.abs(fd).max()
                )


def test_grid_response_matches_pointwise_steering_vectors():
    geom = build_upa(8, 8, 28e9)
    grid = [np.linspace(0.5, 1.5, 3), np.linspace(-0.4, 0.4, 4), np.array([0.2, 0.7])]
    rows = slice(9, 41)
    _, entries = array_response(geom, grid, rows)
    assert entries.shape == (3, 4, 2, 32)
    for i, j, k in np.ndindex(3, 4, 2):
        point = (grid[0][i], grid[1][j], grid[2][k])
        np.testing.assert_array_equal(entries[i, j, k], steering_vector(geom, point)[rows])


@pytest.mark.parametrize("size", [(8, 8), (9, 7), (32, 32)])
@pytest.mark.parametrize("rows", [slice(None), slice(5, 40), slice(17, 19)])
def test_one_point_distances_equal_the_grid_path(size, rows):
    # A (3, 1) array takes the one-point path; the same point as three
    # one-element axes takes the broadcast grid path.
    geom = build_upa(*size, 28e9)
    rng = np.random.default_rng(size[0] * 10 + size[1])
    for point in rng.uniform([-2.5, -0.8, -0.8], [2.5, 0.8, 0.8], size=(20, 3)):
        axes = [point[ax : ax + 1] for ax in range(3)]
        expected = grid_distances(geom, axes, rows)
        got = grid_distances(geom, point[:, None], rows)
        assert got.shape == expected.shape == (1, 1, 1, expected.shape[-1])
        assert got.tobytes() == expected.tobytes()
        dists, entries = array_response(geom, point[:, None], rows)
        grid_dists, grid_entries = array_response(geom, axes, rows)
        assert dists.tobytes() == grid_dists.tobytes()
        assert entries.tobytes() == grid_entries.tobytes()


@pytest.mark.parametrize("one_point", [True, False])
def test_distance_kernel_rejects_an_element_and_passes_nan(one_point):
    # Either path raises exactly when np.any(dists == 0.0) would: on an
    # element, but not for a NaN distance.
    geom = build_upa(8, 8, 28e9)
    rows = slice(9, 41)

    def form(point):
        point = np.asarray(point, dtype=float)
        return point[:, None] if one_point else [point[ax : ax + 1] for ax in range(3)]

    for element in (geom.coords.T[9], geom.coords.T[40]):
        with pytest.raises(SingularGeometryError):
            grid_distances(geom, form(element), rows)
    # An element outside rows is no singularity for the rows.
    assert grid_distances(geom, form(geom.coords.T[8]), rows).all()
    with np.errstate(invalid="ignore"):
        nan = grid_distances(geom, form([np.nan, 0.1, 0.2]), rows)
    assert np.isnan(nan).all()
    if not one_point:
        # A NaN beside a coincident point makes the grid's min NaN, which
        # must not hide the coincidence.
        x, y, z = geom.coords.T[20]
        for xs in ([x, np.nan], [np.nan, x]):
            with np.errstate(invalid="ignore"), pytest.raises(SingularGeometryError):
                grid_distances(geom, (np.array(xs), [y], [z]), rows)
        # An empty grid has no point on an element.
        assert grid_distances(geom, (np.empty(0), [y], [z]), rows).shape == (0, 1, 1, 32)


@pytest.mark.parametrize("size", [(8, 8), (9, 7), (32, 32)])
@pytest.mark.parametrize("rows", [slice(None), slice(5, 40), slice(17, 19)])
@pytest.mark.parametrize("axes", [slice(None), slice(0, 1), slice(1, 3), slice(2, 3)])
def test_derivative_kernel_keeps_the_bits_and_layout_of_the_expression(size, rows, axes):
    # The localizer's BLAS products and the FIM's reductions sum in an order
    # that depends on the memory layout, so strides must match as well.
    geom = build_upa(*size, 28e9)
    rng = np.random.default_rng(size[0] * 100 + size[1])
    center = rng.uniform([0.3, -0.8, -0.8], [2.5, 0.8, 0.8])
    grid = [center[ax] + np.array([-0.15, 0.0, 0.15]) for ax in range(3)]
    dists, entries = array_response(geom, grid, rows)
    points = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1)
    for index in np.ndindex(3, 3, 3):
        point, d, e = points[index], dists[index], entries[index]
        kernel = response_derivatives(geom, point, d, e, rows)
        expected = response_derivatives_expression(geom, point, d, e, rows)
        assert kernel.shape == expected.shape == (3, d.size)
        assert kernel.strides == expected.strides
        assert kernel.flags.c_contiguous
        assert kernel.tobytes() == expected.tobytes()
        # The rows of some axes carry the bits of the expression formed on
        # those axes alone, so channel_derivative may take one row of three.
        alone = response_derivatives_expression(geom, point, d, e, rows, axes)
        assert kernel[axes].tobytes() == alone.tobytes()
        # With out, the same bits land in the caller's buffer.
        buf = np.full(expected.shape, np.nan, dtype=complex)
        assert response_derivatives(geom, point, d, e, rows, out=buf) is buf
        assert buf.tobytes() == expected.tobytes()


def test_derivative_rejects_unknown_axis():
    geom = build_upa(4, 4, 28e9)
    with pytest.raises(ValueError):
        channel_derivative(geom, (1.0, 0.0, 0.0), VisibilityRegion(1, 16), "r")


def test_er_state_validation():
    vr = VisibilityRegion(1, 4)
    with pytest.raises(ValueError):
        ErState(position=np.zeros(2), vr=vr, reflection=1.0)
    with pytest.raises(ValueError):
        ErState(position=np.array([1.0, np.nan, 0.0]), vr=vr, reflection=1.0)
    # Zero reflection is a legal state: the echo model degrades to pure noise.
    er = ErState(position=np.array([1.0, 0.0, 0.0]), vr=vr, reflection=0.0)
    assert er.reflection == 0j
    er = ErState(position=np.array([1.0, 0.0, 0.0]), vr=vr, reflection=2.0)
    assert er.reflection == 2.0 + 0.0j
