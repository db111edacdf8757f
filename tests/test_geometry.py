"""Tests for the planar-array geometry builder and its y-major element order."""

import numpy as np
import pytest

from nfwpt import SPEED_OF_LIGHT, build_upa


def test_default_array_matches_reference_scenario():
    geom = build_upa(16, 16, 28e9)
    assert geom.n_elements == 256
    assert geom.wavelength == pytest.approx(0.0107069, rel=1e-5)
    assert geom.spacing == pytest.approx(0.0053534, rel=1e-4)
    assert geom.wavelength == SPEED_OF_LIGHT / 28e9


def test_single_element_sits_at_origin():
    geom = build_upa(1, 1, 28e9)
    np.testing.assert_array_equal(geom.positions, np.zeros((1, 3)))


def test_two_by_two_corners_at_quarter_wavelength():
    geom = build_upa(2, 2, 28e9)
    q = geom.wavelength / 4
    expected = {(0.0, -q, -q), (0.0, q, -q), (0.0, -q, q), (0.0, q, q)}
    got = {tuple(row) for row in geom.positions}
    assert got == expected


def test_first_element_of_two_by_two_is_lower_corner():
    geom = build_upa(2, 2, 28e9)
    q = geom.wavelength / 4
    np.testing.assert_allclose(geom.positions[0], [0.0, -q, -q])


def test_last_element_mirrors_first_through_origin():
    geom = build_upa(16, 16, 28e9)
    first = geom.positions[0]
    last = geom.positions[geom.n_elements - 1]
    np.testing.assert_allclose(last, -first, atol=1e-15)


def test_array_lies_in_yz_plane_and_is_centered():
    geom = build_upa(7, 5, 10e9)
    np.testing.assert_array_equal(geom.positions[:, 0], np.zeros(35))
    np.testing.assert_allclose(geom.positions.sum(axis=0), np.zeros(3), atol=1e-12)


def test_elements_run_y_major():
    # n = (i_z - 1) * n_y + i_y: within a row, element n + 1 sits one y pitch
    # from element n, and element n + n_y one z pitch above it.
    geom = build_upa(6, 4, 28e9, spacing=0.01)
    pos = geom.positions
    step_y = pos[1:] - pos[:-1]
    within_row = np.arange(geom.n_elements - 1) % geom.n_y != geom.n_y - 1
    np.testing.assert_allclose(step_y[within_row], [[0.0, 0.01, 0.0]] * 20, atol=1e-15)
    np.testing.assert_allclose(
        pos[geom.n_y :] - pos[: -geom.n_y], [[0.0, 0.0, 0.01]] * 18, atol=1e-15
    )
    assert len({tuple(row) for row in pos}) == geom.n_elements


def test_custom_spacing_is_honored():
    geom = build_upa(2, 1, 28e9, spacing=0.02)
    assert abs(geom.positions[1, 1] - geom.positions[0, 1]) == pytest.approx(0.02)


def test_positions_are_read_only():
    geom = build_upa(4, 4, 28e9)
    with pytest.raises(ValueError):
        geom.positions[0, 0] = 1.0


def test_invalid_dimensions_and_frequency_are_rejected():
    with pytest.raises(ValueError):
        build_upa(0, 4, 28e9)
    with pytest.raises(ValueError):
        build_upa(4, -1, 28e9)
    with pytest.raises(ValueError):
        build_upa(4, 4, 0.0)
    with pytest.raises(ValueError):
        build_upa(4, 4, 28e9, spacing=-0.01)


@pytest.mark.parametrize("size", [(1, 1), (1, 2), (4, 4), (9, 7), (32, 32)])
def test_coords_are_a_read_only_c_contiguous_transpose_of_positions(size):
    geom = build_upa(*size, 28e9)
    assert geom.coords.shape == (3, geom.n_elements)
    assert geom.coords.flags.c_contiguous
    assert not geom.coords.flags.writeable
    assert geom.coords.tobytes() == np.ascontiguousarray(geom.positions.T).tobytes()
    # positions keeps its (N, 3) C order: the localizer's ray origin is a
    # mean over its rows.
    assert geom.positions.flags.c_contiguous
    assert not geom.positions.flags.writeable
    with pytest.raises(ValueError):
        geom.coords[0, 0] = 1.0
