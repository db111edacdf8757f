"""Tests for probing, echo simulation, and slot aggregation."""

import numpy as np
import pytest

from nfwpt import aggregate, build_upa, simulate_echo, uniform_probe
from nfwpt.channel import ErState, VisibilityRegion, channel
from oracles import echo_expression


def _scene(n_y=8, n_z=8, vr=(5, 40)):
    geom = build_upa(n_y, n_z, 28e9)
    er = ErState(
        position=np.array([1.2, 0.3, -0.4]),
        vr=VisibilityRegion(*vr),
        reflection=0.8 - 0.5j,
    )
    return geom, er, channel(geom, er)


def test_uniform_probe_reference_values():
    geom = build_upa(16, 16, 28e9)
    x = uniform_probe(geom, 1.0)
    np.testing.assert_array_equal(x, np.full(256, 1 / 16, dtype=complex))
    small = uniform_probe(build_upa(1, 2, 28e9), 4.0)
    np.testing.assert_allclose(small, np.full(2, np.sqrt(2.0)))


def test_probe_energy_equals_power_budget():
    for n_y, n_z, p in ((7, 3, 0.5), (16, 16, 1.0), (2, 5, 3.7)):
        x = uniform_probe(build_upa(n_y, n_z, 28e9), p)
        assert np.vdot(x, x).real == pytest.approx(p, rel=1e-14)


def test_probe_rejects_nonpositive_power():
    geom = build_upa(4, 4, 28e9)
    with pytest.raises(ValueError):
        uniform_probe(geom, 0.0)
    with pytest.raises(ValueError):
        uniform_probe(geom, -1.0)


def test_noiseless_single_symbol_echo_is_exact():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    samples = simulate_echo(h, er.reflection, x, 1, 0.0, np.random.default_rng(0))
    expected = er.reflection * h * (h @ x)
    np.testing.assert_array_equal(samples[:, 0], expected)


def test_zero_reflection_leaves_pure_noise_at_the_right_level():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    sigma2 = 2.5e-3
    samples = simulate_echo(h, 0.0, x, 5000, sigma2, np.random.default_rng(3))
    level = np.mean(np.abs(samples) ** 2)
    assert level == pytest.approx(sigma2, rel=5e-3)


def test_echo_block_is_deterministic_per_seed():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    a = simulate_echo(h, er.reflection, x, 7, 1e-15, np.random.default_rng(42))
    b = simulate_echo(h, er.reflection, x, 7, 1e-15, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("noise_power", [0.0, 1e-15, 2.5e-3, 3.0])
@pytest.mark.parametrize("shape", [(8, 8, 1), (16, 16, 7), (4, 6, 90)])
def test_echo_block_keeps_the_bits_of_the_complex_expression(noise_power, shape):
    n_y, n_z, slot_len = shape
    geom, er, h = _scene(n_y, n_z, vr=(2, n_y * n_z - 3))
    x = uniform_probe(geom, 1.0)
    args = (h, er.reflection, x, slot_len, noise_power)
    for seed in range(3):
        samples = simulate_echo(*args, np.random.default_rng(seed))
        expected = echo_expression(*args, np.random.default_rng(seed))
        assert samples.shape == (n_y * n_z, slot_len)
        assert samples.tobytes() == expected.tobytes()


def test_echo_block_is_read_only_and_validated():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    samples = simulate_echo(h, er.reflection, x, 3, 1e-15, np.random.default_rng(0))
    assert samples.shape == (64, 3)
    with pytest.raises(ValueError):
        samples[0, 0] = 0
    with pytest.raises(ValueError):
        simulate_echo(h, er.reflection, x, 0, 1e-15, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_echo(h, er.reflection, x, 3, -1e-15, np.random.default_rng(0))


def test_aggregate_of_single_symbol_is_the_column():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    samples = simulate_echo(h, er.reflection, x, 1, 1e-15, np.random.default_rng(1))
    np.testing.assert_array_equal(aggregate(samples), samples[:, 0])


def test_noiseless_aggregate_scales_linearly_with_slot_length():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    one = aggregate(simulate_echo(h, er.reflection, x, 1, 0.0, np.random.default_rng(0)))
    ten = aggregate(simulate_echo(h, er.reflection, x, 10, 0.0, np.random.default_rng(0)))
    # Linearity holds to the final rounding of the ten-term accumulation.
    np.testing.assert_allclose(ten, 10 * one, rtol=5e-15, atol=0)


def test_aggregate_matches_independent_column_summation():
    geom, er, h = _scene()
    x = uniform_probe(geom, 1.0)
    samples = simulate_echo(h, er.reflection, x, 5, 1e-15, np.random.default_rng(9))
    total = np.zeros(64, dtype=complex)
    for t in range(5):
        total = total + samples[:, t]
    np.testing.assert_array_equal(aggregate(samples), total)
