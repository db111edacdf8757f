"""Tests for the charging-stage covariance design."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfwpt import (
    WeightedChannels,
    average_harvested_power,
    build_upa,
    harvested_power,
    isotropic_covariance,
    solve_energy_covariance,
    weighted_channel_matrix,
)
from nfwpt.channel import ErState, VisibilityRegion, channel
from nfwpt.errors import InfeasibleBlockError


def _random_channels(seed, n=64, k=2):
    rng = np.random.default_rng(seed)
    scale = 1e-4
    return [
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for _ in range(k)
    ]


class TestWeightedChannelMatrix:
    def test_single_channel_is_a_scaled_outer_product(self):
        (h,) = _random_channels(0, k=1)
        a = weighted_channel_matrix([h], [0.7]).dense()
        np.testing.assert_allclose(a, 0.7 * np.outer(h, h.conj()), rtol=1e-14)
        assert np.linalg.matrix_rank(a) == 1

    def test_matrix_is_hermitian_to_rounding(self):
        channels = _random_channels(1, k=3)
        a = weighted_channel_matrix(channels, [0.2, 0.3, 0.5]).dense()
        assert np.abs(a - a.conj().T).max() <= 1e-13 * np.abs(a).max()

    def test_trace_is_the_weighted_sum_of_channel_energies(self):
        channels = _random_channels(2, k=4)
        weights = [0.1, 0.2, 0.3, 0.4]
        a = weighted_channel_matrix(channels, weights).dense()
        expected = sum(
            w * np.vdot(h, h).real for h, w in zip(channels, weights)
        )
        assert np.trace(a).real == pytest.approx(expected, rel=1e-13)

    def test_zero_weights_give_the_zero_matrix(self):
        channels = _random_channels(3, k=2)
        a = weighted_channel_matrix(channels, [0.0, 0.0]).dense()
        np.testing.assert_array_equal(a, np.zeros_like(a))

    def test_rejects_bad_arguments(self):
        channels = _random_channels(4, k=2)
        with pytest.raises(ValueError):
            weighted_channel_matrix(channels, [0.5])
        with pytest.raises(ValueError):
            weighted_channel_matrix([], [])
        with pytest.raises(ValueError):
            weighted_channel_matrix(channels, [0.5, -0.1])


    def test_factor_is_n_by_k_and_read_only(self):
        channels = _random_channels(16, n=32, k=3)
        weighted = weighted_channel_matrix(channels, [0.25, 0.0, 1.0])
        assert weighted.factor.shape == (32, 3)
        np.testing.assert_array_equal(weighted.factor[:, 0], 0.5 * channels[0])
        np.testing.assert_array_equal(weighted.factor[:, 1], 0.0)
        np.testing.assert_array_equal(np.asarray(weighted), weighted.factor)
        with pytest.raises(ValueError):
            weighted.factor[0, 0] = 1.0

    def test_factored_form_rejects_a_bad_factor(self):
        with pytest.raises(ValueError):
            WeightedChannels(factor=np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            WeightedChannels(factor=np.ones((4, 0), dtype=complex))


@st.composite
def _weighted_problems(draw):
    """Channels with K in 1..4, N in 4..64, and weights that may be zero."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(4, 64))
    channels = _random_channels(draw(st.integers(0, 2**32 - 1)), n=n, k=k)
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=k, max_size=k
        )
    )
    p_max = draw(st.floats(0.1, 5.0))
    return channels, weights, p_max


class TestGramSolverAgainstFullEigh:
    @settings(max_examples=200, deadline=None)
    @given(_weighted_problems())
    def test_objective_is_the_budget_times_lambda_max(self, problem):
        channels, weights, p_max = problem
        weighted = weighted_channel_matrix(channels, weights)
        sol = solve_energy_covariance(weighted, p_max)
        lam = np.linalg.eigvalsh(weighted.dense())[-1]
        assert sol.objective == pytest.approx(p_max * lam, rel=1e-10, abs=0.0)
        assert sol.certificate == pytest.approx(lam, rel=1e-10, abs=0.0)
        if not any(weights):
            expected = np.zeros(channels[0].size, dtype=complex)
            expected[0] = 1.0
            np.testing.assert_array_equal(sol.direction, expected)

    @settings(max_examples=200, deadline=None)
    @given(_weighted_problems())
    def test_direction_matches_the_top_eigenvector(self, problem):
        channels, weights, p_max = problem
        weighted = weighted_channel_matrix(channels, weights)
        lams, vecs = np.linalg.eigh(weighted.dense())
        assume(lams[-1] - lams[-2] > 1e-6 * lams[-1] > 0)
        sol = solve_energy_covariance(weighted, p_max)
        assert abs(np.vdot(vecs[:, -1], sol.direction)) >= 1 - 1e-10


class TestSolveEnergyCovariance:
    def test_single_receiver_gets_a_matched_beam(self):
        (h,) = _random_channels(5, k=1)
        energy = np.vdot(h, h).real
        sol = solve_energy_covariance(weighted_channel_matrix([h], [1.0]), 2.0)
        assert sol.objective == pytest.approx(2.0 * energy, rel=1e-10)
        assert harvested_power(h, sol) == pytest.approx(2.0 * energy, rel=1e-10)

    def test_zero_matrix_falls_back_to_a_basis_beam(self):
        channels = _random_channels(15, n=8, k=2)
        sol = solve_energy_covariance(weighted_channel_matrix(channels, [0.0, 0.0]), 1.5)
        assert sol.objective == 0.0
        assert sol.certificate == 0.0
        assert sol.power == 1.5
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_array_equal(sol.direction, expected)

    def test_objective_matches_the_certificate(self):
        for seed in range(5):
            channels = _random_channels(seed, k=3)
            a = weighted_channel_matrix(channels, [0.2, 0.5, 0.3])
            sol = solve_energy_covariance(a, 1.0)
            assert sol.objective == pytest.approx(sol.certificate, rel=1e-10)
            assert sol.certificate == pytest.approx(
                np.linalg.eigvalsh(a.dense()).max(), rel=1e-12
            )

    def test_no_feasible_covariance_does_better(self):
        rng = np.random.default_rng(10)
        channels = _random_channels(6, k=2)
        a = weighted_channel_matrix(channels, [0.1, 0.9])
        p_max = 1.0
        sol = solve_energy_covariance(a, p_max)
        for _ in range(200):
            r = rng.integers(1, 6)
            b = rng.standard_normal((64, r)) + 1j * rng.standard_normal((64, r))
            cov = b @ b.conj().T
            cov *= p_max * rng.uniform(0.1, 1.0) / np.trace(cov).real
            value = np.einsum("ij,ji->", a.dense(), cov).real
            assert value <= sol.objective * (1 + 1e-10)

    def test_direction_is_unit_norm_and_phase_anchored(self):
        channels = _random_channels(7, k=2)
        sol = solve_energy_covariance(
            weighted_channel_matrix(channels, [0.4, 0.6]), 1.0
        )
        assert np.linalg.norm(sol.direction) == pytest.approx(1.0, rel=1e-12)
        k = int(np.argmax(np.abs(sol.direction)))
        assert sol.direction[k].real > 0
        assert abs(sol.direction[k].imag) < 1e-12 * abs(sol.direction[k])

    def test_covariance_property_uses_the_full_budget(self):
        channels = _random_channels(8, k=2)
        sol = solve_energy_covariance(
            weighted_channel_matrix(channels, [0.5, 0.5]), 3.0
        )
        cov = sol.covariance
        assert np.trace(cov).real == pytest.approx(3.0, rel=1e-12)
        assert np.abs(cov - cov.conj().T).max() <= 1e-13 * np.abs(cov).max()

    def test_rejects_bad_arguments(self):
        (h,) = _random_channels(9, k=1)
        a = weighted_channel_matrix([h], [1.0])
        with pytest.raises(ValueError):
            solve_energy_covariance(a, 0.0)
        with pytest.raises(TypeError):
            solve_energy_covariance(a.dense(), 1.0)
        with pytest.raises(ValueError):
            weighted_channel_matrix([h, h[:-1]], [0.5, 0.5])


class TestHarvestedPower:
    def test_orthogonal_channel_collects_nothing(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        sol = solve_energy_covariance(weighted_channel_matrix([e1], [1.0]), 1.0)
        h = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        assert harvested_power(h, sol) == 0.0

    def test_aligned_channel_collects_the_budget_times_energy(self):
        (h,) = _random_channels(11, k=1)
        sol = solve_energy_covariance(weighted_channel_matrix([h], [1.0]), 0.5)
        scaled = (2.0 - 1.0j) * h
        expected = 0.5 * abs(2.0 - 1.0j) ** 2 * np.vdot(h, h).real
        assert harvested_power(scaled, sol) == pytest.approx(expected, rel=1e-10)

    def test_matches_the_covariance_quadratic_form(self):
        for seed in range(5):
            channels = _random_channels(seed, k=2)
            sol = solve_energy_covariance(
                weighted_channel_matrix(channels, [0.3, 0.7]), 1.0
            )
            for h in channels:
                quad = (h.conj() @ sol.covariance @ h).real
                assert harvested_power(h, sol) == pytest.approx(quad, rel=1e-12)

    def test_physical_channels_focus_as_expected(self):
        geom = build_upa(16, 16, 28e9)
        er = ErState(
            position=np.array([1.0, 0.2, -0.1]),
            vr=VisibilityRegion(1, 256),
            reflection=1.0,
        )
        h = channel(geom, er)
        sol = solve_energy_covariance(weighted_channel_matrix([h], [1.0]), 1.0)
        assert harvested_power(h, sol) == pytest.approx(
            np.vdot(h, h).real, rel=1e-10
        )

    def test_rejects_shape_mismatch(self):
        (h,) = _random_channels(12, k=1)
        sol = solve_energy_covariance(weighted_channel_matrix([h], [1.0]), 1.0)
        with pytest.raises(ValueError):
            harvested_power(h[:-1], sol)


class TestAverageHarvestedPower:
    def _solution(self):
        (h,) = _random_channels(13, k=1)
        return h, solve_energy_covariance(weighted_channel_matrix([h], [1.0]), 1.0)

    def test_half_duty_halves_the_power(self):
        h, sol = self._solution()
        full = harvested_power(h, sol)
        assert average_harvested_power(h, sol, 50, 2, 200) == 0.5 * full

    def test_zero_slot_means_no_overhead(self):
        h, sol = self._solution()
        assert average_harvested_power(h, sol, 0, 2, 200) == harvested_power(h, sol)

    def test_default_block_duty_factor(self):
        h, sol = self._solution()
        avg = average_harvested_power(h, sol, 10, 2, 200)
        assert avg == pytest.approx(0.9 * harvested_power(h, sol), rel=1e-15)

    def test_block_exhaustion_raises(self):
        h, sol = self._solution()
        with pytest.raises(InfeasibleBlockError):
            average_harvested_power(h, sol, 100, 2, 200)
        with pytest.raises(InfeasibleBlockError):
            average_harvested_power(h, sol, 250, 1, 200)

    def test_rejects_bad_arguments(self):
        h, sol = self._solution()
        with pytest.raises(ValueError):
            average_harvested_power(h, sol, -1, 2, 200)
        with pytest.raises(ValueError):
            average_harvested_power(h, sol, 5, 0, 200)
        with pytest.raises(ValueError):
            average_harvested_power(h, sol, 5, 2, 0)


class TestIsotropicCovariance:
    def test_spreads_the_budget_evenly(self):
        cov = isotropic_covariance(2.0, 16)
        np.testing.assert_array_equal(cov, (2.0 / 16) * np.eye(16))
        assert np.trace(cov).real == pytest.approx(2.0, rel=1e-14)

    def test_single_element_gets_everything(self):
        np.testing.assert_array_equal(isotropic_covariance(0.5, 1), [[0.5]])

    def test_focusing_gain_over_isotropic_is_the_element_count(self):
        (h,) = _random_channels(14, k=1)
        sol = solve_energy_covariance(weighted_channel_matrix([h], [1.0]), 1.0)
        iso = isotropic_covariance(1.0, h.size)
        iso_power = (h.conj() @ iso @ h).real
        assert harvested_power(h, sol) / iso_power == pytest.approx(
            h.size, rel=1e-10
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            isotropic_covariance(0.0, 4)
        with pytest.raises(ValueError):
            isotropic_covariance(1.0, 0)
