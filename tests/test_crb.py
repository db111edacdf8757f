"""Tests for Fisher information, the position CRB, and slot-length planning."""

import math

import mpmath
import numpy as np
import pytest

from nfwpt import (
    build_upa,
    crb_position,
    fim,
    fim_finite_difference,
    lattice_crb,
    min_sensing_duration,
    sample_covariance,
)
from nfwpt.channel import ErState, VisibilityRegion, channel, channel_derivative
from nfwpt.crb import FisherInfo
from nfwpt.echo import uniform_probe
from nfwpt.errors import InfeasibleBlockError, SingularFimError
from nfwpt.harness import ArraySpec, ErSpec, ScenarioConfig, default_config, plan


def _scene(seed, n_y=4, n_z=4, reflection=None):
    rng = np.random.default_rng(seed)
    geom = build_upa(n_y, n_z, 28e9)
    n = geom.n_elements
    start = int(rng.integers(1, n // 2))
    end = start + int(rng.integers(n // 4 + 1, n // 2))
    if reflection is None:
        reflection = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
    er = ErState(
        position=rng.uniform([0.5, -1.0, -1.0], [3.0, 1.0, 1.0]),
        vr=VisibilityRegion(start, min(end, n)),
        reflection=reflection,
    )
    return geom, er, uniform_probe(geom, 1.0)


def _mpmath_crb(base, tau):
    with mpmath.workdps(60):
        inv = mpmath.inverse(mpmath.matrix(base.tolist()))
        return [float(inv[i, i]) / tau for i in range(3)]


class TestSampleCovariance:
    def test_uniform_probe_gives_constant_entries(self):
        geom = build_upa(16, 16, 28e9)
        s = sample_covariance(uniform_probe(geom, 1.0), 7)
        np.testing.assert_allclose(s, np.full((256, 256), 1.0 / 256), rtol=1e-14)

    def test_trace_equals_the_power_budget(self):
        geom = build_upa(8, 8, 28e9)
        for p in (0.1, 1.0, 3.16):
            s = sample_covariance(uniform_probe(geom, p), 3)
            assert np.trace(s).real == pytest.approx(p, rel=1e-13)

    def test_constant_probe_makes_it_slot_independent(self):
        geom = build_upa(4, 4, 28e9)
        probe = uniform_probe(geom, 2.0)
        np.testing.assert_array_equal(
            sample_covariance(probe, 1), sample_covariance(probe, 50)
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones(4, dtype=complex), 0)
        with pytest.raises(ValueError):
            sample_covariance(np.ones((2, 2), dtype=complex), 1)


class TestFim:
    def test_slot_scaling_is_bit_exact(self):
        geom, er, probe = _scene(0)
        f1 = fim(geom, er, probe, 1, 1e-15)
        f2 = fim(geom, er, probe, 2, 1e-15)
        np.testing.assert_array_equal(f2.matrix, 2.0 * f1.matrix)
        np.testing.assert_array_equal(f1.base_matrix, f2.base_matrix)

    def test_matrix_is_symmetric_and_psd(self):
        for seed in range(5):
            geom, er, probe = _scene(seed)
            full = fim(geom, er, probe, 3, 1e-15).matrix
            np.testing.assert_array_equal(full, full.T)
            scale = np.abs(full).max()
            assert np.linalg.eigvalsh(full).min() >= -1e-8 * scale

    def test_matches_the_finite_difference_route(self):
        for seed in range(5):
            geom, er, probe = _scene(seed)
            analytic = fim(geom, er, probe, 4, 1e-15).matrix
            numeric = fim_finite_difference(geom, er, probe, 4, 1e-15).matrix
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert err < 1e-4

    @pytest.mark.parametrize("receiver", [0, 1])
    def test_worst_lattice_crb_matches_the_finite_difference_route(self, receiver):
        cfg = default_config()
        spec = cfg.ers[receiver]
        geom = build_upa(16, 16, 28e9)
        probe = uniform_probe(geom, cfg.p_max)
        worst = {fim: 0.0, fim_finite_difference: 0.0}
        for off in np.ndindex(3, 3, 3):
            state = ErState(
                position=np.asarray(spec.prior_position)
                + (np.array(off) - 1) * np.asarray(spec.error_bounds),
                vr=VisibilityRegion(1, geom.n_elements),
                reflection=abs(spec.reflection),
            )
            for route in worst:
                report = crb_position(route(geom, state, probe, 1, cfg.noise_power))
                worst[route] = max(worst[route], report.crb_total)
        assert worst[fim] == pytest.approx(worst[fim_finite_difference], rel=1e-3)

    def test_rank_one_forms_match_the_dense_probe_covariance(self):
        for seed in range(5):
            geom, er, probe = _scene(seed)
            h = channel(geom, er)
            hd = [channel_derivative(geom, er.position, er.vr, ax) for ax in "xyz"]
            s_conj = sample_covariance(probe, 1).conj()
            b = er.reflection
            g_bb = np.vdot(h, h).real * (h.conj() @ s_conj @ h)
            g_zz = abs(b) ** 2 * (
                np.vdot(hd[2], hd[2]) * (h.conj() @ s_conj @ h)
                + 2 * (np.vdot(hd[2], h) * (h.conj() @ s_conj @ hd[2])).real
                + np.vdot(h, h) * (hd[2].conj() @ s_conj @ hd[2])
            )
            base = fim(geom, er, probe, 1, 2.0).base_matrix
            assert base[3, 3] == pytest.approx(g_bb.real, rel=1e-12)
            assert base[2, 2] == pytest.approx(g_zz.real, rel=1e-10)

    def test_reflection_magnitude_scales_the_blocks(self):
        geom, er, probe = _scene(3, reflection=0.7 - 0.4j)
        doubled = ErState(position=er.position, vr=er.vr, reflection=2 * er.reflection)
        f1 = fim(geom, er, probe, 1, 1e-15).base_matrix
        f2 = fim(geom, doubled, probe, 1, 1e-15).base_matrix
        np.testing.assert_allclose(f2[:3, :3], 4.0 * f1[:3, :3], rtol=1e-12)
        np.testing.assert_allclose(f2[3:, 3:], f1[3:, 3:], rtol=1e-12)
        np.testing.assert_allclose(f2[:3, 3:], 2.0 * f1[:3, 3:], rtol=1e-12)

    def test_noise_power_divides_the_matrix(self):
        geom, er, probe = _scene(4)
        f1 = fim(geom, er, probe, 1, 1e-15).base_matrix
        f2 = fim(geom, er, probe, 1, 1e-14).base_matrix
        np.testing.assert_allclose(f2, 0.1 * f1, rtol=1e-12)

    def test_rejects_bad_arguments(self):
        geom, er, probe = _scene(5)
        with pytest.raises(ValueError):
            fim(geom, er, probe, 0, 1e-15)
        with pytest.raises(ValueError):
            fim(geom, er, probe, 1, 0.0)
        with pytest.raises(ValueError):
            fim_finite_difference(geom, er, probe, 1, 1e-15, step=0.0)


class TestCrbPosition:
    def test_identity_information_gives_unit_axis_variances(self):
        info = FisherInfo(base_matrix=np.eye(5), tau=1, noise_power=1.0)
        report = crb_position(info)
        assert report.crb_total == pytest.approx(3.0, rel=1e-14)
        assert report.per_axis == pytest.approx((1.0, 1.0, 1.0), rel=1e-14)

    def test_crb_times_slot_length_is_constant(self):
        geom, er, probe = _scene(6, n_y=16, n_z=16)
        base = crb_position(fim(geom, er, probe, 1, 1e-15))
        for tau in (2, 5, 10, 100):
            report = crb_position(fim(geom, er, probe, tau, 1e-15))
            assert report.crb_total * tau == pytest.approx(
                base.crb_total, rel=1e-12
            )
            assert report.tau == tau

    def test_matches_a_high_precision_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            root = rng.standard_normal((5, 5)) + np.diag(rng.uniform(2, 4, 5))
            base = root @ root.T
            tau = int(rng.integers(1, 20))
            info = FisherInfo(base_matrix=base, tau=tau, noise_power=1e-15)
            report = crb_position(info)
            oracle = _mpmath_crb(base, tau)
            np.testing.assert_allclose(report.per_axis, oracle, rtol=1e-8)
            assert report.crb_total == pytest.approx(sum(oracle), rel=1e-8)

    def test_physical_scene_agrees_with_the_oracle(self):
        geom, er, probe = _scene(8, n_y=16, n_z=16)
        info = fim(geom, er, probe, 5, 1e-15)
        report = crb_position(info)
        oracle = _mpmath_crb(info.base_matrix, info.tau)
        np.testing.assert_allclose(report.per_axis, oracle, rtol=1e-5)
        assert all(v > 0 for v in report.per_axis)

    def test_rejects_nonpositive_diagonal(self):
        bad = np.eye(5)
        bad[2, 2] = 0.0
        with pytest.raises(SingularFimError):
            crb_position(FisherInfo(base_matrix=bad, tau=1, noise_power=1.0))

    def test_rejects_an_ill_conditioned_matrix(self):
        v = np.arange(1.0, 6.0)
        near_rank_one = np.outer(v, v) + 1e-13 * np.eye(5)
        with pytest.raises(SingularFimError):
            crb_position(
                FisherInfo(base_matrix=near_rank_one, tau=1, noise_power=1.0)
            )


def _lattice_worst(geom, priors, bounds, probe, tau, noise_power):
    """Independent worst-case CRB over the displacement lattice, recomputed at tau."""
    worst = 0.0
    for (position, vr, reflection), d in zip(priors, [bounds] * len(priors)):
        for off in np.ndindex(3, 3, 3):
            shift = (np.array(off) - 1) * np.asarray(d)
            state = ErState(
                position=np.asarray(position, dtype=float) + shift,
                vr=vr,
                reflection=reflection,
            )
            report = crb_position(fim(geom, state, probe, tau, noise_power))
            worst = max(worst, report.crb_total)
    return worst


class TestMinSensingDuration:
    def _setup(self, seed=0):
        geom, er, probe = _scene(seed, n_y=16, n_z=16)
        priors = [(er.position, er.vr, abs(er.reflection))]
        nominal = crb_position(fim(geom, er, probe, 1, 1e-15)).crb_total
        return geom, priors, probe, nominal

    def test_generous_target_clamps_to_one_symbol(self):
        geom, priors, probe, nominal = self._setup()
        crbs = lattice_crb(geom, priors, (0.1,) * 3, probe, 1e-15)
        assert min_sensing_duration(crbs, 50.0 * nominal, 200) == 1

    def test_matches_an_exhaustive_search(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            geom, priors, probe, _ = self._setup(seed)
            gamma = _lattice_worst(
                geom, priors, (0.15,) * 3, probe, 1, 1e-15
            ) / rng.uniform(2.0, 12.0)
            tau = min_sensing_duration(
                lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15), gamma, 10**9
            )
            scan = 1
            while _lattice_worst(geom, priors, (0.15,) * 3, probe, scan, 1e-15) > gamma:
                scan += 1
            assert tau == scan

    def test_plan_of_a_config_gives_the_same_slot(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            geom, priors, probe, _ = self._setup(seed)
            (position, vr, refl), = priors
            cfg = ScenarioConfig(
                array=ArraySpec(n_y=16, n_z=16),
                ers=(
                    ErSpec(
                        prior_position=tuple(position),
                        error_bounds=(0.15,) * 3,
                        reflection=refl,
                        vr=(vr.start, vr.end),
                    ),
                ),
                noise_power=1e-15,
            )
            planned = plan(cfg)
            assert planned.regions == (vr,)
            for block_len in (10**9, 6):
                gamma = planned.worst / rng.uniform(2.0, 12.0)
                try:
                    expected = min_sensing_duration(
                        lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15), gamma, block_len
                    )
                except InfeasibleBlockError:
                    with pytest.raises(InfeasibleBlockError):
                        planned.tau(gamma, block_len)
                    continue
                assert planned.tau(gamma, block_len) == expected

    def test_doubling_the_target_never_increases_the_slot(self):
        geom, priors, probe, nominal = self._setup(1)
        crbs = lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15)
        taus = [
            min_sensing_duration(crbs, nominal / k, 10**6) for k in (64, 32, 16, 8, 4, 2, 1)
        ]
        assert taus == sorted(taus, reverse=True)

    def test_nominal_only_mode_never_needs_more_symbols(self):
        geom, priors, probe, nominal = self._setup(2)
        gamma = nominal / 7.3
        crbs = lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15)
        robust = min_sensing_duration(crbs, gamma, 10**6, robust=True)
        relaxed = min_sensing_duration(crbs, gamma, 10**6, robust=False)
        assert relaxed <= robust
        assert relaxed == 8

    def test_per_receiver_bounds_match_a_shared_bound(self):
        geom, priors, probe, nominal = self._setup(3)
        two = priors * 2
        gamma = nominal / 3.0
        shared = lattice_crb(geom, two, (0.15,) * 3, probe, 1e-15)
        stacked = lattice_crb(geom, two, [(0.15,) * 3, (0.15,) * 3], probe, 1e-15)
        assert shared == stacked

    def test_block_exhaustion_is_infeasible(self):
        geom, priors, probe, nominal = self._setup(4)
        crbs = lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15)
        with pytest.raises(InfeasibleBlockError):
            min_sensing_duration(crbs, nominal / 10**6, 200)

    def test_rejects_bad_arguments(self):
        geom, priors, probe, _ = self._setup(5)
        crbs = lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15)
        with pytest.raises(ValueError):
            min_sensing_duration(crbs, 0.0, 200)
        with pytest.raises(ValueError):
            min_sensing_duration(crbs, 1.0, 0)
        with pytest.raises(ValueError):
            min_sensing_duration((), 1.0, 200)
        with pytest.raises(ValueError):
            lattice_crb(geom, [], (0.15,) * 3, probe, 1e-15)
        with pytest.raises(ValueError):
            lattice_crb(geom, priors, (0.15, 0.15), probe, 1e-15)
        with pytest.raises(ValueError):
            lattice_crb(geom, priors, (-0.1,) * 3, probe, 1e-15)
