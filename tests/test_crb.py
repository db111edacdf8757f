"""Tests for Fisher information, the position CRB, and slot-length planning."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfwpt import (
    build_upa,
    crb,
    crb_position,
    fim,
    fim_finite_difference,
    lattice_crb,
    min_sensing_duration,
)
from nfwpt.channel import ErState, VisibilityRegion, array_response, channel
from nfwpt.cli import main
from nfwpt.crb import FisherInfo
from nfwpt.echo import uniform_probe
from nfwpt.errors import DegenerateChannelError, InfeasibleBlockError, SingularFimError
from nfwpt.harness import ArraySpec, ErSpec, ScenarioConfig, default_config, plan
from oracles import (
    channel_derivative,
    crb_per_point,
    fim_per_point,
    lattice_crb_per_point,
    lattice_points,
    nominal_sensing_duration,
    sample_covariance,
)


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
        info = FisherInfo(base_matrix=np.eye(5), tau=1)
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
            info = FisherInfo(base_matrix=base, tau=tau)
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
            crb_position(FisherInfo(base_matrix=bad, tau=1))

    def test_rejects_an_ill_conditioned_matrix(self):
        v = np.arange(1.0, 6.0)
        near_rank_one = np.outer(v, v) + 1e-13 * np.eye(5)
        with pytest.raises(SingularFimError):
            crb_position(
                FisherInfo(base_matrix=near_rank_one, tau=1)
            )

    def test_rejects_a_lattice_and_points_to_lattice_crb(self):
        geom, er, probe = _scene(9, n_y=8, n_z=8)
        info = fim(geom, er, probe, 1, 1e-15, offsets=[(-0.1, 0.0, 0.1)] * 3)
        with pytest.raises(ValueError, match=r"\(27, 5, 5\).*lattice_crb"):
            crb_position(info)


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
        robust = min_sensing_duration(crbs, gamma, 10**6)
        relaxed = nominal_sensing_duration(crbs, gamma)
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


def _assert_lattice_matches_the_oracle(geom, priors, bounds_per_prior, probe, noise_power):
    """Every lattice FIM and every LatticeCrb equals the per-point route bit for bit."""
    for (position, vr, reflection), bounds in zip(priors, bounds_per_prior):
        state = ErState(np.asarray(position, dtype=float), vr, reflection)
        stack = fim(
            geom, state, probe, 1, noise_power, offsets=[(-d, 0.0, d) for d in bounds]
        ).base_matrix
        assert stack.shape == (27, 5, 5)
        for k, point in enumerate(lattice_points(position, bounds)):
            oracle = fim_per_point(geom, ErState(point, vr, reflection), probe, 1, noise_power)
            np.testing.assert_array_equal(stack[k], oracle.base_matrix)
    batched = lattice_crb(geom, priors, bounds_per_prior, probe, noise_power)
    assert batched == lattice_crb_per_point(geom, priors, bounds_per_prior, probe, noise_power)
    return batched


def _builtin_priors(geom, cfg):
    return [
        (spec.prior_position, VisibilityRegion(1, geom.n_elements), abs(spec.reflection))
        for spec in cfg.ers
    ]


class TestBatchedFimMatchesThePerPointOracle:
    """crb.fim over a lattice keeps every bit of the one-point-at-a-time route.

    The FIM is ill-conditioned, so a last-bit change in one entry moves the
    worst CRB, every planned slot that sits near an integer, and the default
    gamma grid derived from it; the comparisons are therefore exact.
    """

    @pytest.mark.parametrize("size", [16, 32, 48])
    def test_builtin_priors(self, size):
        cfg = default_config()
        geom = build_upa(size, size, 28e9)
        priors = _builtin_priors(geom, cfg)
        bounds = [spec.error_bounds for spec in cfg.ers]
        probe = uniform_probe(geom, cfg.p_max)
        _assert_lattice_matches_the_oracle(geom, priors, bounds, probe, cfg.noise_power)

    @pytest.mark.parametrize("size", [16, 32, 48])
    def test_pinned_partial_visibility_region(self, size):
        # fim skips the cover product on a full aperture (the built-in
        # priors above) and takes it here; both keep the oracle's bits.
        cfg = default_config()
        geom = build_upa(size, size, 28e9)
        n = geom.n_elements
        vr = VisibilityRegion(40 * n // 256, 200 * n // 256)
        priors = [(spec.prior_position, vr, 50.0) for spec in cfg.ers]
        _assert_lattice_matches_the_oracle(
            geom, priors, [(0.15, 0.15, 0.15)] * 2, uniform_probe(geom, cfg.p_max), cfg.noise_power
        )

    def test_zero_width_axis_keeps_the_centre_as_nominal(self):
        geom, er, probe = _scene(11, n_y=16, n_z=16)
        priors = [(er.position, er.vr, abs(er.reflection))]
        bounds = (0.15, 0.0, 0.1)
        (crbs,) = _assert_lattice_matches_the_oracle(geom, priors, [bounds], probe, 1e-15)
        nominal = ErState(er.position, er.vr, abs(er.reflection))
        centre = crb_per_point(fim_per_point(geom, nominal, probe, 1, 1e-15)).crb_total
        assert crbs.nominal == centre
        (flat,) = lattice_crb(geom, priors, (0.0, 0.0, 0.0), probe, 1e-15)
        assert flat.nominal == flat.worst == centre

    def test_per_receiver_bounds(self):
        geom, er, probe = _scene(12, n_y=12, n_z=12)
        other = ErState(er.position + np.array([0.3, -0.2, 0.1]), er.vr, er.reflection)
        priors = [(s.position, s.vr, abs(s.reflection)) for s in (er, other)]
        _assert_lattice_matches_the_oracle(
            geom, priors, [(0.1, 0.05, 0.2), (0.02, 0.3, 0.0)], probe, 1e-15
        )

    def test_a_single_point_is_the_one_point_lattice(self):
        for seed in range(5):
            geom, er, probe = _scene(seed, n_y=8, n_z=6)
            single = fim(geom, er, probe, 3, 1e-15)
            assert single.base_matrix.shape == (5, 5)
            np.testing.assert_array_equal(
                single.base_matrix, fim_per_point(geom, er, probe, 3, 1e-15).base_matrix
            )
            assert crb_position(single) == crb_per_point(single)

    @settings(max_examples=40, deadline=None)
    @given(
        n_y=st.integers(4, 12),
        n_z=st.integers(4, 12),
        seed=st.integers(0, 2**32 - 1),
        bounds=st.tuples(*[st.sampled_from([0.0, 0.01, 0.1, 0.25])] * 3),
    )
    def test_random_small_lattices(self, n_y, n_z, seed, bounds):
        geom, er, probe = _scene(seed, n_y=n_y, n_z=n_z)
        priors = [(er.position, er.vr, abs(er.reflection))]
        try:
            lattice_crb_per_point(geom, priors, [bounds], probe, 1e-15)
        except SingularFimError as exc:
            with pytest.raises(SingularFimError) as raised:
                lattice_crb(geom, priors, bounds, probe, 1e-15)
            assert str(raised.value) == str(exc)
            return
        _assert_lattice_matches_the_oracle(geom, priors, [bounds], probe, 1e-15)


class TestFimFootprint:
    def test_peak_stays_near_one_grid_response(self):
        # The lattice FIM holds no array over every point x axis x element:
        # its traced peak is that of the grid's array_response plus one
        # point's (3, N) rows.
        cfg = default_config()
        geom = build_upa(32, 32, 28e9)
        probe = uniform_probe(geom, cfg.p_max)
        spec = cfg.ers[1]
        state = ErState(spec.prior_position, VisibilityRegion(1, geom.n_elements), 1.0)
        offsets = [(-d, 0.0, d) for d in spec.error_bounds]
        grid = [state.position[ax] + np.asarray(d) for ax, d in enumerate(offsets)]

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        response = peak(lambda: array_response(geom, grid))
        lattice = peak(lambda: fim(geom, state, probe, 1, cfg.noise_power, offsets=offsets))
        assert lattice <= 1.25 * response


class TestLatticeErrors:
    def test_ill_conditioned_8x8_names_the_first_failing_point(self, tmp_path, capsys):
        # Several lattice points exceed the limit; the first in product order
        # reads 2.754e+12, while the largest would read 3.829e+12.
        config = tmp_path / "cfg.json"
        config.write_text('{"array": {"n_y": 8, "n_z": 8}, "n_alpha": 16}')
        assert main(["crb", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "nfwpt: error: equilibrated Fisher information condition number "
            "2.754e+12 exceeds 1e+12\n"
        )

    def test_a_nonpositive_diagonal_before_an_ill_conditioned_point_raises_first(self):
        good = np.eye(5)
        ill = np.outer(np.arange(1.0, 6.0), np.arange(1.0, 6.0)) + 1e-13 * np.eye(5)
        flat = np.eye(5)
        flat[1, 1] = 0.0
        with pytest.raises(SingularFimError, match="nonpositive diagonal"):
            crb._axis_crbs(np.stack([good, flat, ill]), 1)
        with pytest.raises(SingularFimError, match="condition number"):
            crb._axis_crbs(np.stack([good, ill, flat]), 1)

    def test_a_zero_channel_raises_at_every_lattice_size(self, monkeypatch):
        geom, er, probe = _scene(13, n_y=6, n_z=6)
        monkeypatch.setattr(crb, "vr_cover", lambda vr, n: np.zeros(n))
        for offsets in (None, [(-0.1, 0.0, 0.1)] * 3):
            with pytest.raises(DegenerateChannelError, match="identically zero"):
                fim(geom, er, probe, 1, 1e-15, offsets=offsets)

    def test_rejects_malformed_offsets(self):
        geom, er, probe = _scene(14)
        with pytest.raises(ValueError):
            fim(geom, er, probe, 1, 1e-15, offsets=[(0.0, 0.1)] * 2)
        with pytest.raises(ValueError):
            fim(geom, er, probe, 1, 1e-15, offsets=[(0.0,), (np.inf,), (0.0,)])
        with pytest.raises(ValueError):
            fim(geom, er, np.ones(3, dtype=complex), 1, 1e-15)
