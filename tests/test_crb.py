"""Tests for Fisher information, the position CRB, and slot-length planning."""

import math
import operator
import tracemalloc
import warnings

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
from nfwpt.channel import ErState, VisibilityRegion, channel, free_space
from nfwpt.cli import main
from nfwpt.crb import FisherInfo, LatticeCrb
from nfwpt.echo import uniform_probe
from nfwpt.errors import DegenerateChannelError, InfeasibleBlockError, SingularFimError
from nfwpt.harness import ArraySpec, ErSpec, ScenarioConfig, plan
from oracles import (
    channel_derivative,
    crb_per_point,
    fim_per_point,
    lattice_crb_per_point,
    lattice_points,
    lattice_response,
    nominal_sensing_duration,
    point_block,
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
        cfg = ScenarioConfig()
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
            (planned,) = plan(cfg)
            assert planned.region == vr
            for block_len in (10**9, 6):
                gamma = planned.worst / rng.uniform(2.0, 12.0)
                try:
                    expected = min_sensing_duration(
                        lattice_crb(geom, priors, (0.15,) * 3, probe, 1e-15), gamma, block_len
                    )
                except InfeasibleBlockError:
                    with pytest.raises(InfeasibleBlockError):
                        min_sensing_duration((planned,), gamma, block_len)
                    continue
                assert min_sensing_duration((planned,), gamma, block_len) == expected

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

    def test_a_need_past_the_block_is_refused_before_ceil(self):
        # The decision matches ceil's for every need, and a need too large
        # for ceil is refused with a short count instead of an OverflowError.
        for need in (0.5, 1.0, 99.5, 99.9, 100.0, 100.5, 199.5, 200.0, 1e3):
            crbs = (LatticeCrb(nominal=need, worst=need, region=VisibilityRegion(1, 8)),) * 2
            tau = max(1, math.ceil(need))
            if 2 * tau < 200:
                assert min_sensing_duration(crbs, 1.0, 200) == tau
            else:
                with pytest.raises(InfeasibleBlockError, match=f"needs 2 x {tau} symbols"):
                    min_sensing_duration(crbs, 1.0, 200)
        crbs = (LatticeCrb(nominal=1e5, worst=1e5, region=VisibilityRegion(1, 8)),)
        for gamma, count in ((1e-300, "1e+305"), (1e-320, "inf")):
            with pytest.raises(InfeasibleBlockError) as refused:
                min_sensing_duration(crbs, gamma, 200)
            assert str(refused.value) == (
                f"sensing needs 1 x {count} symbols but the block has 200"
            )

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
    """Every lattice FIM, its root and every LatticeCrb equal the per-point
    route bit for bit."""
    for (position, vr, reflection), bounds in zip(priors, bounds_per_prior):
        state = ErState(np.asarray(position, dtype=float), vr, reflection)
        stack = fim(geom, state, probe, 1, noise_power, offsets=[(-d, 0.0, d) for d in bounds])
        assert stack.base_matrix.shape == (27, 5, 5)
        for k, point in enumerate(lattice_points(position, bounds)):
            oracle = fim_per_point(geom, ErState(point, vr, reflection), probe, 1, noise_power)
            np.testing.assert_array_equal(stack.base_matrix[k], oracle.base_matrix)
            for batched, alone in zip(stack.root, oracle.root):
                assert batched[k].tobytes() == alone.tobytes()
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
        cfg = ScenarioConfig()
        geom = build_upa(size, size, 28e9)
        priors = _builtin_priors(geom, cfg)
        bounds = [spec.error_bounds for spec in cfg.ers]
        probe = uniform_probe(geom, cfg.p_max)
        _assert_lattice_matches_the_oracle(geom, priors, bounds, probe, cfg.noise_power)

    @pytest.mark.parametrize("size", [16, 32, 48])
    def test_pinned_partial_visibility_region(self, size):
        # fim skips the cover product on a full aperture (the built-in
        # priors above) and takes it here; both keep the oracle's bits.
        cfg = ScenarioConfig()
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


def _lapack_build():
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"numpy {np.__version__}, LAPACK {lapack['name']} {lapack['version']}"


@pytest.mark.parametrize("side", [2, 3, 8, 16, 32, 48])
def test_a_points_root_keeps_its_bits_alone_in_a_slice_and_in_the_stack(side):
    # crb.fim factors the (4, M) blocks of one z-row of the lattice per
    # np.linalg.qr call and takes the 5 x 5 steps in batched calls over the
    # lattice, relying on LAPACK and numpy to treat each stack item on its
    # own. A build that blocked or reordered work across items would fail
    # here first: the 27 blocks factored in one call, in slices of 9 and 3
    # and alone give the same bits, and so does fim's root of each point
    # alone and in the lattice. M = side^2 runs from 4 to 2304.
    cfg = ScenarioConfig()
    spec = cfg.ers[1]
    geom = build_upa(side, side, 28e9)
    probe = uniform_probe(geom, cfg.p_max)
    vr = VisibilityRegion(1, side * side)
    points = lattice_points(spec.prior_position, spec.error_bounds)
    where = f"{_lapack_build()}, {side * side} elements"
    blocks = np.array([point_block(geom, ErState(p, vr, 50.0)) for p in points])
    blocks = blocks.transpose(0, 2, 1)
    whole = np.linalg.qr(blocks, mode="r")
    for size in (9, 3, 1):
        for start in range(0, len(points), size):
            part = np.linalg.qr(blocks[start : start + size], mode="r")
            rows = whole[start : start + size]
            assert part.tobytes() == rows.tobytes(), f"{size} per call on {where}"
    state = ErState(np.asarray(spec.prior_position), vr, 50.0)
    axes = [(-d, 0.0, d) for d in spec.error_bounds]
    stack = fim(geom, state, probe, 1, cfg.noise_power, offsets=axes).root
    for k, point in enumerate(points):
        alone = fim(geom, ErState(point, vr, 50.0), probe, 1, cfg.noise_power).root
        for part, rows in zip(alone, stack):
            assert part.tobytes() == rows[k].tobytes(), f"point {k} alone on {where}"


def _exact(v):
    """A complex vector as Python ints re, im and one exponent e with
    v == (re + j im) 2^e entry by entry."""
    mant, exp = np.frexp(np.concatenate([v.real, v.imag]))
    exp = (exp - 53).tolist()
    low = min(exp)
    ints = [m << (e - low) for m, e in zip((mant * 2.0**53).astype(np.int64).tolist(), exp)]
    return ints[: v.size], ints[v.size :], low


def _exact_dot(u, v):
    """sum_k u_k v_k of two _exact vectors, summed exactly and rounded once to an mpc."""
    (ur, ui, eu), (vr, vi, ev) = u, v

    def dot(a, b):
        return sum(map(operator.mul, a, b))

    re, im = dot(ur, vr) - dot(ui, vi), dot(ur, vi) + dot(ui, vr)
    return mpmath.mpc(mpmath.ldexp(re, eu + ev), mpmath.ldexp(im, eu + ev))


def _crb_60_digits(block, probe, b, noise_power):
    """Position CRB of one (4, M) block [h, hd] under the probe: the Gram
    matrix of the block and the projections x^T u exactly, then
    F = (2 / sigma^2) Re(C^H G C) and its inverse in 60-digit arithmetic."""
    rows = [_exact(row) for row in block]
    conj = [(re, [-v for v in im], e) for re, im, e in rows]
    x = _exact(probe)
    with mpmath.workdps(60):
        gram = mpmath.matrix([[_exact_dot(conj[i], rows[j]) for j in range(4)] for i in range(4)])
        xh, *xd = (_exact_dot(x, row) for row in rows)
        c = mpmath.matrix(4, 5)
        for u in range(3):
            c[0, u], c[u + 1, u] = b * xd[u], b * xh
        c[0, 3], c[0, 4] = xh, 1j * xh
        cov = mpmath.inverse((c.H * gram * c).apply(mpmath.re) * 2 / noise_power)
        return sum(cov[i, i] for i in range(3))


@pytest.mark.parametrize("size", [16, 32, 48])
def test_lattice_crbs_agree_with_a_60_digit_reference(size):
    """Each lattice point's CRB against _crb_60_digits of the same block.

    oracles.point_block gives the block whose bits crb.fim's share (the
    oracle tests above). Against the reference, crb.fim rounds the block's
    QR factor, the products with C and the second QR, each columnwise
    backward stable, so together a columnwise change of some delta, a few
    u, of K. To first order that moves a CRB by at most 2 sqrt(5) delta
    cond(U) relative (the derivation in tests/test_harness.py,
    test_a_budget_agrees_with_its_own_probe_within_the_conditioning), a
    worst case of tens of cond(U) u. The bound asserted here, cond(U) u per
    point, is not that derived bound but an empirical margin of about 16
    times the measured worst: 3.2e-12 at 16x16 (0.06 cond(U) u), 3.7e-13
    at 32x32 and 8.8e-14 at 48x48. Inverting the formed matrix
    F = (2 / sigma^2) K^T K instead erred by up to 1.8e-5, 7.6e-7 and
    1.8e-7. Here cond(U) stays below 5e5, so every bound is below 1e-10.
    """
    cfg = ScenarioConfig()
    geom = build_upa(size, size, 28e9)
    probe = uniform_probe(geom, cfg.p_max)
    vr = VisibilityRegion(1, geom.n_elements)
    u = np.finfo(float).eps / 2
    for spec in cfg.ers:
        b = abs(spec.reflection)
        state = ErState(np.asarray(spec.prior_position), vr, b)
        offsets = [(-d, 0.0, d) for d in spec.error_bounds]
        info = fim(geom, state, probe, 1, cfg.noise_power, offsets=offsets)
        per_axis = crb._axis_crbs(*info.root, 1)
        crbs = ((per_axis[:, 0] + per_axis[:, 1]) + per_axis[:, 2]).tolist()
        bounds = u * np.linalg.cond(info.root[0])
        assert bounds.max() < 1e-10
        points = lattice_points(spec.prior_position, spec.error_bounds)
        for point, value, bound in zip(points, crbs, bounds):
            block = point_block(geom, ErState(point, vr, b))
            reference = _crb_60_digits(block, probe, b, cfg.noise_power)
            assert abs(value - reference) <= bound * reference, (point, value, reference)
        prior = [(spec.prior_position, vr, b)]
        (lattice,) = lattice_crb(geom, prior, spec.error_bounds, probe, cfg.noise_power)
        assert (lattice.nominal, lattice.worst) == (crbs[13], max(crbs))


class TestFimFootprint:
    def test_peak_stays_near_one_grid_response(self):
        # The lattice FIM holds no array over every point x row x element:
        # its traced peak is that of the lattice's distances and responses
        # (point_distances and free_space over its 27 points) plus one
        # z-row's (3, 4, N) blocks and np.linalg.qr's copy of them.
        cfg = ScenarioConfig()
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

        response = peak(lambda: lattice_response(geom, grid))
        lattice = peak(lambda: fim(geom, state, probe, 1, cfg.noise_power, offsets=offsets))
        assert lattice <= 1.25 * response


class TestLatticeErrors:
    def test_ill_conditioned_8x8_names_the_first_failing_point(self, tmp_path, capsys):
        # Several points of the second receiver's lattice exceed the limit;
        # the first in product order reads 2.754e+12, while the largest would
        # read 3.829e+12.
        config = tmp_path / "cfg.json"
        config.write_text('{"array": {"n_y": 8, "n_z": 8}, "n_alpha": 16}')
        assert main(["crb", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "nfwpt: error: er2: equilibrated Fisher information condition number "
            "2.754e+12 exceeds 1e+12\n"
        )

    def test_a_nonpositive_diagonal_before_an_ill_conditioned_point_raises_first(self):
        good = np.eye(5)
        ill = np.outer(np.arange(1.0, 6.0), np.arange(1.0, 6.0)) + 1e-13 * np.eye(5)
        flat = np.eye(5)
        flat[1, 1] = 0.0

        def axis_crbs(*mats):
            units, scales = zip(*(crb._root(FisherInfo(mat, 1)) for mat in mats))
            return crb._axis_crbs(np.stack(units), np.stack(scales), 1)

        with pytest.raises(SingularFimError, match="nonpositive diagonal"):
            axis_crbs(good, flat, ill)
        with pytest.raises(SingularFimError, match="condition number"):
            axis_crbs(good, ill, flat)

    def test_overflowing_planning_inputs_raise_without_warnings(self):
        geom = build_upa(8, 8, 28e9)
        probe = uniform_probe(geom, 1.0)
        vr = VisibilityRegion(1, 64)
        good = ((1.0, 0.2, 0.3), vr, 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # |b|^2 = 1e308 is finite, but the information overflows.
            with pytest.raises(SingularFimError, match="not finite"):
                fim(geom, ErState(good[0], vr, 1e154), probe, 1, 1e-15)
            with pytest.raises(SingularFimError, match="^er2: Fisher information is not finite"):
                lattice_crb(geom, [good, ((1.2, -0.3, 0.4), vr, 1e154)], (0.1,) * 3, probe, 1e-15)
            # A tiny reflection leaves a finite information whose CRB overflows.
            with pytest.raises(SingularFimError, match="^er2: .* inf is not finite"):
                lattice_crb(geom, [good, ((1.2, -0.3, 0.4), vr, 1e-155)], (0.1,) * 3, probe, 1e-15)

    def test_underflowing_planning_inputs_raise_without_warnings(self):
        geom = build_upa(8, 8, 28e9)
        vr = VisibilityRegion(1, 64)
        tiny = uniform_probe(geom, 1e-160)
        priors = [((1.0, 0.2, 0.3), vr, 50.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Every entry of the information is subnormal.
            with pytest.raises(SingularFimError, match="^Fisher information underflows"):
                fim(geom, ErState(*priors[0]), tiny, 1, 1e154)
            with pytest.raises(SingularFimError, match="^er1: Fisher information underflows"):
                lattice_crb(geom, priors, (0.1,) * 3, tiny, 1e154)
            # At this carrier every |h_n|^2 is subnormal, though the entries
            # that the derivatives scale up are not.
            fine = build_upa(8, 8, 3e167)
            with pytest.raises(SingularFimError, match="^Fisher information underflows"):
                fim(fine, ErState(*priors[0]), uniform_probe(fine, 1.0), 1, 1e-15)

    def test_every_lattice_error_names_the_receiver(self, monkeypatch):
        geom, er, probe = _scene(15, n_y=6, n_z=6)
        flat = np.tile(np.eye(5), (27, 1, 1))
        flat[:, 1, 1] = 0.0
        # fim() always returns a root: the identity unit, scaled by sqrt(diag).
        root = (np.tile(np.eye(5), (27, 1, 1)), np.sqrt(np.diagonal(flat, axis1=1, axis2=2)))
        monkeypatch.setattr(crb, "fim", lambda *args, **kwargs: FisherInfo(flat, 1, root))
        priors = [(er.position, er.vr, 1.0)] * 2
        with pytest.raises(
            SingularFimError, match="^er1: Fisher information has a nonpositive diagonal entry$"
        ):
            lattice_crb(geom, priors, (0.1,) * 3, probe, 1e-15)

    def test_a_zero_channel_raises_at_every_lattice_size(self, monkeypatch):
        geom, er, probe = _scene(13, n_y=6, n_z=6)
        # Every entry of a region is nonzero at a finite distance, so zero the
        # responses the planning FIM reads.
        def silent(geom, dists):
            return np.zeros_like(free_space(geom, dists))

        monkeypatch.setattr(crb, "free_space", silent)
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
