"""Tests for the scenario harness: schemes, sweeps, config files, CSV output,
and the repository around it: the README's library example and the benchmark's
self-test."""

import contextlib
import functools
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfwpt import crb, harness

from nfwpt import build_upa, lattice_crb, min_sensing_duration, solve_energy_covariance
from nfwpt.beamform import harvested_power, weighted_channel_matrix
from nfwpt.channel import ErState, VisibilityRegion, channel
from nfwpt.echo import uniform_probe
from nfwpt.crb import LatticeCrb, crb_position, fim
from nfwpt.errors import DegenerateChannelError, InfeasibleBlockError
from nfwpt.harness import (
    SCHEMES,
    ArraySpec,
    ErSpec,
    ScenarioConfig,
    config_from_dict,
    csv_header,
    load_config,
    plan,
    rows_to_csv,
    run_trial,
    run_trials,
    simulate,
    summarize,
    sweep_beta,
    sweep_gamma,
    sweep_pmax,
    write_csv,
)
from nfwpt.cli import main

_PRIORS = ((1.0, 0.2, 0.3), (1.2, -0.3, 0.4))
_VRS = ((5, 40), (20, 50))


@functools.lru_cache(maxsize=None)
def _small_planning_worst() -> float:
    """Worst lattice CRB per symbol for the small pinned scenario."""
    geom = build_upa(8, 8, 28e9)
    probe = uniform_probe(geom, 1.0)
    worst = 0.0
    for prior, vr in zip(_PRIORS, _VRS):
        for off in np.ndindex(3, 3, 3):
            shift = (np.array(off) - 1) * 0.1
            state = ErState(
                position=np.array(prior) + shift,
                vr=VisibilityRegion(*vr),
                reflection=50.0,
            )
            report = crb_position(fim(geom, state, probe, 1, 1e-15))
            worst = max(worst, report.crb_total)
    return worst


def _small_cfg(**overrides) -> ScenarioConfig:
    settings = dict(
        array=ArraySpec(n_y=8, n_z=8),
        ers=(
            ErSpec(prior_position=_PRIORS[0], error_bounds=(0.1,) * 3, weight=0.4, vr=_VRS[0]),
            ErSpec(prior_position=_PRIORS[1], error_bounds=(0.1,) * 3, weight=0.6, vr=_VRS[1]),
        ),
        n_alpha=16,
        gamma=_small_planning_worst() / 3.0,
        trials=3,
    )
    settings.update(overrides)
    return ScenarioConfig(**settings)


def _pinned_cfg(**overrides) -> ScenarioConfig:
    """Zero prior uncertainty and pinned coefficients: the scene is fixed."""
    ers = (
        ErSpec(
            prior_position=_PRIORS[0],
            error_bounds=(0.0,) * 3,
            weight=0.4,
            reflection=30.0 + 40.0j,
            vr=_VRS[0],
        ),
        ErSpec(
            prior_position=_PRIORS[1],
            error_bounds=(0.0,) * 3,
            weight=0.6,
            reflection=-20.0 + 45.0j,
            vr=_VRS[1],
        ),
    )
    return _small_cfg(ers=ers, **overrides)


def _pinned_channels():
    geom = build_upa(8, 8, 28e9)
    cfg = _pinned_cfg()
    states = [
        ErState(
            position=np.array(spec.prior_position),
            vr=VisibilityRegion(*spec.vr),
            reflection=spec.reflection,
        )
        for spec in cfg.ers
    ]
    return cfg, [channel(geom, er) for er in states]


def _alone(cfg):
    """Each trial of the config run on its own, outside run_trials, so that
    it shares no sensing with any other cell."""
    return [run_trial(cfg, i) for i in range(cfg.trials)]


class TestRunTrial:
    def test_identical_seeds_reproduce_the_trial_bitwise(self):
        cfg = _small_cfg()
        assert run_trial(cfg, 1) == run_trial(cfg, 1)

    def test_trial_results_do_not_depend_on_batch_position(self):
        cfg = _small_cfg(trials=3)
        (batch,) = run_trials([cfg])
        assert batch[2] == run_trial(cfg, 2)
        assert len(batch) == 3

    def test_a_config_builds_its_array_once(self, monkeypatch):
        calls = []
        inner = harness.build_upa
        monkeypatch.setattr(harness, "build_upa", lambda *a: calls.append(a) or inner(*a))
        cfg = _small_cfg(trials=3)
        run_trials([replace(cfg, scheme=scheme) for scheme in SCHEMES])
        assert calls == [(8, 8, cfg.array.carrier_freq, cfg.array.spacing)]

    def test_different_indices_draw_different_scenes(self):
        cfg = _small_cfg()
        assert run_trial(cfg, 0).powers != run_trial(cfg, 1).powers

    def test_isotropic_matches_its_closed_form(self):
        cfg, channels = _pinned_channels()
        result = run_trial(_pinned_cfg(scheme="isotropic"), 0)
        for power, h in zip(result.powers, channels):
            assert power == (cfg.p_max / 64) * np.vdot(h, h).real
        assert result.tau_used == 0
        assert not result.vr_hit
        assert all(np.isnan(e) for e in result.pos_errors)

    def test_perfect_csi_matches_its_closed_form(self):
        cfg, channels = _pinned_channels()
        result = run_trial(_pinned_cfg(scheme="perfect_csi"), 0)
        solution = solve_energy_covariance(
            weighted_channel_matrix(channels, [0.4, 0.6]), cfg.p_max
        )
        for power, h in zip(result.powers, channels):
            assert power == harvested_power(h, solution)
        assert result.tau_used == 0
        assert result.vr_hit
        assert result.pos_errors == (0.0, 0.0)

    def test_equal_time_spends_half_the_block_sensing(self):
        result = run_trial(_small_cfg(scheme="equal_time"), 0)
        assert result.tau_used == 200 // 4

    def test_proposed_slot_comes_from_the_planner(self):
        cfg = _small_cfg()
        geom = build_upa(8, 8, 28e9)
        probe = uniform_probe(geom, cfg.p_max)
        priors = [
            (spec.prior_position, VisibilityRegion(*spec.vr), abs(spec.reflection))
            for spec in cfg.ers
        ]
        bounds = np.asarray([spec.error_bounds for spec in cfg.ers])
        crbs = lattice_crb(geom, priors, bounds, probe, cfg.noise_power)
        expected = min_sensing_duration(crbs, cfg.gamma, cfg.block_len)
        assert run_trial(cfg, 0).tau_used == expected

    def test_no_vr_models_the_full_aperture(self):
        result = run_trial(_small_cfg(scheme="no_vr"), 0)
        assert not result.vr_hit
        assert result.tau_used >= 1

    def test_rejects_negative_trial_index(self):
        with pytest.raises(ValueError):
            run_trial(_small_cfg(), -1)


def _spec_with(cfg, index, **changes):
    ers = list(cfg.ers)
    ers[index] = replace(ers[index], **changes)
    return replace(cfg, ers=tuple(ers))


# One change to each field of ArraySpec, ErSpec and ScenarioConfig (their
# names do not collide), and vr_drawn, which unpins a region.
_CONFIG_CHANGES = {
    "n_y": lambda c: replace(c, array=replace(c.array, n_y=9)),
    "n_z": lambda c: replace(c, array=replace(c.array, n_z=9)),
    "carrier_freq": lambda c: replace(c, array=replace(c.array, carrier_freq=30e9)),
    "spacing": lambda c: replace(c, array=replace(c.array, spacing=0.006)),
    "prior_position": lambda c: _spec_with(c, 0, prior_position=(1.0, 0.2, 0.31)),
    "error_bounds": lambda c: _spec_with(c, 1, error_bounds=(0.1, 0.1, 0.11)),
    "weight": lambda c: _spec_with(c, 0, weight=0.9),
    "reflection": lambda c: _spec_with(c, 0, reflection=60.0),
    "vr": lambda c: _spec_with(c, 1, vr=(20, 51)),
    "vr_drawn": lambda c: _spec_with(c, 0, vr=None),
    "array": lambda c: replace(c, array=ArraySpec(n_y=4, n_z=16)),
    "ers": lambda c: replace(c, ers=c.ers[:1]),
    "noise_power": lambda c: replace(c, noise_power=2e-15),
    "p_max": lambda c: replace(c, p_max=2.0),
    "block_len": lambda c: replace(c, block_len=300),
    "eta": lambda c: replace(c, eta=0.3),
    "n_alpha": lambda c: replace(c, n_alpha=8),
    "gamma": lambda c: replace(c, gamma=c.gamma * 1.001),
    "trials": lambda c: replace(c, trials=7),
    "master_seed": lambda c: replace(c, master_seed=1),
    "scheme": lambda c: replace(c, scheme="no_vr"),
}
# The fields the plan memo, the sensing key and the scene key do not read.
# Every other change above is a keyed input of that stage, but for
# _PLAN_SCALED: plan reads the budget and divides the memoized 1 W lattices
# by it, so a budget change reuses the memo.
_NOT_SENSED = {"weight", "block_len", "gamma", "trials"}
_NOT_PLANNED = _NOT_SENSED | {"eta", "n_alpha", "master_seed"}
_PLAN_SCALED = {"p_max"}
_NOT_IN_SCENE = _NOT_SENSED | {"p_max", "noise_power", "scheme"}


def test_every_config_field_has_a_memo_key_decision():
    names = {f.name for cls in (ArraySpec, ErSpec, ScenarioConfig) for f in fields(cls)}
    assert set(_CONFIG_CHANGES) == names | {"vr_drawn"}
    assert _NOT_PLANNED | _PLAN_SCALED | _NOT_IN_SCENE <= names


def _unit_power_lattices(cfg):
    """The receivers' lattices of lattice_crb at the 1 W probe, planned as plan(cfg) plans."""
    geom = build_upa(cfg.array.n_y, cfg.array.n_z, cfg.array.carrier_freq, cfg.array.spacing)
    priors = [
        (spec.prior_position, lattice.region, abs(spec.reflection))
        for spec, lattice in zip(cfg.ers, plan(cfg))
    ]
    bounds = [spec.error_bounds for spec in cfg.ers]
    return lattice_crb(geom, priors, bounds, uniform_probe(geom, 1.0), cfg.noise_power)


def _over(lattices, p_max):
    return tuple(
        LatticeCrb(nominal=c.nominal / p_max, worst=c.worst / p_max, region=c.region)
        for c in lattices
    )


# Budgets off 1 W: decades, the default power grid's half decades and a
# budget with no short binary expansion.
_BUDGETS = (1e-3, 0.1, 10**-0.5, 10**0.5, 7.3, 1e3)


def _count_fim_calls(monkeypatch):
    calls = []
    inner = crb.fim
    monkeypatch.setattr(crb, "fim", lambda *a, **k: calls.append(1) or inner(*a, **k))
    return calls


class TestPlan:
    def test_the_plan_depends_on_planning_inputs_only(self, monkeypatch):
        calls = _count_fim_calls(monkeypatch)
        cfg = _small_cfg()
        first = run_trial(cfg, 0)
        # One fim() call evaluates a receiver's whole 27-point lattice.
        assert len(calls) == 2
        for other in (
            replace(cfg, master_seed=5),
            replace(cfg, gamma=cfg.gamma * 2),
            replace(cfg, block_len=300),
            replace(cfg, trials=7),
        ):
            run_trial(other, 1)
        assert len(calls) == 2
        assert run_trial(cfg, 0) == first
        # The budget is read, not keyed: it scales the 1 W lattices.
        doubled = replace(cfg, p_max=2 * cfg.p_max)
        run_trial(doubled, 0)
        assert len(calls) == 2
        info = plan.cache_info()
        assert (info.misses, info.hits) == (1, 6)
        assert cfg.p_max == 1.0
        assert plan(doubled) == _over(plan(cfg), 2.0)

    @pytest.mark.parametrize("key", _CONFIG_CHANGES)
    def test_each_config_field_is_keyed_or_not_read(self, key):
        cfg = _small_cfg()
        plan(cfg)
        plan(_CONFIG_CHANGES[key](cfg))
        info = plan.cache_info()
        keyed = key not in _NOT_PLANNED | _PLAN_SCALED
        assert (info.misses, info.hits) == ((2, 0) if keyed else (1, 1))

    @pytest.mark.parametrize("p_max", _BUDGETS)
    @pytest.mark.parametrize("scheme", ["proposed", "no_vr"])
    def test_a_budget_divides_the_1_w_lattices_bit_for_bit(self, monkeypatch, scheme, p_max):
        calls = _count_fim_calls(monkeypatch)
        cfg = _small_cfg(scheme=scheme)
        unit = _unit_power_lattices(cfg)
        # One call per receiver for the plan, and one for the direct lattices.
        assert len(calls) == 2 + 2
        assert plan(cfg) == unit
        assert plan(replace(cfg, p_max=p_max)) == _over(unit, p_max)
        assert len(calls) == 4

    @pytest.mark.parametrize("p_max", _BUDGETS)
    @pytest.mark.parametrize("cfg", [_small_cfg(), ScenarioConfig()], ids=["8x8", "16x16"])
    def test_a_budget_agrees_with_its_own_probe_within_the_conditioning(self, cfg, p_max):
        """The scaled plan against lattice_crb at the budget's own probe.

        Both routes factor the same blocks; only the probe sqrt(P / N) and
        its projections x^T u round differently, which changes each column
        of K by a few units of roundoff u of its norm, and the columnwise
        backward stable QR adds as much. A CRB depends on K only through
        F = K^T K = D U^T U D: to first order a change dK moves (F^-1)_ii by
        2 w^T Q^T dK D^-1 U^-1 w with w = U^-T D^-1 e_i, so by at most
        2 |dK D^-1| |U^-1| relative, and |U^-1| <= cond(U) as U's columns
        have unit norm. A columnwise change of delta gives |dK D^-1| <=
        sqrt(5) delta; allowing 20 roundings gives 100 cond(U) u per point
        (0.04 cond(U) u measured at 16x16). The position CRB sums three
        positive terms and the worst point is a max, so both keep the
        largest relative bound of their points.
        """
        geom = build_upa(cfg.array.n_y, cfg.array.n_z, cfg.array.carrier_freq)
        scaled = plan(replace(cfg, p_max=p_max))
        unit_probe = uniform_probe(geom, 1.0)
        u = np.finfo(float).eps / 2
        for spec, lattice in zip(cfg.ers, scaled):
            prior = [(spec.prior_position, lattice.region, abs(spec.reflection))]
            direct = lattice_crb(
                geom, prior, spec.error_bounds, uniform_probe(geom, p_max), cfg.noise_power
            )[0]
            state = ErState(np.asarray(spec.prior_position), lattice.region, abs(spec.reflection))
            offsets = [(-d, 0.0, d) for d in spec.error_bounds]
            unit, _ = fim(geom, state, unit_probe, 1, cfg.noise_power, offsets=offsets).root
            bound = 100 * u * np.linalg.cond(unit)
            assert abs(lattice.nominal - direct.nominal) <= bound[13] * direct.nominal
            assert abs(lattice.worst - direct.worst) <= bound.max() * direct.worst

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_each_receiver_is_planned_on_its_pinned_region_under_proposed_only(self, scheme):
        # The first receiver's region is drawn, the second's pinned.
        cfg = _spec_with(_small_cfg(scheme=scheme), 0, vr=None)
        planned = plan(cfg)
        pinned = VisibilityRegion(*_VRS[1]) if scheme == "proposed" else VisibilityRegion(1, 64)
        assert tuple(lattice.region for lattice in planned) == (VisibilityRegion(1, 64), pinned)
        geom = build_upa(8, 8, 28e9)
        priors = [
            (spec.prior_position, lattice.region, abs(spec.reflection))
            for spec, lattice in zip(cfg.ers, planned)
        ]
        bounds = [spec.error_bounds for spec in cfg.ers]
        expected = lattice_crb(geom, priors, bounds, uniform_probe(geom, cfg.p_max), 1e-15)
        assert planned == expected

    def test_an_infeasible_target_raises_on_every_call(self):
        cfg = _small_cfg(gamma=_small_planning_worst() / 1e6)
        for _ in range(2):
            with pytest.raises(InfeasibleBlockError):
                run_trial(cfg, 0)
            with pytest.raises(InfeasibleBlockError):
                min_sensing_duration(plan(cfg), cfg.gamma, cfg.block_len)
        assert run_trial(replace(cfg, gamma=_small_planning_worst()), 0).tau_used == 1

    def test_lattice_extremes_match_a_direct_evaluation(self):
        planned = plan(_small_cfg())
        assert max(lattice.worst for lattice in planned) == _small_planning_worst()
        geom = build_upa(8, 8, 28e9)
        for spec, lattice in zip(_small_cfg().ers, planned):
            state = ErState(np.asarray(spec.prior_position), lattice.region, reflection=50.0)
            nominal = crb_position(fim(geom, state, uniform_probe(geom, 1.0), 1, 1e-15))
            assert lattice.nominal == nominal.crb_total


def _count_locates(monkeypatch):
    calls = []
    inner = harness.locate_er
    monkeypatch.setattr(harness, "locate_er", lambda *a, **k: calls.append(1) or inner(*a, **k))
    return calls


def _count_channels(monkeypatch):
    """The receiver state of every channel the harness builds."""
    calls = []
    inner = harness.channel
    monkeypatch.setattr(harness, "channel", lambda geom, er: calls.append(er) or inner(geom, er))
    return calls


def _scene(cfg, trial_index):
    return harness._scene(*harness._scene_key(cfg, trial_index))


def _sensed(cfg, trial_index, tau):
    """The trial's Scene and its Sensing record with tau symbols per receiver."""
    scene = _scene(cfg, trial_index)
    return scene, harness._sense(scene, *harness._sense_key(cfg, trial_index, tau))


class TestScene:
    @pytest.mark.parametrize("key", _CONFIG_CHANGES)
    def test_each_config_field_is_keyed_or_not_read(self, key):
        cfg = _small_cfg()
        other = _CONFIG_CHANGES[key](cfg)
        same = harness._scene_key(cfg, 0) == harness._scene_key(other, 0)
        assert same == (key in _NOT_IN_SCENE)

    def test_a_power_sweep_trial_builds_each_true_channel_once(self, monkeypatch):
        cfg = _small_cfg(trials=1)
        truth = _scene(cfg, 0).states
        channels = _count_channels(monkeypatch)
        locates = _count_locates(monkeypatch)
        rows = sweep_pmax(cfg, [0.5, 1.0, 2.0])
        assert len(rows) == 3 * len(SCHEMES)
        true = [
            er for er in channels if any(np.array_equal(er.position, s.position) for s in truth)
        ]
        assert len(true) == len(cfg.ers)
        # Every other channel is the estimate of one located receiver.
        assert len(channels) == len(true) + len(locates)

    def test_a_weight_sweep_trial_builds_2k_channels(self, monkeypatch):
        cfg = _small_cfg(trials=1)
        channels = _count_channels(monkeypatch)
        sweep_beta(cfg, [0.1 * k for k in range(1, 10)])
        assert len(channels) == 2 * len(cfg.ers)

    def test_a_direct_proposed_trial_builds_2k_channels(self, monkeypatch):
        cfg = _small_cfg()
        channels = _count_channels(monkeypatch)
        run_trial(cfg, 0)
        assert len(channels) == 2 * len(cfg.ers)

    def test_every_scheme_of_a_trial_reads_one_scene(self, monkeypatch):
        cfg = _small_cfg(trials=2)
        keys = []
        inner = harness._scene
        monkeypatch.setattr(harness, "_scene", lambda *key: keys.append(key) or inner(*key))
        cells = [replace(cfg, scheme=scheme) for scheme in SCHEMES]
        results = run_trials(cells)
        assert keys == [harness._scene_key(cfg, 0), harness._scene_key(cfg, 1)]
        assert results == [_alone(cell) for cell in cells]
        # A direct call builds its own scene once, whatever the scheme.
        assert len(keys) == 2 + len(SCHEMES) * cfg.trials


class TestSense:
    @pytest.mark.parametrize("scheme", ["proposed", "equal_time", "no_vr"])
    def test_a_hit_returns_the_bits_of_a_recompute(self, scheme, monkeypatch):
        cfg = _small_cfg(scheme=scheme, ers=tuple(replace(s, vr=None) for s in _small_cfg().ers))
        calls = _count_locates(monkeypatch)
        first, again = run_trials([cfg, cfg])
        # Two receivers per trial: the second cell takes the first's record.
        assert len(calls) == 2 * cfg.trials
        assert first == again == _alone(cfg)

    def test_the_shared_records_are_read_only(self):
        scene, sensed = _sensed(_small_cfg(), 0, 2)
        for er, h, loc, estimate in zip(
            scene.states, scene.channels, sensed.locations, sensed.estimates
        ):
            for array in (er.position, h, loc.position_hat, estimate):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_the_records_carry_the_true_and_the_estimated_channels(self):
        scene, sensed = _sensed(_small_cfg(), 0, 2)
        geom = build_upa(8, 8, 28e9)
        for er, h in zip(scene.states, scene.channels):
            np.testing.assert_array_equal(h, channel(geom, er))
        for vr, loc, estimate in zip(sensed.regions, sensed.locations, sensed.estimates):
            np.testing.assert_array_equal(estimate, channel(geom, ErState(loc.position_hat, vr)))
        assert sensed.vr_hit == all(vr == er.vr for vr, er in zip(sensed.regions, scene.states))
        assert sensed.pos_errors == tuple(
            float(np.linalg.norm(loc.position_hat - er.position))
            for loc, er in zip(sensed.locations, scene.states)
        )

    def test_weights_gamma_and_block_len_do_not_reach_the_key(self, monkeypatch):
        cfg = _small_cfg()
        tau = min_sensing_duration(plan(cfg), cfg.gamma, cfg.block_len)
        shared = [
            _spec_with(_spec_with(cfg, 0, weight=0.9), 1, weight=0.1),
            replace(cfg, gamma=cfg.gamma * 1.001),
            replace(cfg, block_len=300),
        ]
        for other in shared:
            assert min_sensing_duration(plan(other), other.gamma, other.block_len) == tau
        calls = _count_locates(monkeypatch)
        first, *results = run_trials([cfg, *shared])
        assert len(calls) == 2 * cfg.trials
        # The charging stage reads the weights of its own config, not of the
        # config that sensed the trial.
        assert results[0][0].powers != first[0].powers
        assert results[2][0].powers != first[0].powers
        for other, result in zip(shared, results):
            assert result == _alone(other)

    @pytest.mark.parametrize("key", _CONFIG_CHANGES)
    def test_each_config_field_is_keyed_or_not_read(self, key):
        # tau is held, so only the config's own fields can tell the two apart.
        cfg = _small_cfg()
        other = _CONFIG_CHANGES[key](cfg)
        same = harness._sense_key(cfg, 0, 2) == harness._sense_key(other, 0, 2)
        assert same == (key in _NOT_SENSED)

    def test_the_slot_length_and_the_trial_index_are_in_the_key(self):
        cfg = _small_cfg()
        keys = {harness._sense_key(cfg, index, tau) for index, tau in ((0, 2), (0, 3), (1, 2))}
        assert len(keys) == 3

    def test_equal_time_and_proposed_share_a_slot_length_and_so_a_stage(self):
        cfg = _small_cfg()
        other = replace(cfg, scheme="equal_time")
        assert harness._sense_key(cfg, 0, 2) == harness._sense_key(other, 0, 2)

    def test_a_drawn_and_a_pinned_phase_do_not_share_a_scene(self, monkeypatch):
        drawn = _small_cfg(trials=1)
        pinned = _spec_with(drawn, 0, reflection=50 + 0j)
        # As receiver specs they are the same, so a key made of the specs
        # without their weights would reuse the drawn scene.
        assert pinned.ers[0] == drawn.ers[0]
        assert hash(pinned.ers[0]) == hash(drawn.ers[0])
        assert harness.sensing_slot(drawn) == harness.sensing_slot(pinned)
        calls = _count_locates(monkeypatch)
        results = run_trials([drawn, pinned])
        assert len(calls) == 2 * 2
        scenes = [_scene(cfg, 0).states[0].reflection for cfg in (drawn, pinned)]
        assert abs(scenes[0]) == pytest.approx(50.0) and scenes[0] != 50
        assert scenes[1] == 50 + 0j
        assert results == [_alone(drawn), _alone(pinned)]

    def test_a_weight_sweep_locates_each_receiver_once_per_trial(self, monkeypatch):
        calls = _count_locates(monkeypatch)
        cfg = _small_cfg(trials=3)
        rows = sweep_beta(cfg, [0.1 * k for k in range(1, 10)])
        assert len(rows) == 9
        assert len(calls) == len(cfg.ers) * cfg.trials

    def test_a_long_weight_sweep_still_locates_once_per_trial(self, monkeypatch):
        # More trials per cell than an earlier 128-record memo could share.
        calls = _count_locates(monkeypatch)
        cfg = _small_cfg(trials=129)
        sweep_beta(cfg, [0.2, 0.8])
        assert len(calls) == len(cfg.ers) * cfg.trials == 258

    def test_a_direct_trial_shares_nothing(self, monkeypatch):
        calls = _count_locates(monkeypatch)
        cfg = _small_cfg()
        run_trials([cfg])
        run_trial(cfg, 0)
        assert harness._shared is None
        assert len(calls) == 2 * (cfg.trials + 1)

    def test_a_sensing_error_keeps_its_type_and_names_its_receiver(self, monkeypatch):
        calls = []
        inner = harness.locate_er

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise DegenerateChannelError("no energy")
            return inner(*args, **kwargs)

        monkeypatch.setattr(harness, "locate_er", second_fails)
        with pytest.raises(DegenerateChannelError) as caught:
            run_trial(_small_cfg(), 0)
        assert str(caught.value).startswith("er2: ")

    def test_a_failed_stage_is_not_stored(self, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise DegenerateChannelError("no energy")

        monkeypatch.setattr(harness, "locate_er", failing)
        monkeypatch.setattr(harness, "_shared", {})
        cfg = _small_cfg()
        for _ in range(2):
            with pytest.raises(DegenerateChannelError):
                run_trial(cfg, 0)
        assert len(calls) == 2
        # The scene was built and stored; the failed sensing was not.
        assert list(harness._shared) == [harness._scene_key(cfg, 0)]

    def test_a_raising_loop_drops_its_records(self, monkeypatch):
        calls = []
        inner = harness.locate_er

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise DegenerateChannelError("no energy")
            return inner(*args, **kwargs)

        monkeypatch.setattr(harness, "locate_er", third_fails)
        cfg = _small_cfg()
        with pytest.raises(DegenerateChannelError):
            run_trials([cfg, cfg])
        assert harness._shared is None
        # Trial 0 was sensed once for both cells; trial 1 failed.
        assert len(calls) == 3


class TestRunTrials:
    @pytest.mark.parametrize("budgets", [(), (3, 4)], ids=["empty", "mixed"])
    def test_rejects_cells_without_one_trial_budget(self, budgets):
        with pytest.raises(ValueError, match="trials"):
            run_trials([_small_cfg(trials=t) for t in budgets])

    def test_runs_trial_by_trial_through_the_module_binding(self, monkeypatch):
        ran = []
        inner = harness.run_trial
        monkeypatch.setattr(
            harness, "run_trial", lambda c, i: ran.append((c.p_max, i)) or inner(c, i)
        )
        cells = [_small_cfg(trials=2), _small_cfg(trials=2, p_max=2.0)]
        results = run_trials(cells)
        assert ran == [(1.0, 0), (2.0, 0), (1.0, 1), (2.0, 1)]
        assert results == [_alone(cell) for cell in cells]


def _gamma_cells(cfg):
    grid = [_small_planning_worst() / d for d in (1.0, 3.0, 10.0)]
    return sweep_gamma(cfg, grid), [(replace(cfg, gamma=g), g) for g in grid]


def _pmax_cells(cfg):
    grid = [0.5, 2.0]
    cells = [(replace(cfg, p_max=p, scheme=scheme), p) for p in grid for scheme in SCHEMES]
    return sweep_pmax(cfg, grid), cells


def _beta_cells(cfg):
    grid = [0.2, 0.5, 0.8]
    cells = [
        (_spec_with(_spec_with(cfg, 0, weight=1.0 - b), 1, weight=b), b) for b in grid
    ]
    return sweep_beta(cfg, grid), cells


@pytest.mark.parametrize("sweep", [_gamma_cells, _pmax_cells, _beta_cells])
def test_each_sweep_row_summarizes_its_cell_run_alone(sweep):
    rows, cells = sweep(_small_cfg(ers=tuple(replace(s, vr=None) for s in _small_cfg().ers)))
    alone = [summarize(cell, run_trials([cell])[0], value) for cell, value in cells]
    # repr spells every float exactly, and an isotropic row's nan pos_rmse too.
    assert repr(rows) == repr(alone)


class TestSummarize:
    def test_aggregates_match_direct_averages(self):
        cfg = _small_cfg(trials=4)
        (results,) = run_trials([cfg])
        row = summarize(cfg, results, sweep_value=2.5)
        assert row.sweep_value == 2.5
        assert row.scheme == "proposed"
        taus = [r.tau_used for r in results]
        assert row.tau_mean == pytest.approx(np.mean(taus), rel=1e-15)
        assert row.duty_factor == pytest.approx(
            np.mean([(200 - 2 * t) / 200 for t in taus]), rel=1e-15
        )
        assert row.powers[0] == pytest.approx(
            np.mean([r.powers[0] for r in results]), rel=1e-15
        )
        assert row.vr_hit_rate == pytest.approx(
            np.mean([r.vr_hit for r in results]), rel=1e-15
        )
        flat = [e for r in results for e in r.pos_errors]
        assert row.pos_rmse == pytest.approx(
            np.sqrt(np.mean(np.square(flat))), rel=1e-14
        )

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            summarize(_small_cfg(), [], 0.0)

    def test_simulate_reports_the_accuracy_target_as_sweep_value(self):
        cfg = _small_cfg(trials=2)
        row = simulate(cfg)
        assert row.sweep_value == cfg.gamma


class TestSweeps:
    def test_gamma_sweep_emits_one_row_per_target(self):
        cfg = _small_cfg(trials=2)
        worst = _small_planning_worst()
        grid = [worst / 5, worst / 2, 2 * worst]
        rows = sweep_gamma(cfg, grid)
        assert [r.sweep_value for r in rows] == grid
        taus = [r.tau_mean for r in rows]
        assert taus == sorted(taus, reverse=True)
        assert all(r.scheme == "proposed" for r in rows)

    def test_gamma_sweep_rejects_bad_grids(self):
        cfg = _small_cfg(trials=1)
        with pytest.raises(ValueError):
            sweep_gamma(cfg, [])
        with pytest.raises(ValueError):
            sweep_gamma(cfg, [1.0, -2.0])

    @pytest.mark.parametrize(
        "sweep, name, grid",
        [
            (sweep_gamma, "gamma", [math.nan, 1e4]),
            (sweep_gamma, "gamma", [1e4, math.nan]),
            (sweep_gamma, "gamma", [1e4, math.inf]),
            (sweep_pmax, "power", [math.nan, 1.0]),
            (sweep_pmax, "power", [1.0, math.nan]),
            (sweep_pmax, "power", [1.0, math.inf]),
        ],
    )
    def test_a_non_finite_grid_fails_before_any_trial(self, monkeypatch, sweep, name, grid):
        ran = []
        monkeypatch.setattr(harness, "run_trial", lambda cfg, i: ran.append(i))
        with pytest.raises(ValueError, match=f"^{name} grid must be nonempty, finite"):
            sweep(_small_cfg(trials=1), grid)
        assert ran == []

    def test_power_sweep_covers_every_scheme(self):
        cfg = _small_cfg(trials=1)
        rows = sweep_pmax(cfg, [0.5, 1.0])
        assert len(rows) == 2 * len(SCHEMES)
        assert [r.scheme for r in rows[: len(SCHEMES)]] == list(SCHEMES)
        assert all(r.sweep_value == 0.5 for r in rows[: len(SCHEMES)])
        assert all(r.sweep_value == 1.0 for r in rows[len(SCHEMES) :])

    def test_weight_sweep_requires_two_receivers(self):
        cfg = _small_cfg(trials=1)
        lone = _small_cfg(trials=1, ers=(cfg.ers[0],))
        with pytest.raises(ValueError):
            sweep_beta(lone, [0.5])
        with pytest.raises(ValueError):
            sweep_beta(cfg, [0.5, 1.5])
        rows = sweep_beta(cfg, [0.2, 0.8])
        assert [r.sweep_value for r in rows] == [0.2, 0.8]

    def test_weight_sweep_reassigns_the_complementary_weight(self):
        cfg = _pinned_cfg(trials=1, scheme="perfect_csi")
        (row,) = sweep_beta(cfg, [0.0])
        _, channels = _pinned_channels()
        solo = solve_energy_covariance(
            weighted_channel_matrix(channels[:1], [1.0]), cfg.p_max
        )
        assert row.powers[0] == pytest.approx(
            harvested_power(channels[0], solo), rel=1e-10
        )


def _config_with(key, value) -> dict:
    """A config dict that sets one key, at whichever level it lives."""
    if key in ("n_y", "n_z", "carrier_freq"):
        return {"array": {key: value}}
    if key in ("prior_position", "error_bounds"):
        triple = [1.0, value, 0.3]
        return {"ers": [{"prior_position": [1.0, 0.2, 0.3], key: triple}]}
    return {key: value}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "key",
        ["noise_power", "p_max", "gamma", "carrier_freq", "error_bounds", "prior_position"],
    )
    def test_rejects_a_non_finite_value_naming_the_key(self, key):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=key):
                config_from_dict(_config_with(key, value))

    @pytest.mark.parametrize(
        "key", ["trials", "block_len", "master_seed", "n_alpha", "n_y", "n_z"]
    )
    def test_rejects_a_non_integer_value_naming_the_key(self, key):
        for value in (1.5, 8.0, True, "8"):
            with pytest.raises(ValueError, match=key):
                config_from_dict(_config_with(key, value))

    def test_rejects_out_of_range_settings(self):
        with pytest.raises(ValueError):
            _small_cfg(eta=1.0)
        with pytest.raises(ValueError):
            _small_cfg(n_alpha=33)
        with pytest.raises(ValueError):
            _small_cfg(trials=0)
        with pytest.raises(ValueError):
            _small_cfg(scheme="beamhack")
        with pytest.raises(ValueError):
            _small_cfg(noise_power=0.0)
        with pytest.raises(ValueError):
            _small_cfg(master_seed=-1)

    def test_rejects_an_infeasible_visibility_draw(self):
        ers = (ErSpec(prior_position=_PRIORS[0]),)
        with pytest.raises(ValueError):
            _small_cfg(ers=ers, eta=0.8, n_alpha=16)

    def test_rejects_a_pinned_region_outside_the_array(self):
        ers = (
            ErSpec(prior_position=_PRIORS[0], vr=(1, 65)),
            ErSpec(prior_position=_PRIORS[1], vr=_VRS[1]),
        )
        with pytest.raises(ValueError):
            _small_cfg(ers=ers)

    def test_er_spec_rejects_degenerate_values(self):
        with pytest.raises(ValueError):
            ErSpec(prior_position=(1.0, 2.0))
        with pytest.raises(ValueError):
            ErSpec(prior_position=_PRIORS[0], weight=-0.1)
        with pytest.raises(ValueError):
            ErSpec(prior_position=_PRIORS[0], reflection=0.0)
        with pytest.raises(ValueError):
            ErSpec(prior_position=_PRIORS[0], error_bounds=(0.1, -0.1, 0.1))
        with pytest.raises(ValueError):
            ErSpec(prior_position=_PRIORS[0], vr=(9, 3))

    def test_er_spec_rejects_a_search_box_reaching_the_array_plane(self):
        # Accepted before, this prior failed only later, in planning, with a
        # Fisher information that has a nonpositive diagonal entry.
        with pytest.raises(ValueError, match="prior_position"):
            ErSpec(prior_position=(0.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="prior_position"):
            ErSpec(prior_position=(0.3, 2.0, 3.0), error_bounds=(0.15, 0.15, 0.15))

    def test_a_prior_behind_the_array_is_accepted_and_runs(self):
        ers = (
            ErSpec(prior_position=(-1.0, 0.2, 0.3), error_bounds=(0.1,) * 3, vr=_VRS[0]),
        )
        result = run_trial(_small_cfg(ers=ers), 0)
        assert result.tau_used >= 1
        assert all(np.isfinite(result.powers))
        assert result.pos_errors[0] <= 3.0 * math.sqrt(3) * 0.1


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _near(valid):
    """A value the schema accepts, or any JSON tree in its place."""
    return st.one_of(valid, valid, _JSON)


def _triple(lo, hi):
    return st.lists(st.floats(lo, hi) | st.integers(-3, 3), min_size=3, max_size=3)


_ARRAY_DICT = st.fixed_dictionaries(
    {},
    optional={
        "n_y": _near(st.integers(1, 16)),
        "n_z": _near(st.integers(1, 16)),
        "carrier_freq": _near(st.floats(1e9, 1e11)),
        "spacing": _near(st.none() | st.floats(1e-3, 0.1)),
    },
)
_ER_DICT = st.fixed_dictionaries(
    {"prior_position": _near(_triple(-5.0, 5.0))},
    optional={
        "error_bounds": _near(_triple(0.0, 0.3)),
        "weight": _near(st.floats(0.0, 1.0)),
        "reflection": _near(st.floats(-60.0, 60.0) | st.lists(_FINITE, min_size=2, max_size=2)),
        "vr": _near(st.none() | st.lists(st.integers(-2, 300), min_size=2, max_size=2)),
    },
)
_CONFIG_DICT = st.fixed_dictionaries(
    {},
    optional={
        "array": _near(_ARRAY_DICT),
        "ers": _near(st.lists(_near(_ER_DICT), max_size=3)),
        "noise_power": _near(st.floats(1e-18, 1e-12)),
        "p_max": _near(st.floats(0.01, 10.0)),
        "block_len": _near(st.integers(-1, 500)),
        "eta": _near(st.floats(0.0, 1.0)),
        "n_alpha": _near(st.integers(0, 130)),
        "gamma": _near(st.floats(0.0, 1e5)),
        "trials": _near(st.integers(-1, 200)),
        "master_seed": _near(st.integers(-1, 2**70)),
        "scheme": _near(st.sampled_from(SCHEMES)),
    },
)


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=_near(_CONFIG_DICT))
    def test_any_json_tree_is_a_config_or_a_value_error(self, data):
        try:
            cfg = config_from_dict(data)
        except ValueError as exc:
            assert str(exc)
            return
        assert isinstance(cfg, ScenarioConfig)
        hash(cfg)  # the planning memo keys on the config's values

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"array": 5}, "array"),
            ({"ers": 5}, "ers"),
            ({"ers": [5]}, "ers"),
            ({"ers": [{"prior_position": 5}]}, "prior_position"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "error_bounds": 0.1}]}, "error_bounds"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "vr": [1]}]}, "vr"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "vr": [1.5, 200]}]}, "vr"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "vr": [9, 3]}]}, "vr"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "reflection": "a"}]}, "reflection"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "reflection": [1, "a"]}]}, "reflection"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "reflection": [1.7e308] * 2}]}, "reflection"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "reflection": [1e308] * 2}]}, "reflection"),
            ({"noise_power": 10**400}, "noise_power"),
            ({"array": {"n_y": 2**30, "n_z": 2**30}}, "n_y"),
            ({"block_len": 10**400}, "block_len"),
            ({"block_len": 2**53 + 1}, "block_len"),
            ({"array": {"carrier_freq": 1e-300}}, "carrier_freq"),
            ({"array": {"carrier_freq": 3e-300}}, "carrier_freq"),
            ({"array": {"spacing": 1.5e307}}, "spacing"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "reflection": 1e-160}]}, "reflection"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "reflection": 1e-300}]}, "reflection"),
            ({"ers": [{"prior_position": [1.0, 2.0, 3.0], "vr": [5, 300]}]}, "vr"),
        ],
    )
    def test_a_malformed_shape_is_a_value_error_naming_the_key(self, payload, key):
        with pytest.raises(ValueError, match=key):
            config_from_dict(payload)

    def test_a_malformed_shape_is_a_one_line_cli_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"ers": [{"prior_position": [1, 2, 3], "vr": [1]}]}))
        code = main(["crb", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("nfwpt: error: vr ")
        assert captured.err.count("\n") == 1


_PRIOR = [1.0, 2.0, 3.0]

# The keys the drawn extreme configs set, and the built-in receivers' priors
# and weights, which a drawn reflection keeps.
_EXTREME_KEYS = ("noise_power", "p_max", "gamma", "carrier_freq", "reflection", "block_len")
_BUILTIN_ERS = [
    {"prior_position": list(spec.prior_position), "weight": spec.weight}
    for spec in ScenarioConfig().ers
]


def _extreme_payload(values: dict) -> dict:
    payload = {}
    for key, value in values.items():
        if key == "carrier_freq":
            payload["array"] = {"carrier_freq": value}
        elif key == "reflection":
            payload["ers"] = [{**er, "reflection": value} for er in _BUILTIN_ERS]
        elif key == "block_len":
            payload["block_len"] = max(1, int(value))
        else:
            payload[key] = value
    return payload


def _assert_finite_report(out: str) -> None:
    """No plan prints a CRB, and no run a cell, that is not finite, but for
    isotropic's pos_rmse_m: isotropic locates no receiver, so that cell is nan
    by design."""
    if not out.startswith("sweep_value,"):
        assert "inf" not in out and "nan" not in out
        return
    header, *rows = (line.split(",") for line in out.splitlines())
    for row in rows:
        cells = dict(zip(header, row))
        if cells.pop("scheme") == "isotropic":
            del cells["pos_rmse_m"]
        assert all(math.isfinite(float(v)) for v in cells.values()), row


def _main_quietly(argv: list, payload: dict) -> tuple:
    """Exit status, stdout, stderr and warning messages of main(argv) run
    with the payload as its --config file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        path = Path(tmp) / "extreme.json"
        path.write_text(json.dumps(payload))
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_report_or_one_line(code: int, out: str, err: str) -> None:
    if code == 0:
        assert err == ""
        _assert_finite_report(out)
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("nfwpt: error: ") and err.count("\n") == 1


class TestExtremeInputs:
    """Finite inputs at the edge of the float range end in one line, not warnings."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"noise_power": 1e300},
            {"noise_power": 1e-300},
            {"p_max": 1e-300},
            {"p_max": 1e300},
            {"gamma": 1e-300},
            {"gamma": 1e300},
            {"array": {"carrier_freq": 1e-300}},
            {"array": {"carrier_freq": 1e300}},
            {"ers": [{"prior_position": _PRIOR, "reflection": 1e154}]},
            {"ers": [{"prior_position": _PRIOR, "reflection": 1e-300}]},
            {"ers": [{"prior_position": _PRIOR, "reflection": 1e-160}]},
            pytest.param({"block_len": 10**400}, id="block_len=10**400"),
            # The plan is evaluated at 1 W, where these plan finitely; the
            # CRB over the budget overflows.
            {"p_max": 1e-160, "noise_power": 1e154},
            {"p_max": 1e-160, "noise_power": 1e150},
            # The CRB over the budget underflows to zero.
            {"p_max": 1e300, "noise_power": 1e-300},
            # The Fisher information underflows.
            {"noise_power": 1e300, "ers": [{"prior_position": _PRIOR, "reflection": 1e-5}]},
            # The channel energy is subnormal: lambda / (4 pi d) is about 1e-160.
            {"array": {"carrier_freq": 3e167}},
            # The element coordinates overflow.
            {"array": {"carrier_freq": 3e-300}},
            # Sensing: the prefilter's lattice scores overflow.
            {
                "p_max": 5.4e263,
                "array": {"carrier_freq": 6.3e-35},
                "ers": [
                    {"prior_position": _PRIOR, "weight": 0.1, "reflection": 7.4e39},
                    {"prior_position": [1.5, 3.0, 4.5], "weight": 0.9},
                ],
            },
            # Sensing: the channel energy on the region is subnormal.
            {"array": {"carrier_freq": 1.2e166}},
            # The element distances, and so the channels, are not finite.
            {"array": {"carrier_freq": 1.3903588468027452e-193}},
            {"ers": [{"prior_position": [1e200, 0, 0]}]},
            # Sensing: the localizer's curvature overflows a Python float.
            {
                "array": {"carrier_freq": 1.4863782561827508e150},
                "noise_power": 2.4503697066857755e124,
            },
        ],
        ids=lambda payload: json.dumps(payload).replace(" ", ""),
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["crb"],
            ["simulate", "--trials", "1"],
            ["simulate", "--trials", "1", "--scheme", "equal_time"],
            ["simulate", "--trials", "1", "--scheme", "no_vr"],
            ["simulate", "--trials", "1", "--scheme", "isotropic"],
            ["simulate", "--trials", "1", "--scheme", "perfect_csi"],
        ],
    )
    def test_the_cli_exits_cleanly_without_warnings(self, payload, command):
        code, out, err, caught = _main_quietly(command, payload)
        assert caught == []
        _assert_report_or_one_line(code, out, err)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"noise_power": 1e300, "ers": [{"prior_position": _PRIOR, "reflection": 1e-5}]},
                "er1: Fisher information underflows: ",
            ),
            (
                {"ers": [{"prior_position": _PRIOR, "reflection": 1e154}]},
                "er1: Fisher information is not finite: ",
            ),
            (
                {"p_max": 1e-160, "noise_power": 1e154},
                "er1: single-symbol position CRB inf is not finite and positive",
            ),
            (
                {"p_max": 1e300, "noise_power": 1e-300},
                "er1: single-symbol position CRB 0.000e+00 is not finite and positive",
            ),
            ({"p_max": 1e-300}, "sensing needs 2 x 3.18227e+300 symbols "),
        ],
        ids=["fim-underflow", "fim-not-finite", "crb-inf", "crb-zero", "infeasible"],
    )
    def test_each_planning_guard_has_a_cli_case(self, payload, message):
        # The budget reaches only the quotient of the 1 W plan, so the
        # Fisher information guards are reached through the noise power and
        # the reflection.
        code, out, err, caught = _main_quietly(["crb"], payload)
        assert (code, out, caught) == (2, "", [])
        assert err.startswith(f"nfwpt: error: {message}") and err.count("\n") == 1

    def test_a_huge_budget_plans_from_the_1_w_lattice(self):
        code, out, err, caught = _main_quietly(["crb"], {"p_max": 1e300})
        assert (code, err, caught) == (0, "", [])
        unit = _unit_power_lattices(ScenarioConfig())
        assert f"crb1_worst_m2={unit[1].worst / 1e300:.12e}" in out

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_subnormal_channel_is_rejected_under_every_scheme(self, scheme):
        # Every channel energy is subnormal, so no scheme may print a power,
        # including the two that never sense.
        argv = ["simulate", "--trials", "1", "--scheme", scheme]
        code, out, err, caught = _main_quietly(argv, {"array": {"carrier_freq": 1.2e166}})
        assert caught == []
        assert (code, out) == (2, "")
        assert err.startswith("nfwpt: error: er1: ") and err.count("\n") == 1

    def test_a_block_too_large_to_sense_ends_in_one_line(self, monkeypatch, capsys):
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 744. GiB for an array")

        monkeypatch.setattr(harness, "simulate_echo", unallocatable)
        code = main(["simulate", "--trials", "1", "--scheme", "equal_time"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "nfwpt: error: Unable to allocate 744. GiB for an array\n"

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.dictionaries(
            st.sampled_from(_EXTREME_KEYS),
            st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
            min_size=1,
            max_size=3,
        )
    )
    def test_drawn_extreme_magnitudes_end_in_a_report_or_one_line(self, values):
        code, out, err, caught = _main_quietly(["crb"], _extreme_payload(values))
        assert caught == []
        _assert_report_or_one_line(code, out, err)

    # Every scheme runs one trial of the built-in scenario. block_len is not
    # drawn: equal_time would allocate an N x block_len / 2K echo.
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.dictionaries(
            st.sampled_from([k for k in _EXTREME_KEYS if k != "block_len"]),
            st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
            min_size=1,
            max_size=3,
        )
    )
    def test_drawn_extreme_magnitudes_simulate_to_finite_powers_or_one_line(self, values):
        for scheme in SCHEMES:
            argv = ["simulate", "--trials", "1", "--scheme", scheme]
            code, out, err, caught = _main_quietly(argv, _extreme_payload(values))
            assert caught == [], scheme
            _assert_report_or_one_line(code, out, err)


class TestConfigFiles:
    def _as_dict(self):
        return {
            "array": {"n_y": 8, "n_z": 8},
            "ers": [
                {
                    "prior_position": [1.0, 0.2, 0.3],
                    "error_bounds": [0.1, 0.1, 0.1],
                    "weight": 0.4,
                    "reflection": [30.0, 40.0],
                    "vr": [5, 40],
                },
                {
                    "prior_position": [1.2, -0.3, 0.4],
                    "weight": 0.6,
                },
            ],
            "n_alpha": 16,
            "gamma": 2.0e-3,
            "trials": 7,
            "scheme": "equal_time",
        }

    def test_round_trips_every_field(self):
        cfg = config_from_dict(self._as_dict())
        assert cfg.array == ArraySpec(n_y=8, n_z=8)
        assert cfg.ers[0].reflection == 30.0 + 40.0j
        assert cfg.ers[0].vr == (5, 40)
        assert cfg.ers[1].vr is None
        assert cfg.ers[1].error_bounds == (0.15, 0.15, 0.15)
        assert cfg.gamma == 2.0e-3
        assert cfg.trials == 7
        assert cfg.scheme == "equal_time"
        assert cfg.master_seed == 0

    def test_rejects_unknown_keys_at_every_level(self):
        top = self._as_dict()
        top["bandwidth"] = 1e6
        with pytest.raises(ValueError, match="bandwidth"):
            config_from_dict(top)
        nested = self._as_dict()
        nested["array"]["tilt"] = 3
        with pytest.raises(ValueError, match="tilt"):
            config_from_dict(nested)
        receiver = self._as_dict()
        receiver["ers"][0]["gain"] = 2.0
        with pytest.raises(ValueError, match="gain"):
            config_from_dict(receiver)

    def test_rejects_malformed_entries(self):
        missing = self._as_dict()
        del missing["ers"][0]["prior_position"]
        with pytest.raises(ValueError, match="prior_position"):
            config_from_dict(missing)
        bad_refl = self._as_dict()
        bad_refl["ers"][0]["reflection"] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            config_from_dict(bad_refl)
        with pytest.raises(ValueError):
            config_from_dict([1, 2, 3])

    def test_load_config_reads_json(self, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self._as_dict()))
        assert load_config(path) == config_from_dict(self._as_dict())


class TestCsvOutput:
    def test_header_names_one_power_column_per_receiver(self):
        assert csv_header(2) == (
            "sweep_value,scheme,tau_mean,duty_factor,"
            "power_er1_watts,power_er2_watts,vr_hit_rate,pos_rmse_m"
        )
        assert "power_er3_watts" in csv_header(3)

    def test_floats_carry_thirteen_significant_digits(self):
        import re

        cfg = _small_cfg(trials=2)
        text = rows_to_csv([simulate(cfg)])
        header, row = text.strip().split("\n")
        assert header == csv_header(2)
        floats = [c for c in row.split(",") if c != "proposed"]
        assert len(floats) == 7
        for cell in floats:
            assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", cell), cell
        assert text.endswith("\n")

    def test_rejects_empty_or_ragged_rows(self):
        cfg = _small_cfg(trials=1)
        row = simulate(cfg)
        with pytest.raises(ValueError):
            rows_to_csv([])
        from dataclasses import fields, replace

        with pytest.raises(ValueError):
            rows_to_csv([row, replace(row, powers=row.powers + (0.0,))])

    def test_written_file_is_byte_deterministic(self, tmp_path):
        cfg = _small_cfg(trials=2)
        rows = [simulate(cfg)]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        text = write_csv(first, rows)
        write_csv(second, [simulate(cfg)])
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == text == rows_to_csv(rows)


class TestCli:
    def _write_config(self, tmp_path):
        import json

        cfg_path = tmp_path / "small.json"
        payload = {
            "array": {"n_y": 8, "n_z": 8},
            "ers": [
                {
                    "prior_position": [1.0, 0.2, 0.3],
                    "error_bounds": [0.1, 0.1, 0.1],
                    "weight": 0.4,
                    "vr": [5, 40],
                },
                {
                    "prior_position": [1.2, -0.3, 0.4],
                    "error_bounds": [0.1, 0.1, 0.1],
                    "weight": 0.6,
                    "vr": [20, 50],
                },
            ],
            "n_alpha": 16,
            "gamma": _small_planning_worst() / 3.0,
            "trials": 2,
        }
        cfg_path.write_text(json.dumps(payload))
        return cfg_path

    def test_simulate_prints_and_writes_the_same_csv(self, tmp_path, capsys, monkeypatch):
        import nfwpt.cli

        renders = []
        inner = harness.rows_to_csv

        def counted(rows):
            renders.append(1)
            return inner(rows)

        monkeypatch.setattr(harness, "rows_to_csv", counted)
        monkeypatch.setattr(nfwpt.cli, "rows_to_csv", counted)
        cfg_path = self._write_config(tmp_path)
        out_path = tmp_path / "run.csv"
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(out_path), "--seed", "3"]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert printed.encode() == out_path.read_bytes()
        assert printed.startswith(csv_header(2))
        assert len(renders) == 1

    def test_seed_controls_reproducibility(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        main(["simulate", "--config", str(cfg_path), "--seed", "11"])
        first = capsys.readouterr().out
        main(["simulate", "--config", str(cfg_path), "--seed", "11"])
        second = capsys.readouterr().out
        main(["simulate", "--config", str(cfg_path), "--seed", "12"])
        third = capsys.readouterr().out
        assert first == second
        assert first != third

    def test_scheme_and_trials_overrides_apply(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        code = main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--scheme",
                "equal_time",
                "--trials",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert ",equal_time," in out
        assert len(out.strip().split("\n")) == 2

    def test_sweep_gamma_honours_an_explicit_grid(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        worst = _small_planning_worst()
        grid = f"{worst / 4},{worst * 2}"
        code = main(
            ["sweep-gamma", "--config", str(cfg_path), "--trials", "1", "--grid", grid]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize(
        "command, grid, name",
        [
            ("sweep-gamma", "nan,1e4", "gamma"),
            ("sweep-gamma", "", "gamma"),
            ("sweep-power", "1,inf", "power"),
        ],
    )
    def test_a_bad_grid_is_a_one_line_error_naming_it(self, tmp_path, capsys, command, grid, name):
        cfg_path = self._write_config(tmp_path)
        code = main([command, "--config", str(cfg_path), "--trials", "1", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"nfwpt: error: {name} grid must be nonempty, finite")
        assert captured.err.count("\n") == 1

    def test_sweep_power_emits_all_schemes_per_budget(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        code = main(
            ["sweep-power", "--config", str(cfg_path), "--trials", "1", "--grid", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + len(SCHEMES)
        for scheme, line in zip(SCHEMES, lines[1:]):
            assert f",{scheme}," in line

    def test_sweep_weight_runs_on_the_given_grid(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        code = main(
            [
                "sweep-weight",
                "--config",
                str(cfg_path),
                "--trials",
                "1",
                "--grid",
                "0.3,0.7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_crb_reports_planning_numbers(self, tmp_path, capsys):
        import re

        cfg_path = self._write_config(tmp_path)
        code = main(["crb", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"er1: crb1_nominal_m2=\d\.\d{12}e[+-]\d{2}", out)
        assert re.search(r"er2: .*vr=\[20,50\]", out)
        assert re.search(r"gamma_m2=.* tau_star=\d+ block_len=200", out)

    def test_crb_on_the_built_in_scenario_is_unchanged(self, capsys):
        # Every printed digit agrees with a 60-digit CRB of the same
        # double-precision blocks (tests/test_crb.py).
        assert main(["crb"]) == 0
        assert capsys.readouterr().out == (
            "er1: crb1_nominal_m2=3.410922615622e-01 crb1_worst_m2=1.222917566626e+02 vr=[1,256]\n"
            "er2: crb1_nominal_m2=8.689423236706e+00 crb1_worst_m2=1.272907349654e+05 vr=[1,256]\n"
            "gamma_m2=4.000000000000e+04 tau_star=4 block_len=200\n"
        )

    @pytest.mark.parametrize("option", ["--out", "--seed", "--trials"])
    def test_crb_rejects_options_it_would_ignore(self, tmp_path, capsys, option):
        value = str(tmp_path / "crb.csv") if option == "--out" else "3"
        with pytest.raises(SystemExit) as exit_info:
            main(["crb", option, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_each_command_plans_from_scratch(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        for _ in range(2):
            assert main(["simulate", "--config", str(cfg_path), "--trials", "3"]) == 0
            info = plan.cache_info()
            assert (info.misses, info.hits) == (1, 2)
        capsys.readouterr()

    @pytest.mark.parametrize("pinned, fim_calls", [(False, 2), (True, 4)], ids=["drawn", "pinned"])
    def test_sweep_power_plans_each_distinct_input_once(
        self, tmp_path, capsys, monkeypatch, pinned, fim_calls
    ):
        calls = _count_fim_calls(monkeypatch)
        argv = ["sweep-power", "--trials", "1"]
        if pinned:
            # Budgets at which no_vr's full-aperture slot still fits the block.
            argv += ["--config", str(self._write_config(tmp_path)), "--grid", "1,3,10"]
        assert main(argv) == 0
        capsys.readouterr()
        # One fim() call per receiver and distinct planning input, whatever
        # the budgets: proposed plans a pinned region, no_vr always the
        # full aperture, so only pinned regions give them different inputs.
        assert len(calls) == fim_calls

    def test_each_command_senses_from_scratch(self, tmp_path, capsys, monkeypatch):
        calls = _count_locates(monkeypatch)
        cfg_path = self._write_config(tmp_path)
        argv = ["sweep-weight", "--config", str(cfg_path), "--trials", "2"]
        for run in (1, 2):
            assert main(argv) == 0
            # Two receivers, two trials, nine weights: one stage per trial.
            assert len(calls) == run * 2 * 2
        capsys.readouterr()

    def test_crb_plans_no_vr_like_the_harness(self, tmp_path, capsys):
        import re

        cfg_path = self._write_config(tmp_path)
        taus = {}
        for scheme in ("proposed", "no_vr"):
            assert main(["crb", "--config", str(cfg_path), "--scheme", scheme]) == 0
            report = capsys.readouterr().out
            taus[scheme] = int(re.search(r"tau_star=(\d+)", report).group(1))
            assert main(["simulate", "--config", str(cfg_path), "--scheme", scheme]) == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert float(row[2]) == taus[scheme]
        assert "vr=[1,64]" in report
        assert taus["no_vr"] > taus["proposed"]

    def test_infeasible_gamma_grid_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        cfg_path = self._write_config(tmp_path)
        ran = []
        inner = harness.run_trial
        monkeypatch.setattr(
            harness, "run_trial", lambda cfg, i: ran.append(i) or inner(cfg, i)
        )
        worst = _small_planning_worst()
        grid = f"{worst * 2},{worst / 1e6}"
        code = main(
            ["sweep-gamma", "--config", str(cfg_path), "--trials", "1", "--grid", grid]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert ran == []
        assert captured.out == ""
        assert captured.err.startswith("nfwpt: error: sensing needs 2 x ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, argv, error",
        [
            (
                None,
                ["sweep-gamma", "--trials", "1", "--grid", "1e-320"],
                "sensing needs 2 x inf symbols",
            ),
            ({"gamma": 1e-320}, ["simulate", "--trials", "1"], "sensing needs 2 x inf symbols"),
            (
                {"ers": [{"prior_position": [1.0, 0.2, 0.3], "reflection": [1e308, 1e308]}]},
                ["crb"],
                "reflection magnitude squared must be finite",
            ),
        ],
    )
    def test_an_overflowing_finite_value_is_a_one_line_error(
        self, tmp_path, capsys, payload, argv, error
    ):
        if payload is not None:
            cfg_path = tmp_path / "extreme.json"
            cfg_path.write_text(json.dumps(payload))
            argv = [*argv, "--config", str(cfg_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"nfwpt: error: {error}")
        assert captured.err.count("\n") == 1

    def test_unknown_config_key_is_a_one_line_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"trials": 2, "warp": 9}')
        code = main(["simulate", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "nfwpt: error: unknown config keys: warp\n"

    @pytest.mark.parametrize("content", [b"", b"{", b"\xff"])
    def test_malformed_config_file_is_a_one_line_error_naming_it(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_bytes(content)
        code = main(["crb", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"nfwpt: error: {cfg_path}: ")
        assert captured.err.count("\n") == 1

    def test_missing_config_file_is_a_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code = main(["crb", "--config", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("nfwpt: error: ")
        assert str(missing) in captured.err
        assert captured.err.count("\n") == 1

    def test_python_dash_m_runs_the_cli(self, tmp_path, capsys):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import nfwpt

        src = str(Path(nfwpt.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "nfwpt", *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )

        done = run("crb")
        assert main(["crb"]) == 0
        assert done.returncode == 0
        assert done.stdout == capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text('{"warp": 9}')
        failed = run("crb", "--config", str(bad))
        assert failed.returncode == 2
        assert failed.stdout == ""
        assert failed.stderr == "nfwpt: error: unknown config keys: warp\n"

    def test_rejects_an_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "warpdrive"])

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_default_scenario_runs_cheap_schemes(self, capsys):
        code = main(["simulate", "--trials", "2", "--scheme", "isotropic", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert ",isotropic," in out
        assert ScenarioConfig().trials == 100


class TestRepository:
    ROOT = Path(__file__).resolve().parents[1]

    def test_the_readme_library_example_runs(self):
        readme = (self.ROOT / "README.md").read_text()
        example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(example, "README.md", "exec"), namespace)
        assert namespace["p_avg"] > 0

    def test_the_readme_cli_example_prints_the_readme_row(self, capsys):
        readme = (self.ROOT / "README.md").read_text()
        command = "nfwpt simulate --trials 20 --seed 7"
        assert f"```sh\n{command}\n```" in readme
        shown = readme.split(f"{command}\n```\n\n```\n", 1)[1].split("```", 1)[0]
        assert main(command.split()[1:]) == 0
        assert capsys.readouterr().out == shown

    def test_the_benchmark_self_test_passes(self):
        # It checks that the benchmark tracer still finds every per-layer
        # metric, so renaming or deleting a traced function fails here.
        done = subprocess.run(
            [sys.executable, "perfbench/selftest.py"],
            cwd=self.ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[-1] == "0 problems"
