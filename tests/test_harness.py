"""Tests for the scenario harness: schemes, sweeps, config files, CSV output."""

import functools
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfwpt import crb, harness

from nfwpt import build_upa, lattice_crb, min_sensing_duration, solve_energy_covariance
from nfwpt.beamform import harvested_power, weighted_channel_matrix
from nfwpt.channel import ErState, VisibilityRegion, channel
from nfwpt.echo import uniform_probe
from nfwpt.crb import crb_position, fim
from nfwpt.errors import DegenerateChannelError, InfeasibleBlockError
from nfwpt.harness import (
    SCHEMES,
    ArraySpec,
    ErSpec,
    ScenarioConfig,
    config_from_dict,
    csv_header,
    default_config,
    load_config,
    plan,
    rows_to_csv,
    run_trial,
    run_trials,
    sense,
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


def _fresh(cfg, trial_index):
    """The trial recomputed from an empty sensing memo."""
    sense.cache_clear()
    return run_trial(cfg, trial_index)


class TestRunTrial:
    def test_identical_seeds_reproduce_the_trial_bitwise(self):
        cfg = _small_cfg()
        assert _fresh(cfg, 1) == _fresh(cfg, 1)

    def test_trial_results_do_not_depend_on_batch_position(self):
        cfg = _small_cfg(trials=3)
        batch = run_trials(cfg)
        assert batch[2] == _fresh(cfg, 2)
        assert len(batch) == 3

    def test_a_config_builds_its_array_once(self, monkeypatch):
        calls = []
        inner = harness.build_upa
        monkeypatch.setattr(harness, "build_upa", lambda *a: calls.append(a) or inner(*a))
        cfg = _small_cfg(trials=3)
        for scheme in SCHEMES:
            run_trials(replace(cfg, scheme=scheme))
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
# The fields each memoized stage does not read. Every other change above is
# a keyed input of that stage.
_NOT_SENSED = {"weight", "block_len", "gamma", "trials"}
_NOT_PLANNED = _NOT_SENSED | {"eta", "n_alpha", "master_seed"}


def test_every_config_field_has_a_memo_key_decision():
    names = {f.name for cls in (ArraySpec, ErSpec, ScenarioConfig) for f in fields(cls)}
    assert set(_CONFIG_CHANGES) == names | {"vr_drawn"}
    assert _NOT_PLANNED <= names


class TestPlan:
    def _count_fim_calls(self, monkeypatch):
        calls = []
        inner = crb.fim
        monkeypatch.setattr(crb, "fim", lambda *a, **k: calls.append(1) or inner(*a, **k))
        return calls

    def test_the_plan_depends_on_planning_inputs_only(self, monkeypatch):
        calls = self._count_fim_calls(monkeypatch)
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
        run_trial(replace(cfg, p_max=2 * cfg.p_max), 0)
        assert len(calls) == 4
        info = plan.cache_info()
        assert (info.misses, info.hits) == (2, 5)

    @pytest.mark.parametrize("key", _CONFIG_CHANGES)
    def test_each_config_field_is_keyed_or_not_read(self, key):
        cfg = _small_cfg()
        plan(cfg)
        plan(_CONFIG_CHANGES[key](cfg))
        info = plan.cache_info()
        assert (info.misses, info.hits) == ((1, 1) if key in _NOT_PLANNED else (2, 0))

    def test_no_vr_and_unpinned_receivers_plan_with_the_full_aperture(self):
        pinned = plan(_small_cfg())
        assert pinned.regions == (VisibilityRegion(*_VRS[0]), VisibilityRegion(*_VRS[1]))
        for scheme in ("no_vr", "equal_time"):
            assert plan(_small_cfg(scheme=scheme)).regions == (VisibilityRegion(1, 64),) * 2
        ers = (replace(_small_cfg().ers[0], vr=None), _small_cfg().ers[1])
        assert plan(_small_cfg(ers=ers)).regions[0] == VisibilityRegion(1, 64)

    def test_an_infeasible_target_raises_on_every_call(self):
        cfg = _small_cfg(gamma=_small_planning_worst() / 1e6)
        for _ in range(2):
            with pytest.raises(InfeasibleBlockError):
                run_trial(cfg, 0)
            with pytest.raises(InfeasibleBlockError):
                plan(cfg).tau(cfg.gamma, cfg.block_len)
        assert run_trial(replace(cfg, gamma=_small_planning_worst()), 0).tau_used == 1

    def test_lattice_extremes_match_a_direct_evaluation(self):
        planned = plan(_small_cfg())
        assert planned.worst == _small_planning_worst()
        geom = build_upa(8, 8, 28e9)
        for spec, region, lattice in zip(_small_cfg().ers, planned.regions, planned.crbs):
            state = ErState(np.asarray(spec.prior_position), region, reflection=50.0)
            nominal = crb_position(fim(geom, state, uniform_probe(geom, 1.0), 1, 1e-15))
            assert lattice.nominal == nominal.crb_total


def _count_locates(monkeypatch):
    calls = []
    inner = harness.locate_er
    monkeypatch.setattr(harness, "locate_er", lambda *a, **k: calls.append(1) or inner(*a, **k))
    return calls


class TestSense:
    @pytest.mark.parametrize("scheme", ["proposed", "equal_time", "no_vr"])
    def test_a_hit_returns_the_bits_of_a_recompute(self, scheme):
        cfg = _small_cfg(scheme=scheme, ers=tuple(replace(s, vr=None) for s in _small_cfg().ers))
        for index in range(2):
            sense.cache_clear()
            first = run_trial(cfg, index)
            again = run_trial(cfg, index)
            info = sense.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            assert first == again == _fresh(cfg, index)

    def test_the_shared_record_is_read_only(self):
        sensed = sense(_small_cfg(), 0, 2)
        assert sense(_small_cfg(), 0, 2) is sensed
        for er, loc in zip(sensed.scene, sensed.locations):
            for position in (er.position, loc.position_hat):
                with pytest.raises(ValueError):
                    position[0] = 0.0

    def test_weights_gamma_and_block_len_do_not_reach_the_key(self):
        cfg = _small_cfg()
        tau = plan(cfg).tau(cfg.gamma, cfg.block_len)
        first = run_trial(cfg, 0)
        shared = [
            _spec_with(_spec_with(cfg, 0, weight=0.9), 1, weight=0.1),
            replace(cfg, gamma=cfg.gamma * 1.001),
            replace(cfg, block_len=300),
            replace(cfg, trials=7),
        ]
        for other in shared:
            assert plan(other).tau(other.gamma, other.block_len) == tau
        results = [run_trial(other, 0) for other in shared]
        info = sense.cache_info()
        assert (info.misses, info.hits) == (1, len(shared))
        # The charging stage reads the weights of its own config, not of the
        # config that filled the memo.
        assert results[0].powers != first.powers
        assert results[2].powers != first.powers
        for other, result in zip(shared, results):
            assert result == _fresh(other, 0)

    @pytest.mark.parametrize("key", _CONFIG_CHANGES)
    def test_each_config_field_is_keyed_or_not_read(self, key):
        # tau is held, so only the config's own fields can tell the two apart.
        cfg = _small_cfg()
        sense(cfg, 0, 2)
        sense(_CONFIG_CHANGES[key](cfg), 0, 2)
        info = sense.cache_info()
        assert (info.misses, info.hits) == ((1, 1) if key in _NOT_SENSED else (2, 0))

    def test_the_slot_length_and_the_trial_index_are_in_the_key(self):
        cfg = _small_cfg()
        for index, tau in ((0, 2), (0, 3), (1, 2)):
            sense(cfg, index, tau)
        info = sense.cache_info()
        assert (info.misses, info.hits) == (3, 0)

    def test_equal_time_and_proposed_share_a_slot_length_and_so_a_stage(self):
        cfg = _small_cfg()
        sense(cfg, 0, 2)
        sense(replace(cfg, scheme="equal_time"), 0, 2)
        info = sense.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_drawn_and_a_pinned_phase_do_not_share_a_scene(self):
        drawn = _small_cfg()
        pinned = _spec_with(drawn, 0, reflection=50 + 0j)
        # As receiver specs they are the same, so a key made of the specs
        # without their weights would reuse the drawn scene.
        assert pinned.ers[0] == drawn.ers[0]
        assert hash(pinned.ers[0]) == hash(drawn.ers[0])
        scenes = [sense(cfg, 0, 2).scene[0].reflection for cfg in (drawn, pinned)]
        assert sense.cache_info().misses == 2
        assert abs(scenes[0]) == pytest.approx(50.0) and scenes[0] != 50
        assert scenes[1] == 50 + 0j
        assert run_trial(pinned, 0) == _fresh(pinned, 0)

    def test_a_weight_sweep_locates_each_receiver_once_per_trial(self, monkeypatch):
        calls = _count_locates(monkeypatch)
        cfg = _small_cfg(trials=3)
        rows = sweep_beta(cfg, [0.1 * k for k in range(1, 10)])
        assert len(rows) == 9
        assert len(calls) == len(cfg.ers) * cfg.trials

    def test_a_failed_stage_is_not_stored(self, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise DegenerateChannelError("no energy")

        monkeypatch.setattr(harness, "locate_er", failing)
        for _ in range(2):
            with pytest.raises(DegenerateChannelError):
                run_trial(_small_cfg(), 0)
        assert len(calls) == 2
        assert sense.cache_info().currsize == 0


class TestSummarize:
    def test_aggregates_match_direct_averages(self):
        cfg = _small_cfg(trials=4)
        results = run_trials(cfg)
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
            ({"noise_power": 10**400}, "noise_power"),
            ({"array": {"n_y": 2**30, "n_z": 2**30}}, "n_y"),
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
        write_csv(first, rows)
        sense.cache_clear()
        write_csv(second, [simulate(cfg)])
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == rows_to_csv(rows)


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

    def test_simulate_prints_and_writes_the_same_csv(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out_path = tmp_path / "run.csv"
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(out_path), "--seed", "3"]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert printed == out_path.read_text()
        assert printed.startswith(csv_header(2))

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
        assert main(["crb"]) == 0
        assert capsys.readouterr().out == (
            "er1: crb1_nominal_m2=3.410932020671e-01 crb1_worst_m2=1.222918053937e+02 vr=[1,256]\n"
            "er2: crb1_nominal_m2=8.689404966254e+00 crb1_worst_m2=1.272909146697e+05 vr=[1,256]\n"
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

    def test_each_command_senses_from_scratch(self, tmp_path, capsys, monkeypatch):
        calls = _count_locates(monkeypatch)
        cfg_path = self._write_config(tmp_path)
        argv = ["sweep-weight", "--config", str(cfg_path), "--trials", "2"]
        for run in (1, 2):
            assert main(argv) == 0
            # Two receivers, two trials, nine weights: one stage per trial.
            assert len(calls) == run * 2 * 2
            info = sense.cache_info()
            assert (info.misses, info.hits) == (2, 16)
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
        assert default_config().trials == 100
