"""Exact invariances of the whole pipeline, checked end to end.

Scaling every length by 2^k, with the carrier divided by 2^k, keeps every
distance in wavelengths bit for bit, so no stage may tell the scenes apart:
the channels, the echoes, both seed-prefilter routes and the beamformer see
the same numbers. The CRBs, in square metres, scale by 4^k, and so must the
accuracy target for the same sensing slot. The localizer's stop tolerance is
a length, so each run here passes it scaled. Apart from the scaling, these
tests compare no result with a formula.
"""

import math
from dataclasses import replace

import pytest

from nfwpt import harness, localize
from nfwpt.harness import SCHEMES, ScenarioConfig

_TOL = 1e-4
_TRIALS = 6


def _scaled(cfg: ScenarioConfig, k: int) -> ScenarioConfig:
    """cfg with every length times 2^k: the carrier over 2^k, which scales the
    wavelength and the default spacing, the priors and their error bounds,
    and gamma, a squared length, times 4^k."""
    s = 2.0**k
    array = replace(cfg.array, carrier_freq=cfg.array.carrier_freq / s)
    ers = tuple(
        replace(
            spec,
            prior_position=tuple(c * s for c in spec.prior_position),
            error_bounds=tuple(c * s for c in spec.error_bounds),
        )
        for spec in cfg.ers
    )
    return replace(cfg, array=array, ers=ers, gamma=cfg.gamma * s * s)


def _rows(monkeypatch, cfg: ScenarioConfig, k: int) -> list:
    """One summary row per scheme, from one run_trials call, with the
    localizer's tolerance scaled by 2^k."""
    real = harness.locate_er

    def locate(*args, **kwargs):
        return real(*args, **kwargs, tol=_TOL * 2.0**k)

    monkeypatch.setattr(harness, "locate_er", locate)
    cells = [replace(cfg, scheme=scheme) for scheme in SCHEMES]
    rows = [harness.summarize(c, r, c.gamma) for c, r in zip(cells, harness.run_trials(cells))]
    monkeypatch.undo()
    return rows


@pytest.mark.parametrize("side", [16, 32])
def test_scaling_every_length_keeps_every_bit(monkeypatch, side):
    base = ScenarioConfig(trials=_TRIALS, master_seed=3)
    base = replace(base, array=replace(base.array, n_y=side, n_z=side))
    reference = _rows(monkeypatch, base, 0)
    assert [row.scheme for row in reference] == list(SCHEMES)
    # Later trials read the boxes' seed tables: both prefilter routes ran.
    assert any(entry.table is not None for entry in localize._tables.values())
    # The sensing schemes plan a slot and locate every receiver.
    sensing = [row for row in reference if row.scheme not in ("isotropic", "perfect_csi")]
    assert all(row.tau_mean > 0 for row in sensing)
    for k in (-1, 1, 3):
        for row, again in zip(reference, _rows(monkeypatch, _scaled(base, k), k)):
            assert again.scheme == row.scheme
            assert again.sweep_value == row.sweep_value * 4.0**k
            assert (again.tau_mean, again.duty_factor) == (row.tau_mean, row.duty_factor)
            assert again.powers == row.powers
            assert again.vr_hit_rate == row.vr_hit_rate
            if math.isnan(row.pos_rmse):
                assert row.scheme == "isotropic" and math.isnan(again.pos_rmse)
            else:
                assert again.pos_rmse == row.pos_rmse * 2.0**k


@pytest.mark.parametrize("side", [16, 32])
def test_the_plan_scales_with_the_reflection_and_the_noise(side):
    base = ScenarioConfig()
    base = replace(base, array=replace(base.array, n_y=side, n_z=side))
    louder = replace(base, ers=tuple(replace(s, reflection=2.0 * s.reflection) for s in base.ers))
    noisier = replace(base, noise_power=4.0 * base.noise_power)
    plans = (harness.plan(base), harness.plan(louder), harness.plan(noisier))
    for reference, brighter, dimmer in zip(*plans):
        for field in ("nominal", "worst"):
            crb = getattr(reference, field)
            assert getattr(brighter, field) == crb / 4.0
            assert getattr(dimmer, field) == crb * 4.0
        assert brighter.region == dimmer.region == reference.region


@pytest.mark.parametrize("side", [16, 32, 48])
def test_doubling_the_noise_doubles_the_plan_up_to_the_scale_roundings(side):
    """sigma^2 times 2 multiplies the plan's CRBs by 2 within 20 u.

    A CRB read from a root (unit U, scale S) moves by up to about
    2 sqrt(5) cond(U) delta relative when U's columns move by delta (the
    derivation in tests/test_harness.py), so a route that rounded sigma^2
    into U would need a bound of order cond(U) u, 5e-11 at 16x16. Here
    sigma^2 enters only S = sqrt(2 / sigma^2) |K columns|: U has the same
    bits at both noise powers, and only S's roundings remain. 2 / sigma^2
    and 1 / sigma^2 round once and their square roots once more, 1.5 u
    each, and the product with the column norm once, so each S is within
    2.5 u; its square, rounded, within 6 u, and the quotient within 7 u.
    lattice_crb's (x + y) + z sum of positive terms rounds twice, 9 u, and
    the plan's division by the budget once more, 10 u per plan. Two plans
    give 20 u. Measured worst: 3.6 u; the normal-equation route erred by
    8.3e-6 at 16x16.
    """
    base = ScenarioConfig()
    base = replace(base, array=replace(base.array, n_y=side, n_z=side))
    noisier = replace(base, noise_power=2.0 * base.noise_power)
    u = 2.0**-53
    for reference, dimmer in zip(harness.plan(base), harness.plan(noisier)):
        for field in ("nominal", "worst"):
            crb = getattr(reference, field)
            assert abs(getattr(dimmer, field) - 2.0 * crb) <= 20 * u * 2.0 * crb
