"""Monte Carlo harness: scenario configuration, benchmark schemes, sweeps, CSV.

Each trial draws ground truth around the configured priors, runs one scheme
over a single transmission block, and scores the average harvested power per
receiver. Schemes:

    proposed     two-stage design: planned sensing slots, region
                 identification, localization, then focused charging
    perfect_csi  genie channels, no sensing overhead (upper bound)
    isotropic    unfocused covariance (P / N) I over the whole block
    equal_time   two-stage pipeline with half the block spent sensing
    no_vr        two-stage pipeline that never identifies regions and
                 models the full aperture as visible

Per-trial randomness derives from SeedSequence((master_seed, trial_index)),
so every result is reproducible from the config alone.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .beamform import (
    average_harvested_power,
    solve_energy_covariance,
    weighted_channel_matrix,
)
from .channel import (
    ErState,
    VisibilityRegion,
    channel,
    min_vr_span,
)
from .crb import LatticeCrb, lattice_crb, min_sensing_duration
from .echo import aggregate, simulate_echo, uniform_probe
from .errors import DegenerateChannelError, InfeasibleBlockError, SingularFimError
from .geometry import SPEED_OF_LIGHT, UpaGeometry, build_upa
from .localize import LocalizationResult, clear_seed_tables, locate_er
from .visibility import estimate_power_levels, identify_vr, scaling_factor

SCHEMES = ("proposed", "perfect_csi", "isotropic", "equal_time", "no_vr")

# Accuracy target (m^2) sized so the planned slot stays in the single digits
# at the default 1 W budget while leaving most of the block for power
# transfer down to 0.1 W.
DEFAULT_GAMMA = 4e4

# Smallest normal float: a |b|^2 or a channel energy below it has too few bits.
_TINY = np.finfo(float).tiny


def _require_finite(key: str, *values) -> None:
    """Reject booleans, non-numbers, NaN and infinities for a real-valued key."""
    for v in values:
        try:
            ok = not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v)
        except OverflowError:  # an integer beyond the float range
            ok = False
        if not ok:
            raise ValueError(f"{key} must be a finite number, got {v!r}")


def _require_integer(key: str, value) -> None:
    """Reject booleans and non-integers (1.5, but also 2.0) for a count key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")


def _sequence(key: str, value, length: int) -> tuple:
    """The items of a list or tuple of the given length."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != length:
        raise ValueError(f"{key} must be a list of {length} values, got {value!r}")
    return tuple(value)


def _finite_triple(key: str, value) -> tuple[float, float, float]:
    items = _sequence(key, value, 3)
    _require_finite(key, *items)
    return tuple(float(v) for v in items)


@dataclass(frozen=True)
class ArraySpec:
    """Transmitter array block of the scenario configuration."""

    n_y: int = 16
    n_z: int = 16
    carrier_freq: float = 28e9
    spacing: float | None = None

    def __post_init__(self) -> None:
        _require_integer("n_y", self.n_y)
        _require_integer("n_z", self.n_z)
        _require_finite("carrier_freq", self.carrier_freq)
        if self.spacing is not None:
            _require_finite("spacing", self.spacing)
        if self.n_y < 1 or self.n_z < 1:
            raise ValueError(f"array dimensions must be positive, got {self.n_y}x{self.n_z}")
        # Region spans are computed from eta * N in floating point.
        if self.n_y * self.n_z > 2**53:
            raise ValueError(f"n_y * n_z must be at most 2**53, got {self.n_y}x{self.n_z}")
        if self.carrier_freq <= 0:
            raise ValueError(f"carrier frequency must be positive, got {self.carrier_freq}")
        if not math.isfinite(SPEED_OF_LIGHT / self.carrier_freq):
            raise ValueError(
                f"carrier_freq {self.carrier_freq!r} gives a wavelength beyond the float range"
            )
        if self.spacing is not None and self.spacing <= 0:
            raise ValueError(f"element spacing must be positive, got {self.spacing}")
        pitch = SPEED_OF_LIGHT / self.carrier_freq / 2.0 if self.spacing is None else self.spacing
        if not math.isfinite(pitch * (max(self.n_y, self.n_z) - 1)):
            raise ValueError(
                f"an array of {self.n_y}x{self.n_z} elements at pitch {pitch!r} spans beyond "
                f"the float range (carrier_freq {self.carrier_freq!r}, spacing {self.spacing!r})"
            )

    @property
    def n_elements(self) -> int:
        return self.n_y * self.n_z


@dataclass(frozen=True)
class ErSpec:
    """One receiver's prior knowledge and ground-truth distribution.

    reflection given as a real number is a magnitude whose phase is drawn
    uniformly per trial; a complex value pins the coefficient exactly. The
    default magnitude corresponds to a device-scale radar cross section of
    roughly 0.02 square meters at 28 GHz. vr given as (start, end) pins the
    visibility region instead of drawing it.
    """

    prior_position: tuple[float, float, float]
    error_bounds: tuple[float, float, float] = (0.15, 0.15, 0.15)
    weight: float = 1.0
    reflection: complex | float = 50.0
    vr: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        pos = _finite_triple("prior_position", self.prior_position)
        object.__setattr__(self, "prior_position", pos)
        bounds = _finite_triple("error_bounds", self.error_bounds)
        if any(v < 0 for v in bounds):
            raise ValueError(f"error_bounds must be nonnegative, got {self.error_bounds}")
        object.__setattr__(self, "error_bounds", bounds)
        # The localizer searches prior +- 2 D. On the array plane x = 0 the
        # response has no x derivative, so the planning Fisher information is
        # singular, and a candidate can coincide with an element.
        if abs(pos[0]) <= 2.0 * bounds[0]:
            raise ValueError(
                f"prior_position x = {pos[0]} with error bound {bounds[0]}: the "
                "search box x +- 2 D_x reaches the array plane x = 0"
            )
        _require_finite("weight", self.weight)
        if self.weight < 0:
            raise ValueError(f"weight must be nonnegative, got {self.weight}")
        refl = self.reflection
        parts = (refl.real, refl.imag) if isinstance(refl, complex) else (refl,)
        _require_finite("reflection", *parts)
        # The Fisher information scales with |b|^2, which must neither
        # overflow nor underflow.
        magnitude = math.hypot(*parts)
        squared = magnitude * magnitude
        if not math.isfinite(squared):
            raise ValueError(f"reflection magnitude squared must be finite, got {refl!r}")
        if squared < _TINY:
            raise ValueError(
                f"reflection magnitude squared must be at least {_TINY:.4g}, "
                f"got {refl!r}"
            )
        if self.vr is not None:
            vr = _sequence("vr", self.vr, 2)
            for v in vr:
                _require_integer("vr", v)
            object.__setattr__(self, "vr", (int(vr[0]), int(vr[1])))
            try:
                VisibilityRegion(*self.vr)
            except ValueError as exc:
                raise ValueError(f"vr {list(self.vr)}: {exc}") from None


def _default_ers() -> tuple[ErSpec, ...]:
    return (
        ErSpec(prior_position=(1.0, 2.0, 3.0), weight=0.1),
        ErSpec(prior_position=(1.5, 3.0, 4.5), weight=0.9),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full scenario: array, receivers, budgets, and harness settings."""

    array: ArraySpec = field(default_factory=ArraySpec)
    ers: tuple[ErSpec, ...] = field(default_factory=_default_ers)
    noise_power: float = 1e-15
    p_max: float = 1.0
    block_len: int = 200
    eta: float = 0.25
    n_alpha: int = 32
    gamma: float = DEFAULT_GAMMA
    trials: int = 100
    master_seed: int = 0
    scheme: str = "proposed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "ers", tuple(self.ers))
        if not self.ers:
            raise ValueError("at least one receiver is required")
        for key in ("noise_power", "p_max", "eta", "gamma"):
            _require_finite(key, getattr(self, key))
        for key in ("block_len", "n_alpha", "trials", "master_seed"):
            _require_integer(key, getattr(self, key))
        if self.noise_power <= 0:
            raise ValueError(f"noise power must be positive, got {self.noise_power}")
        if self.p_max <= 0:
            raise ValueError(f"power budget must be positive, got {self.p_max}")
        if self.block_len < 1:
            raise ValueError(f"block length must be >= 1, got {self.block_len}")
        # The slot plan and the duty factor take the block length as a float.
        if self.block_len > 2**53:
            raise ValueError(
                f"block_len must be at most 2**53, got a {len(str(self.block_len))}-digit integer"
            )
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        n = self.array.n_elements
        if not 1 <= self.n_alpha <= n // 2:
            raise ValueError(
                f"n_alpha must lie in 1..{n // 2} for {n} elements, got {self.n_alpha}"
            )
        if self.gamma <= 0:
            raise ValueError(f"accuracy target must be positive, got {self.gamma}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be nonnegative, got {self.master_seed}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        needs_draw = any(spec.vr is None for spec in self.ers)
        if needs_draw and n - self.n_alpha < min_vr_span(n, self.eta) + 1:
            raise ValueError(
                "visibility draw infeasible: the minimal region size exceeds "
                f"{n} - n_alpha = {n - self.n_alpha} elements"
            )
        for spec in self.ers:
            if spec.vr is not None:
                try:
                    VisibilityRegion(*spec.vr).rows(n)
                except ValueError as exc:
                    raise ValueError(f"vr {list(spec.vr)}: {exc}") from None


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one transmission block under one scheme."""

    powers: tuple[float, ...]
    tau_used: int
    vr_hit: bool
    pos_errors: tuple[float, ...]
    seed: tuple[int, int]


@dataclass(frozen=True)
class SweepRow:
    """Aggregates of one (sweep value, scheme) cell over the trial budget."""

    sweep_value: float
    scheme: str
    tau_mean: float
    duty_factor: float
    powers: tuple[float, ...]
    vr_hit_rate: float
    pos_rmse: float


def _draw_vr(n: int, eta: float, n_alpha: int, rng: np.random.Generator) -> VisibilityRegion:
    """Random contiguous region: minimal size plus geometric slack, capped so
    the order-statistic level split always sees both sides."""
    span = min_vr_span(n, eta)
    min_size = span + 1
    max_size = n - n_alpha
    slack = int(rng.geometric(1.0 / (1.0 + span))) - 1
    size = min(min_size + slack, max_size)
    start = int(rng.integers(1, n - size + 1, endpoint=True))
    return VisibilityRegion(start, start + size - 1)


def _receiver_key(spec: ErSpec) -> tuple:
    """What a trial's scene and sensing read of a receiver: all but its weight.

    A real reflection is a magnitude whose phase is drawn per trial, and a
    complex one pins the coefficient. 50.0 and 50+0j compare and hash equal,
    so the key also says which of the two it is.
    """
    refl = spec.reflection
    return (spec.prior_position, spec.error_bounds, spec.vr, refl, isinstance(refl, complex))


def _streams(master_seed: int, trial_index: int, n_ers: int) -> list:
    """The trial's scene stream, then one echo-noise stream per receiver."""
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    return np.random.SeedSequence((master_seed, trial_index)).spawn(1 + n_ers)


@functools.lru_cache(maxsize=4)
def array_geometry(array: ArraySpec) -> UpaGeometry:
    """The array's geometry, built once and shared by every stage and trial.

    Its position arrays are read-only, so one instance can serve every
    caller. The memo holds the last 4 arrays; cli.main empties it at the
    start of every command.
    """
    return build_upa(array.n_y, array.n_z, array.carrier_freq, array.spacing)


# Budget (W) of the probe the memoized planning lattices are evaluated with.
_PLAN_BUDGET = 1.0


def plan(cfg: ScenarioConfig) -> tuple[LatticeCrb, ...]:
    """Receivers' lattice CRBs under the configured scheme, memoized on its planning inputs.

    Planning runs before a block's sensing, so proposed plans a receiver with
    its pinned region when there is one and with the full aperture otherwise;
    every other scheme plans with the full aperture; each LatticeCrb carries
    its region. The plan depends on neither the accuracy target, the block
    length nor the seed, so one plan serves every trial and every target of a
    configuration, and min_sensing_duration turns it into the slot length.

    The Fisher information is quadratic in the constant probe sqrt(P / N),
    so the single-symbol CRB at budget P is the 1 W CRB over P. The memo
    therefore keys on the array, the noise power and the receivers, not on
    the budget: it holds each lattice evaluated with the 1 W probe, and every
    call divides both extremes by cfg.p_max, which keeps their bits at the
    default 1 W. The law is exact in real arithmetic only: off 1 W a quotient
    and a direct evaluation at the budget's probe differ by up to about
    cond(U) times the unit roundoff (crb module docstring). A quotient that
    overflows or underflows raises the SingularFimError that lattice_crb
    raises for such a CRB.
    """
    n = cfg.array.n_elements
    priors = tuple(
        (
            spec.prior_position,
            VisibilityRegion(*spec.vr)
            if cfg.scheme == "proposed" and spec.vr is not None
            else VisibilityRegion(1, n),
            abs(spec.reflection),
        )
        for spec in cfg.ers
    )
    bounds = tuple(spec.error_bounds for spec in cfg.ers)
    planned = []
    for k, lattice in enumerate(_plan(cfg.array, cfg.noise_power, priors, bounds), 1):
        nominal, worst = lattice.nominal / cfg.p_max, lattice.worst / cfg.p_max
        bad = next((c for c in (nominal, worst) if not 0 < c < math.inf), None)
        if bad is not None:
            raise SingularFimError(
                f"er{k}: single-symbol position CRB {bad:.3e} is not finite and positive"
            )
        planned.append(LatticeCrb(nominal=nominal, worst=worst, region=lattice.region))
    return tuple(planned)


@functools.lru_cache(maxsize=128)
def _plan(
    array: ArraySpec, noise_power: float, priors: tuple, bounds: tuple
) -> tuple[LatticeCrb, ...]:
    geom = array_geometry(array)
    return lattice_crb(geom, priors, bounds, uniform_probe(geom, _PLAN_BUDGET), noise_power)


# The memo's controls, named as on any lru_cache-wrapped function.
plan.cache_info = _plan.cache_info
plan.cache_clear = _plan.cache_clear


def clear_memos() -> None:
    """Empty every memo that outlives a command: the geometries, the seed
    tables and the plans. cli.main calls it at the start of every command."""
    array_geometry.cache_clear()
    clear_seed_tables()
    plan.cache_clear()


@dataclass(frozen=True)
class Scene:
    """Ground truth of one trial: per receiver, in the order of cfg.ers, its
    state and its true channel, read-only, since every cell of a trial of
    run_trials reads the same record. The states carry no weight: only
    charge reads the weights, from cfg.ers.
    """

    states: tuple[ErState, ...]
    channels: tuple[np.ndarray, ...]


def _scene_key(cfg: ScenarioConfig, trial_index: int) -> tuple:
    """Exactly what _scene reads, in the order of its arguments: the array,
    each receiver's _receiver_key, eta, n_alpha, master_seed and the trial
    index. No noise_power, p_max, scheme, weight, gamma, block_len or trial
    budget."""
    return (
        cfg.array,
        tuple(_receiver_key(spec) for spec in cfg.ers),
        cfg.eta,
        cfg.n_alpha,
        cfg.master_seed,
        trial_index,
    )


# Extreme finite inputs can overflow in the element distances or leave the
# channel energy subnormal; both raise instead of warning or scoring a channel
# with too few bits.
@np.errstate(all="ignore")
def _scene(
    array: ArraySpec, receivers: tuple, eta: float, n_alpha: int, master_seed: int, trial_index: int
) -> Scene:
    geom = array_geometry(array)
    rng = np.random.default_rng(_streams(master_seed, trial_index, len(receivers))[0])
    states = []
    for prior_position, error_bounds, pinned_vr, reflection, pinned_phase in receivers:
        prior = np.asarray(prior_position)
        bounds = np.asarray(error_bounds)
        position = prior + rng.uniform(-bounds, bounds)
        if pinned_vr is not None:
            vr = VisibilityRegion(*pinned_vr)
        else:
            vr = _draw_vr(geom.n_elements, eta, n_alpha, rng)
        if pinned_phase:
            b = reflection
        else:
            b = float(reflection) * np.exp(2j * np.pi * rng.uniform())
        states.append(ErState(position=position, vr=vr, reflection=b))
    channels = tuple(channel(geom, er) for er in states)
    for k, h in enumerate(channels, 1):
        if not np.isfinite(h).all():
            raise ValueError(f"er{k}: channel is not finite: the inputs overflow")
        energy = np.vdot(h, h).real
        if energy < _TINY:
            raise DegenerateChannelError(f"er{k}: channel energy {energy:.3g} is zero or subnormal")
        h.setflags(write=False)
    return Scene(tuple(states), channels)


@dataclass(frozen=True)
class Sensing:
    """First stage of one trial of a sensing scheme: what it found and the CSI
    built from it. Per receiver, in the order of cfg.ers: the identified
    region (the full aperture under no_vr), the localizer's result and the
    estimated channel; then whether every region is exact, and each position
    error against the Scene. Its arrays are read-only, since run_trials hands
    the same record to every cell of a trial that shares it.
    """

    regions: tuple[VisibilityRegion, ...]
    locations: tuple[LocalizationResult, ...]
    estimates: tuple[np.ndarray, ...]
    vr_hit: bool
    pos_errors: tuple[float, ...]


def _sense_key(cfg: ScenarioConfig, trial_index: int, tau: int) -> tuple:
    """Exactly what _sense reads besides the scene, in the order of its
    arguments: the trial's _scene_key, noise_power, p_max, whether the scheme
    identifies regions, and tau. No weight, gamma, block_len or trial budget."""
    return (_scene_key(cfg, trial_index), cfg.noise_power, cfg.p_max, cfg.scheme != "no_vr", tau)


# Extreme finite inputs can overflow or underflow in the echo and the
# localizer. The checks on y_bar and in the localizer raise for them, so no
# numpy warning needs to escape.
@np.errstate(all="ignore")
def _sense(
    scene: Scene, scene_key: tuple, noise_power: float, p_max: float, identify: bool, tau: int
) -> Sensing:
    """Per receiver: simulate and aggregate its echo, identify its region
    (the full aperture unless identify), locate it in its prior box widened
    to +- 2 D, and build its estimated channel. A ValueError of one
    receiver's echo, identification or localization keeps its type and names
    the receiver, er1 for the first."""
    array, receivers, eta, n_alpha, master_seed, trial_index = scene_key
    geom = array_geometry(array)
    n = geom.n_elements
    noise_streams = _streams(master_seed, trial_index, len(receivers))[1:]
    probe = uniform_probe(geom, p_max)
    regions = []
    locations = []
    for k, (er, h, stream, (prior_position, error_bounds, *_)) in enumerate(
        zip(scene.states, scene.channels, noise_streams, receivers), 1
    ):
        rng = np.random.default_rng(stream)
        try:
            y_bar = aggregate(simulate_echo(h, er.reflection, probe, tau, noise_power, rng))
            if not np.isfinite(y_bar).all():
                raise ValueError("echo is not finite: the inputs overflow")
            if identify:
                p_out, p_in = estimate_power_levels(y_bar, n_alpha)
                vr_hat = identify_vr(y_bar, eta, scaling_factor(p_out, p_in))
            else:
                vr_hat = VisibilityRegion(1, n)
            prior = np.asarray(prior_position)
            reach = 2.0 * np.asarray(error_bounds)
            location = locate_er(geom, y_bar, vr_hat, (prior - reach, prior + reach))
        except ValueError as exc:
            raise type(exc)(f"er{k}: {exc}") from None
        regions.append(vr_hat)
        locations.append(location)
    estimates = tuple(
        channel(geom, ErState(loc.position_hat, vr_hat))
        for vr_hat, loc in zip(regions, locations)
    )
    for h in estimates:
        h.setflags(write=False)
    hit = all(vr_hat == er.vr for vr_hat, er in zip(regions, scene.states))
    errors = tuple(
        float(np.linalg.norm(loc.position_hat - er.position))
        for loc, er in zip(locations, scene.states)
    )
    return Sensing(tuple(regions), tuple(locations), estimates, hit, errors)


# The Scene and Sensing records of the trial run_trials is running, keyed by
# _scene_key and _sense_key; None outside run_trials, so a direct run_trial
# call shares nothing.
_shared: dict | None = None


def charge(cfg: ScenarioConfig, true_channels, estimates, tau: int) -> tuple[float, ...]:
    """Second stage of a trial: focus the beam on the estimated channels with
    the weights of cfg.ers and return each receiver's average harvested power,
    through its true channel, over a block whose first K tau symbols went to
    sensing."""
    weights = [spec.weight for spec in cfg.ers]
    solution = solve_energy_covariance(weighted_channel_matrix(estimates, weights), cfg.p_max)
    return tuple(
        average_harvested_power(h, solution, tau, len(true_channels), cfg.block_len)
        for h in true_channels
    )


def sensing_slot(cfg: ScenarioConfig) -> int:
    """Symbols each receiver senses for under the configured scheme: none under
    isotropic and perfect_csi, half the block under equal_time, and the planned
    slot that meets cfg.gamma otherwise."""
    if cfg.scheme in ("isotropic", "perfect_csi"):
        return 0
    if cfg.scheme == "equal_time":
        n_ers = len(cfg.ers)
        tau = cfg.block_len // (2 * n_ers)
        if tau < 1:
            raise InfeasibleBlockError(
                f"block of {cfg.block_len} symbols cannot host {n_ers} half-block sensing slots"
            )
        return tau
    return min_sensing_duration(plan(cfg), cfg.gamma, cfg.block_len)


def run_trial(cfg: ScenarioConfig, trial_index: int) -> TrialResult:
    """Simulate one transmission block and score the configured scheme.

    tau comes from sensing_slot. Every scheme reads the trial's Scene, and a
    sensing scheme also its Sensing record; each is built here, or taken from
    an earlier cell of the same trial of run_trials with the same key.
    isotropic scores (P / N) I in closed form, and every other scheme focuses
    through charge: perfect_csi on the true channels, a sensing scheme on its
    estimates.
    """
    seed = (cfg.master_seed, trial_index)
    tau = sensing_slot(cfg)
    shared = {} if _shared is None else _shared
    scene_key = _scene_key(cfg, trial_index)
    if scene_key not in shared:
        shared[scene_key] = _scene(*scene_key)
    scene = shared[scene_key]
    n_ers = len(cfg.ers)
    if cfg.scheme == "isotropic":
        n = cfg.array.n_elements
        powers = tuple((cfg.p_max / n) * np.vdot(h, h).real for h in scene.channels)
        return TrialResult(powers, 0, False, (math.nan,) * n_ers, seed)
    if not tau:
        powers = charge(cfg, scene.channels, scene.channels, 0)
        return TrialResult(powers, 0, True, (0.0,) * n_ers, seed)
    key = _sense_key(cfg, trial_index, tau)
    if key not in shared:
        shared[key] = _sense(scene, *key)
    sensed = shared[key]
    powers = charge(cfg, scene.channels, sensed.estimates, tau)
    return TrialResult(powers, tau, sensed.vr_hit, sensed.pos_errors, seed)


def run_trials(cells) -> list[list[TrialResult]]:
    """Run every cell's trial budget, trial by trial, and return each cell's results.

    For each trial index it runs every cell in the given order through
    run_trial, so every cell of a trial reads one Scene, and the cells that
    read the same sensing inputs sense it once. It holds only that trial's
    records, and drops them before the next index and when it returns or
    raises. Every cell must have the same trial budget.
    """
    global _shared
    cells = list(cells)
    budgets = {cell.trials for cell in cells}
    if len(budgets) != 1:
        raise ValueError(
            f"run_trials needs one or more cells that share one trials budget, "
            f"got {sorted(budgets)}"
        )
    results = [[] for _ in cells]
    try:
        for i in range(budgets.pop()):
            _shared = {}
            for cell, cell_results in zip(cells, results):
                cell_results.append(run_trial(cell, i))
    finally:
        _shared = None
    return results


def summarize(cfg: ScenarioConfig, results: list[TrialResult], sweep_value: float) -> SweepRow:
    """Aggregate trial results into one sweep row."""
    if not results:
        raise ValueError("cannot summarize zero trials")
    n_ers = len(cfg.ers)
    taus = np.array([r.tau_used for r in results], dtype=float)
    duty = float(np.mean((cfg.block_len - n_ers * taus) / cfg.block_len))
    powers = tuple(
        float(np.mean([r.powers[j] for r in results])) for j in range(n_ers)
    )
    hit_rate = float(np.mean([r.vr_hit for r in results]))
    squared = np.array([e for r in results for e in r.pos_errors]) ** 2
    return SweepRow(
        sweep_value=float(sweep_value),
        scheme=cfg.scheme,
        tau_mean=float(taus.mean()),
        duty_factor=duty,
        powers=powers,
        vr_hit_rate=hit_rate,
        pos_rmse=float(np.sqrt(squared.mean())),
    )


def _sweep(cells: list[ScenarioConfig], values: list[float]) -> list[SweepRow]:
    """One row per cell, labelled by its sweep value, from one run_trials call."""
    return [
        summarize(cell, results, sweep_value=value)
        for cell, results, value in zip(cells, run_trials(cells), values)
    ]


def simulate(cfg: ScenarioConfig) -> SweepRow:
    """Run one scheme at the configured settings and aggregate."""
    return _sweep([cfg], [cfg.gamma])[0]


def _positive_grid(name: str, values) -> list[float]:
    """The grid as floats, rejected before any trial unless every value is
    finite and positive."""
    grid = [float(v) for v in values]
    if not grid or not all(math.isfinite(v) and v > 0 for v in grid):
        raise ValueError(f"{name} grid must be nonempty, finite and positive, got {values}")
    return grid


def sweep_gamma(cfg: ScenarioConfig, gamma_grid) -> list[SweepRow]:
    """Sweep the accuracy target for the configured scheme."""
    grid = _positive_grid("gamma", gamma_grid)
    # The slot never shortens as the target tightens, so taking the smallest
    # target's slot first fails an infeasible grid before any trial.
    sensing_slot(replace(cfg, gamma=min(grid)))
    return _sweep([replace(cfg, gamma=g) for g in grid], grid)


def sweep_pmax(cfg: ScenarioConfig, pmax_grid) -> list[SweepRow]:
    """Sweep the power budget across all schemes."""
    grid = _positive_grid("power", pmax_grid)
    cells = [replace(cfg, p_max=p, scheme=scheme) for p in grid for scheme in SCHEMES]
    return _sweep(cells, [cell.p_max for cell in cells])


def sweep_beta(cfg: ScenarioConfig, beta2_grid) -> list[SweepRow]:
    """Sweep the second receiver's weight (the first gets the complement)."""
    if len(cfg.ers) != 2:
        raise ValueError(
            f"the weight sweep requires exactly two receivers, got {len(cfg.ers)}"
        )
    grid = [float(b) for b in beta2_grid]
    if not grid or any(not 0 <= b <= 1 for b in grid):
        raise ValueError(f"weight grid must lie in [0, 1], got {beta2_grid}")
    cells = [
        replace(cfg, ers=(replace(cfg.ers[0], weight=1.0 - b2), replace(cfg.ers[1], weight=b2)))
        for b2 in grid
    ]
    return _sweep(cells, grid)


# --- configuration files and CSV output ------------------------------------

_ARRAY_KEYS = {f.name for f in fields(ArraySpec)}
_ER_KEYS = {f.name for f in fields(ErSpec)}
_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


def _reject_unknown(data: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


def _er_from_dict(data, where: str) -> ErSpec:
    _reject_unknown(_object(where, data), _ER_KEYS, "receiver")
    if "prior_position" not in data:
        raise ValueError(f"{where} is missing prior_position")
    kwargs = dict(data)
    refl = kwargs.get("reflection")
    if isinstance(refl, (list, tuple)):
        re, im = _sequence("reflection", refl, 2)
        _require_finite("reflection", re, im)
        kwargs["reflection"] = complex(re, im)
    return ErSpec(**kwargs)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON, rejecting unknown keys at every level.

    Every malformed value, at any level, is a ValueError that names its key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config root must be an object, got {type(data).__name__}")
    _reject_unknown(data, _CONFIG_KEYS, "config")
    kwargs = dict(data)
    if "array" in kwargs:
        array = _object("array", kwargs["array"])
        _reject_unknown(array, _ARRAY_KEYS, "array")
        kwargs["array"] = ArraySpec(**array)
    if "ers" in kwargs:
        ers = kwargs["ers"]
        if not isinstance(ers, (list, tuple)):
            raise ValueError(f"ers must be a list of receiver objects, got {ers!r}")
        kwargs["ers"] = tuple(_er_from_dict(er, f"ers[{i}]") for i, er in enumerate(ers))
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    """Load a scenario from a JSON file; a file that is not JSON is a
    ValueError whose message starts with its path."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return config_from_dict(data)


def csv_header(n_ers: int) -> str:
    power_cols = ",".join(f"power_er{j + 1}_watts" for j in range(n_ers))
    return f"sweep_value,scheme,tau_mean,duty_factor,{power_cols},vr_hit_rate,pos_rmse_m"


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows to CSV text with 13 significant digits per float."""
    if not rows:
        raise ValueError("cannot render zero rows")
    n_ers = len(rows[0].powers)
    if any(len(r.powers) != n_ers for r in rows):
        raise ValueError("all rows must report the same receiver count")
    lines = [csv_header(n_ers)]
    for r in rows:
        cells = [
            _fmt(r.sweep_value),
            r.scheme,
            _fmt(r.tau_mean),
            _fmt(r.duty_factor),
            *(_fmt(p) for p in r.powers),
            _fmt(r.vr_hit_rate),
            _fmt(r.pos_rmse),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path, rows: list[SweepRow]) -> str:
    """Write sweep rows to a CSV file with LF newlines regardless of platform,
    and return the text written."""
    text = rows_to_csv(rows)
    Path(path).write_text(text, newline="\n")
    return text
