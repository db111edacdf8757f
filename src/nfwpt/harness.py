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
from .errors import InfeasibleBlockError
from .geometry import UpaGeometry, build_upa
from .localize import LocalizationResult, locate_er
from .visibility import estimate_power_levels, identify_vr, scaling_factor

SCHEMES = ("proposed", "perfect_csi", "isotropic", "equal_time", "no_vr")

# Accuracy target (m^2) sized so the planned slot stays in the single digits
# at the default 1 W budget while leaving most of the block for power
# transfer down to 0.1 W.
DEFAULT_GAMMA = 4e4

_PLANNED_SCHEMES = ("proposed", "no_vr")


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
        if self.spacing is not None and self.spacing <= 0:
            raise ValueError(f"element spacing must be positive, got {self.spacing}")

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
        magnitude = math.hypot(*parts)
        if not math.isfinite(magnitude):
            raise ValueError(f"reflection must be finite, got {refl!r}")
        if magnitude == 0:
            raise ValueError("reflection coefficient must be nonzero")
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
            if spec.vr is not None and spec.vr[1] > n:
                raise ValueError(
                    f"fixed visibility region {spec.vr} exceeds array size {n}"
                )


def default_config() -> ScenarioConfig:
    """The built-in evaluation scenario."""
    return ScenarioConfig()


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
    if max_size < min_size:
        raise ValueError(
            f"visibility draw infeasible: need size {min_size} but at most {max_size}"
        )
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


def _draw_scene(
    receivers: tuple, n: int, eta: float, n_alpha: int, stream: np.random.SeedSequence
) -> tuple[ErState, ...]:
    """Ground truth of each receiver given by its _receiver_key.

    The states carry no receiver weight: the weights enter only the second
    stage, whose objective charge reads them from cfg.ers, so one scene serves
    every configuration that differs from another only in weights.
    """
    rng = np.random.default_rng(stream)
    states = []
    for prior_position, error_bounds, pinned_vr, reflection, pinned_phase in receivers:
        prior = np.asarray(prior_position)
        bounds = np.asarray(error_bounds)
        position = prior + rng.uniform(-bounds, bounds)
        if pinned_vr is not None:
            vr = VisibilityRegion(*pinned_vr)
        else:
            vr = _draw_vr(n, eta, n_alpha, rng)
        if pinned_phase:
            b = reflection
        else:
            b = float(reflection) * np.exp(2j * np.pi * rng.uniform())
        states.append(ErState(position=position, vr=vr, reflection=b))
    return tuple(states)


@functools.lru_cache(maxsize=4)
def array_geometry(array: ArraySpec) -> UpaGeometry:
    """The array's geometry, built once and shared by every stage and trial.

    Its position arrays are read-only, so one instance can serve every
    caller. The memo holds the last 4 arrays; cli.main empties it at the
    start of every command.
    """
    return build_upa(array.n_y, array.n_z, array.carrier_freq, array.spacing)


@dataclass(frozen=True)
class SensingPlan:
    """First-stage plan of one configuration: per receiver, the visibility
    region planned with and the single-symbol lattice CRBs."""

    regions: tuple[VisibilityRegion, ...]
    crbs: tuple[LatticeCrb, ...]

    @property
    def worst(self) -> float:
        """Worst single-symbol position CRB over every receiver's lattice."""
        return max(c.worst for c in self.crbs)

    def tau(self, gamma: float, block_len: int) -> int:
        """Slot length that meets gamma; InfeasibleBlockError if the block is too short."""
        return min_sensing_duration(self.crbs, gamma, block_len)


def plan(cfg: ScenarioConfig) -> SensingPlan:
    """Sensing plan of the configured scheme, memoized on its planning inputs.

    Planning runs before a block's sensing, so proposed plans a receiver with
    its pinned region when there is one and with the full aperture otherwise;
    every other scheme plans with the full aperture. The plan depends on
    neither the accuracy target, the block length nor the seed, so one plan
    serves every trial and every target of a configuration.
    """
    n = cfg.array.n_elements
    priors = tuple(
        (
            spec.prior_position,
            spec.vr if cfg.scheme == "proposed" and spec.vr is not None else (1, n),
            abs(spec.reflection),
        )
        for spec in cfg.ers
    )
    bounds = tuple(spec.error_bounds for spec in cfg.ers)
    return _plan(cfg.array, cfg.p_max, cfg.noise_power, priors, bounds)


@functools.lru_cache(maxsize=128)
def _plan(
    array: ArraySpec, p_max: float, noise_power: float, priors: tuple, bounds: tuple
) -> SensingPlan:
    geom = array_geometry(array)
    priors = [(position, VisibilityRegion(*vr), refl) for position, vr, refl in priors]
    crbs = lattice_crb(geom, priors, bounds, uniform_probe(geom, p_max), noise_power)
    return SensingPlan(tuple(vr for _, vr, _ in priors), crbs)


# The memo's controls, named as on any lru_cache-wrapped function.
plan.cache_info = _plan.cache_info
plan.cache_clear = _plan.cache_clear


@dataclass(frozen=True)
class Sensing:
    """First stage of one trial: the scene it drew and what sensing found.

    Per receiver, in the order of cfg.ers: its ground truth, the identified
    visibility region (the full aperture under no_vr) and the localizer's
    result. Its position arrays are read-only, since every memo hit hands out
    the same record.
    """

    scene: tuple[ErState, ...]
    regions: tuple[VisibilityRegion, ...]
    locations: tuple[LocalizationResult, ...]


def _streams(master_seed: int, trial_index: int, n_ers: int) -> list:
    """The trial's scene stream, then one echo-noise stream per receiver."""
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    return np.random.SeedSequence((master_seed, trial_index)).spawn(1 + n_ers)


def sense(cfg: ScenarioConfig, trial_index: int, tau: int) -> Sensing:
    """First stage of a trial of a sensing scheme, with tau symbols per receiver.

    Draws the trial's scene; then, for each receiver, simulates and
    aggregates its echo, identifies its visibility region (every scheme but
    no_vr, which models the full aperture) and locates it in its prior box
    widened to +- 2 D.

    Memoized on exactly what it reads: the array; per receiver, the prior,
    the error bounds, the pinned region and the reflection with its type;
    noise_power, p_max, eta and n_alpha; whether the scheme identifies
    regions; tau, master_seed and the trial index. It reads no weight, gamma,
    block_len or trial budget, so the cells of a weight sweep, and the
    targets of a gamma sweep that plan the same tau, sense each trial once.
    A hit returns the stored record, the bits a recompute would give. The
    records are small (scene states, regions, localizer results; no
    N-vector), and the memo keeps the last 128, so a cell of up to 128
    trials, the default 100 among them, is shared in full by the next. A
    larger cell shares no sensing with the next at all: the next cell asks
    for the same trials in the same order, and each has been evicted by the
    time it is asked for.
    An exception is not stored, so a failing trial raises on every call, but
    a warning raised while sensing is not raised again on a hit. cli.main
    empties the memo at the start of every command.
    """
    receivers = tuple(_receiver_key(spec) for spec in cfg.ers)
    return _sense(
        cfg.array,
        receivers,
        cfg.noise_power,
        cfg.p_max,
        cfg.eta,
        cfg.n_alpha,
        cfg.scheme != "no_vr",
        tau,
        cfg.master_seed,
        trial_index,
    )


@functools.lru_cache(maxsize=128)
def _sense(
    array: ArraySpec,
    receivers: tuple,
    noise_power: float,
    p_max: float,
    eta: float,
    n_alpha: int,
    identify: bool,
    tau: int,
    master_seed: int,
    trial_index: int,
) -> Sensing:
    geom = array_geometry(array)
    n = geom.n_elements
    streams = _streams(master_seed, trial_index, len(receivers))
    scene = _draw_scene(receivers, n, eta, n_alpha, streams[0])
    probe = uniform_probe(geom, p_max)
    regions = []
    locations = []
    for er, stream, (prior_position, error_bounds, *_) in zip(scene, streams[1:], receivers):
        rng = np.random.default_rng(stream)
        samples = simulate_echo(channel(geom, er), er.reflection, probe, tau, noise_power, rng)
        y_bar = aggregate(samples)
        if identify:
            p_out, p_in = estimate_power_levels(y_bar, n_alpha)
            alpha = scaling_factor(p_out, p_in)
            vr_hat = identify_vr(y_bar, eta, alpha)
        else:
            vr_hat = VisibilityRegion(1, n)
        prior = np.asarray(prior_position)
        reach = 2.0 * np.asarray(error_bounds)
        loc = locate_er(geom, y_bar, vr_hat, (prior - reach, prior + reach), probe, tau)
        # Every hit hands out this record, so no caller may write to it.
        loc.position_hat.setflags(write=False)
        regions.append(vr_hat)
        locations.append(loc)
    return Sensing(scene, tuple(regions), tuple(locations))


sense.cache_info = _sense.cache_info
sense.cache_clear = _sense.cache_clear


def charge(cfg: ScenarioConfig, sensed: Sensing, tau: int) -> tuple[float, ...]:
    """Second stage of a trial: charge the receivers as they were sensed.

    Builds each receiver's true channel from the scene and its estimated
    channel from the identified region and position, focuses the beam on
    the estimates with the weights of cfg.ers (never from the shared
    sensing record) and returns each receiver's average harvested power over
    a block whose first K tau symbols went to sensing.
    """
    geom = array_geometry(cfg.array)
    true_channels = [channel(geom, er) for er in sensed.scene]
    estimates = [
        channel(geom, ErState(loc.position_hat, vr_hat))
        for vr_hat, loc in zip(sensed.regions, sensed.locations)
    ]
    return _focus(cfg, true_channels, estimates, tau)


def _focus(cfg: ScenarioConfig, true_channels, estimates, tau: int) -> tuple[float, ...]:
    """Average powers under the beam solved for the weighted estimated channels."""
    weights = [spec.weight for spec in cfg.ers]
    solution = solve_energy_covariance(weighted_channel_matrix(estimates, weights), cfg.p_max)
    return tuple(
        average_harvested_power(h, solution, tau, len(true_channels), cfg.block_len)
        for h in true_channels
    )


def run_trial(cfg: ScenarioConfig, trial_index: int) -> TrialResult:
    """Simulate one transmission block and score the configured scheme.

    A sensing scheme runs three stages: plan (the slot length tau; half the
    block under equal_time), sense and charge.
    """
    n_ers = len(cfg.ers)
    seed = (cfg.master_seed, trial_index)
    if cfg.scheme in ("isotropic", "perfect_csi"):
        geom = array_geometry(cfg.array)
        receivers = tuple(_receiver_key(spec) for spec in cfg.ers)
        stream = _streams(*seed, n_ers)[0]
        scene = _draw_scene(receivers, geom.n_elements, cfg.eta, cfg.n_alpha, stream)
        true_channels = [channel(geom, er) for er in scene]
        if cfg.scheme == "isotropic":
            n = geom.n_elements
            powers = tuple((cfg.p_max / n) * np.vdot(h, h).real for h in true_channels)
            return TrialResult(powers, 0, False, (math.nan,) * n_ers, seed)
        powers = _focus(cfg, true_channels, true_channels, 0)
        return TrialResult(powers, 0, True, (0.0,) * n_ers, seed)

    if cfg.scheme == "equal_time":
        tau = cfg.block_len // (2 * n_ers)
        if tau < 1:
            raise InfeasibleBlockError(
                f"block of {cfg.block_len} symbols cannot host {n_ers} half-block sensing slots"
            )
    else:
        tau = plan(cfg).tau(cfg.gamma, cfg.block_len)
    sensed = sense(cfg, trial_index, tau)
    powers = charge(cfg, sensed, tau)
    hit = all(vr_hat == er.vr for vr_hat, er in zip(sensed.regions, sensed.scene))
    errors = tuple(
        float(np.linalg.norm(loc.position_hat - er.position))
        for loc, er in zip(sensed.locations, sensed.scene)
    )
    return TrialResult(powers, int(tau), hit, errors, seed)


def run_trials(cfg: ScenarioConfig) -> list[TrialResult]:
    """Run the configured trial budget sequentially (deterministic order)."""
    return [run_trial(cfg, i) for i in range(cfg.trials)]


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


def simulate(cfg: ScenarioConfig) -> SweepRow:
    """Run one scheme at the configured settings and aggregate."""
    return summarize(cfg, run_trials(cfg), sweep_value=cfg.gamma)


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
    if cfg.scheme in _PLANNED_SCHEMES:
        # The slot never shortens as the target tightens, so planning the
        # smallest target first fails an infeasible grid before any trial.
        plan(cfg).tau(min(grid), cfg.block_len)
    rows = []
    for g in grid:
        sub = replace(cfg, gamma=g)
        rows.append(summarize(sub, run_trials(sub), sweep_value=g))
    return rows


def sweep_pmax(cfg: ScenarioConfig, pmax_grid) -> list[SweepRow]:
    """Sweep the power budget across all schemes."""
    grid = _positive_grid("power", pmax_grid)
    rows = []
    for p in grid:
        for scheme in SCHEMES:
            sub = replace(cfg, p_max=p, scheme=scheme)
            rows.append(summarize(sub, run_trials(sub), sweep_value=p))
    return rows


def sweep_beta(cfg: ScenarioConfig, beta2_grid) -> list[SweepRow]:
    """Sweep the second receiver's weight (the first gets the complement)."""
    if len(cfg.ers) != 2:
        raise ValueError(
            f"the weight sweep requires exactly two receivers, got {len(cfg.ers)}"
        )
    grid = [float(b) for b in beta2_grid]
    if not grid or any(not 0 <= b <= 1 for b in grid):
        raise ValueError(f"weight grid must lie in [0, 1], got {beta2_grid}")
    rows = []
    for b2 in grid:
        ers = (
            replace(cfg.ers[0], weight=1.0 - b2),
            replace(cfg.ers[1], weight=b2),
        )
        sub = replace(cfg, ers=ers)
        rows.append(summarize(sub, run_trials(sub), sweep_value=b2))
    return rows


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


def write_csv(path, rows: list[SweepRow]) -> None:
    """Write sweep rows to a CSV file with LF newlines regardless of platform."""
    Path(path).write_text(rows_to_csv(rows), newline="\n")
