"""Span recorder for the traced run, installed from outside the program.

Each wrapped name is replaced, in the module that binds it, by a wrapper that
records a span (name, start, end, parent span, trial id) in memory. Names are
wrapped where the calling module looks them up, so `nfwpt.harness.locate_er`
and `nfwpt.localize.concentrated_objective` are separate bindings of the
functions they call. A span's name is the defining module and function, such
as `localize.locate_er`. `steering_vector` runs inside nearly every other span
and thousands of times per trial, so it is counted, not spanned.

A name that a later version of the program renames or removes is skipped and
the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (binding module, attribute): the calls into each layer that get a span.
SPAN_TARGETS = (
    ("nfwpt.cli", "main"),
    ("nfwpt.cli", "simulate"),
    ("nfwpt.cli", "sweep_gamma"),
    ("nfwpt.cli", "sweep_pmax"),
    ("nfwpt.harness", "run_trial"),
    ("nfwpt.harness", "build_upa"),
    ("nfwpt.harness", "min_sensing_duration"),
    ("nfwpt.harness", "simulate_echo"),
    ("nfwpt.harness", "aggregate"),
    ("nfwpt.harness", "identify_vr"),
    ("nfwpt.harness", "locate_er"),
    ("nfwpt.harness", "weighted_channel_matrix"),
    ("nfwpt.harness", "solve_energy_covariance"),
    ("nfwpt.crb", "fim"),
    ("nfwpt.crb", "crb_position"),
    ("nfwpt.localize", "concentrated_objective"),
    ("nfwpt.localize", "estimate_b"),
)

# Bindings that are counted per trial without a span.
COUNT_TARGETS = (
    ("nfwpt.harness", "steering_vector"),
    ("nfwpt.channel", "steering_vector"),
    ("nfwpt.crb", "steering_vector"),
    ("nfwpt.localize", "steering_vector"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "trial")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _observe_locate(tracer, args, kwargs, result) -> None:
    lo, hi = (np.asarray(c, dtype=float) for c in args[3])
    tracer.observations["locate_er"].append(
        {
            "trial": tracer.trial,
            "lo": lo.tolist(),
            "hi": hi.tolist(),
            "position": np.asarray(result.position_hat).tolist(),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
        }
    )


def _observe_identify(tracer, args, kwargs, result) -> None:
    tracer.observations["identify_vr"].append(
        {
            "trial": tracer.trial,
            "n": int(np.asarray(args[0]).size),
            "eta": float(args[1]),
            "start": int(result.start),
            "end": int(result.end),
        }
    )


def _observe_channels(tracer, args, kwargs, result) -> None:
    # The K x K Gram matrix W^1/2 H^H H W^1/2 shares its nonzero eigenvalues
    # with the N x N weighted matrix the solver receives.
    h = np.column_stack([np.asarray(c, dtype=complex) for c in args[0]])
    root_w = np.sqrt(np.asarray(args[1], dtype=float))
    gram = root_w[:, None] * (h.conj().T @ h) * root_w[None, :]
    tracer._last_channels = (id(result), gram)


def _observe_solve(tracer, args, kwargs, result) -> None:
    matrix = args[0]
    last = tracer._last_channels
    gram = last[1] if last is not None and last[0] == id(matrix) else None
    tracer.observations["solve"].append(
        {
            "trial": tracer.trial,
            "p_max": float(args[1]),
            "objective": float(result.objective),
            "input_bytes": int(np.asarray(matrix).nbytes),
            "gram_re": None if gram is None else gram.real.tolist(),
            "gram_im": None if gram is None else gram.imag.tolist(),
        }
    )


OBSERVERS = {
    ("nfwpt.harness", "locate_er"): _observe_locate,
    ("nfwpt.harness", "identify_vr"): _observe_identify,
    ("nfwpt.harness", "weighted_channel_matrix"): _observe_channels,
    ("nfwpt.harness", "solve_energy_covariance"): _observe_solve,
}


class Tracer:
    """Installs span and count wrappers and keeps what they record."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.observations: dict = defaultdict(list)
        self.missing: list[str] = []
        self.trial = -1
        self._stack: list[int] = []
        self._saved: list = []
        self._last_channels = None

    def install(self) -> None:
        self.missing = []
        for target in SPAN_TARGETS:
            fn = self._lookup(target)
            if fn is not None:
                self._replace(target, self._span_wrapper(fn, OBSERVERS.get(target)))
        for target in COUNT_TARGETS:
            fn = self._lookup(target)
            if fn is not None:
                self._replace(target, self._count_wrapper(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _lookup(self, target):
        module_name, attr = target
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return None
        return fn

    def _replace(self, target, wrapper) -> None:
        module = importlib.import_module(target[0])
        self._saved.append((module, target[1], getattr(module, target[1])))
        setattr(module, target[1], wrapper)

    def _span_wrapper(self, fn, observe):
        name = _span_name(fn)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn):
        name = _span_name(fn)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, self.trial)] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# name: (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "crb.fim.calls_per_trial": ("count", "lower"),
    "crb.fim.ms_per_call": ("ms", "lower"),
    "crb.min_sensing_duration.ms_per_trial": ("ms", "lower"),
    "geometry.build_upa.calls_per_trial": ("count", "lower"),
    "beamform.solve_energy_covariance.ms_per_call": ("ms", "lower"),
    "beamform.weighted_channel_matrix.ms_per_call": ("ms", "lower"),
    "beamform.solve_energy_covariance.input_mb": ("MB", "lower"),
    "localize.locate_er.ms_per_call": ("ms", "lower"),
    "localize.concentrated_objective.calls_per_locate": ("count", "lower"),
    "localize.locate_er.iterations_mean": ("count", "lower"),
    "localize.locate_er.converged_share": ("share", "higher"),
    "channel.steering_vector.calls_per_trial": ("count", "lower"),
    "visibility.identify_vr.ms_per_call": ("ms", "lower"),
    "visibility.vr_hit_share": ("share", "higher"),
    "echo.simulate_echo.ms_per_call": ("ms", "lower"),
    "echo.aggregate.ms_per_call": ("ms", "lower"),
    "harness.run_trial.self_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "tracing_overhead_pct": ("%", "lower"),
}


def _mean(values):
    return sum(values) / len(values) if values else None


def layer_metrics(tracer: Tracer, trials: dict, overhead_pct: float | None) -> dict:
    """Per-layer metrics from the spans; a metric whose spans are missing is None.

    trials maps each trial id to (scheme, vr_hit). Per-trial figures are taken
    over the `proposed` trials, since those run every stage.
    """
    proposed = {t for t, (scheme, _) in trials.items() if scheme == "proposed"}
    durations = defaultdict(list)
    in_proposed = Counter()
    ms_in_proposed = Counter()
    covered = Counter()
    for name, start, end, parent, trial in tracer.spans:
        ms = (end - start) * 1e3
        durations[name].append(ms)
        if parent >= 0:
            covered[parent] += ms
        if trial in proposed:
            in_proposed[name] += 1
            ms_in_proposed[name] += ms

    def self_ms(name):
        values = [
            (end - start) * 1e3 - covered[idx]
            for idx, (span_name, start, end, _, _) in enumerate(tracer.spans)
            if span_name == name
        ]
        return _mean(values)

    def per_proposed(value, present):
        return value / len(proposed) if proposed and present else None

    locates = tracer.observations["locate_er"]
    solves = tracer.observations["solve"]
    sensed = [hit for t, (scheme, hit) in trials.items() if scheme == "proposed"]
    steering = sum(c for (name, t), c in tracer.counts.items() if t in proposed)
    objective_calls = len(durations["localize.concentrated_objective"])
    locate_calls = len(durations["localize.locate_er"])
    values = {
        "crb.fim.calls_per_trial": per_proposed(in_proposed["crb.fim"], "crb.fim" in durations),
        "crb.fim.ms_per_call": _mean(durations["crb.fim"]),
        "crb.min_sensing_duration.ms_per_trial": per_proposed(
            ms_in_proposed["crb.min_sensing_duration"], "crb.min_sensing_duration" in durations
        ),
        "geometry.build_upa.calls_per_trial": per_proposed(
            in_proposed["geometry.build_upa"], "geometry.build_upa" in durations
        ),
        "beamform.solve_energy_covariance.ms_per_call": _mean(
            durations["beamform.solve_energy_covariance"]
        ),
        "beamform.weighted_channel_matrix.ms_per_call": _mean(
            durations["beamform.weighted_channel_matrix"]
        ),
        "beamform.solve_energy_covariance.input_mb": _mean(
            [s["input_bytes"] / 1e6 for s in solves]
        ),
        "localize.locate_er.ms_per_call": _mean(durations["localize.locate_er"]),
        "localize.concentrated_objective.calls_per_locate": (
            objective_calls / locate_calls if objective_calls and locate_calls else None
        ),
        "localize.locate_er.iterations_mean": _mean([o["iterations"] for o in locates]),
        "localize.locate_er.converged_share": _mean([float(o["converged"]) for o in locates]),
        "channel.steering_vector.calls_per_trial": per_proposed(steering, tracer.counts),
        "visibility.identify_vr.ms_per_call": _mean(durations["visibility.identify_vr"]),
        "visibility.vr_hit_share": (
            _mean([float(h) for h in sensed]) if durations["visibility.identify_vr"] else None
        ),
        "echo.simulate_echo.ms_per_call": _mean(durations["echo.simulate_echo"]),
        "echo.aggregate.ms_per_call": _mean(durations["echo.aggregate"]),
        "harness.run_trial.self_ms": self_ms("harness.run_trial"),
        "cli.main.self_ms": self_ms("cli.main"),
        "tracing_overhead_pct": overhead_pct,
    }
    return {
        name: None if values[name] is None else (float(values[name]), unit)
        for name, (unit, _) in LAYER_METRICS.items()
    }
