"""One workload process: runs rounds of `nfwpt.cli.main` and reports on stdout.

Modes:
  setup   stop at the first trial and report when it began and the CPU time
          the process had used by then, for set-up time
  timed   run rounds for the given seconds, timing each trial from outside
          by wrapping `nfwpt.harness.run_trial` and scaling it by the speed
          reference, then check every output
  traced  run each round untraced, then again with spans recorded, for the
          given seconds, and report the per-layer metrics, the tracing
          overhead and the checks of both passes

The last line of stdout is one JSON object; the CSV that `nfwpt` prints is
captured and checked, not echoed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import checks
from checks import Call, Cell, Record, Trial
from workloads import SMALL_SCENARIO, WORKLOADS, MissingProgram, import_nfwpt

P90_MIN_TRIALS = 100


class FirstTrial(Exception):
    """Raised by the set-up probe when the first trial starts."""


class Runner:
    """Runs rounds of one workload through the CLI and captures every trial."""

    def __init__(
        self, nfwpt, workload, seed: int, config: str | None, stop_at_first=False, speed=None
    ):
        self.harness = nfwpt.harness
        self.cli = nfwpt.cli
        self.workload = workload
        self.seed = seed
        self.config = config
        self.stop_at_first = stop_at_first
        self.inner = None
        self.record = Record()
        self.first_trial_at = None
        self.first_trial_cpu_s = None
        self.tracer = None
        self.speed = speed
        self._seq = 0
        self.attach()

    def attach(self) -> None:
        """Time every trial by wrapping whatever `run_trial` the harness binds now."""
        self.inner = self.harness.run_trial
        self.harness.run_trial = self._run_trial

    def detach(self) -> None:
        self.harness.run_trial = self.inner

    def _run_trial(self, cfg, trial_index):
        if self.first_trial_at is None:
            self.first_trial_at = time.monotonic()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.first_trial_cpu_s = usage.ru_utime + usage.ru_stime
            if self.stop_at_first:
                raise FirstTrial
        rec = self.record
        call = len(rec.calls) - 1
        if not rec.cells or rec.cells[-1].call != call or rec.cells[-1].cfg is not cfg:
            rec.cells.append(Cell(call=call, cfg=cfg))
            rec.calls[call].cells.append(len(rec.cells) - 1)
        trial = Trial(seq=self._seq, cell=len(rec.cells) - 1, index=trial_index, seconds=math.nan)
        self._seq += 1
        rec.cells[-1].trials.append(len(rec.trials))
        rec.trials.append(trial)
        if self.tracer is not None:
            self.tracer.trial = trial.seq
        if self.speed is not None:
            self.speed.sample_if_due()
            trial.paused = self.speed.paused
        trial.start = time.perf_counter()
        try:
            trial.result = self.inner(cfg, trial_index)
        finally:
            trial.seconds = time.perf_counter() - trial.start
            if self.tracer is not None:
                self.tracer.trial = -1
        return trial.result

    def run_call(self, argv, round_index: int) -> None:
        call = Call(round=round_index, argv=list(argv))
        self.record.calls.append(call)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                self.cli.main(argv)
        except FirstTrial:
            raise
        except (Exception, SystemExit):
            call.error = traceback.format_exc(limit=4)
        call.csv = out.getvalue()

    def run_round(self, round_index: int, config: str | None = None) -> float:
        start = time.perf_counter()
        scenario = config if config is not None else self.config
        for argv in self.workload.round_argvs(self.seed, round_index, scenario):
            self.run_call(argv, round_index)
        return time.perf_counter() - start

    def run_for(self, seconds: float) -> list:
        """Whole rounds, at least one, while the next fits in `seconds`
        counted from the first trial; a round is assumed to last as long as
        the longest so far."""
        times = []
        while True:
            times.append(self.run_round(len(times)))
            if self.first_trial_at is None:
                return times
            elapsed = time.monotonic() - self.first_trial_at
            if elapsed + max(times) > seconds:
                return times

    def start_pass(self) -> Record:
        """Begin a new pass of rounds; return the record of the finished one."""
        done, self.record = self.record, Record()
        return done


def call_failures(rec: Record) -> list:
    """A call that raised condemns its trials, including the one that raised."""
    return [
        checks.Failure(
            "call_raised",
            call.error.strip().splitlines()[-1],
            frozenset(rec.call_trials(call)),
        )
        for call in rec.calls
        if call.error is not None
    ]


def merge(records: list) -> Record:
    """One record holding the calls, cells and trials of several, in order."""
    out = Record()
    for rec in records:
        calls, cells, trials = len(out.calls), len(out.cells), len(out.trials)
        for call in rec.calls:
            out.calls.append(replace(call, cells=[c + cells for c in call.cells]))
        for cell in rec.cells:
            out.cells.append(
                replace(cell, call=cell.call + calls, trials=[t + trials for t in cell.trials])
            )
        for trial in rec.trials:
            out.trials.append(replace(trial, cell=trial.cell + cells))
    return out


def busy_spans(rec: Record) -> list:
    """Each trial's share of the run: up to the start of the next trial of the
    same CLI call, or its own time when it is the last trial of its call.

    The gaps between calls (argument parsing, planning the default grid,
    rendering the CSV) are left out, since a real sweep makes one call for
    all its trials. The time spent in the speed reference is left out too.
    """
    spans = []
    for a, b in zip(rec.trials, rec.trials[1:] + [None]):
        same_call = b is not None and rec.cells[b.cell].call == rec.cells[a.cell].call
        spans.append((b.start - b.paused) - (a.start - a.paused) if same_call else a.seconds)
    return spans


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def summarize(rec: Record, speed=None) -> dict:
    """End-to-end figures of one pass; NaN where a pass has no such trials.

    With a speed probe, `trials_per_s` and `proposed_trial_ms_p50` are scaled
    to the reference speed and the wall-clock figures carry a `_wall` suffix.
    """
    done = [t for t in rec.trials if t.result is not None]
    proposed = [t for t in done if rec.cells[t.cell].cfg.scheme == "proposed"]
    per_scheme: dict = {}
    for t in done:
        per_scheme.setdefault(rec.cells[t.cell].cfg.scheme, []).append(t.seconds * 1e3)
    errors = [e for t in proposed for e in t.result.pos_errors]
    wall_ms = [t.seconds * 1e3 for t in proposed]
    spans = busy_spans(rec)
    out = {
        "trials": len(done),
        "proposed_trials": len(proposed),
        "trials_per_s_wall": len(done) / sum(spans) if sum(spans) > 0 else math.nan,
        "proposed_trial_ms_p50_wall": statistics.median(wall_ms) if wall_ms else math.nan,
        "proposed_trial_ms_p90": (
            _percentile(wall_ms, 0.9) if len(wall_ms) >= P90_MIN_TRIALS else None
        ),
        "weighted_power_uw": (
            1e6 * statistics.fmean(
                checks.weighted_power(rec.cells[t.cell].cfg, t.result) for t in proposed
            )
            if proposed
            else math.nan
        ),
        "pos_rmse_mm": (
            1e3 * math.sqrt(math.fsum(e * e for e in errors) / len(errors))
            if errors
            else math.nan
        ),
        "ms_per_trial_by_scheme": {s: statistics.median(v) for s, v in per_scheme.items()},
    }
    if speed is not None:
        factor = speed.factor()
        out["trials_per_s"] = out["trials_per_s_wall"] / factor
        out["proposed_trial_ms_p50"] = out["proposed_trial_ms_p50_wall"] * factor
        out["reference_ms_p50"] = 1e3 * statistics.median(speed.seconds)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--config", default=None, help="scenario file in place of the workload's")
    parser.add_argument("--trace-out", default=None, help="where the traced mode writes its spans")
    args = parser.parse_args(argv)

    try:
        nfwpt = import_nfwpt()
    except MissingProgram as exc:
        print(f"workload: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    speed = None
    if args.mode == "timed":
        from speed import SpeedProbe

        speed = SpeedProbe()
    runner = Runner(
        nfwpt, workload, args.seed, args.config, stop_at_first=args.mode == "setup", speed=speed
    )
    out: dict = {"mode": args.mode}
    if args.mode == "setup":
        try:
            runner.run_round(0)
        except FirstTrial:
            pass
        out["first_trial_at"] = runner.first_trial_at
        out["first_trial_cpu_s"] = runner.first_trial_cpu_s
        print(json.dumps(out))
        return 0 if runner.first_trial_at is not None else 1

    failures: list = []
    oracle_cache: dict = {}
    if args.mode == "timed":
        runner.run_for(args.seconds)
        out["first_trial_at"] = runner.first_trial_at
        out["first_trial_cpu_s"] = runner.first_trial_cpu_s
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed.sample()
        rec = runner.start_pass()
        runner.detach()
        failures += call_failures(rec)
        failures += checks.record_checks(rec, nfwpt, oracle_cache)
        failures += checks.check_reproduces(rec, runner.inner)
        out["summary"] = summarize(rec, speed)
        attempted = len(rec.trials)
    else:
        from tracer import Tracer, layer_metrics

        # Warm the process up on the small scenario, so that first-call costs
        # land in neither pass and the passes differ only by the tracing.
        runner.run_round(0, config=SMALL_SCENARIO)
        runner.start_pass()
        tracer = Tracer()
        plains, traceds, plain_times, traced_times = [], [], [], []
        start = time.monotonic()
        # Each round runs untraced, then traced, so both see the same load.
        while not plain_times or (
            time.monotonic() - start + max(plain_times) + max(traced_times) <= args.seconds
        ):
            r = len(plain_times)
            plain_times.append(runner.run_round(r))
            plains.append(runner.start_pass())
            runner.detach()
            tracer.install()
            runner.attach()
            runner.tracer = tracer
            traced_times.append(runner.run_round(r))
            traceds.append(runner.start_pass())
            runner.detach()
            runner.tracer = None
            tracer.uninstall()
            runner.attach()
        runner.detach()
        plain, traced = merge(plains), merge(traceds)
        for rec in (plain, traced):
            failures += call_failures(rec)
            failures += checks.record_checks(rec, nfwpt, oracle_cache)
        failures += checks.check_passes_agree(plain, traced)
        failures += checks.traced_checks(tracer.observations)
        overhead = 100.0 * (sum(traced_times) / sum(plain_times) - 1.0)
        trials = {
            t.seq: (traced.cells[t.cell].cfg.scheme, t.result is not None and t.result.vr_hit)
            for t in traced.trials
        }
        metrics = layer_metrics(tracer, trials, overhead)
        out["layer_metrics"] = {k: v for k, v in metrics.items() if v is not None}
        out["absent"] = sorted(k for k, v in metrics.items() if v is None)
        out["missing_names"] = tracer.missing
        out["spans"] = len(tracer.spans)
        out["summary"] = summarize(plain)
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace_out)
        attempted = len(plain.trials) + len(traced.trials)

    condemned = set().union(*(f.trials for f in failures)) if failures else set()
    out["attempted"] = attempted
    out["failed"] = min(attempted, len(condemned))
    out["failures"] = [f"{f.check}: {f.message}" for f in failures[:20]]
    out["failures_by_check"] = {
        name: sum(f.check == name for f in failures)
        for name in (*checks.CHECK_NAMES, "call_raised")
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
