"""Self-test of the benchmark on the small 8x8 scenario, in seconds.

    python3 perfbench/selftest.py

1. Runs every workload's code path (set-up probe, timed run and traced run)
   through the same workload process the benchmark uses, with the small
   scenario in place of the workload's own, and requires zero failures and
   every per-layer metric present.
2. Captures one round of each workload in this process and shows that each
   output check accepts it as it is and rejects it after one value is
   corrupted: a power, a slot length, a position error, a CSV cell, a
   beamformer objective, an identified region or a position estimate.

Exits 0 when all of this holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import replace

import checks
from run import BenchError, run_child
from tracer import LAYER_METRICS, Tracer
from workload import Runner
from workloads import SMALL_SCENARIO, WORKLOADS, import_nfwpt

SEED = 7
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def code_paths() -> None:
    deadline = time.monotonic() + 170.0
    for name in WORKLOADS:
        common = ["--workload", name, "--seed", str(SEED), "--seconds", "0.1",
                  "--config", SMALL_SCENARIO]
        try:
            setup = run_child([*common, "--mode", "setup"], deadline)
            timed = run_child([*common, "--mode", "timed"], deadline)
            traced = run_child([*common, "--mode", "traced"], deadline)
        except BenchError as exc:
            expect(False, f"{name}: workload process failed: {exc}")
            continue
        expect(
            setup["first_trial_at"] > setup["spawned_at"] and setup["first_trial_cpu_s"] > 0,
            f"{name}: set-up probe stops at the first trial",
        )
        expect(
            timed["attempted"] > 0 and timed["failed"] == 0 and not timed["failures"],
            f"{name}: timed run has {timed['attempted']} trials, failures {timed['failures']}",
        )
        expect(
            traced["failed"] == 0 and not traced["failures"],
            f"{name}: traced run has failures {traced['failures']}",
        )
        expect(
            set(traced["layer_metrics"]) == set(LAYER_METRICS),
            f"{name}: traced run reports every layer metric (absent: {traced['absent']})",
        )


def capture(nfwpt, name: str, traced: bool = False):
    """One round of a workload on the small scenario, captured in this process."""
    runner = Runner(nfwpt, WORKLOADS[name], SEED, SMALL_SCENARIO)
    tracer = None
    if traced:
        runner.detach()
        tracer = Tracer()
        tracer.install()
        runner.attach()
        runner.tracer = tracer
    runner.run_round(0)
    runner.detach()
    if tracer is not None:
        tracer.uninstall()
    return runner, runner.start_pass(), tracer


def first_trial(rec, scheme: str):
    return next(t for t in rec.trials if rec.cells[t.cell].cfg.scheme == scheme)


def corrupt_result(trial, **changes) -> None:
    trial.result = replace(trial.result, **changes)


def rejects(label: str, check, clean, corrupt) -> None:
    """The check passes the clean capture and fails after `corrupt` edits a copy."""
    before = check(clean)
    bad = copy.deepcopy(clean)
    corrupt(bad)
    after = check(bad)
    expect(not before and bool(after), f"{label}: clean {len(before)} failures, corrupted {len(after)}")


def corruptions(nfwpt) -> None:
    _, power, obs_tracer = capture(nfwpt, "power_sweep_16x16", traced=True)
    _, gamma, _ = capture(nfwpt, "gamma_sweep_16x16")
    _, elaa, _ = capture(nfwpt, "elaa_32x32")
    observations = obs_tracer.observations

    for label, rec in (("power", power), ("gamma", gamma), ("elaa", elaa)):
        found = checks.record_checks(rec, nfwpt) + checks.check_reproduces(rec, nfwpt.harness.run_trial)
        expect(not found, f"{label} capture passes every check: {[f.message for f in found]}")
    found = checks.traced_checks(observations)
    expect(not found and len(observations["solve"]) > 0, "traced capture passes every check")

    def boost_proposed(rec):
        perfect = first_trial(rec, "perfect_csi").result
        corrupt_result(first_trial(rec, "proposed"), powers=tuple(1.01 * p for p in perfect.powers))

    rejects("perfect_csi_dominates rejects a proposed power above the oracle's",
            checks.check_perfect_csi_dominates, power, boost_proposed)
    rejects("tau_bounds rejects an equal_time slot one symbol long",
            checks.check_tau_bounds, power,
            lambda rec: corrupt_result(first_trial(rec, "equal_time"), tau_used=1 + first_trial(rec, "equal_time").result.tau_used))
    rejects("tau_bounds rejects a perfect_csi slot of one symbol",
            checks.check_tau_bounds, elaa,
            lambda rec: corrupt_result(first_trial(rec, "perfect_csi"), tau_used=1))
    rejects("tau_matches_oracle rejects a planned slot two symbols longer",
            lambda rec: checks.check_tau_matches_oracle(rec, nfwpt), power,
            lambda rec: corrupt_result(first_trial(rec, "no_vr"), tau_used=2 + first_trial(rec, "no_vr").result.tau_used))

    def raise_loosest(rec):
        loosest = max(rec.cells, key=lambda c: c.cfg.gamma)
        for i in loosest.trials:
            corrupt_result(rec.trials[i], tau_used=rec.trials[i].result.tau_used + 50)

    rejects("tau_nonincreasing_over_gamma rejects a longer slot at the loosest target",
            checks.check_tau_nonincreasing_over_gamma, gamma, raise_loosest)
    rejects("position_error_bound rejects an error beyond 3 |D|",
            checks.check_position_error_bound, power,
            lambda rec: corrupt_result(first_trial(rec, "proposed"), pos_errors=(10.0, 0.1)))
    rejects("position_error_bound rejects a nonzero perfect_csi error",
            checks.check_position_error_bound, elaa,
            lambda rec: corrupt_result(first_trial(rec, "perfect_csi"), pos_errors=(1e-3, 0.0)))

    def edit_csv(rec, column: int):
        call = rec.calls[0]
        lines = call.csv.splitlines()
        cells = lines[1].split(",")
        cells[column] = f"{float(cells[column]) * (1 + 1e-6) + 1e-300:.12e}"
        lines[1] = ",".join(cells)
        call.csv = "\n".join(lines) + "\n"

    rejects("csv_rows rejects a perturbed tau_mean cell",
            checks.check_csv_rows, gamma, lambda rec: edit_csv(rec, 2))
    rejects("csv_rows rejects a perturbed power cell",
            checks.check_csv_rows, power, lambda rec: edit_csv(rec, 4))
    rejects("csv_rows rejects a missing row",
            checks.check_csv_rows, elaa,
            lambda rec: setattr(rec.calls[0], "csv", rec.calls[0].csv.splitlines()[0] + "\n"))
    rejects("reproduces rejects a result that differs in the last bit of a power",
            lambda rec: checks.check_reproduces(rec, nfwpt.harness.run_trial), elaa,
            lambda rec: corrupt_result(first_trial(rec, "proposed"), powers=tuple(
                math.nextafter(p, math.inf) for p in first_trial(rec, "proposed").result.powers)))
    rejects("reproduces rejects a second pass with another slot length",
            lambda rec: checks.check_passes_agree(gamma, rec), gamma,
            lambda rec: corrupt_result(rec.trials[0], tau_used=rec.trials[0].result.tau_used + 1))

    def bump(key, field, index, delta):
        def edit(obs):
            item = obs[key][0]
            if index is None:
                item[field] = item[field] * (1 + delta)
            else:
                item[field][index] += delta
        return edit

    rejects("objective_is_pmax_lambda_max rejects an objective off by 1e-6",
            lambda obs: checks.check_objective(obs["solve"]), observations,
            bump("solve", "objective", None, 1e-6))
    rejects("vr_invariants rejects a region shorter than ceil(eta N)",
            lambda obs: checks.check_vr_invariants(obs["identify_vr"]), observations,
            lambda obs: obs["identify_vr"][0].update(end=obs["identify_vr"][0]["start"] + 1))
    rejects("search_box rejects an estimate 1 cm outside its box",
            lambda obs: checks.check_search_box(obs["locate_er"]), observations,
            lambda obs: obs["locate_er"][0]["position"].__setitem__(0, obs["locate_er"][0]["hi"][0] + 0.01))


def main() -> int:
    nfwpt = import_nfwpt()
    code_paths()
    corruptions(nfwpt)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
