"""Benchmark of the nfwpt sweeps, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures set-up CPU time in separate short processes, then runs
the workload's rounds for S seconds in one process through `nfwpt.cli.main`,
timing each trial from outside, and checks every output. With --trace 1 it
runs the rounds untraced and traced, alternately, and reports per-layer
metrics from the spans together with the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS
from workloads import BENCH_DIR, ROOT, WORKLOADS

DEADLINE_S = 175.0
SETUP_PROBES = 5
RESULTS = BENCH_DIR / "results"

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "trial/s",
    "proposed_trial_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Printed for every workload but not bounded: see README.md.
REPORTED = {
    "setup_s_wall": "s",
    "trials_per_s_wall": "trial/s",
    "proposed_trial_ms_p50_wall": "ms",
    "proposed_trial_ms_p90": "ms",
    "weighted_power_uw": "uW",
    "pos_rmse_mm": "mm",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    # One BLAS thread: the 16x16 and 32x32 calls are too small to gain from
    # more, and idle BLAS workers spinning beside the interpreter thread make
    # trial times swing with whatever else the machine runs.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run one workload process to its end and return its JSON report."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *args]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"workload process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report.get("first_trial_at") is None and report["mode"] != "traced":
        raise BenchError(f"workload process ran no trial: {proc.stderr.strip()[-2000:]}")
    if report["mode"] != "setup" and report["attempted"] < 1:
        raise BenchError("workload process attempted no trial")
    report["spawned_at"] = spawned_at
    return report


def setup_sample(report: dict) -> tuple:
    """(CPU seconds, wall seconds) a workload process took to reach its first trial."""
    return report["first_trial_cpu_s"], report["first_trial_at"] - report["spawned_at"]


def setup_probe(common: list, deadline: float) -> tuple:
    return setup_sample(run_child([*common, "--mode", "setup"], deadline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "nfwpt" / "__init__.py").is_file():
        print(f"run.py: no nfwpt package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            # Probes before and after the timed run sample the machine at
            # both ends of it; the timed run's own set-up is one more sample.
            setups = [setup_probe(common, deadline) for _ in range(SETUP_PROBES)]
            report = run_child([*common, "--mode", "timed"], deadline)
            setups.append(setup_sample(report))
            setups += [setup_probe(common, deadline) for _ in range(SETUP_PROBES)]
            summary = report["summary"]
            summary["setup_s_wall"] = statistics.median(wall for _, wall in setups)
            values = {
                "setup_s": statistics.median(cpu for cpu, _ in setups),
                "trials_per_s": summary["trials_per_s"],
                "proposed_trial_ms_p50": summary["proposed_trial_ms_p50"],
                "peak_rss_mb": report["peak_rss_mb"],
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            report["setup_samples_s"] = setups
        else:
            RESULTS.mkdir(exist_ok=True)
            trace_path = RESULTS / f"{tag}.spans.jsonl"
            report = run_child(
                [*common, "--mode", "traced", "--trace-out", str(trace_path)], deadline
            )
            summary = report["summary"]
            metrics = {
                k: {"value": v[0], "unit": v[1]} for k, v in report["layer_metrics"].items()
            }
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    for name in report.get("absent", []):
        print(f"  {name:52s} absent {LAYER_METRICS[name][0]}")
    for name, unit in REPORTED.items():
        if name not in summary:
            continue
        value = summary[name]
        shown = (
            f"absent ({summary['proposed_trials']} proposed trials, needs 100)"
            if value is None
            else f"{value:.6g}"
        )
        print(f"  {name:52s} {shown} {unit}")
    for scheme, ms in summary["ms_per_trial_by_scheme"].items():
        print(f"  {'ms_per_trial_p50.' + scheme:52s} {ms:.6g} ms")
    print(f"  trials attempted {report['attempted']}, failed {report['failed']}")
    for line in report["failures"]:
        print(f"  FAILED {line}")

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    result = {
        "correct": report["failed"] == 0 and not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
