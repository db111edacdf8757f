"""Command-line front end for the simulation harness.

User errors (a bad config value or key, a missing file, an infeasible
target, a slot too large to allocate) end the run with one line on stderr
and exit status 2; the simulator raises every other one as a ValueError.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .crb import min_sensing_duration
from .harness import (
    SCHEMES,
    ScenarioConfig,
    clear_memos,
    load_config,
    plan,
    rows_to_csv,
    simulate,
    sweep_beta,
    sweep_gamma,
    sweep_pmax,
    write_csv,
)

_DEFAULT_POWER_GRID = "0.1,0.31622776601683794,1.0,3.1622776601683795"
_DEFAULT_WEIGHT_GRID = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", default=None, help="JSON scenario file (built-in scenario when omitted)"
    )
    parser.add_argument("--scheme", choices=SCHEMES, default=None, help="override the scheme")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_scenario(parser)
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--trials", type=int, default=None, help="override the trial budget")
    parser.add_argument("--out", default=None, help="write results as CSV to this path")


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    return replace(cfg, **overrides) if overrides else cfg


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse grid {text!r}: {exc}") from None


def _default_gamma_grid(cfg: ScenarioConfig) -> list[float]:
    """Log grid around the worst planning CRB.

    Spans targets loose enough that one symbol suffices down to targets that
    nearly exhaust the block, so the duty-cycle trade-off is visible.
    """
    return list(max(c.worst for c in plan(cfg)) * np.logspace(-1.95, 0.5, 8))


def _emit(rows, out_path) -> None:
    text = write_csv(out_path, rows) if out_path else rows_to_csv(rows)
    print(text, end="")


def _report_crb(cfg: ScenarioConfig) -> None:
    crbs = plan(cfg)
    # An infeasible target raises here, before any line reaches stdout.
    tau = min_sensing_duration(crbs, cfg.gamma, cfg.block_len)
    for idx, crb in enumerate(crbs, 1):
        print(
            f"er{idx}: crb1_nominal_m2={crb.nominal:.12e} crb1_worst_m2={crb.worst:.12e} "
            f"vr=[{crb.region.start},{crb.region.end}]"
        )
    print(f"gamma_m2={cfg.gamma:.12e} tau_star={tau} block_len={cfg.block_len}")


def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="nfwpt",
        description="Two-stage sensing-assisted near-field power transfer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scheme and print its aggregates")
    _add_common(p_sim)

    p_gamma = sub.add_parser("sweep-gamma", help="sweep the sensing accuracy target")
    _add_common(p_gamma)
    p_gamma.add_argument(
        "--grid",
        default=None,
        help="comma-separated gamma values in m^2 (default: three decades around the planning CRB)",
    )

    p_power = sub.add_parser("sweep-power", help="sweep the power budget over all schemes")
    _add_common(p_power)
    p_power.add_argument(
        "--grid",
        default=_DEFAULT_POWER_GRID,
        help="comma-separated budgets in watts (default: 20 to 35 dBm)",
    )

    p_weight = sub.add_parser("sweep-weight", help="sweep the second receiver's weight")
    _add_common(p_weight)
    p_weight.add_argument(
        "--grid",
        default=_DEFAULT_WEIGHT_GRID,
        help="comma-separated weights in [0, 1] for the second receiver",
    )

    p_crb = sub.add_parser("crb", help="report the planning CRB and slot length")
    # The plan reads neither the seed nor the trial budget, and crb writes no CSV.
    _add_scenario(p_crb)
    p_crb.set_defaults(seed=None, trials=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Each command builds, plans and tabulates its seeds from scratch, as in a
    # fresh process, so what one command costs does not depend on the
    # commands run before it in the same interpreter. Scenes and sensing are
    # shared only within one trial of run_trials, so no command inherits any.
    clear_memos()
    try:
        _run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"nfwpt: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args)
    if args.command == "simulate":
        _emit([simulate(cfg)], args.out)
    elif args.command == "sweep-gamma":
        grid = _parse_grid(args.grid) if args.grid is not None else _default_gamma_grid(cfg)
        _emit(sweep_gamma(cfg, grid), args.out)
    elif args.command == "sweep-power":
        _emit(sweep_pmax(cfg, _parse_grid(args.grid)), args.out)
    elif args.command == "sweep-weight":
        _emit(sweep_beta(cfg, _parse_grid(args.grid)), args.out)
    elif args.command == "crb":
        _report_crb(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
