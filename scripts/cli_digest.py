"""Print a digest of the CLI's output for a fixed list of commands.

    python scripts/cli_digest.py [CHECKOUT]
    python scripts/cli_digest.py [CHECKOUT] --drift OLD

runs each command below as `python -m nfwpt ...` against CHECKOUT/src (the
checkout holding this script by default), from CHECKOUT so that relative
scenario paths resolve, with one BLAS thread. The pinned-input scenario is
read from beside this script by absolute path, so a checkout that lacks the
file runs the same scenario; the printed command names it
scripts/pinned_8x8.json, so the lines do not depend on where the script
lives. For each command it prints one line,
`sha256-of-stdout exit-status command`. Two checkouts that print the same
lines produce the same CSV bytes and exit statuses for every command, so a
change that must keep the output byte for byte is checked with

    diff <(python scripts/cli_digest.py OLD) <(python scripts/cli_digest.py NEW)

A change that may move the last bits is measured instead with --drift OLD,
which runs every command in OLD and in CHECKOUT. For each command whose
output differs it prints, per CSV column, the largest relative change
|new - old| / |old| over the rows; the last line counts the commands that
differ.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

ELAA = "perfbench/scenarios/elaa_32x32.json"
# Pinned visibility regions and a complex reflection coefficient: a planning
# FIM summed over a partial region's rows, and the scene key's complex flag.
# Commands name it relative to the checkout; run() passes this script's copy.
PINNED = "scripts/pinned_8x8.json"
_PINNED_FILE = Path(__file__).resolve().parent / "pinned_8x8.json"

COMMANDS = (
    "crb",
    f"crb --config {ELAA}",
    "simulate --trials 100",
    "simulate --trials 30 --scheme no_vr",
    "simulate --trials 30 --scheme equal_time",
    f"simulate --trials 20 --config {ELAA}",
    "sweep-gamma --trials 10",
    "sweep-gamma --trials 10 --scheme equal_time",
    "sweep-power --trials 10",
    "sweep-weight --trials 5",
    f"crb --config {PINNED}",
    f"crb --scheme no_vr --config {PINNED}",
    f"simulate --trials 20 --config {PINNED}",
    f"sweep-weight --trials 3 --config {PINNED}",
    # Cells of more trials than an earlier 128-record sensing memo held.
    f"sweep-weight --trials 130 --grid 0.2,0.8 --config {PINNED}",
    # Every scheme, the non-sensing ones included, on pinned regions.
    f"sweep-power --trials 3 --grid 1,10 --config {PINNED}",
)


def argv(command: str) -> list[str]:
    """The command's arguments, with the pinned scenario at this script's copy."""
    return [str(_PINNED_FILE) if arg == PINNED else arg for arg in command.split()]


def run(checkout: Path, command: str) -> tuple[bytes, int]:
    """stdout and exit status of the command run against the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "nfwpt", *argv(command)],
        cwd=checkout,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return done.stdout, done.returncode


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0 or not math.isfinite(old) or math.isnan(new):
        return math.inf
    return abs(new - old) / abs(old)


def drift(old: str, new: str) -> dict[str, float]:
    """Largest relative change of each numeric column between two CSV texts.

    Both texts must have the same header and the same number of rows; a
    column whose cells are not all numbers must be unchanged. Raises
    ValueError when the texts cannot be compared that way.
    """
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        raise ValueError("the outputs do not share a CSV header")
    if len(old_rows) != len(new_rows):
        raise ValueError(f"{len(old_rows) - 1} rows against {len(new_rows) - 1}")
    header = old_rows[0]
    changes = dict.fromkeys(header, 0.0)
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        if len(old_row) != len(header) or len(new_row) != len(header):
            raise ValueError("a row does not match the header")
        for column, a, b in zip(header, old_row, new_row):
            try:
                change = _relative_change(float(a), float(b))
            except ValueError:
                if a != b:
                    raise ValueError(f"column {column} changes from {a!r} to {b!r}") from None
                change = 0.0
            changes[column] = max(changes[column], change)
    return changes


def _print_drift(old_checkout: Path, checkout: Path) -> None:
    differ = 0
    for command in COMMANDS:
        (old, old_status), (new, new_status) = run(old_checkout, command), run(checkout, command)
        if (old, old_status) == (new, new_status):
            continue
        differ += 1
        print(command, flush=True)
        if old_status != new_status:
            print(f"  exit status {old_status} -> {new_status}")
        try:
            changes = drift(old.decode(), new.decode())
        except ValueError as exc:
            print(f"  not comparable: {exc}")
            continue
        for column, change in changes.items():
            if change:
                print(f"  {column:<18} {change:.2g}")
    print(f"{differ} of {len(COMMANDS)} commands differ")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--drift", metavar="OLD", help="print the CSV drift from checkout OLD")
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    old_checkout = Path(args.drift).resolve() if args.drift else None
    for root in filter(None, (checkout, old_checkout)):
        if not (root / "src" / "nfwpt").is_dir():
            print(f"cli_digest: no src/nfwpt under {root}", file=sys.stderr)
            return 2
    if old_checkout is not None:
        _print_drift(old_checkout, checkout)
        return 0
    for command in COMMANDS:
        stdout, status = run(checkout, command)
        print(f"{hashlib.sha256(stdout).hexdigest()} {status} {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
