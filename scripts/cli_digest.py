"""Print a digest of the CLI's output for a fixed list of commands.

    python scripts/cli_digest.py [CHECKOUT]
    python scripts/cli_digest.py [CHECKOUT] --drift OLD

runs each command below as `python -m nfwpt ...` against CHECKOUT/src (the
checkout holding this script by default), from CHECKOUT so that relative
scenario paths resolve, with one BLAS thread. The scenarios under scripts/
are read from beside this script by absolute path, so a checkout that lacks
the files runs the same scenarios; the printed commands name them
scripts/NAME.json, so the lines do not depend on where the script lives.
For each command it prints one line, `sha256-of-stdout exit-status command`.
Two checkouts that print the same lines produce the same CSV bytes and exit
statuses for every command, so a change that must keep the output byte for
byte is checked with

    diff <(python scripts/cli_digest.py OLD) <(python scripts/cli_digest.py NEW)

A change that may move the last bits is measured instead with --drift OLD,
which runs every command in OLD and in CHECKOUT. For each command whose
output differs it prints, per CSV column or per field of a crb report, the
largest relative change |new - old| / |old| over the rows; the last line
counts the commands that differ.
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
# Scenarios beside this script. Commands name them relative to the checkout;
# run() passes this script's copies.
# Pinned visibility regions and a complex reflection coefficient: a planning
# FIM summed over a partial region's rows, and the scene key's complex flag.
PINNED = "scripts/pinned_8x8.json"
# A 1e30 Hz carrier: the seed prefilter's amplitudes 1 / t are near 1e-22, so
# their squares leave the float32 range unless the seed table scales them.
CARRIER = "scripts/carrier_1e30.json"
# The built-in scenario at a 0.1 W budget: the plan divides the 1 W lattices
# by the budget, so these CRBs and the default gamma grid are quotients.
TENTH_WATT = "scripts/p_max_0p1.json"
_SCENARIOS = {
    name: Path(__file__).resolve().parent / Path(name).name
    for name in (PINNED, CARRIER, TENTH_WATT)
}

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
    # Each receiver is located three times, so the last two read its seed table.
    f"simulate --trials 3 --scheme equal_time --config {CARRIER}",
    # A plan and a default gamma grid off the 1 W budget.
    f"crb --config {TENTH_WATT}",
    f"sweep-gamma --trials 2 --config {TENTH_WATT}",
)


def argv(command: str) -> list[str]:
    """The command's arguments, with the scenarios under scripts/ at this script's copies."""
    return [str(_SCENARIOS.get(arg, arg)) for arg in command.split()]


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


def _table(text: str) -> list[list[str]]:
    """A CSV text's rows, or a crb report as one header and one row.

    Each `key=value` field of a report line becomes a column, named by the
    line's `erK:` label when it has one, so that er1's and er2's CRBs are
    compared apart.
    """
    lines = text.splitlines()
    if not lines or "=" not in lines[0]:
        return list(csv.reader(io.StringIO(text)))
    header, row = [], []
    for line in lines:
        label, _, fields = line.rpartition(": ")
        for field in fields.split():
            key, _, value = field.partition("=")
            header.append(f"{label} {key}" if label else key)
            row.append(value)
    return [header, row]


def drift(old: str, new: str) -> dict[str, float]:
    """Largest relative change of each numeric column between two CSV texts
    or two crb reports.

    Both texts must have the same header and the same number of rows; a
    column whose cells are not all numbers must be unchanged. Raises
    ValueError when the texts cannot be compared that way.
    """
    old_rows, new_rows = (_table(text) for text in (old, new))
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
                print(f"  {column:<22} {change:.2g}")
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
