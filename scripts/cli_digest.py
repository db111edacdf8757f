"""Print a digest of the CLI's output for a fixed list of commands.

    python scripts/cli_digest.py [CHECKOUT]

runs each command below as `python -m nfwpt ...` against CHECKOUT/src (the
checkout holding this script by default), from CHECKOUT so that relative
scenario paths resolve, with one BLAS thread. The pinned-input scenario is
read from beside this script by absolute path, so a checkout that lacks the
file runs the same scenario. For each command it prints one line,
`sha256-of-stdout exit-status command`. Two checkouts that print the same
lines produce the same CSV bytes and exit statuses for every command, so a
change that must keep the output byte for byte is checked with

    diff <(python scripts/cli_digest.py OLD) <(python scripts/cli_digest.py NEW)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ELAA = "perfbench/scenarios/elaa_32x32.json"
# Pinned visibility regions and a complex reflection coefficient: a planning
# FIM summed over a partial region's rows, and the sense key's complex flag.
PINNED = Path(__file__).resolve().parent / "pinned_8x8.json"

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
)


def digest(checkout: Path, command: str) -> tuple[str, int]:
    """sha256 of the command's stdout and its exit status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "nfwpt", *command.split()],
        cwd=checkout,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return hashlib.sha256(run.stdout).hexdigest(), run.returncode


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python scripts/cli_digest.py [CHECKOUT]", file=sys.stderr)
        return 2
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not (checkout / "src" / "nfwpt").is_dir():
        print(f"cli_digest: no src/nfwpt under {checkout}", file=sys.stderr)
        return 2
    for command in COMMANDS:
        sha, status = digest(checkout, command)
        print(f"{sha} {status} {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
