"""Workload table of the benchmark and the import of the program under test.

A workload is a list of `nfwpt` command lines that together make one round.
Every round of a run passes its own master seed, derived from the seed given
to the benchmark, so a run sees fresh scenes in each round while the same
seed always gives the same rounds.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIOS = BENCH_DIR / "scenarios"

# Seeds of successive rounds are spaced so that no two (seed, round) pairs of
# runs with distinct seeds collide while rounds stay below this count.
ROUND_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the commands of a round and their scenario."""

    name: str
    commands: tuple[tuple[str, ...], ...]
    config: str | None = None

    def round_argvs(self, seed: int, round_index: int, config: str | None = None):
        """Command lines of one round; config overrides the workload's scenario.

        Each command runs one trial per cell, so a run holds as many rounds,
        and so as many distinct scenes, as its time allows.
        """
        master = seed * ROUND_STRIDE + round_index
        scenario = config if config is not None else self.config
        extra = ["--config", scenario] if scenario else []
        return [
            [*cmd, *extra, "--trials", "1", "--seed", str(master)]
            for cmd in self.commands
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's scheme comparison; localize and CRB planning dominate.
        Workload(
            name="power_sweep_16x16",
            commands=(("sweep-power",),),
        ),
        # The paper's accuracy trade-off; tau spans 90 symbols down to 1.
        Workload(
            name="gamma_sweep_16x16",
            commands=(("sweep-gamma",),),
        ),
        # A large array with a short enough trial for many scenes per run.
        Workload(
            name="elaa_32x32",
            commands=(
                ("simulate", "--scheme", "proposed"),
                ("simulate", "--scheme", "perfect_csi"),
            ),
            config=str((SCENARIOS / "elaa_32x32.json").relative_to(ROOT)),
        ),
    )
}

SMALL_SCENARIO = str((SCENARIOS / "small_8x8.json").relative_to(ROOT))


class MissingProgram(RuntimeError):
    """The checkout holds no `src/nfwpt` to benchmark."""


def import_nfwpt(root: Path = ROOT):
    """Import `nfwpt` from the checkout's `src`, never from an installed copy."""
    src = root / "src"
    if not (src / "nfwpt" / "__init__.py").is_file():
        raise MissingProgram(f"no nfwpt package under {src}")
    sys.path.insert(0, str(src))
    nfwpt = importlib.import_module("nfwpt")
    importlib.import_module("nfwpt.cli")
    if Path(nfwpt.__file__).resolve().parent != (src / "nfwpt").resolve():
        raise MissingProgram(f"nfwpt was imported from {nfwpt.__file__}, not from {src}")
    return nfwpt
