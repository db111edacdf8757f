"""The CLI's bytes for every scripts/cli_digest.py command, against the outputs
recorded in tests/cli_output.json.

The bytes depend on the BLAS kernel that the CPU selects, so the file names
the environment that wrote it. On another environment the test fails and
names what differs; it never skips. A change that moves bits on purpose
rewrites the file with

    python scripts/cli_digest.py --record tests/cli_output.json

and puts the drift report that this test prints in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("cli_digest", _ROOT / "scripts" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

_RECORDED = json.loads((_ROOT / "tests" / "cli_output.json").read_text())


def test_the_recording_covers_every_digest_command_in_order():
    assert list(_RECORDED["commands"]) == list(cli_digest.COMMANDS)
    assert set(_RECORDED["environment"]) == set(cli_digest.environment())


def _environment_differences(recorded: dict, here: dict) -> list[str]:
    return [
        f"{key} is {value!r} here but {recorded.get(key)!r} in the recording"
        for key, value in here.items()
        if recorded.get(key) != value
    ]


def test_another_environment_is_named_value_by_value():
    here = cli_digest.environment()
    assert _environment_differences(here, here) == []
    other = dict(here, openblas_core="Sandybridge")
    assert _environment_differences(other, dict(here, openblas_core="SkylakeX")) == [
        "openblas_core is 'SkylakeX' here but 'Sandybridge' in the recording"
    ]


def test_every_command_prints_the_recorded_bytes():
    differ = _environment_differences(_RECORDED["environment"], cli_digest.environment())
    assert not differ, "the recording comes from another environment: " + "; ".join(differ)
    runs = []
    for command, entry in _RECORDED["commands"].items():
        recorded = (entry["stdout"].encode(), entry["status"])
        runs.append((command, recorded, cli_digest.run(_ROOT, command)))
    report = cli_digest.drift_lines(runs)
    assert report == [f"0 of {len(runs)} commands differ"], "\n".join(["", *report])
