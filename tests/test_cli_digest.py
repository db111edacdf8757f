"""Tests for scripts/cli_digest.py: its printed lines and its drift
comparison, on in-memory CSV texts; the digest's own commands are not run
here."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

_HEADER = "sweep_value,scheme,power_er1_watts,pos_rmse_m\n"


def test_drift_is_the_largest_relative_change_per_column():
    old = _HEADER + "1.0,proposed,2.0e-06,4.0e-01\n1.0,isotropic,1.0e-08,nan\n"
    new = _HEADER + "1.0,proposed,2.0e-06,4.0e-01\n1.0,isotropic,1.1e-08,nan\n"
    changes = cli_digest.drift(old, new)
    assert list(changes) == ["sweep_value", "scheme", "power_er1_watts", "pos_rmse_m"]
    assert changes["power_er1_watts"] == pytest.approx(0.1)
    assert changes["sweep_value"] == changes["scheme"] == changes["pos_rmse_m"] == 0.0
    assert cli_digest.drift(old, old) == dict.fromkeys(changes, 0.0)


def test_drift_from_zero_or_to_nan_is_infinite():
    old = _HEADER + "1.0,proposed,0.0,4.0e-01\n"
    new = _HEADER + "1.0,proposed,1.0e-09,nan\n"
    changes = cli_digest.drift(old, new)
    assert changes["power_er1_watts"] == changes["pos_rmse_m"] == math.inf


@pytest.mark.parametrize(
    "new",
    [
        "sweep_value,scheme\n1.0,proposed\n",
        _HEADER,
        _HEADER + "1.0,no_vr,2.0e-06,4.0e-01\n",
        _HEADER + "1.0,proposed,2.0e-06\n",
    ],
    ids=["header", "rows", "text cell", "short row"],
)
def test_drift_rejects_outputs_it_cannot_compare(new):
    old = _HEADER + "1.0,proposed,2.0e-06,4.0e-01\n"
    with pytest.raises(ValueError):
        cli_digest.drift(old, new)



def test_lines_name_the_pinned_scenario_relative_to_the_checkout(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli_digest, "run", lambda checkout, command: ran.append(command) or (b"", 0))
    assert cli_digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 2)[2] for line in lines] == ran == list(cli_digest.COMMANDS)
    pinned = [line for line in lines if "pinned_8x8.json" in line]
    assert len(pinned) == 6
    for line in pinned:
        assert line.endswith("--config scripts/pinned_8x8.json")
    assert str(_PATH.parent) not in "".join(lines)


def test_commands_run_the_pinned_scenario_beside_the_script():
    argv = cli_digest.argv(f"crb --config {cli_digest.PINNED}")
    assert argv[:2] == ["crb", "--config"]
    assert Path(argv[2]) == _PATH.parent / "pinned_8x8.json"
    assert Path(argv[2]).is_absolute() and Path(argv[2]).is_file()
