"""Tests for scripts/cli_digest.py: its printed lines, its scenario files and
its drift comparison, on in-memory CSV texts. Of the digest's own commands,
only the 1e30 Hz carrier one is run here, in process."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from nfwpt import localize
from nfwpt.cli import main

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


def test_drift_compares_crb_reports_field_by_field():
    old = (
        "er1: crb1_nominal_m2=2.0e+00 crb1_worst_m2=1.0e+02 vr=[1,256]\n"
        "er2: crb1_nominal_m2=3.0e+00 crb1_worst_m2=1.0e+03 vr=[1,256]\n"
        "gamma_m2=4.0e+04 tau_star=4 block_len=200\n"
    )
    new = old.replace("1.0e+03", "1.2e+03")
    changes = cli_digest.drift(old, new)
    assert changes["er2 crb1_worst_m2"] == pytest.approx(0.2)
    assert changes["er1 crb1_worst_m2"] == changes["tau_star"] == 0.0
    assert len(changes) == 9
    with pytest.raises(ValueError, match="vr"):
        cli_digest.drift(old, new.replace("vr=[1,256]", "vr=[1,200]"))


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


def test_drift_lines_report_only_the_commands_that_differ():
    old = _HEADER + "1.0,proposed,2.0e-06,4.0e-01\n"
    new = old.replace("4.0e-01", "5.0e-01")
    runs = [
        ("same", (old.encode(), 0), (old.encode(), 0)),
        ("moved", (old.encode(), 0), (new.encode(), 0)),
        ("failed", (old.encode(), 0), (b"", 2)),
    ]
    assert cli_digest.drift_lines(runs) == [
        "moved",
        "  pos_rmse_m             0.25",
        "failed",
        "  exit status 0 -> 2",
        "  not comparable: the outputs do not share a CSV header",
        "2 of 3 commands differ",
    ]



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


def test_the_tenth_watt_commands_run_the_scenario_beside_the_script():
    commands = [c for c in cli_digest.COMMANDS if cli_digest.TENTH_WATT in c]
    assert [c.split(" --")[0] for c in commands] == ["crb", "sweep-gamma"]
    for command in commands:
        argv = cli_digest.argv(command)
        assert command.endswith("--config scripts/p_max_0p1.json")
        path = Path(argv[argv.index("--config") + 1])
        assert path == _PATH.parent / "p_max_0p1.json"
    assert json.loads(path.read_text()) == {"p_max": 0.1}


def test_the_carrier_command_reads_the_same_bytes_from_the_seed_tables(monkeypatch, capsys):
    (command,) = [c for c in cli_digest.COMMANDS if cli_digest.CARRIER in c]
    argv = cli_digest.argv(command)
    path = Path(argv[argv.index("--config") + 1])
    assert path == _PATH.parent / "carrier_1e30.json"
    assert json.loads(path.read_text()) == {"array": {"carrier_freq": 1e30}}
    outputs = []
    for bound in (localize._TABLES_MAX, 0):
        # A memo bound of 0 evicts every box at once, so every locate takes
        # the direct route.
        monkeypatch.setattr(localize, "_TABLES_MAX", bound)
        built = []
        real = localize._build_table
        monkeypatch.setattr(localize, "_build_table", lambda *a: built.append(a) or real(*a))
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        # Two receivers, three trials: each box is built on its second locate.
        assert len(built) == (2 if bound else 0)
        monkeypatch.undo()
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2
