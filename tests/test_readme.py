"""README.md against the code: the CLI's flags and commands, the scenario
file's keys and defaults, the CSV header and the crb example output."""

import json
import re
from dataclasses import fields
from pathlib import Path

from nfwpt import ArraySpec, ErSpec, ScenarioConfig, config_from_dict
from nfwpt.cli import _parser
from nfwpt.harness import csv_header

_ROOT = Path(__file__).resolve().parent.parent
_README = (_ROOT / "README.md").read_text()


def _section(heading: str) -> str:
    """The README's text from the heading to the next heading of its level or above."""
    level = heading.split(" ")[0]
    start = _README.index(f"\n{heading}\n")
    stop = re.compile(rf"\n#{{1,{len(level)}}} ").search(_README, start + 1)
    return _README[start : stop.start() if stop else None]


def _blocks(text: str, language: str = "") -> list[str]:
    """The bodies of the fenced code blocks of the given language in text."""
    fences = re.finditer(r"^```(\w*)\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    return [body for lang, body in (m.groups() for m in fences) if lang == language]


def _subparsers():
    (action,) = [a for a in _parser()._actions if a.choices and a.dest == "command"]
    return action.choices


def test_the_cli_section_names_every_flag_and_command_of_the_parser():
    text = _section("## CLI")
    commands = _subparsers()
    flags = {f for p in commands.values() for a in p._actions for f in a.option_strings}
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) == flags - {"-h", "--help"}
    assert set(re.findall(r"^- `([a-z-]+)`", text, flags=re.MULTILINE)) == set(commands)


def test_the_scenario_example_lists_every_key_with_its_default():
    (example,) = _blocks(_section("### Scenario files"), "json")
    scenario = json.loads(example)
    assert set(scenario) == {f.name for f in fields(ScenarioConfig)}
    assert set(scenario["array"]) == {f.name for f in fields(ArraySpec)}
    first, *rest = scenario["ers"]
    assert set(first) == {f.name for f in fields(ErSpec)}
    assert all(set(er) <= set(first) for er in rest)
    assert config_from_dict(scenario) == ScenarioConfig()


def test_the_csv_headers_match_csv_header():
    (generic,) = _blocks(_section("### Output CSV"))
    line = generic.strip().replace("power_er<k>_watts...", "power_er1_watts")
    assert line == csv_header(1)
    # The header and a row of the simulate example.
    blocks = _blocks(_section("## CLI"))
    (example,) = [b.splitlines() for b in blocks if b.startswith("sweep_") and b.count("\n") > 1]
    assert example[0] == csv_header(2)
    assert all(row.count(",") == example[0].count(",") for row in example[1:])


def test_the_crb_example_is_the_recorded_crb_output():
    recorded = json.loads((_ROOT / "tests" / "cli_output.json").read_text())
    (example,) = [b for b in _blocks(_section("## CLI")) if b.startswith("er1:")]
    assert example == recorded["commands"]["crb"]["stdout"]
