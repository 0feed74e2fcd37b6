"""The README's examples, run as written."""

import re
import shlex
from pathlib import Path

import pytest

from secrelay import cli, verify

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(section: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


# The CLI section's command lines. The `pip`, `pytest` and `perfbench` lines
# live in other sections and are templates, not examples to run.
CLI_LINES = [line for block in _blocks(_section("CLI"), "sh") for line in block.splitlines()
             if line.startswith("secrelay ")]
# `verify --draws 1000` takes about 5 s, and the acceptance criteria already
# run the same suites at 1000 draws.
RUN_LINES = [line for line in CLI_LINES if line.split()[1] != "verify"]


def test_library_quickstart_runs():
    (block,) = _blocks(_section("Library quickstart"), "python")
    exec(compile(block, "README.md", "exec"), {})


def test_cli_section_shows_every_command():
    assert {line.split()[1] for line in CLI_LINES} == {"compute", "sweep", "montecarlo", "verify"}
    assert {line.split()[1] for line in RUN_LINES} == {"compute", "sweep", "montecarlo"}


@pytest.mark.parametrize("line", RUN_LINES)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SECRELAY_SEED", raising=False)
    assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_paragraph_names_the_suites():
    # The paragraph above the `verify` example names each suite as the
    # report prints it, so a renamed suite cannot leave it stale.
    before = _section("CLI").split("```sh\nsecrelay verify", 1)[0]
    paragraph = before.rstrip().rsplit("\n\n", 1)[1]
    assert re.findall(r"`(\w+)`", paragraph) == [r.name for r in verify.run_all(draws=1)]


def test_config_key_table_is_the_settings_table():
    rows = re.findall(r"^\| `(\w+)` +\| `(--[\w-]+)` +\|", _section("CLI"), re.M)
    assert rows == [(key, flag) for key, (flag, *_) in cli._MC_SETTINGS.items()]
