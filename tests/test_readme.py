"""The README's examples run as written: the library snippet, and every
command of the command-line block except ``experiment``, whose config file
the README only describes."""

import re
import shlex
from pathlib import Path

from tuplebn.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, language: str = "") -> str:
    """The first fenced block of ``language`` under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(fenced_block("Library", "python"), {})


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in fenced_block("Command line").replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "tuplebn" for argv in commands)
    run = [argv for argv in commands if argv[1] != "experiment"]
    assert len(run) == len(commands) - 1 == 7
    for argv in run:
        assert main(argv[1:]) == EXIT_OK, (argv, capsys.readouterr().err)
