"""The README's examples run as written.

The `## CLI` `sh` block runs through `cli.main` in a fresh directory: a
`\\` continuation joins the next line, every command exits 0 unless the
comment above it says `(exit code N)`, and `# ` lines right under a
command are its stdout.  The `## Library` Python block prints 5 twice.
"""

import re
import shlex
from pathlib import Path

from rainbownum import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def _cli_commands() -> list[tuple[list[str], int, list[str]]]:
    """(argv, exit code, sample stdout lines) for each command of the block."""
    commands = []
    for para in _block("CLI", "sh").replace("\\\n", " ").split("\n\n"):
        code, ran = 0, False
        for line in para.splitlines():
            if line.startswith("rainbownum "):
                commands.append((shlex.split(line)[1:], code, []))
                ran = True
            elif ran:
                commands[-1][2].append(line.removeprefix("# "))
            elif found := re.search(r"\(exit code (\d+)\)", line):
                code = int(found[1])
    return commands


def test_cli_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert len(commands) >= 10 and commands[0][2]
    for argv, code, sample in commands:
        assert cli.main(argv) == code, argv
        out = capsys.readouterr().out
        if sample:
            assert out.splitlines() == sample, argv


def test_library_block(capsys):
    exec(compile(_block("Library", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out == "5\n5\n"
