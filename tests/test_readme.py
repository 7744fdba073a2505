"""The CLI transcripts of README.md.

Every ``jordanblocks ...`` line of the README's CLI block that is followed
by a ``# output`` comment runs through ``cli.main`` and must exit 0 and
print that line; a comment ending in ``...`` is a prefix of the line.
"""

import re
import shlex
from pathlib import Path

import pytest

from jordanblocks.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts() -> list:
    """(command, printed line) for each example with an output comment."""
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    lines = block.splitlines()
    return [(command, comment[2:]) for command, comment in zip(lines, lines[1:])
            if command.startswith("jordanblocks ") and comment.startswith("# ")]


TRANSCRIPTS = transcripts()


def test_the_cli_block_has_transcripts():
    assert len(TRANSCRIPTS) >= 4


@pytest.mark.parametrize("command, want", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript(capsys, command, want):
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.rstrip("\n")
    if want.endswith("..."):
        assert printed.startswith(want[:-3]), printed
    else:
        assert printed == want
