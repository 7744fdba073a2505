"""The CLI transcripts and the public list of README.md.

Every ``jordanblocks ...`` line of the README's CLI block that is followed
by a ``# output`` comment runs through ``cli.main`` and must exit 0 and
print that line; a comment ending in ``...`` is a prefix of the line.  The
backquoted names of the module list are the package's ``__all__``.
"""

import inspect
import re
import shlex
from pathlib import Path

import pytest

import jordanblocks
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


def public_list() -> list:
    """(module, name) for each backquoted name of a module's bullet in the
    README's module list."""
    section = re.search(r"^## Modules and public names\n(.*?)(?=^## |\Z)", README.read_text(),
                        re.M | re.S).group(1)
    bullets = re.findall(r"^- \*\*(\w+)\*\*:(.*?)(?=^- |\Z)", section, re.M | re.S)
    return [(module, name) for module, text in bullets for name in re.findall(r"`(\w+)`", text)]


def test_the_public_list_is_all():
    listed = public_list()
    assert sorted(name for _, name in listed) == sorted(jordanblocks.__all__)
    for module, name in listed:
        assert getattr(jordanblocks, name).__module__ == f"jordanblocks.{module}", name


def test_all_names_no_module():
    assert len(set(jordanblocks.__all__)) == len(jordanblocks.__all__)
    assert not [name for name in jordanblocks.__all__
                if inspect.ismodule(getattr(jordanblocks, name))]
