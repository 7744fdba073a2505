"""`verify paper --json` against a committed fixture, with every `seconds`
key removed: a suite whose detail changes by one character fails here.

When an output changes on purpose, refresh the fixture with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which suite's output changed and why.
"""

import contextlib
import io
import json
from pathlib import Path

from jordanblocks.cli import main

FIXTURE = Path(__file__).with_name("verify_paper.golden.json")


def verify_paper_text() -> str:
    """The JSON results of ``verify paper`` without their timings, one key
    per line; every suite must pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", "paper", "--json"])
    results = json.loads(out.getvalue())
    for result in results:
        del result["seconds"]
    failed = [r["name"] for r in results if not r["ok"]]
    assert status == 0 and not failed, f"failing suites: {failed}"
    return json.dumps(results, indent=1, ensure_ascii=False) + "\n"


def test_verify_paper_matches_the_golden_output():
    assert verify_paper_text() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(verify_paper_text(), encoding="utf-8")
    print(f"wrote {FIXTURE}")
