#!/usr/bin/env python3
"""Mutant register: deliberate faults that the named tests must catch.

Each entry names a file, an exact piece of its text, the text that replaces
it, and a pytest selection.  For each entry the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, makes the one
replacement there (the old text must occur exactly once) and runs the
selection on the copy.  The mutant is killed when pytest reports failing
tests (exit status 1), or when the selection runs past ``TIMEOUT`` seconds,
as a reduction that never ends does; it survives when the tests pass.
Before the mutants, the union of the selections runs once on an unchanged
copy and must pass, so that a kill means the fault was caught.

Usage: python scripts/mutants.py [--list] [NAME ...]

With names, only those entries run.  Exits 1 when a mutant survives, an
entry no longer applies, or the unchanged selections fail.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
#: seconds one selection may run; each takes a few seconds on a sound tree
TIMEOUT = 60


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple


LINALG = "src/jordanblocks/linalg.py"
REPRING = "src/jordanblocks/repring.py"
SERIES = "src/jordanblocks/series.py"
FGL = "src/jordanblocks/fgl.py"
OFFSETS_TEST = ("tests/test_repring.py::TestStructureConstants::"
                "test_gather_offsets_are_memoized_read_only")
CELL_TESTS = "tests/test_repring.py::TestCellRoute::"

MUTANTS = [
    # 4 * bits + 1 would pick the same width as 4 * bits + 2 for every p:
    # 4L + 2 is 2 mod 4, so no width 16, 32 or 64k lies between the two
    Mutant("width-rule-short", LINALG,
           "need = 4 * bits + 2", "need = 4 * bits - 2",
           ("tests/test_linalg.py::TestEchelonKernel::test_field_width",)),
    Mutant("xor-at-p3", LINALG,
           "            if p == 2:\n                r ^= piv",
           "            if p <= 3:\n                r ^= piv",
           ("tests/test_linalg.py::TestEchelonKernel::test_edge_shapes",)),
    Mutant("level-slice-off-by-one", LINALG,
           "rows[top * c:(top + 1) * c]", "rows[top * c:(top + 1) * c + 1]",
           ("tests/test_linalg.py::TestKrylovRanks::test_seeded_conjugates",)),
    Mutant("writable-offsets", LINALG,
           "    out.flags.writeable = False\n", "",
           (OFFSETS_TEST,)),
    Mutant("clear-memo-keeps-offsets", REPRING,
           "    _block_offsets.cache_clear()\n", "",
           (OFFSETS_TEST,)),
    # one generator short: the rows x^i F^j no longer span J_n (x) J_m
    Mutant("cell-generators-short", REPRING,
           "c = min(n, m)\n", "c = min(n, m) - 1\n",
           (CELL_TESTS + "test_seeded_cells",)),
    # the top power F^(n+m-2) dropped: one Jordan block loses its top vector
    Mutant("cell-levels-short", REPRING,
           "powers[n + m - 2::-1", "powers[n + m - 3::-1",
           (CELL_TESTS + "test_seeded_cells",)),
    # a cell past the table's box "grows" it to the same box, which does
    # not hold the cell
    Mutant("growth-keeps-old-box", REPRING,
           "rounded = (bx if n <= bx else 1 << (n - 1).bit_length(),\n"
           "                   by if m <= by else 1 << (m - 1).bit_length())",
           "rounded = (bx, by)",
           (CELL_TESTS + "test_growth_rule",)),
    # a rounded box past the operator bound falls back to the cell's own box
    Mutant("growth-skips-union", REPRING,
           "for grown in (rounded, union):", "for grown in (rounded,):",
           (CELL_TESTS + "test_growth_rule",)),
    # below the diagonal, b1 < b0, the power table's Toeplitz matrices read
    # the columns of F^s from the end: terms that wrap around the y truncation
    Mutant("toeplitz-mask-dropped", LINALG,
           "valid = (block[:, None] == block[None, :]) & (shift >= 0)",
           "valid = block[:, None] == block[None, :]",
           ("tests/test_repring.py::TestPowerTable::test_seeded_tables",)),
    # kernel-dimension steps that grow give a partition of n with a
    # negative multiplicity dropped, so of more than n
    Mutant("concavity-guard-removed", LINALG,
           "step = min(step, d - prev)", "step = d - prev",
           ("tests/test_linalg.py::TestTypedPostconditions",)),
    Mutant("clear-memo-keeps-tables", REPRING,
           "    _constants_memo.clear()\n",
           "    for key in [k for k in _constants_memo if k[0] != \"powers\"]:\n"
           "        del _constants_memo[key]\n",
           (CELL_TESTS + "test_clear_memo_drops_the_tables",)),
    # an image with a term that Y_i does not divide, or with no Y_i term,
    # gives a matrix that may not be invertible
    Mutant("automorphism-skips-divisibility", SERIES,
           "if any(exp[i] == 0 for exp in g.coeffs):", "if False:",
           ("tests/test_series.py::TestBuildAutomorphism::test_refusals",)),
    Mutant("automorphism-skips-zero-linear", SERIES,
           "if trunc[i] > 1 and g.coefficient(", "if False and g.coefficient(",
           ("tests/test_series.py::TestBuildAutomorphism::test_refusals",)),
    # the law's series padded in front reads as F(Y_2, Y_3), not F(Y_1, Y_2)
    Mutant("partition-skips-order", LINALG,
           "if i and parts[i - 1] < x:", "if False:",
           ("tests/test_linalg.py::TestPartition::test_validation",)),
    # xi_1 = 5 at p = 5 passes as a nonzero linear coefficient
    Mutant("law-keeps-unreduced-coefficients", FGL,
           "            c = field(c)\n", "",
           ("tests/test_fgl.py::TestValidation::"
            "test_linear_part_vanishing_mod_p_is_refused",)),
    # an F_7 series applied over F_5 is read mod 5
    Mutant("apply-series-any-field", LINALG,
           "if f.field != n_mat.field:", "if False:",
           ("tests/test_linalg.py::TestApplySeries::"
            "test_series_over_another_field_is_refused",)),
    Mutant("tensor-operator-any-field", REPRING,
           "    _require_field(law, field)\n    phi_pow", "    phi_pow",
           ("tests/test_repring.py::TestTensorOperator::"
            "test_law_over_another_field_is_refused",)),
    Mutant("tensor-series-pad-in-front", FGL,
           "{e + pad: c", "{pad + e: c",
           ("tests/test_fgl.py::TestIteratedSeries::"
            "test_three_factors_nest_the_law_on_the_left",)),
]


def run_tests(tree: Path, tests) -> int | None:
    """pytest's exit status on the selection, or None past ``TIMEOUT``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def copy_tree(dest: Path) -> Path:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)
    return dest


def check(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'SURVIVED', or why the entry does not apply."""
    tree = copy_tree(scratch / mutant.name)
    path = tree / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"NOT APPLIED: old text found {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    status = run_tests(tree, mutant.tests)
    if status is None or status == 1:
        return "killed"
    if status == 0:
        return "SURVIVED"
    return f"NOT RUN: pytest exit status {status}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the entries and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.file}: {m.old.strip()!r} -> {m.new.strip()!r}")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        scratch = Path(tmp)
        selections = sorted({t for m in chosen for t in m.tests})
        if run_tests(copy_tree(scratch / "unchanged"), selections) != 0:
            print("the selected tests fail on the unchanged tree")
            return 1
        failed = False
        for m in chosen:
            start = time.perf_counter()
            outcome = check(m, scratch)
            failed |= outcome != "killed"
            print(f"{m.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
