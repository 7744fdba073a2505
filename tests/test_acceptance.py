"""Acceptance criteria, one test per criterion, at the stated tolerances.

Everything here is exact arithmetic, so tolerance means equality; criteria
with a runtime budget assert it.  Each test prints one PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure).
"""

import time

from jordanblocks import repring
from jordanblocks.fgl import additive, random_generalized_law
from jordanblocks.fields import GF
from jordanblocks.g2 import expected_adjoint
from jordanblocks.repring import RingElement, structure_constants, wedge_partition
from jordanblocks.verify import (
    CheckResult,
    suite_char0,
    suite_classical_bad,
    suite_classical_good,
    suite_cyclic_oracle,
    suite_char2_table,
    suite_law_independence,
    suite_free_jp,
    suite_g2,
    suite_intertwiners,
    suite_properties,
    suite_ring_calcs,
)


def report(criterion: int, res: CheckResult, budget: float | None = None) -> None:
    status = "PASS" if res.ok else "FAIL"
    line = f"criterion {criterion:2d} [{res.name}] {status} ({res.seconds:.2f}s): {res.detail}"
    print(line)
    assert res.ok, line
    if budget is not None:
        assert res.seconds < budget, f"criterion {criterion} exceeded {budget}s: {res.seconds:.2f}s"


def test_criterion_01_char2_table():
    # 24 cells, n in 4..7, tensor/wedge/sym, both laws, p = 2; < 5 s
    report(1, suite_char2_table(), budget=5.0)


def test_criterion_02_law_independence():
    # identical structure constants across F_a, F_m, u+v+cuv, 20 seeded laws;
    # all n,m <= 9, p in {2,3,5}; < 60 s
    report(2, suite_law_independence(), budget=60.0)


def test_criterion_03_cyclic_group_oracle():
    # multiplicative-law constants match the unipotent Kronecker oracle
    report(3, suite_cyclic_oracle())


def test_criterion_04_wedge_square_identities():
    report(4, suite_ring_calcs())
    # the two printed items that are dimension-consistent, plus the
    # brute-force values for the two that are not
    for p in (5, 7, 11):
        field = GF(p)
        law = additive(field)
        assert (RingElement.from_partition(wedge_partition((3, 3, 1), 2, law, field))
                == RingElement({5: 1, 3: 5, 1: 1}))
        assert (RingElement.from_partition(wedge_partition((2, 2, 1, 1, 1), 2, law, field))
                == RingElement({3: 1, 2: 6, 1: 6}))
        assert (RingElement.from_partition(wedge_partition((3, 2, 2), 2, law, field))
                == RingElement({4: 2, 3: 2, 2: 2, 1: 3}))
        expected_w7 = RingElement({7: 3}) if p == 7 else RingElement({11: 1, 7: 1, 3: 1})
        assert RingElement.from_partition(wedge_partition((7,), 2, law, field)) == expected_w7


def test_criterion_05_classical_good_characteristic():
    # 200 seeded triples, parts <= 8, good p <= 13; < 120 s
    report(5, suite_classical_good(), budget=120.0)


def test_criterion_06_bad_characteristic_splits():
    report(6, suite_classical_bad())


def test_criterion_07_g2_table():
    # p in {5,7,11,13}, four orbits, both modes, both routes; < 30 s
    report(7, suite_g2(), budget=30.0)
    assert expected_adjoint("G2reg", 7) == (7, 7)
    assert expected_adjoint("G2reg", 5) == (11, 3)


def test_criterion_08_free_over_jp():
    report(8, suite_free_jp())


def test_criterion_09_intertwiners():
    # 50 seeded pair cases and 50 seeded symmetric cases
    report(9, suite_intertwiners())


def test_criterion_10_char0_predictor():
    report(10, suite_char0())


def test_criterion_11_property_suite():
    report(11, suite_properties())


def test_criterion_12_many_laws_share_the_cells():
    # 50 seeded laws of degree 64 at p = 5, built untimed, each asked
    # J_n (x) J_32 for n <= 32: the cells are law-free, so they are computed
    # once for the characteristic; < 5 s and fewer than 100 memo entries
    field = GF(5)
    laws = [random_generalized_law(s, 64, field, unit_linear=True) for s in range(50)]
    repring.clear_memo()
    t0 = time.perf_counter()
    for law in laws:
        for n in range(1, 33):
            structure_constants(n, 32, law, field)
    seconds = time.perf_counter() - t0
    entries = len(repring._constants_memo)
    repring.clear_memo()
    line = f"criterion 12 [many-laws] ({seconds:.2f}s): {entries} memo entries"
    print(line)
    assert seconds < 5.0 and entries < 100, line
