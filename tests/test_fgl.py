import json
import os

import numpy as np
import pytest

from jordanblocks.errors import InvalidInput, InvalidLaw, NonzeroConstantTerm, TruncationTooShort
from jordanblocks.fgl import (
    GeneralizedLaw,
    additive,
    iterated_tensor_series,
    law_from_json,
    law_to_json,
    load_law,
    multiplicative,
    random_fgl,
    random_generalized_law,
    scaled_multiplicative,
    validate_fgl,
)
from jordanblocks.fields import GF, QQ
from jordanblocks.series import TruncatedPoly
from oracles import DictSeries, dict_iterated_tensor_series, dict_law_eval, dict_random_fgl_coeffs

F5 = GF(5)


class TestBuiltinLaws:
    def test_additive(self):
        law = additive(F5)
        assert law.coeffs == {(1, 0): 1, (0, 1): 1}
        assert validate_fgl(law).ok

    def test_multiplicative(self):
        law = multiplicative(F5)
        assert law.coefficient(1, 1) == 1
        assert validate_fgl(law).ok

    def test_built_once_per_field(self):
        # a law is immutable, so each field shares one of each built-in law
        for build in (additive, multiplicative):
            assert build(GF(5)) is build(GF(5))
            assert build(GF(7)) is not build(GF(5)) and build(QQ) is build(QQ)

    def test_scaled(self):
        law = scaled_multiplicative(F5, 3)
        report = validate_fgl(law, degree=6)
        assert report.unit and report.commutative and report.associative

    def test_scaled_zero_degenerates(self):
        assert scaled_multiplicative(F5, 0).coeffs == additive(F5).coeffs


class TestValidation:
    def test_unit_failure(self):
        # u + v + u^2 fails F(u, 0) = u
        law = GeneralizedLaw(QQ, 2, {(1, 0): QQ(1), (0, 1): QQ(1), (2, 0): QQ(1)})
        assert not validate_fgl(law).unit

    def test_associativity_failure(self):
        # u + v + uv + u^2 v^2: the two triple products first disagree in
        # degree 5 (u^2 v^2 w vs u v^2 w^2)
        f2 = GF(2)
        law = GeneralizedLaw(f2, 4, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1},
                             exact=True)
        report = validate_fgl(law)
        assert report.unit and report.commutative
        assert not report.associative
        assert validate_fgl(law, degree=4).associative

    def test_rejects_degenerate_linear_part(self):
        with pytest.raises(InvalidLaw):
            GeneralizedLaw(F5, 2, {(1, 0): 1})
        with pytest.raises(InvalidLaw):
            GeneralizedLaw(F5, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_linear_part_vanishing_mod_p_is_refused(self):
        # xi_1 = 5 is 0 in F_5: the law has no invertible linear part
        with pytest.raises(InvalidLaw, match="linear part"):
            GeneralizedLaw(F5, 3, {(1, 0): 5, (0, 1): 1, (1, 1): 7})
        with pytest.raises(InvalidLaw, match="constant term"):
            GeneralizedLaw(F5, 2, {(0, 0): 6, (1, 0): 1, (0, 1): 1})

    @pytest.mark.parametrize("exp", [(1.5, 0), (2.0, 0), ("1", 0), (0, None)])
    def test_non_integer_exponents_are_refused(self, exp):
        # int() would read (1.5, 0) as x, a second linear term
        with pytest.raises(InvalidLaw, match="an exponent must be an integer"):
            GeneralizedLaw(F5, 3, {(1, 0): 1, (0, 1): 1, exp: 2})

    @pytest.mark.parametrize("key", [1, None, (1,), (1, 0, 0)],
                             ids=["int", "None", "one", "three"])
    def test_keys_that_are_not_pairs_are_refused(self, key):
        # unpacking 1 or (1, 0, 0) as (a, b) once leaked a bare TypeError or ValueError
        with pytest.raises(InvalidLaw, match="a coefficient key must be a pair"):
            GeneralizedLaw(F5, 2, {(1, 0): 1, (0, 1): 1, key: 1})

    @pytest.mark.parametrize("degree", [3.9, 3.0, "3", None])
    def test_non_integer_degrees_are_refused(self, degree):
        # int() would read 3.9 as 3
        with pytest.raises(InvalidLaw, match="degree must be an integer"):
            GeneralizedLaw(F5, degree, {(1, 0): 1, (0, 1): 1})
        assert GeneralizedLaw(F5, np.int64(3), {(1, 0): 1, (0, 1): 1}).degree == 3

    def test_numpy_exponents_pass(self):
        law = GeneralizedLaw(F5, 3, {(np.int64(1), 0): 1, (0, np.int8(1)): 1, (1, 1): 2})
        assert law == GeneralizedLaw(F5, 3, {(1, 0): 1, (0, 1): 1, (1, 1): 2})
        assert all(type(e) is int for exp in law.coeffs for e in exp)

    def test_coefficients_are_reduced_into_the_field(self):
        law = GeneralizedLaw(F5, 3, {(1, 0): 6, (0, 1): -4, (1, 1): 7, (2, 1): 10})
        assert dict(law.coeffs) == {(1, 0): 1, (0, 1): 1, (1, 1): 2}
        assert law.has_unit_linear_part()
        same = GeneralizedLaw(F5, 3, {(1, 0): 1, (0, 1): 1, (1, 1): 2})
        assert law == same and law.fingerprint() == same.fingerprint()
        half = GeneralizedLaw(QQ, 2, {(1, 0): 1, (0, 1): "1/2"})
        assert half.xi2 == QQ("1/2") and type(half.xi1) is type(QQ(1))


class TestIteratedSeries:
    def test_additive_is_linear(self):
        series = iterated_tensor_series(additive(QQ), 3, (2, 2, 2))
        expected = sum(
            (TruncatedPoly.variable(QQ, (2, 2, 2), i) for i in range(1, 3)),
            TruncatedPoly.variable(QQ, (2, 2, 2), 0))
        assert series == expected

    def test_multiplicative_base_case(self):
        series = iterated_tensor_series(multiplicative(F5), 2, (2, 2))
        assert series == TruncatedPoly(F5, (2, 2), {(1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_multiplicative_triple(self):
        # prod(1 + Y_i) - 1
        series = iterated_tensor_series(multiplicative(QQ), 3, (2, 2, 2))
        expected = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                    (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 1): 1}
        assert series == TruncatedPoly(QQ, (2, 2, 2), {k: QQ(v) for k, v in expected.items()})

    def test_symmetric_for_fgl(self):
        from jordanblocks.series import elementary_symmetric

        series = iterated_tensor_series(multiplicative(F5), 3, (3, 3, 3))
        assert series.is_symmetric()
        assert series.homogeneous_part(1) == elementary_symmetric(F5, (3, 3, 3), 1)

    def test_eval_rejects_a_constant_term(self):
        trunc = (3, 3)
        u = TruncatedPoly.variable(F5, trunc, 0)
        v = TruncatedPoly.variable(F5, trunc, 1)
        one = TruncatedPoly.constant(F5, trunc, 1)
        with pytest.raises(NonzeroConstantTerm):
            multiplicative(F5).eval(u + one, v)

    def test_truncation_too_short(self):
        law = random_generalized_law(0, 3, F5)
        with pytest.raises(TruncationTooShort):
            iterated_tensor_series(law, 2, (4, 4))

    @pytest.mark.parametrize("trunc", [3, None, (2, "a"), (2, 0)],
                             ids=["int", "none", "string", "zero"])
    def test_truncation_that_is_not_a_box(self, trunc):
        with pytest.raises(InvalidInput):
            iterated_tensor_series(additive(GF(5)), 2, trunc)

    @pytest.mark.parametrize("field", [GF(2), GF(3), F5, QQ], ids=str)
    @pytest.mark.parametrize("trunc", [(1, 1), (1, 4), (3, 1), (2, 3), (4, 4)])
    def test_two_factors_are_the_law_itself(self, field, trunc, monkeypatch):
        law = random_generalized_law(sum(trunc), sum(trunc), field)
        y1, y2 = (TruncatedPoly.variable(field, trunc, i) for i in range(2))
        nested = law.eval(y1, y2)
        calls = []
        substitute = TruncatedPoly.substitute
        monkeypatch.setattr(TruncatedPoly, "substitute",
                            lambda f, gs: calls.append(f) or substitute(f, gs))
        series = iterated_tensor_series(law, 2, trunc)
        assert series == law.as_poly(trunc) == nested
        assert not calls

    @pytest.mark.parametrize("field", [GF(3), F5, QQ], ids=str)
    @pytest.mark.parametrize("trunc", [(2, 2, 2), (3, 2, 4), (1, 3, 2), (3, 3, 1)])
    def test_three_factors_nest_the_law_on_the_left(self, field, trunc):
        # F(F(Y_1, Y_2), Y_3) under a law that is not associative, so that
        # the order of the nesting shows
        law = random_generalized_law(7, sum(trunc), field)
        assert not validate_fgl(law).associative
        y1, y2, y3 = (TruncatedPoly.variable(field, trunc, i) for i in range(3))
        assert iterated_tensor_series(law, 3, trunc) == law.eval(law.eval(y1, y2), y3)


class TestRandomLaws:
    def test_deterministic(self):
        a = random_generalized_law(7, 8, GF(3))
        b = random_generalized_law(7, 8, GF(3))
        assert a == b

    def test_distinct_seeds(self):
        assert random_generalized_law(1, 8, F5) != random_generalized_law(2, 8, F5)

    def test_unit_linear_flag(self):
        law = random_generalized_law(3, 8, F5, unit_linear=True)
        assert law.xi1 == 1 and law.xi2 == 1

    def test_nonzero_linear(self):
        for seed in range(10):
            law = random_generalized_law(seed, 6, GF(3))
            assert law.xi1 != 0 and law.xi2 != 0

    @pytest.mark.parametrize("p", [2, 3, 5, 0])
    def test_transported_laws_are_fgls(self, p):
        from jordanblocks.fields import Field

        law = random_fgl(4, 7, Field(p))
        report = validate_fgl(law)
        assert report.ok, report


class TestLawIdentity:
    """A law is immutable, and its fingerprint, the memo key of a law's own
    classes and series, is taken once, on first use, and keeps its value."""

    #: sha256 prefixes of (p, degree, exact) and the sorted coefficients
    FINGERPRINTS = [
        (lambda: additive(F5), "e12c63c1df80b7d0"),
        (lambda: multiplicative(GF(2)), "8122a0686130ed3c"),
        (lambda: scaled_multiplicative(GF(7), 3), "d3c75752fa723a08"),
        (lambda: multiplicative(QQ), "2fb3838a09ca7166"),
        (lambda: random_generalized_law(3, 14, F5, unit_linear=True), "03ebe7fa3e11fa15"),
        (lambda: random_generalized_law(8, 9, GF(3)), "6f6740ef19af1937"),
        (lambda: random_generalized_law(2, 6, QQ), "2d0453e79569a95d"),
        (lambda: random_fgl(4, 10, GF(7)), "f50d8e596d4543f6"),
    ]

    def test_coefficients_are_read_only(self):
        law = random_generalized_law(3, 8, F5)
        before = law.fingerprint()
        with pytest.raises(TypeError):
            law.coeffs[(1, 1)] = 2
        with pytest.raises(TypeError):
            del law.coeffs[(1, 0)]
        assert law.fingerprint() == before
        assert law.coeffs == dict(law.coeffs)

    @pytest.mark.parametrize("make, digest", FINGERPRINTS)
    def test_fingerprints_are_unchanged(self, make, digest):
        import hashlib

        law = make()
        fp = law.fingerprint()
        assert fp is law.fingerprint()
        assert fp == (law.field.p, law.degree, law.exact, frozenset(law.coeffs.items()))
        key = repr((fp[:3], sorted(fp[3]))).encode()
        assert hashlib.sha256(key).hexdigest()[:16] == digest
        assert make() == law and hash(make()) == hash(law)


    def test_fingerprint_is_built_on_first_use(self):
        # 100 laws of degree 64 hold 38 MiB with their fingerprints built
        # with them, each coefficient stored twice, and 16.3 MiB without
        import tracemalloc

        random_generalized_law(0, 2, F5)
        tracemalloc.start()
        try:
            laws = [random_generalized_law(s, 64, F5, unit_linear=True) for s in range(100)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(laws) == 100 and held < 27 * 2**20

    def test_equal_laws_built_apart(self):
        makes = (lambda: random_generalized_law(5, 12, F5), lambda: random_fgl(2, 9, GF(7)),
                 lambda: GeneralizedLaw(F5, 2, {(1, 0): 1, (0, 1): 1}, exact=True))
        for make in makes:
            a, b, c = make(), make(), make()
            assert a is not b
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            # one side's fingerprint taken first, then the other's
            a.fingerprint()
            assert c == a and hash(c) == hash(a)
        assert makes[2]() == additive(F5) and hash(makes[2]()) == hash(additive(F5))
        assert random_generalized_law(5, 12, F5) != random_generalized_law(6, 12, F5)


class TestLawFiles:
    def test_round_trip(self, tmp_path):
        law = scaled_multiplicative(GF(7), 3)
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law_to_json(law)))
        loaded = load_law(str(path))
        assert loaded.coeffs == law.coeffs
        assert loaded.field == law.field

    def test_linear_part_defaults(self):
        law = law_from_json({"p": 5, "trunc": 3, "coeffs": [{"a": 1, "b": 1, "c": "2"}]})
        assert law.xi1 == 1 and law.xi2 == 1 and law.coefficient(1, 1) == 2

    def test_rational_coefficients(self):
        law = law_from_json({"p": 0, "trunc": 3,
                             "coeffs": [{"a": 1, "b": 1, "c": "1/2"}]})
        assert law.coefficient(1, 1) == QQ("1/2")

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidLaw):
            load_law(str(path))

    @pytest.mark.parametrize("path", [True, "descriptor"])
    def test_a_descriptor_is_not_a_path(self, tmp_path, path):
        # open(True) or open(fd) would read the descriptor and close it
        fd = os.open(tmp_path / "law.json", os.O_RDWR | os.O_CREAT)
        try:
            with pytest.raises(InvalidLaw, match="cannot read"):
                load_law(fd if path == "descriptor" else path)
            os.fstat(fd)
            os.fstat(1)
        finally:
            os.close(fd)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidLaw, match="cannot read"):
            load_law(str(tmp_path / "absent.json"))

    def test_malformed_data(self):
        with pytest.raises(InvalidLaw):
            law_from_json({"p": 5, "coeffs": []})

    @pytest.mark.parametrize("data", [
        {"p": 5.9, "trunc": 3, "coeffs": []},
        {"p": 5.0, "trunc": 3, "coeffs": []},
        {"p": True, "trunc": 3, "coeffs": []},
        {"p": 5, "trunc": 3.5, "coeffs": []},
        {"p": 5, "trunc": False, "coeffs": []},
        {"p": 5, "trunc": 3, "coeffs": [{"a": 1.7, "b": 1, "c": 2}]},
        {"p": 5, "trunc": 3, "coeffs": [{"a": 1, "b": True, "c": 2}]},
    ], ids=["p-float", "p-integral-float", "p-bool", "trunc-float", "trunc-bool",
            "a-float", "b-bool"])
    def test_non_integer_numbers_are_refused(self, data):
        # int() would truncate them: 1.7 to 1, 5.9 to 5, True to 1
        with pytest.raises(InvalidLaw, match="must be an integer"):
            law_from_json(data)

    def test_integer_strings_still_load(self):
        law = law_from_json({"p": "5", "trunc": "3", "coeffs": [{"a": "1", "b": 1, "c": 2}]})
        assert law.field == F5 and law.coefficient(1, 1) == 2

    @pytest.mark.parametrize("c", [True, False])
    def test_bool_scalar_is_refused(self, c):
        # a bool is an int to Python, so it would load as 1 or 0
        with pytest.raises(InvalidLaw, match="bool, not a scalar"):
            law_from_json({"p": 5, "trunc": 3, "coeffs": [{"a": 1, "b": 1, "c": c}]})
        law = law_from_json({"p": 5, "trunc": 3, "coeffs": [{"a": 1, "b": 1, "c": "1"}]})
        assert law.coefficient(1, 1) == 1


#: the largest prime below 2**31: sums of three terms (p-1)**2 pass 2**63
ORACLE_FIELDS = [GF(2), F5, GF(2147483647), QQ]


def same(got: TruncatedPoly, want: DictSeries) -> bool:
    return got.trunc == want.trunc and dict(got.coeffs) == want.coeffs


class TestDictOracle:
    """Law evaluation, the m-fold series and transported laws against the
    dict reference in ``oracles``."""

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    @pytest.mark.parametrize("trunc", [(3, 3), (2, 4), (2, 2, 3)])
    @pytest.mark.parametrize("cap", [None, 2, 3])
    def test_eval(self, field, trunc, cap):
        import random

        rng = random.Random(f"eval:{field.p}:{trunc}")
        law = random_generalized_law(rng.randrange(100), sum(trunc), field)
        ys = [TruncatedPoly.variable(field, trunc, i) for i in range(len(trunc))]
        g = ys[0] + (ys[-1] * ys[0]).scale(-1)
        h = ys[1].scale(3) + ys[-1] * ys[-1]
        want = dict_law_eval(law, DictSeries.of(g), DictSeries.of(h), cap)
        assert same(law.eval(g, h, degree_cap=cap), want)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    @pytest.mark.parametrize("m, trunc", [(1, (4,)), (2, (3, 4)), (3, (2, 3, 2)), (3, (3, 3, 3))])
    def test_tensor_series(self, field, m, trunc):
        for law in (random_generalized_law(m, sum(trunc), field), random_fgl(m, sum(trunc), field)):
            want = dict_iterated_tensor_series(law, m, trunc)
            assert same(iterated_tensor_series(law, m, trunc), want)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    @pytest.mark.parametrize("degree", [2, 5, 8])
    def test_random_fgl(self, field, degree):
        for seed in range(3):
            law = random_fgl(seed, degree, field)
            assert dict(law.coeffs) == dict_random_fgl_coeffs(seed, degree, field)


def test_as_poly_needs_two_variables():
    with pytest.raises(InvalidInput, match="two-variable"):
        additive(F5).as_poly((3, 3, 3))
