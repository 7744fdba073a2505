from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import series
from jordanblocks.errors import (
    AlgebraError,
    BadPrime,
    FactorialNotInvertible,
    InvalidInput,
    NonzeroConstantTerm,
    NotInvertibleLinearPart,
    NotSymmetric,
    ShapeMismatch,
    ZeroLinearScalar,
)
from jordanblocks.fields import GF, QQ, Field
from jordanblocks.linalg import Matrix, apply_series
from jordanblocks.series import (
    TruncatedPoly,
    build_automorphism,
    compose_inverse,
    elementary_symmetric,
    endomorphism_matrix,
    mult_matrix,
    symmetric_split,
)
from oracles import (
    DictSeries,
    dict_compose_inverse,
    dict_symmetric_split,
    loop_mult_matrix,
    monomial_basis,
    monomial_endomorphism_matrix,
)

F5 = GF(5)


def var(field, trunc, i):
    return TruncatedPoly.variable(field, trunc, i)


@st.composite
def series_pairs(draw):
    """Two series in one algebra over F_2, F_3, F_5, F_7 or Q, with small
    coefficients so that products cancel often."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    field = Field(p)
    trunc = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    box = st.tuples(*[st.integers(0, r - 1) for r in trunc])
    coeff = st.integers(-2, 2).map(field)

    def one():
        return TruncatedPoly(field, trunc, draw(st.dictionaries(box, coeff, max_size=6)))

    return one(), one()


class TestRingOps:
    def test_truncation_kills_square(self):
        y = var(F5, (2,), 0)
        assert (y * y).is_zero()

    def test_square_char0(self):
        y1, y2 = var(QQ, (3, 3), 0), var(QQ, (3, 3), 1)
        sq = (y1 + y2) * (y1 + y2)
        assert sq.coefficient((1, 1)) == 2
        assert sq.coefficient((2, 0)) == 1

    def test_powers(self):
        y = var(F5, (3,), 0)
        assert y ** 0 == TruncatedPoly.constant(F5, (3,), 1) and y ** 2 == y * y
        assert (y ** 10**9).is_zero()  # past the top degree, without 10**9 products
        one_plus_y = y + TruncatedPoly.constant(F5, (3,), 1)
        assert one_plus_y ** 2 == TruncatedPoly.univariate(F5, 3, [1, 2, 1])
        with pytest.raises(InvalidInput):
            y ** -1

    def test_square_char2(self):
        f2 = GF(2)
        y1, y2 = var(f2, (3, 3), 0), var(f2, (3, 3), 1)
        sq = (y1 + y2) * (y1 + y2)
        assert sq == TruncatedPoly(f2, (3, 3), {(2, 0): 1, (0, 2): 1})

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            var(F5, (2,), 0) + var(F5, (3,), 0)

    def test_json_round_trip(self):
        f = TruncatedPoly(QQ, (3, 2), {(1, 0): QQ("1/2"), (2, 1): QQ(-3)})
        assert f.to_json() == {"vars": 2, "trunc": [3, 2],
                               "terms": [{"exp": [1, 0], "c": "1/2"}, {"exp": [2, 1], "c": "-3"}]}


class TestSubstitute:
    def test_simple(self):
        y = var(F5, (3,), 0)
        g = y + y * y
        assert TruncatedPoly.univariate(F5, 3, [0, 1]).substitute([g]) == g

    def test_two_vars(self):
        y1, y2 = var(F5, (2, 3), 0), var(F5, (2, 3), 1)
        f = y1 + y2
        got = f.substitute([y1, y2 + y1 * y2])
        assert got == y1 + y2 + y1 * y2

    def test_exponent_past_the_recursion_limit(self):
        # (Y + Y^2)^1200 = Y^1200 modulo Y^1201; the table of powers is
        # filled by a loop, so 1200 entries below the top need no recursion
        f = TruncatedPoly(F5, (1201,), {(1200,): 1})
        y = var(F5, (1201,), 0)
        assert f.substitute([y + y * y]) == f

    def test_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            var(F5, (3,), 0).substitute([TruncatedPoly.constant(F5, (3,), 1)])

    @given(st.lists(st.integers(0, 4), min_size=3, max_size=5),
           st.lists(st.integers(0, 4), min_size=3, max_size=5),
           st.lists(st.integers(0, 4), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_algebra_map(self, fc, gc, hc):
        # (f*g)(h) == f(h) * g(h) in F5[t]/(t^6)
        r = 6
        f = TruncatedPoly.univariate(F5, r, fc)
        g = TruncatedPoly.univariate(F5, r, gc)
        h = TruncatedPoly.univariate(F5, r, [0] + hc)
        assert (f * g).substitute([h]) == f.substitute([h]) * g.substitute([h])


class TestComposeInverse:
    def test_identity(self):
        t = var(QQ, (4,), 0)
        assert compose_inverse(t) == t

    def test_scalar(self):
        f = TruncatedPoly.univariate(F5, 3, [0, 2])
        assert compose_inverse(f) == TruncatedPoly.univariate(F5, 3, [0, 3])

    def test_known_expansion(self):
        f = TruncatedPoly.univariate(QQ, 5, [0, 1, 1])
        g = compose_inverse(f)
        assert g.univariate_coeffs() == [0, 1, -1, 2, -5]

    def test_rejects_zero_linear(self):
        with pytest.raises(NotInvertibleLinearPart):
            compose_inverse(TruncatedPoly.univariate(QQ, 4, [0, 0, 1]))

    def test_postcondition_is_a_typed_error(self, monkeypatch):
        # a wrong inverse of the linear coefficient leaves f(g) != t, which
        # the degree-by-degree corrections (k >= 2) never repair
        f = TruncatedPoly.univariate(QQ, 4, [0, 2, 1])
        monkeypatch.setattr(Field, "inv", lambda self, a: self.one)
        with pytest.raises(AlgebraError, match="two-sided inverse"):
            compose_inverse(f)

    @given(st.integers(1, 4), st.lists(st.integers(0, 4), min_size=0, max_size=5),
           st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_two_sided_inverse(self, lin, tail, p):
        field = GF(p)
        if lin % p == 0:
            lin = 1
        f = TruncatedPoly.univariate(field, 7, [0, lin] + tail)
        g = compose_inverse(f)
        t = var(field, (7,), 0)
        assert f.substitute([g]) == t
        assert g.substitute([f]) == t


def test_bad_arguments_are_invalid_input():
    y = var(QQ, (3, 3), 0)
    with pytest.raises(InvalidInput):
        TruncatedPoly(QQ, (0,))
    with pytest.raises(InvalidInput):
        y.permute_variables([0, 0])
    with pytest.raises(InvalidInput):
        build_automorphism([])


class TestConstructorCoercion:
    """Coefficients go through the field and exponents through
    ``operator.index``."""

    def test_coefficients_are_reduced_into_the_field(self):
        assert TruncatedPoly(F5, (3,), {(1,): 5}) == TruncatedPoly.zero(F5, (3,))
        assert TruncatedPoly(F5, (3,), {(1,): 5}).is_zero()
        assert TruncatedPoly(F5, (3,), {(1,): 7}) == TruncatedPoly(F5, (3,), {(1,): 2})
        assert TruncatedPoly(F5, (3,), {(0,): -1}).coeffs == {(0,): 4}
        assert TruncatedPoly(F5, (3,), {(2,): "1/2"}).coeffs == {(2,): 3}
        assert TruncatedPoly.univariate(F5, 3, [0, 7, 10]).coeffs == {(1,): 2}
        half = TruncatedPoly(QQ, (2,), {(1,): "2/4"})
        assert half.coeffs == {(1,): QQ("1/2")} and type(half.coeffs[(1,)]) is type(QQ(1))
        assert all(type(c) is type(QQ(1)) for c in TruncatedPoly(QQ, (2,), {(0,): 3}).coeffs.values())

    def test_exponents_are_integers(self):
        got = TruncatedPoly(F5, (3, 2), {(np.int64(1), np.int64(0)): 1})
        assert got == var(F5, (3, 2), 0) and all(type(e) is int for e in next(iter(got.coeffs)))

    @pytest.mark.parametrize("coeffs", [{(1,): 2.5}, {(1,): 2.0}, {(-1,): 1}, {(1.0,): 1},
                                        {("1",): 1}, {1: 1}],
                             ids=["float", "integral-float", "negative", "float-exponent",
                                  "string-exponent", "bare-exponent"])
    def test_refusals(self, coeffs):
        with pytest.raises(InvalidInput):
            TruncatedPoly(F5, (3,), coeffs)

    @pytest.mark.parametrize("trunc", [(2.7,), (2.0,), (3, 1.5), ("2",), (None,)])
    def test_non_integer_truncations_are_refused(self, trunc):
        # int() would read (2.7,) as (2,)
        with pytest.raises(InvalidInput, match="truncation exponent must be an integer"):
            TruncatedPoly(F5, trunc, {(1,) * len(trunc): 1})
        with pytest.raises(InvalidInput, match="truncation exponent must be an integer"):
            TruncatedPoly.constant(F5, trunc, 1)
        assert TruncatedPoly(F5, (np.int64(2),), {(1,): 1}).trunc == (2,)

    def test_a_linear_coefficient_vanishing_mod_p_is_refused(self):
        # 5 Y + Y^2 is Y^2 over F_5: Y -> Y^2 is no automorphism
        image = TruncatedPoly(F5, (3, 2), {(1, 0): 5, (2, 0): 1})
        with pytest.raises(ZeroLinearScalar):
            build_automorphism([image, var(F5, (3, 2), 1)])


class TestBuildAutomorphism:
    """Y_i -> g_i from the images themselves: Y_i | g_i with a nonzero Y_i term."""

    def test_unipotent_shear(self):
        # Y -> Y + Y^2 on k[Y]/(Y^3): basis (1, Y, Y^2)
        y = var(F5, (3,), 0)
        m = build_automorphism([y + y * y])
        assert m.a.tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]

    def test_monomial_scaling(self):
        m = build_automorphism([var(F5, (3,), 0).scale(2)])
        assert m.a.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 4]]

    def test_two_variable_invertible(self):
        trunc = (3, 3)
        y1, y2 = var(F5, trunc, 0), var(F5, trunc, 1)
        m = build_automorphism([y1 + y1 * y1 * y2, y2])
        assert m.rank() == 9

    @pytest.mark.parametrize("trunc", [(1,), (1, 3), (3, 1), (1, 1, 2)])
    def test_zero_image_where_r_is_one(self, trunc):
        # Y_i = 0 in k[Y_i]/(Y_i), so its image is 0 and needs no linear term
        field = GF(3)
        images = [var(field, trunc, i) + var(field, trunc, i) ** 2 for i in range(len(trunc))]
        assert all(g.is_zero() for g, r in zip(images, trunc) if r == 1)
        got = build_automorphism(images)
        assert got == monomial_endomorphism_matrix(images)
        assert got.rank() == len(monomial_basis(trunc))

    @pytest.mark.parametrize("images, error", [
        (lambda y, z: [y], ShapeMismatch),
        (lambda y, z: [y, var(F5, (3, 2), 1)], ShapeMismatch),
        (lambda y, z: [y + TruncatedPoly.constant(F5, (3, 3), 1), z], NonzeroConstantTerm),
        (lambda y, z: [y + z, z], InvalidInput),
        (lambda y, z: [y, z * z], ZeroLinearScalar),
        (lambda y, z: [y, TruncatedPoly.zero(F5, (3, 3))], ZeroLinearScalar),
        (lambda y, z: [Matrix.identity(F5, 2)] * 2, ShapeMismatch),
    ], ids=["count", "algebra", "constant", "divisibility", "zero-linear", "zero-image",
            "matrices"])
    def test_refusals(self, images, error):
        y, z = var(F5, (3, 3), 0), var(F5, (3, 3), 1)
        with pytest.raises(error):
            build_automorphism(images(y, z))

    @pytest.mark.parametrize("images, error", [
        ([], InvalidInput),
        ([Matrix.identity(F5, 2)] * 2, ShapeMismatch),
        ([var(F5, (3, 3), 0), Matrix.identity(F5, 2)], ShapeMismatch),
        ([var(F5, (3, 3), 0)], ShapeMismatch),
    ], ids=["none", "matrices", "a-matrix-second", "count"])
    def test_endomorphism_refusals(self, images, error):
        # the endomorphism's own refusals, typed as the automorphism's
        with pytest.raises(error):
            endomorphism_matrix(images)
        with pytest.raises(error):
            build_automorphism(images)

    def test_a_term_in_a_variable_of_size_one_is_refused(self):
        # no term of k[Y, Z]/(Y, Z^3) is divisible by Y
        with pytest.raises(InvalidInput):
            build_automorphism([var(F5, (1, 3), 1), var(F5, (1, 3), 1)])

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 0]))
    @settings(max_examples=25, deadline=None)
    def test_always_invertible(self, seed, p):
        import random

        field = Field(p)
        rng = random.Random(seed)
        trunc = (rng.randint(1, 3), rng.randint(1, 3))
        images = []
        for i in range(2):
            coeffs = {exp: field.random_element(rng) for exp in monomial_basis(trunc)
                      if sum(exp) >= 1 and rng.random() < 0.5}
            y, tail = var(field, trunc, i), TruncatedPoly(field, trunc, coeffs)
            images.append(y.scale(field.random_nonzero(rng)) + y * tail)
        got = build_automorphism(images)
        assert got == monomial_endomorphism_matrix(images)
        assert got.rank() == trunc[0] * trunc[1]


@st.composite
def endomorphism_images(draw):
    """m in {1, 2, 3} images in one box over F_p or Q, r_i = 1 allowed: either
    Y_i (xi_i + f_i) with a linear scalar xi_i that is often not 1, or a
    series drawn freely (a constant term included)."""
    field = Field(draw(st.sampled_from([0, 2, 3, 5, 7])))
    trunc = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    box = st.tuples(*[st.integers(0, r - 1) for r in trunc])
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(
        lambda c: not field.p or c.denominator % field.p).map(field)
    images = []
    for i in range(len(trunc)):
        series = TruncatedPoly(field, trunc, draw(st.dictionaries(box, coeff, max_size=5)))
        if draw(st.booleans()):
            y = var(field, trunc, i)
            xi = draw(coeff.filter(lambda c: c != 0))
            series = y.scale(xi) + y * series
        images.append(series)
    return images


class TestEndomorphismMatrix:
    """Columns by matrix products against the monomial-by-monomial oracle."""

    @given(endomorphism_images())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_monomial_oracle(self, images):
        assert endomorphism_matrix(images) == monomial_endomorphism_matrix(images)

    @pytest.mark.parametrize("field", [GF(3), GF(7), QQ], ids=str)
    @pytest.mark.parametrize("trunc", [(1,), (4,), (3, 1), (1, 3), (2, 3), (2, 1, 3), (3, 2, 2)])
    def test_seeded_boxes(self, field, trunc):
        import random

        rng = random.Random(hash(trunc) % 1000)
        images = []
        for i in range(len(trunc)):
            coeffs = {e: field.random_element(rng) for e in monomial_basis(trunc)
                      if sum(e) >= 1 and rng.random() < 0.6}
            tail = TruncatedPoly(field, trunc, coeffs)
            y = var(field, trunc, i)
            images.append(y.scale(field.random_nonzero(rng) + field.one) + y * tail)
        got = endomorphism_matrix(images)
        assert got == monomial_endomorphism_matrix(images)
        assert got.shape == (len(monomial_basis(trunc)),) * 2

    def test_one_product_per_step(self, monkeypatch):
        from jordanblocks.linalg import Matrix

        calls = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__",
                            lambda a, b: calls.append(b.ncols) or matmul(a, b))
        trunc = (2, 3, 4)
        images = [var(QQ, trunc, i).scale(i + 2) for i in range(3)]
        endomorphism_matrix(images)
        # sum(r_i - 1) products, the last variable first, on 1, 4 and 12 columns
        assert calls == [1] * 3 + [4] * 2 + [12]

    def test_image_count_must_match_the_box(self):
        with pytest.raises(ShapeMismatch):
            endomorphism_matrix([var(F5, (2, 2), 0)])
        with pytest.raises(ShapeMismatch):
            endomorphism_matrix([var(F5, (2, 2), 0), var(F5, (2, 3), 1)])


class TestProductConstruction:
    @given(series_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product_equals_validated_construction(self, pair):
        f, g = pair
        field, trunc = f.field, f.trunc
        raw: dict = {}
        for e1, c1 in f.coeffs.items():
            for e2, c2 in g.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                raw[exp] = field.add(raw.get(exp, field.zero), field.mul(c1, c2))
        want = TruncatedPoly(field, trunc, raw)
        got = f * g
        assert got == want
        assert got.trunc == trunc and type(got.trunc) is tuple
        assert all(c != 0 for c in got.coeffs.values())

    @staticmethod
    def check_unchecked(got, want):
        assert got == want
        assert got.trunc == want.trunc and type(got.trunc) is tuple
        assert all(c != 0 for c in got.coeffs.values())

    @given(series_pairs(), st.integers(-7, 7))
    @settings(max_examples=150, deadline=None)
    def test_linear_ops_equal_validated_construction(self, pair, k):
        f, g = pair
        field, trunc = f.field, f.trunc
        total = dict(f.coeffs)
        for exp, c in g.coeffs.items():
            total[exp] = field.add(total.get(exp, field.zero), c)
        self.check_unchecked(f + g, TruncatedPoly(field, trunc, total))
        self.check_unchecked(-f, TruncatedPoly(
            field, trunc, {e: field.neg(c) for e, c in f.coeffs.items()}))
        self.check_unchecked(f - f, TruncatedPoly(field, trunc))
        self.check_unchecked(f.scale(k), TruncatedPoly(
            field, trunc, {e: field.mul(field(k), c) for e, c in f.coeffs.items()}))
        self.check_unchecked(TruncatedPoly.constant(field, list(trunc), k),
                             TruncatedPoly(field, trunc, {(0,) * len(trunc): field(k)}))

    def test_cancelling_sum_and_scale_drop_the_zero(self):
        f5 = GF(5)
        y = var(f5, (3,), 0)
        one = TruncatedPoly.constant(f5, (3,), 1)
        assert ((one + y) + (one.scale(4) + y)).coeffs == {(1,): 2}
        assert (one + y).scale(5).coeffs == {}
        assert TruncatedPoly.constant(f5, (3,), 10).coeffs == {}
        with pytest.raises(InvalidInput):
            TruncatedPoly.constant(f5, (0,), 1)

    def test_cancelling_product_drops_the_zero(self):
        f3 = GF(3)
        y = var(f3, (4,), 0)
        one = TruncatedPoly.constant(f3, (4,), 1)
        # (1 + Y)(1 + 2Y) = 1 + 3Y + 2Y^2 = 1 + 2Y^2 over F_3
        prod = (one + y) * (one + y.scale(2))
        assert prod.coeffs == {(0,): 1, (2,): 2}


class TestExactBase:
    """Matrices and series share one exact layout and its arithmetic, but
    a value of one type never equals or combines with one of the other."""

    @pytest.mark.parametrize("field", [F5, QQ], ids=str)
    def test_a_matrix_and_a_series_never_mix(self, field):
        f = TruncatedPoly(field, (2, 3), {(0, 0): 1, (1, 2): Fraction(3, 2), (0, 1): 4})
        m = Matrix._from_ints(field, f.num, f.den)
        assert (m.num.tolist(), m.den) == (f.num.tolist(), f.den)
        assert m != f and f != m
        assert not m == f and not f == m
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            for a, b in ((m, f), (f, m)):
                with pytest.raises(ShapeMismatch):
                    op(a, b)

    def test_products_and_substitution_refuse_the_other_type(self):
        # a (2, 2) matrix and a (2, 2) series: the shapes fit, the types do not
        m = Matrix.identity(F5, 2)
        f = TruncatedPoly(F5, (2, 2), {(0, 1): 1, (1, 0): 2})
        refused = [lambda: m @ f, lambda: m.kron(f), lambda: f * m,
                   lambda: f.substitute([m, m]), lambda: f.substitute([f, m]),
                   lambda: apply_series(m, m)]
        for call in refused:
            with pytest.raises(ShapeMismatch):
                call()

    @pytest.mark.parametrize("field", [F5, GF(7), GF(2**31 - 1), QQ], ids=str)
    def test_equal_series_hash_equal(self, field):
        trunc = (3, 2)
        f = TruncatedPoly(field, trunc, {(0, 1): Fraction(1, 3), (2, 0): Fraction(-5, 4),
                                         (1, 1): 6})
        g = TruncatedPoly(field, trunc, {(0, 1): Fraction(2, 3), (1, 0): Fraction(7, 6)})
        one = TruncatedPoly.constant(field, trunc, 1)
        routes = [f, f + g - g, f.scale(2).scale(Fraction(1, 2)), -(-f), f * one,
                  g + f - g, (f + f).scale(Fraction(1, 2)),
                  TruncatedPoly(field, trunc, dict(f.coeffs))]
        for h in routes:
            assert h == f and hash(h) == hash(f)
            assert (h.num.tolist(), h.den) == (f.num.tolist(), f.den)
        assert f - f == TruncatedPoly.zero(field, trunc) == f.scale(0)
        assert hash(f - f) == hash(f.scale(0)) == hash(TruncatedPoly.zero(field, trunc))


class TestMultMatrix:
    @given(series_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_monomial_loop(self, pair):
        for g in pair:
            assert mult_matrix(g) == loop_mult_matrix(g)

    def test_commutes_with_itself(self):
        g = var(F5, (2, 2), 0) + var(F5, (2, 2), 1)
        h = var(F5, (2, 2), 0) * var(F5, (2, 2), 1)
        assert (mult_matrix(g) @ mult_matrix(h)) == (mult_matrix(h) @ mult_matrix(g))

    def test_matches_product(self):
        g = var(F5, (3,), 0) + var(F5, (3,), 0) ** 2
        m = mult_matrix(g)
        # column of the basis element Y is the expansion of g * Y
        assert [int(x) for x in m.a[:, 1]] == [0, 0, 1]


class TestSymmetricSplit:
    def test_linear(self):
        trunc = (2, 2)
        f = elementary_symmetric(QQ, trunc, 1)
        assert symmetric_split(f) == [var(QQ, trunc, 0), var(QQ, trunc, 1)]

    def test_multiplicative_shape(self):
        trunc = (3, 3)
        y1, y2 = var(QQ, trunc, 0), var(QQ, trunc, 1)
        f = y1 + y2 + y1 * y2
        f1, f2 = symmetric_split(f)
        assert f1 == y1 + (y1 * y2).scale(QQ("1/2"))
        assert f2 == y2 + (y1 * y2).scale(QQ("1/2"))

    def test_each_term_is_shared_by_the_variables_dividing_it(self):
        trunc = (3, 3)
        y1, y2 = var(QQ, trunc, 0), var(QQ, trunc, 1)
        cross = y1 * y1 * y2 + y1 * y2 * y2
        f1, f2 = symmetric_split(y1 + y2 + y1 * y1 + y2 * y2 + cross)
        assert f1 == y1 + y1 * y1 + cross.scale(QQ("1/2"))
        assert f2 == y2 + y2 * y2 + cross.scale(QQ("1/2"))

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_three_variables_equal_shares(self, field):
        trunc = (2, 2, 2)
        y = [var(field, trunc, i) for i in range(3)]
        f = sum((elementary_symmetric(field, trunc, j) for j in (2, 3)),
                elementary_symmetric(field, trunc, 1))
        pieces = symmetric_split(f)
        half, third = field("1/2"), field("1/3")
        for i in range(3):
            j, k = (x for x in range(3) if x != i)
            assert pieces[i] == (y[i] + (y[i] * y[j] + y[i] * y[k]).scale(half)
                                 + (y[0] * y[1] * y[2]).scale(third))

    def test_rejects_a_constant_term(self):
        trunc = (3, 3)
        f = elementary_symmetric(QQ, trunc, 1) + TruncatedPoly.constant(QQ, trunc, 1)
        with pytest.raises(NonzeroConstantTerm):
            symmetric_split(f)

    def test_triple_tensor_series(self):
        from jordanblocks.fgl import iterated_tensor_series, multiplicative

        f5 = GF(5)
        series = iterated_tensor_series(multiplicative(f5), 3, (3, 3, 3))
        pieces = symmetric_split(series)  # postconditions checked internally
        assert sum(pieces[1:], pieces[0]) == series

    @pytest.mark.parametrize("tamper, message", [
        (lambda y1, y2, hs: [hs[1], hs[0]], "f_1 is not Y_1 modulo degree 2"),
        (lambda y1, y2, hs: [hs[0] + y2 * y2, hs[1] - y2 * y2], "Y_1 does not divide f_1"),
        (lambda y1, y2, hs: [hs[0] + y1 * y1, hs[1]], "does not sum back to f"),
        (lambda y1, y2, hs: [hs[0] + y1 * y1 * y2, hs[1] - y1 * y1 * y2],
         "not permutation equivariant"),
    ], ids=["linear-part", "divisibility", "sum", "equivariance"])
    def test_postconditions_are_typed_errors(self, tamper, message):
        # the check that symmetric_split runs on its result, fed a tampered split
        trunc = (3, 3)
        y1, y2 = var(QQ, trunc, 0), var(QQ, trunc, 1)
        f = y1 + y2 + y1 * y2
        hs = symmetric_split(f)
        series._verify_split(f, hs)
        with pytest.raises(AlgebraError, match=message):
            series._verify_split(f, tamper(y1, y2, hs))

    def test_every_result_is_verified(self, monkeypatch):
        seen = []
        monkeypatch.setattr(series, "_verify_split", lambda f, fs: seen.append((f, fs)))
        trunc = (3, 3)
        y1, y2 = var(QQ, trunc, 0), var(QQ, trunc, 1)
        f = y1 + y2 + y1 * y2
        pieces = symmetric_split(f)
        assert seen == [(f, pieces)]

    def test_rejects_asymmetric(self):
        trunc = (3, 3)
        f = var(QQ, trunc, 0) + var(QQ, trunc, 1) + var(QQ, trunc, 0) ** 2
        with pytest.raises(NotSymmetric):
            symmetric_split(f)

    def test_factorial_not_invertible(self):
        f2 = GF(2)
        f = elementary_symmetric(f2, (2, 2), 1)
        with pytest.raises(FactorialNotInvertible):
            symmetric_split(f)


#: the fields of the dict-reference checks; at the largest prime below 2**31
#: a product of three terms (p-1)**2 passes 2**63, so int64 sums are reduced
#: after each term
ORACLE_FIELDS = [GF(2), F5, GF(2147483647), QQ]


@st.composite
def oracle_series(draw, count=2, trunc=None):
    """``count`` series in one box over a field of ``ORACLE_FIELDS``; small
    integers of both signs, so coefficients near p over the large prime."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    if trunc is None:
        trunc = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    box = st.tuples(*[st.integers(0, r - 1) for r in trunc])
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4).filter(
        lambda c: not field.p or c.denominator % field.p))
    return [TruncatedPoly(field, trunc, draw(st.dictionaries(box, coeff, max_size=8)))
            for _ in range(count)]


def same(got: TruncatedPoly, want: DictSeries) -> bool:
    return got.trunc == want.trunc and dict(got.coeffs) == want.coeffs


class TestDictOracle:
    """Each dense operation against the dict reference ``oracles.DictSeries``."""

    @given(oracle_series(), st.integers(-4, 4), st.integers(0, 6), st.randoms())
    @settings(max_examples=120, deadline=None)
    def test_ring_ops(self, pair, k, d, rng):
        f, g = pair
        df, dg = DictSeries.of(f), DictSeries.of(g)
        assert same(f + g, df + dg) and same(f - g, df - dg) and same(-f, -df)
        assert same(f * g, df * dg) and same(g * f, df * dg)
        assert same(f.scale(k), df.scale(k))
        assert same(f.homogeneous_part(d), df.homogeneous_part(d))
        assert same(f.truncate_degree(d), df.truncate_degree(d))
        sigma = list(range(f.num_vars))
        rng.shuffle(sigma)
        assert same(f.permute_variables(sigma), df.permute_variables(sigma))
        assert mult_matrix(f) == loop_mult_matrix(df)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    @pytest.mark.parametrize("trunc", [(9,), (4, 5), (3, 3, 3)])
    def test_dense_products_near_p(self, field, trunc):
        # every coefficient -1 or -2: at the large prime the sums of (p-1)**2
        # and (p-2)**2 pass 2**63 many times over
        f = TruncatedPoly(field, trunc, {e: -1 for e in monomial_basis(trunc)})
        g = TruncatedPoly(field, trunc, {e: -1 - sum(e) % 2 for e in monomial_basis(trunc)})
        df, dg = DictSeries.of(f), DictSeries.of(g)
        assert same(f * g, df * dg) and same(f * f, df * df)
        assert same(f.scale(-2), df.scale(-2))
        ys = [var(field, trunc, i) for i in range(len(trunc))]
        gs = [y + y * g for y in ys]
        assert same(f.substitute(gs), df.substitute([DictSeries.of(x) for x in gs]))

    def test_largest_supported_prime_and_past_it(self):
        # entries stay below p + (p-1)**2 < 2**63 after each reduced term at
        # the largest prime F_p elimination supports; past it (p-1)**2
        # alone wraps int64, so a series there is refused
        field = GF(3037000493)
        f = TruncatedPoly(field, (6, 2), {e: -1 - e[1] for e in monomial_basis((6, 2))})
        assert same(f * f, DictSeries.of(f) * DictSeries.of(f))
        with pytest.raises(BadPrime):
            TruncatedPoly(GF(4000000007), (3,), {(1,): 1})

    @given(oracle_series(count=3))
    @settings(max_examples=80, deadline=None)
    def test_substitute(self, series):
        f, g, h = series
        field, trunc = f.field, f.trunc
        images = [x - TruncatedPoly.constant(field, trunc, x.constant_term()) for x in (g, h)]
        images = (images * 2)[:len(trunc)]
        # f in as many variables as the box, at the images
        got = f.substitute(images)
        assert same(got, DictSeries.of(f).substitute([DictSeries.of(x) for x in images]))

    @given(st.sampled_from(ORACLE_FIELDS), st.integers(2, 9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_compose_inverse(self, field, r, data):
        lin = data.draw(st.integers(-3, 3).filter(lambda c: field(c) != 0))
        tail = data.draw(st.lists(st.integers(-3, 3), max_size=r - 2))
        f = TruncatedPoly.univariate(field, r, [0, lin] + tail)
        assert same(compose_inverse(f), dict_compose_inverse(DictSeries.of(f)))

    @given(st.sampled_from([F5, GF(2147483647), QQ]), st.integers(1, 3), st.integers(1, 3),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_split(self, field, m, r, data):
        # the sum of every permutation of a series with no term of degree
        # below 2, plus Y_1 + ... + Y_m
        import itertools

        trunc = (r,) * m
        higher = [e for e in monomial_basis(trunc) if sum(e) >= 2]
        h = TruncatedPoly(field, trunc, data.draw(st.dictionaries(
            st.sampled_from(higher), st.integers(-3, 3), max_size=5)) if higher else {})
        f = elementary_symmetric(field, trunc, 1)
        for sigma in itertools.permutations(range(m)):
            f = f + h.permute_variables(sigma)
        got = symmetric_split(f)
        want = dict_symmetric_split(DictSeries.of(f))
        assert all(same(x, y) for x, y in zip(got, want)) and len(got) == m
