import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import series
from jordanblocks.errors import (
    AlgebraError,
    FactorialNotInvertible,
    InvalidInput,
    NonzeroConstantTerm,
    NotInvertibleLinearPart,
    NotSymmetric,
    ShapeMismatch,
)
from jordanblocks.fields import GF, QQ, Field
from jordanblocks.series import (
    TruncatedPoly,
    build_automorphism,
    compose,
    compose_inverse,
    elementary_symmetric,
    monomial_basis,
    mult_matrix,
    symmetric_split,
)
from oracles import loop_mult_matrix

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
        data = f.to_json()
        assert data["trunc"] == [3, 2]
        assert TruncatedPoly.from_json(QQ, data) == f


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
        assert compose(f, g) == t
        assert compose(g, f) == t


def test_bad_arguments_are_invalid_input():
    y = var(QQ, (3, 3), 0)
    with pytest.raises(InvalidInput):
        TruncatedPoly(QQ, (0,))
    with pytest.raises(InvalidInput):
        y.permute_variables([0, 0])
    with pytest.raises(InvalidInput):
        y.divide_by_variable(1)
    with pytest.raises(InvalidInput):
        build_automorphism([], [])


class TestBuildAutomorphism:
    def test_unipotent_shear(self):
        # Y -> Y(1 + Y) on k[Y]/(Y^3): basis (1, Y, Y^2)
        y = var(F5, (3,), 0)
        m = build_automorphism([1], [y])
        assert m.a.tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]

    def test_monomial_scaling(self):
        m = build_automorphism([2], [TruncatedPoly.zero(F5, (3,))])
        assert m.a.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 4]]

    def test_two_variable_invertible(self):
        trunc = (3, 3)
        f1 = var(F5, trunc, 0) * var(F5, trunc, 1)
        f2 = TruncatedPoly.zero(F5, trunc)
        m = build_automorphism([1, 1], [f1, f2])
        assert m.rank() == 9

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 0]))
    @settings(max_examples=25, deadline=None)
    def test_always_invertible(self, seed, p):
        import random

        from jordanblocks.fields import Field

        field = Field(p)
        rng = random.Random(seed)
        trunc = (rng.randint(1, 3), rng.randint(1, 3))
        dim = trunc[0] * trunc[1]
        xis = [field.random_nonzero(rng) for _ in range(2)]
        fs = []
        for _ in range(2):
            coeffs = {}
            for exp in monomial_basis(trunc):
                if sum(exp) >= 1 and rng.random() < 0.5:
                    coeffs[exp] = field.random_element(rng)
            fs.append(TruncatedPoly(field, trunc, coeffs))
        assert build_automorphism(xis, fs).rank() == dim


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
