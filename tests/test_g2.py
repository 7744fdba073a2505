import dataclasses
import random

import pytest

from jordanblocks import g2
from jordanblocks.errors import (
    AlgebraError,
    BadPrime,
    DoesNotStabilize,
    InvalidInput,
    NotNilpotent,
    NotUnipotent,
)
from jordanblocks.fgl import additive, multiplicative
from jordanblocks.fields import GF, QQ
from jordanblocks.g2 import (
    ORBITS,
    V_PARTITIONS,
    bracket,
    build_so7_model,
    expected_adjoint,
    g2_generators,
    g2_subalgebra,
    g2_table,
    lie_closure,
    weight_components,
)
from jordanblocks.linalg import (
    Matrix,
    Partition,
    exp_nilpotent,
    jordan_partition,
    unipotent_partition,
)
from jordanblocks.repring import tensor_operator
from oracles import (
    g2_direct_adjoint,
    kron_wedge_adjoint,
    kron_wedge_operator,
    random_invertible,
    rank_probe_closure,
)

PRIMES = [5, 7, 11, 13]


@pytest.fixture(scope="module")
def model():
    return build_so7_model(7)


class TestModel:
    def test_bad_prime(self):
        for p in (2, 3):
            with pytest.raises(BadPrime):
                build_so7_model(p)

    def test_root_vectors_in_so7(self, model):
        for y in model.y + model.y_neg:
            assert (y.T @ model.gram + model.gram @ y).is_zero()

    def test_weight_contracts(self, model):
        # y_1 maps the second basis line onto the first
        y1 = model.y[0]
        assert y1.a[0, 1] != 0
        assert weight_components(y1) == {(1, -1, 0)}
        assert weight_components(model.y_neg[0]) == {(-1, 1, 0)}

    def test_model_is_built_once_per_prime(self, monkeypatch):
        # six units per build; a cached model is equal only to itself, so
        # the subalgebra cache hashes no matrix on a hit
        built = []
        unit = g2._unit
        g2._so7_model.cache_clear()
        monkeypatch.setattr(g2, "_unit",
                            lambda field, i, j: built.append(field.p) or unit(field, i, j))
        rows = g2_table(7)
        monkeypatch.setattr(Matrix, "__hash__", lambda self: pytest.fail("a matrix was hashed"))
        assert g2_table(7) == rows
        assert built == [7] * 6
        assert build_so7_model(7) is build_so7_model(7)

    @pytest.mark.parametrize("bad", [7.0, True, "7"])
    def test_refusals_hold_once_the_model_is_cached(self, bad):
        # a cache keyed by p alone would take 7.0, which hashes as 7
        build_so7_model(7)
        with pytest.raises(BadPrime):
            build_so7_model(bad)
        with pytest.raises(BadPrime):
            g2_table(bad)

    def test_root_vector_outside_so7_is_a_typed_error(self, monkeypatch):
        # without its -E_56 half, y_1 no longer preserves the form
        g2._so7_model.cache_clear()
        unit = g2._unit
        monkeypatch.setattr(g2, "_unit", lambda field, i, j: (
            Matrix.zeros(field, 7, 7) if (i, j) == (5, 6) else unit(field, i, j)))
        with pytest.raises(AlgebraError, match="leaves so_7"):
            build_so7_model(7)

    def test_wrong_root_weight_is_a_typed_error(self, monkeypatch):
        g2._so7_model.cache_clear()
        monkeypatch.setattr(g2, "weight_components", lambda mat: set())
        with pytest.raises(AlgebraError, match="wrong torus weight"):
            build_so7_model(7)

    def test_noncommuting_y1_y3_is_a_typed_error(self, monkeypatch):
        g2._so7_model.cache_clear()
        monkeypatch.setattr(g2, "bracket", lambda a, b: a)
        with pytest.raises(AlgebraError, match="must commute"):
            build_so7_model(7)

    def test_y1_y3_commute(self, model):
        assert bracket(model.y[0], model.y[2]).is_zero()

    def test_cartan_relations(self, model):
        xa1, xa2, xm1, xm2 = g2_generators(model)
        h1 = bracket(xa1, xm1)
        h2 = bracket(xa2, xm2)
        assert bracket(h1, xa1) == xa1.scale(2)
        assert bracket(h1, xa2) == xa2.scale(-3)
        assert bracket(h2, xa2) == xa2.scale(2)
        assert bracket(h2, xa1) == xa1.scale(-1)


class TestLieClosure:
    def test_single_nilpotent(self, model):
        assert len(lie_closure([model.y[1]])) == 1

    def test_sl2(self, model):
        assert len(lie_closure([model.y[0], model.y_neg[0]])) == 3

    def test_g2_dimension(self, model):
        assert len(g2_subalgebra(model)) == 14

    def test_wrong_closure_dimension_is_a_typed_error(self, model, monkeypatch):
        monkeypatch.setattr(g2, "_subalgebra_cache", {})
        monkeypatch.setattr(g2, "lie_closure", list)
        with pytest.raises(AlgebraError, match="dimension 4, expected 14"):
            g2_subalgebra(model)

    def test_subalgebra_is_cached_per_model(self, monkeypatch):
        # y_1 and y_2 swapped close to 21 dimensions, cold and after the
        # model at the same p has cached its 14
        monkeypatch.setattr(g2, "_subalgebra_cache", {})
        model = build_so7_model(5)
        swapped = dataclasses.replace(model, y=(model.y[1], model.y[0], model.y[2]))
        for _ in ("cold", "warm"):
            with pytest.raises(AlgebraError, match="dimension 21, expected 14"):
                g2_subalgebra(swapped)
            assert len(g2_subalgebra(model)) == 14

    def test_g2_dimension_other_primes(self):
        for p in (5, 11, 13):
            assert len(g2_subalgebra(build_so7_model(p))) == 14

    @pytest.mark.parametrize("p", PRIMES)
    def test_basis_is_the_rank_probe_closure(self, p):
        # the incremental echelon keeps the same brackets in the same order
        # as ranking every probe from scratch
        gens = g2_generators(build_so7_model(p))
        got, want = lie_closure(gens), rank_probe_closure(gens)
        assert len(got) == len(want) == 14
        assert all(a == b for a, b in zip(got, want))

    def test_closure_over_q(self):
        y1 = g2._unit(QQ, 0, 1) - g2._unit(QQ, 5, 6)
        gens = [y1, y1.T]
        got = lie_closure(gens)
        assert len(got) == 3
        assert all(a == b for a, b in zip(got, rank_probe_closure(gens)))


def _reps(model) -> list:
    """The table's eight (representative, mode) pairs, nilpotents first."""
    return ([(g2._nilpotent_rep(o, model), "nilpotent") for o in ORBITS]
            + [(g2._unipotent_rep(o, model), "unipotent") for o in ORBITS])


def _direct(a, basis, mode) -> Partition:
    """The direct route's type for one representative."""
    return jordan_partition(g2._coordinate_blocks([(a, mode)], basis)[0])


def _wrong_v_types(monkeypatch, half):
    """The table's batch of types on V, x first then u - 1, with one half
    read as (7)."""
    real = g2.jordan_partitions

    def wrong(mats):
        out = real(mats)
        if mats[0].nrows == 7:
            out[half] = [Partition((7,))] * 4
        return out

    monkeypatch.setattr(g2, "jordan_partitions", wrong)


class TestRepresentatives:
    @pytest.mark.parametrize("orbit", ORBITS)
    def test_nilpotent_v_partitions(self, model, orbit):
        assert jordan_partition(g2._nilpotent_rep(orbit, model)) == V_PARTITIONS[orbit]

    @pytest.mark.parametrize("orbit", ORBITS)
    def test_unipotent_v_partitions(self, model, orbit):
        assert unipotent_partition(g2._unipotent_rep(orbit, model)) == V_PARTITIONS[orbit]

    @pytest.mark.parametrize("orbit", ORBITS)
    def test_unipotents_preserve_form(self, model, orbit):
        u = g2._unipotent_rep(orbit, model)
        assert (u.T @ model.gram @ u) == model.gram

    def test_richardson_weight_components(self, model):
        # components sit on the four roots restricting to the two relevant
        # orbit roots; the three named ones are nonzero
        comps = weight_components(g2._nilpotent_rep("G2a1", model))
        named = {(1, 0, -1), (0, 1, 0), (0, 1, 1)}
        assert named <= comps
        assert comps <= named | {(1, 0, 0)}


    def test_unknown_orbit_is_invalid_input(self, model):
        with pytest.raises(InvalidInput, match="unknown orbit"):
            g2._nilpotent_rep("B2", model)
        with pytest.raises(InvalidInput, match="unknown orbit"):
            g2._unipotent_rep("B2", model)

    def test_wrong_nilpotent_type_is_a_typed_error(self, monkeypatch):
        _wrong_v_types(monkeypatch, slice(0, 4))
        with pytest.raises(AlgebraError, match="A1 representative has Jordan type"):
            g2_table(5)

    def test_wrong_unipotent_type_is_a_typed_error(self, monkeypatch):
        # the nilpotents' types are right: the unipotents' are checked too
        _wrong_v_types(monkeypatch, slice(4, 8))
        with pytest.raises(AlgebraError, match="A1 representative has Jordan type"):
            g2_table(5)

    def test_form_not_preserved_is_a_typed_error(self, model, monkeypatch):
        # 2 times the identity scales the form by 4
        monkeypatch.setattr(g2, "exp_nilpotent",
                            lambda y: Matrix.identity(y.field, y.nrows).scale(2))
        with pytest.raises(AlgebraError, match="does not preserve the form"):
            g2._unipotent_rep("A1", model)


class TestAdjointRoutes:
    def test_zero_element(self, model):
        basis = g2_subalgebra(model)
        zero = Matrix.zeros(model.field, 7, 7)
        assert _direct(zero, basis, "nilpotent") == (1,) * 14

    def test_does_not_stabilize(self, model):
        # a single so_7 root vector y_1 is not in the subalgebra
        basis = g2_subalgebra(model)
        with pytest.raises(DoesNotStabilize):
            _direct(model.y[0], basis, "nilpotent")

    def test_a1_direct(self):
        model11 = build_so7_model(11)
        basis = g2_subalgebra(model11)
        a = g2._nilpotent_rep("A1", model11)
        assert _direct(a, basis, "nilpotent") == (3, 2, 2, 2, 2, 1, 1, 1)

    def test_regular_unipotent_p7(self, model):
        basis = g2_subalgebra(model)
        u = g2._unipotent_rep("G2reg", model)
        assert _direct(u, basis, "unipotent") == (7, 7)

    def test_singular_u_is_not_unipotent(self, model):
        # u = 0 has u - 1 = -1, which no squaring kills
        zero = Matrix.zeros(model.field, 7, 7)
        with pytest.raises(NotUnipotent):
            _direct(zero, g2_subalgebra(model), "unipotent")

    def test_not_nilpotent_or_not_unipotent_is_refused(self, model):
        # 1 and 2 * 1 stabilize the span, with ad 1 = 0 and Ad(2 * 1) = 1, so
        # only the nilpotency of a or of u - 1 tells them apart from 0 and 1;
        # the Cartan element h stabilizes it too
        basis = g2_subalgebra(model)
        eye = Matrix.identity(model.field, 7)
        for a, mode, error in ((eye, "nilpotent", NotNilpotent),
                               (basis[5], "nilpotent", NotNilpotent),
                               (eye.scale(2), "unipotent", NotUnipotent)):
            with pytest.raises(error):
                _direct(a, basis, mode)

    def test_products_past_float_exactness_are_bad_prime(self):
        # 7 (p - 1)**2 passes 2**53, so the stacked products could round
        field = GF(2147483647)
        basis = [Matrix.identity(field, 7)]
        for mode in ("nilpotent", "unipotent"):
            with pytest.raises(BadPrime):
                _direct(Matrix.identity(field, 7), basis, mode)
        with pytest.raises(BadPrime):
            g2_table(2147483647)

    def test_wedge_route_values(self):
        model5 = build_so7_model(5)
        cases = {
            "G2a1": (5, 3, 3, 3),
            "G2reg": (11, 3),
            "A1tilde": (4, 4, 3, 1, 1, 1),
        }
        for orbit, expected in cases.items():
            a = g2._nilpotent_rep(orbit, model5)
            wedge = jordan_partition(g2._wedge_square(a, "nilpotent"))
            assert wedge.difference(jordan_partition(a)) == expected


class TestWedgeRouteOperators:
    @pytest.mark.parametrize("p", [5, 7])
    def test_kronecker_forms_are_the_law_operators(self, p):
        # the wedge route writes the additive and multiplicative tensor
        # operators out as plain Kronecker products
        model_p = build_so7_model(p)
        field = model_p.field
        eye = Matrix.identity(field, 7)
        for orbit in ORBITS:
            x = g2._nilpotent_rep(orbit, model_p)
            u = g2._unipotent_rep(orbit, model_p)
            assert x.kron(eye) + eye.kron(x) == tensor_operator(x, x, additive(field))
            assert (u.kron(u) - Matrix.identity(field, 49)
                    == tensor_operator(u - eye, u - eye, multiplicative(field)))


def _seeded_matrices(field, rng, count=4):
    """Dense 7 x 7 matrices, invertible, with entries below the diagonal too."""
    return [random_invertible(field, 7, rng) for _ in range(count)]


class TestBatchedRoutes:
    """The batched direct route and the compound wedge route against the
    per-element brackets and the straightened Kronecker forms."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_table_matches_the_oracles(self, p):
        model_p = build_so7_model(p)
        basis = g2_subalgebra(model_p)
        for orbit, row in zip(ORBITS, g2_table(p)):
            reps = {"nilpotent": g2._nilpotent_rep(orbit, model_p),
                    "unipotent": g2._unipotent_rep(orbit, model_p)}
            for mode, got in (("nilpotent", row.adjoint_nilpotent),
                              ("unipotent", row.adjoint_unipotent)):
                a = reps[mode]
                assert got == g2_direct_adjoint(a, basis, mode), (orbit, mode)
                assert got == kron_wedge_adjoint(a, mode), (orbit, mode)

    @pytest.mark.parametrize("p", PRIMES)
    def test_compound_operators_are_the_straightened_kronecker_forms(self, p):
        model_p = build_so7_model(p)
        rng = random.Random(f"g2-compound:{p}")
        nilpotents = [g2._nilpotent_rep(o, model_p) for o in ORBITS] + g2_subalgebra(model_p)
        unipotents = [g2._unipotent_rep(o, model_p) for o in ORBITS]
        dense = _seeded_matrices(model_p.field, rng)
        for mode, mats in (("nilpotent", nilpotents + dense), ("unipotent", unipotents + dense)):
            for a in mats:
                assert g2._wedge_square(a, mode) == kron_wedge_operator(a, mode), mode

    def test_compound_operators_over_q(self):
        rng = random.Random("g2-compound:0")
        for a in _seeded_matrices(QQ, rng, 2):
            a = Matrix(QQ, a.a / 3)
            for mode in ("nilpotent", "unipotent"):
                assert g2._wedge_square(a, mode) == kron_wedge_operator(a, mode)

    @pytest.mark.parametrize("mode", ["nilpotent", "unipotent"])
    def test_one_bad_representative_among_the_stack(self, model, mode):
        # y_1 alone (or exp y_1) leaves the subalgebra: one such image among
        # the stacked ones is enough to refuse the whole solve
        basis = g2_subalgebra(model)
        reps = _reps(model)
        g2._coordinate_blocks(reps, basis)
        bad = model.y[0] if mode == "nilpotent" else exp_nilpotent(model.y[0])
        reps.insert(5, (bad, mode))
        with pytest.raises(DoesNotStabilize):
            g2._coordinate_blocks(reps, basis)

    @pytest.mark.parametrize("mode", ["nilpotent", "unipotent"])
    def test_one_non_nilpotent_representative_among_the_stack(self, model, mode):
        # the semisimple basis element h, and 1 or 2 * 1, all stabilize the
        # span: only the stacked squarings refuse them, as they refuse the
        # singular 0 before any inverse is read off them
        basis = g2_subalgebra(model)
        eye = Matrix.identity(model.field, 7)
        reps = _reps(model)
        error = NotNilpotent if mode == "nilpotent" else NotUnipotent
        bads = ([basis[5], eye] if mode == "nilpotent"
                else [eye.scale(2), eye.scale(3), Matrix.zeros(model.field, 7, 7)])
        assert any(basis[5].num.diagonal())
        for bad in bads:
            with pytest.raises(error):
                g2._coordinate_blocks(reps[:3] + [(bad, mode)] + reps[3:], basis)

    def test_blocks_follow_the_representatives(self, model):
        # the same representatives in another order give the same blocks,
        # reordered
        basis = g2_subalgebra(model)
        reps = _reps(model)[::-1]
        blocks = g2._coordinate_blocks(reps, basis)
        again = g2._coordinate_blocks(reps[::-1], basis)
        assert all(a == b for a, b in zip(blocks, again[::-1]))
        for (a, mode), block in zip(reps, blocks):
            assert block.shape == (14, 14)
            assert jordan_partition(block) == g2_direct_adjoint(a, basis, mode)


class TestTable:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_full_table(self, p):
        rows = g2_table(p)
        assert len(rows) == 4
        for row in rows:
            assert row.matches_table, (p, row.orbit)
            assert row.routes_agree
            assert row.adjoint_nilpotent == row.adjoint_unipotent
            assert row.v_partition == V_PARTITIONS[row.orbit]
            assert row.adjoint_nilpotent == expected_adjoint(row.orbit, p)

    def test_regular_is_special_at_7(self):
        assert expected_adjoint("G2reg", 7) == (7, 7)
        assert expected_adjoint("G2reg", 5) == (11, 3)
        assert expected_adjoint("G2reg", 13) == (11, 3)

    def test_json_row(self):
        row = g2_table(5)[2]
        data = row.to_json()
        assert data["orbit"] == "G2a1"
        assert data["V"] == [3, 3, 1]
        assert data["adjoint_nilpotent"] == [5, 3, 3, 3]
        assert data["routes_agree"] is True

    def test_v_partitions_come_from_the_certified_representatives(self, monkeypatch):
        # three batches of eight Jordan types and no single one: x and u - 1
        # on V, checked against the table once each, the coordinate blocks,
        # and wedge^2 V, whose route reuses the types on V
        batches = []
        real = g2.jordan_partitions

        def counted(mats):
            out = real(mats)
            batches.append(([mat.shape for mat in mats], out))
            return out

        def refuse(*args):
            pytest.fail("the table computed a single Jordan type")

        monkeypatch.setattr(g2, "jordan_partitions", counted)
        # g2 imports neither name; a spy catches either if it comes back
        for name in ("jordan_partition", "unipotent_partition"):
            monkeypatch.setattr(g2, name, refuse, raising=False)
        rows = g2_table(5)
        assert [row.v_partition for row in rows] == [V_PARTITIONS[o] for o in ORBITS]
        assert [shapes for shapes, _ in batches] == [[(7, 7)] * 8, [(14, 14)] * 8,
                                                     [(21, 21)] * 8]
        assert batches[0][1] == [V_PARTITIONS[o] for o in ORBITS] * 2
        assert batches[1][1] == [row.adjoint_nilpotent for row in rows] + [
            row.adjoint_unipotent for row in rows]

    def test_table_keeps_every_check(self, monkeypatch):
        # the representatives' types on V, the form and the unipotency of u
        # are checked in the table as in the builders: a wrong type from
        # the V batch, an exponential that scales the form, and -1, which
        # keeps the form but leaves -2 (not nilpotent) as u - 1
        real = g2.jordan_partitions

        def wrong_v(mats):
            out = real(mats)
            return [Partition((7,))] * len(out) if mats[0].nrows == 7 else out

        with monkeypatch.context() as patch:
            patch.setattr(g2, "jordan_partitions", wrong_v)
            with pytest.raises(AlgebraError, match="A1 representative has Jordan type"):
                g2_table(5)
        for scale, error, match in ((2, AlgebraError, "does not preserve the form"),
                                    (-1, NotUnipotent, "not nilpotent")):
            with monkeypatch.context() as patch:
                patch.setattr(g2, "exp_nilpotent",
                              lambda y, c=scale: Matrix.identity(y.field, y.nrows).scale(c))
                with pytest.raises(error, match=match):
                    g2_table(5)

    def test_one_solve_and_no_inverse(self, monkeypatch):
        # every u^-1 comes from the squarings that check u - 1 nilpotent
        solves = []
        real = g2.solve_in_columns

        def counted(*args):
            solves.append(args)
            return real(*args)

        def refuse(self):
            pytest.fail("the table inverted a matrix")

        monkeypatch.setattr(g2, "solve_in_columns", counted)
        monkeypatch.setattr(Matrix, "inverse", refuse)
        assert all(row.matches_table and row.routes_agree for row in g2_table(7))
        assert len(solves) == 1

    def test_adjoint_dimension_is_14(self):
        for row in g2_table(5):
            assert row.adjoint_nilpotent.dim == 14
