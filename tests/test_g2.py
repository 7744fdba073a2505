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
    ShapeMismatch,
)
from jordanblocks.fgl import additive, multiplicative
from jordanblocks.fields import GF, QQ
from jordanblocks.g2 import (
    ORBITS,
    V_PARTITIONS,
    adjoint_partition_direct,
    bracket,
    build_so7_model,
    expected_adjoint,
    g2_generators,
    g2_nilpotent_rep,
    g2_subalgebra,
    g2_table,
    g2_unipotent_rep,
    lie_closure,
    wedge_route_adjoint,
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

    def test_root_vector_outside_so7_is_a_typed_error(self, monkeypatch):
        # without its -E_56 half, y_1 no longer preserves the form
        unit = g2._unit
        monkeypatch.setattr(g2, "_unit", lambda field, i, j: (
            Matrix.zeros(field, 7, 7) if (i, j) == (5, 6) else unit(field, i, j)))
        with pytest.raises(AlgebraError, match="leaves so_7"):
            build_so7_model(7)

    def test_wrong_root_weight_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(g2, "weight_components", lambda mat: set())
        with pytest.raises(AlgebraError, match="wrong torus weight"):
            build_so7_model(7)

    def test_noncommuting_y1_y3_is_a_typed_error(self, monkeypatch):
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


class TestRepresentatives:
    @pytest.mark.parametrize("orbit", ORBITS)
    def test_nilpotent_v_partitions(self, model, orbit):
        assert jordan_partition(g2_nilpotent_rep(orbit, model)) == V_PARTITIONS[orbit]

    @pytest.mark.parametrize("orbit", ORBITS)
    def test_unipotent_v_partitions(self, model, orbit):
        assert unipotent_partition(g2_unipotent_rep(orbit, model)) == V_PARTITIONS[orbit]

    @pytest.mark.parametrize("orbit", ORBITS)
    def test_unipotents_preserve_form(self, model, orbit):
        u = g2_unipotent_rep(orbit, model)
        assert (u.T @ model.gram @ u) == model.gram

    def test_richardson_weight_components(self, model):
        # components sit on the four roots restricting to the two relevant
        # orbit roots; the three named ones are nonzero
        comps = weight_components(g2_nilpotent_rep("G2a1", model))
        named = {(1, 0, -1), (0, 1, 0), (0, 1, 1)}
        assert named <= comps
        assert comps <= named | {(1, 0, 0)}


    def test_unknown_orbit_is_invalid_input(self, model):
        with pytest.raises(InvalidInput, match="unknown orbit"):
            g2_nilpotent_rep("B2", model)
        with pytest.raises(InvalidInput, match="unknown orbit"):
            g2_unipotent_rep("B2", model)

    def test_wrong_nilpotent_type_is_a_typed_error(self, model, monkeypatch):
        monkeypatch.setattr(g2, "jordan_partition", lambda x: Partition((7,)))
        with pytest.raises(AlgebraError, match="A1 representative has Jordan type"):
            g2_nilpotent_rep("A1", model)

    def test_form_not_preserved_is_a_typed_error(self, model, monkeypatch):
        # 2 times the identity scales the form by 4
        monkeypatch.setattr(g2, "exp_nilpotent",
                            lambda y: Matrix.identity(y.field, y.nrows).scale(2))
        with pytest.raises(AlgebraError, match="does not preserve the form"):
            g2_unipotent_rep("A1", model)

    def test_wrong_unipotent_type_is_a_typed_error(self, model, monkeypatch):
        monkeypatch.setattr(g2, "unipotent_partition", lambda u: Partition((7,)))
        with pytest.raises(AlgebraError, match="A1 representative has Jordan type"):
            g2_unipotent_rep("A1", model)


class TestAdjointRoutes:
    def test_unknown_mode_is_invalid_input(self, model):
        a = g2_nilpotent_rep("A1", model)
        with pytest.raises(InvalidInput, match="unknown mode"):
            adjoint_partition_direct(a, g2_subalgebra(model), "semisimple")
        with pytest.raises(InvalidInput, match="unknown mode"):
            wedge_route_adjoint(a, "semisimple")

    def test_zero_element(self, model):
        basis = g2_subalgebra(model)
        zero = Matrix.zeros(model.field, 7, 7)
        assert adjoint_partition_direct(zero, basis, "nilpotent") == (1,) * 14

    def test_does_not_stabilize(self, model):
        # a single so_7 root vector y_1 is not in the subalgebra
        basis = g2_subalgebra(model)
        with pytest.raises(DoesNotStabilize):
            adjoint_partition_direct(model.y[0], basis, "nilpotent")

    def test_a1_direct(self):
        model11 = build_so7_model(11)
        basis = g2_subalgebra(model11)
        a = g2_nilpotent_rep("A1", model11)
        assert adjoint_partition_direct(a, basis, "nilpotent") == (3, 2, 2, 2, 2, 1, 1, 1)

    def test_regular_unipotent_p7(self, model):
        basis = g2_subalgebra(model)
        u = g2_unipotent_rep("G2reg", model)
        assert adjoint_partition_direct(u, basis, "unipotent") == (7, 7)

    def test_matrix_off_the_module_is_a_shape_mismatch(self, model):
        basis = g2_subalgebra(model)
        for a in (Matrix.zeros(model.field, 6, 6), Matrix.zeros(model.field, 8, 8)):
            for mode in ("nilpotent", "unipotent"):
                with pytest.raises(ShapeMismatch):
                    wedge_route_adjoint(a, mode)
                with pytest.raises(ShapeMismatch):
                    adjoint_partition_direct(a, basis, mode)

    def test_matrix_over_another_field_is_a_shape_mismatch(self, model):
        basis = g2_subalgebra(model)
        for field in (GF(5), QQ):
            with pytest.raises(ShapeMismatch):
                adjoint_partition_direct(Matrix.zeros(field, 7, 7), basis, "nilpotent")

    def test_singular_u_is_not_unipotent(self, model):
        zero = Matrix.zeros(model.field, 7, 7)
        with pytest.raises(NotUnipotent):
            adjoint_partition_direct(zero, g2_subalgebra(model), "unipotent")
        with pytest.raises(NotUnipotent):
            wedge_route_adjoint(zero, "unipotent")

    def test_not_nilpotent_or_not_unipotent_is_refused(self, model):
        # 1 and 2 * 1 stabilize the span, with ad 1 = 0 and Ad(2 * 1) = 1, so
        # only the nilpotency of a or of u - 1 tells them apart from 0 and 1
        basis = g2_subalgebra(model)
        eye = Matrix.identity(model.field, 7)
        for a, mode, error in ((eye, "nilpotent", NotNilpotent),
                               (eye.scale(2), "unipotent", NotUnipotent)):
            with pytest.raises(error):
                adjoint_partition_direct(a, basis, mode)
            with pytest.raises(error):
                wedge_route_adjoint(a, mode)

    def test_products_past_float_exactness_are_bad_prime(self):
        # 7 (p - 1)**2 passes 2**53, so the stacked products could round
        field = GF(2147483647)
        basis = [Matrix.identity(field, 7)]
        for mode in ("nilpotent", "unipotent"):
            with pytest.raises(BadPrime):
                adjoint_partition_direct(Matrix.identity(field, 7), basis, mode)

    def test_wedge_route_values(self):
        model5 = build_so7_model(5)
        cases = {
            "G2a1": (5, 3, 3, 3),
            "G2reg": (11, 3),
            "A1tilde": (4, 4, 3, 1, 1, 1),
        }
        for orbit, expected in cases.items():
            a = g2_nilpotent_rep(orbit, model5)
            assert wedge_route_adjoint(a, "nilpotent") == expected


class TestWedgeRouteOperators:
    @pytest.mark.parametrize("p", [5, 7])
    def test_kronecker_forms_are_the_law_operators(self, p):
        # the wedge route writes the additive and multiplicative tensor
        # operators out as plain Kronecker products
        model_p = build_so7_model(p)
        field = model_p.field
        eye = Matrix.identity(field, 7)
        for orbit in ORBITS:
            x = g2_nilpotent_rep(orbit, model_p)
            u = g2_unipotent_rep(orbit, model_p)
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
            reps = {"nilpotent": g2_nilpotent_rep(orbit, model_p),
                    "unipotent": g2_unipotent_rep(orbit, model_p)}
            for mode, got in (("nilpotent", row.adjoint_nilpotent),
                              ("unipotent", row.adjoint_unipotent)):
                a = reps[mode]
                assert got == g2_direct_adjoint(a, basis, mode), (orbit, mode)
                assert got == kron_wedge_adjoint(a, mode), (orbit, mode)
                assert got == adjoint_partition_direct(a, basis, mode), (orbit, mode)

    @pytest.mark.parametrize("p", PRIMES)
    def test_compound_operators_are_the_straightened_kronecker_forms(self, p):
        model_p = build_so7_model(p)
        rng = random.Random(f"g2-compound:{p}")
        nilpotents = [g2_nilpotent_rep(o, model_p) for o in ORBITS] + g2_subalgebra(model_p)
        unipotents = [g2_unipotent_rep(o, model_p) for o in ORBITS]
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
        reps = [(g2_nilpotent_rep(o, model), "nilpotent") for o in ORBITS]
        reps += [(g2_unipotent_rep(o, model), "unipotent") for o in ORBITS]
        g2._coordinate_blocks(reps, basis)
        bad = model.y[0] if mode == "nilpotent" else exp_nilpotent(model.y[0])
        reps.insert(5, (bad, mode))
        with pytest.raises(DoesNotStabilize):
            g2._coordinate_blocks(reps, basis)

    @pytest.mark.parametrize("mode", ["nilpotent", "unipotent"])
    def test_one_non_nilpotent_representative_among_the_stack(self, model, mode):
        # the semisimple basis element h, and 1 or 2 * 1, all stabilize the
        # span: only the stacked squarings refuse them
        basis = g2_subalgebra(model)
        eye = Matrix.identity(model.field, 7)
        reps = [(g2_nilpotent_rep(o, model), "nilpotent") for o in ORBITS]
        reps += [(g2_unipotent_rep(o, model), "unipotent") for o in ORBITS]
        error = NotNilpotent if mode == "nilpotent" else NotUnipotent
        bads = [basis[5], eye] if mode == "nilpotent" else [eye.scale(2), eye.scale(3)]
        assert any(basis[5].num.diagonal())
        for bad in bads:
            with pytest.raises(error):
                g2._coordinate_blocks(reps[:3] + [(bad, mode)] + reps[3:], basis)

    def test_blocks_follow_the_representatives(self, model):
        # the same representatives in another order give the same blocks,
        # reordered
        basis = g2_subalgebra(model)
        reps = [(g2_unipotent_rep(o, model), "unipotent") for o in ORBITS]
        reps += [(g2_nilpotent_rep(o, model), "nilpotent") for o in ORBITS]
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
        # each representative's type on V is computed once, by the check in
        # its builder, and once more by the wedge route: the table reads the
        # certified V_PARTITIONS and computes none itself
        calls = []

        def counted(name):
            real = getattr(g2, name)

            def wrapper(a):
                if a.nrows == 7:
                    calls.append(name)
                return real(a)
            return wrapper

        for name in ("jordan_partition", "unipotent_partition"):
            monkeypatch.setattr(g2, name, counted(name))
        rows = g2_table(5)
        assert [row.v_partition for row in rows] == [V_PARTITIONS[o] for o in ORBITS]
        # jordan: 4 nilpotent builders, G2a1's again inside its unipotent
        # builder, 4 wedge routes; unipotent: 4 builders, 4 wedge routes
        assert calls.count("jordan_partition") == 9
        assert calls.count("unipotent_partition") == 8

    def test_adjoint_dimension_is_14(self):
        for row in g2_table(5):
            assert row.adjoint_nilpotent.dim == 14
