"""Seeded case lists, timed calls and untimed oracles of the three workloads.

A workload is built once per process (the set-up), then run as a series of
passes over the same fixed case list.  Each case is one call, or one short
fixed chain of calls, into ``jordanblocks``' public functions; its result is
checked afterwards, outside the timed region, by the workload's oracle.

Every call into the library goes through a module attribute
(``repring.structure_constants``, never a name bound at import), so that the
traced run can wrap the function from outside and still see every call.

Sizes are chosen so that the cost of a pass hardly depends on the seed: the
seed picks law coefficients, partitions of fixed dimension and fixed largest
part, and multi-block classes, but never the number or the size of the
operators.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

from jordanblocks import char0, classical, fgl, g2, linalg, repring, series, verify
from jordanblocks.fields import Field


@dataclass
class Case:
    """One timed unit of work: ``run()`` is timed, ``check(result, ctx)`` is not."""

    kind: str
    dim: int  # dimension of the module whose structure the case computes
    run: Callable
    check: Callable


class Workload:
    name = ""

    def __init__(self, corrupt: bool = False):
        # Replace one oracle expectation with a wrong one (self-test only).
        self.corrupt = corrupt
        self.cases: list = []

    def start_pass(self) -> None:
        """Bring the library's caches to the state every pass starts from."""
        repring.clear_memo()

    def work(self) -> dict:
        """What one pass does, so two runs can be shown to do the same work."""
        return {
            "cases_per_pass": len(self.cases),
            "cases_by_kind": dict(sorted(Counter(c.kind for c in self.cases).items())),
            "operator_dim_sum": sum(c.dim for c in self.cases),
        }


def _seeded_partition(rng: random.Random, dim: int, top: int) -> tuple:
    """A partition of ``dim`` whose largest part is ``top``; the rest is seeded."""
    parts = [top]
    rest = dim - top
    while rest:
        x = rng.randint(1, min(top, rest))
        parts.append(x)
        rest -= x
    return tuple(sorted(parts, reverse=True))


def _terms_sum(pairs) -> dict:
    out: Counter = Counter()
    for coeff, element in pairs:
        for n, mult in element.terms.items():
            out[n] += coeff * mult
    return {n: c for n, c in out.items() if c}


# -- ring-laws ------------------------------------------------------------------------


class RingLaws(Workload):
    """Structure constants J_n (x)_F J_m under many laws, written to the memo
    and then read back by products of multi-block classes."""

    name = "ring-laws"
    primes = (2, 3, 5)

    def __init__(self, seed, size="full", corrupt=False):
        super().__init__(corrupt)
        rng = random.Random(f"bench-ring-laws:{seed}")
        if size == "tiny":
            max_size, max_entries, n_products, small, large = 4, 8, 2, (1, 2), (2, 4)
        else:
            max_size, max_entries, n_products, small, large = 12, 48, 6, (1, 4), (4, 12)
        cells = [(n, m) for n in range(1, max_size + 1) for m in range(n, max_size + 1)
                 if n * m <= max_entries]
        degree = max(n + m - 2 for n, m in cells)
        self._unipotent_oracle: dict = {}
        for p in self.primes:
            field = Field(p)
            laws = [("additive", fgl.additive(field)),
                    ("multiplicative", fgl.multiplicative(field))]
            if p > 2:
                # c = 1 would repeat the multiplicative law's memo keys
                c = rng.randint(2, p - 1)
                laws.append(("scaled", fgl.scaled_multiplicative(field, c)))
            laws.append(("generalized", fgl.random_generalized_law(
                rng.randrange(10**6), degree, field, unit_linear=True)))
            laws.append(("fgl", fgl.random_fgl(rng.randrange(10**6), degree, field)))
            for label, law in laws:
                for n, m in cells:
                    self.cases.append(self._constant_case(p, field, label, law, n, m))
                for _ in range(n_products):
                    x = self._seeded_class(rng, small)
                    y = self._seeded_class(rng, large)
                    self.cases.append(self._product_case(p, field, label, law, x, y))

    @staticmethod
    def _seeded_class(rng, sizes) -> "repring.RingElement":
        blocks = rng.sample(range(sizes[0], sizes[1] + 1), 2)
        return repring.RingElement({b: rng.randint(1, 3) for b in blocks})

    def _constant_case(self, p, field, label, law, n, m) -> Case:
        def run():
            return repring.structure_constants(n, m, law, field)

        def check(result, ctx):
            ctx[(p, label, n, m)] = result
            want_dim = n * m + (1 if self.corrupt and (p, label, n, m) == (2, "additive", 1, 1)
                                else 0)
            if result.dim() != want_dim:
                return f"dim {result.dim()} != {want_dim}"
            if result != ctx.get((p, "additive", n, m)):
                return "differs from the additive-law class"
            if label == "multiplicative" and result.to_partition() != self._unipotent(field, n, m):
                return "differs from the unipotent Kronecker oracle"
            return None

        return Case("constant", n * m, run, check)

    def _product_case(self, p, field, label, law, x, y) -> Case:
        def run():
            return repring.ring_multiply(x, y, law, field)

        def check(result, ctx):
            want = _terms_sum((cx * cy, ctx[(p, label, a, b)])
                              for a, cx in x.terms.items() for b, cy in y.terms.items())
            return None if result.terms == want else "differs from the bilinear sum of cells"

        return Case("product", x.dim() * y.dim(), run, check)

    def _unipotent(self, field, n, m):
        key = (field.p, n, m)
        if key not in self._unipotent_oracle:
            eye_n = linalg.Matrix.identity(field, n)
            eye_m = linalg.Matrix.identity(field, m)
            phi = linalg.nilpotent_from_partition(field, (n,))
            psi = linalg.nilpotent_from_partition(field, (m,))
            self._unipotent_oracle[key] = linalg.unipotent_partition(
                (eye_n + phi).kron(eye_m + psi))
        return self._unipotent_oracle[key]


# -- adjoint -----------------------------------------------------------------------------

#: Good primes of the classical sampler, per kind.
GOOD_PRIMES = {"GL": (2, 3, 5, 7, 11, 13), "Sp": (3, 5, 7, 11, 13), "SO": (3, 5, 7, 11, 13)}
#: (kind, dimension, largest part); each runs once at every good prime.  The
#: operator size and the length of the kernel chain follow from these and p,
#: so the seed picks only the smaller parts and the order, and the cost of a
#: pass and its latency quantiles hardly depend on it.  GL(10) with largest
#: part 6 is listed twice: with the G2 rows, which cost about the same, its
#: cases are the top fifth of a pass, so case_p90_ms falls among them rather
#: than on the edge between two sizes.
ADJOINT_FAMILIES = (("GL", 7, 7), ("GL", 8, 8), ("GL", 10, 6), ("GL", 10, 6),
                    ("Sp", 8, 8), ("Sp", 10, 5), ("Sp", 12, 6),
                    ("SO", 11, 7), ("SO", 12, 4), ("SO", 12, 6), ("SO", 13, 5))
ADJOINT_FAMILIES_TINY = (("GL", 4, 4), ("Sp", 4, 4), ("SO", 5, 5))
#: Draws from the sampler before giving up on filling every slot.
MAX_DRAWS = 100_000

#: The p = 2 counterexamples: (kind, lambda) -> (ad, Ad).
BAD_CHAR = {("Sp", (4,)): ((4, 4, 1, 1), (4, 4, 2)), ("SO", (7,)): ((7, 7, 7), (8, 8, 5))}

G2_PRIMES = (5, 7, 11, 13)


def _adjoint_dim(kind: str, d: int) -> int:
    return {"GL": d * d, "Sp": d * (d + 1) // 2, "SO": d * (d - 1) // 2}[kind]


class Adjoint(Workload):
    """Few large operators: classical ad/Ad reports, the G2 table and the
    characteristic-0 predictor."""

    name = "adjoint"

    def __init__(self, seed, size="full", corrupt=False):
        super().__init__(corrupt)
        rng = random.Random(f"bench-adjoint:{seed}")
        if size == "tiny":
            open_slots = Counter((kind, d, top, GOOD_PRIMES[kind][1])
                                 for kind, d, top in ADJOINT_FAMILIES_TINY)
        else:
            open_slots = Counter((kind, d, top, p) for kind, d, top in ADJOINT_FAMILIES
                                 for p in GOOD_PRIMES[kind])
        draws = 0
        while +open_slots:
            if draws == MAX_DRAWS:
                raise RuntimeError(f"the classical sampler never produced {sorted(+open_slots)}")
            draws += 1
            kind, lam, p = verify.sample_classical_case(rng)
            slot = (kind, lam.dim, max(lam), p)
            if open_slots[slot] > 0:
                open_slots[slot] -= 1
                self.cases.append(self._classical_case(kind, tuple(lam), p))
        for (kind, lam), (ad, big_ad) in BAD_CHAR.items():
            if self.corrupt and kind == "Sp":
                ad = big_ad
            self.cases.append(self._bad_case(kind, lam, ad, big_ad))
        g2_primes = G2_PRIMES[:1] if size == "tiny" else G2_PRIMES
        for p in g2_primes:
            # warm the per-prime subalgebra cache so every pass does the same work
            g2.g2_subalgebra(g2.build_so7_model(p))
            self.cases.append(self._g2_case(p))
        regular = verify.REGULAR_CASES[::4] if size == "tiny" else verify.REGULAR_CASES
        for kind, lam, family, rank in regular:
            self.cases.append(self._char0_case(kind, lam, family, rank))

    def _classical_case(self, kind, lam, p) -> Case:
        d = sum(lam)

        def run():
            return classical.good_char_report(kind, lam, p)

        def check(report, ctx):
            if not (report.good_characteristic and report.equal):
                return f"ad {report.nilpotent} != Ad {report.unipotent}"
            if report.nilpotent.dim != _adjoint_dim(kind, d):
                return f"adjoint dimension {report.nilpotent.dim}"
            return None

        return Case(f"classical-{kind}", _adjoint_dim(kind, d), run, check)

    def _bad_case(self, kind, lam, ad, big_ad) -> Case:
        def run():
            return classical.good_char_report(kind, lam, 2)

        def check(report, ctx):
            if report.nilpotent != ad or report.unipotent != big_ad or report.equal:
                return f"p = 2 values ad={report.nilpotent} Ad={report.unipotent}"
            return None

        return Case("classical-bad", _adjoint_dim(kind, sum(lam)), run, check)

    def _g2_case(self, p) -> Case:
        def run():
            return g2.g2_table(p)

        def check(rows, ctx):
            bad = [row.orbit for row in rows
                   if not (row.matches_table and row.routes_agree
                           and row.adjoint_nilpotent == row.adjoint_unipotent)]
            return f"G2 rows {bad} fail" if bad or len(rows) != 4 else None

        return Case("g2", 4 * 14, run, check)

    def _char0_case(self, kind, lam, family, rank) -> Case:
        def run():
            return char0.check_theorem(kind, lam)

        def check(report, ctx):
            data = char0.exponents(family, rank)
            want = linalg.Partition(sorted((2 * e + 1 for e in data.exponents), reverse=True))
            if not (report.contained and report.predicted == want and report.ad == want):
                return f"predictor {report.predicted} vs ad {report.ad}"
            return None

        return Case("char0", _adjoint_dim(kind, sum(lam)), run, check)


# -- multilinear-q -----------------------------------------------------------------------

#: m -> (dimension, largest part) of the seeded partitions for wedge^m / Sym^m.
POWER_SHAPES = {2: ((10, 4), (8, 4), (6, 3)), 3: ((5, 3), (6, 3), (6, 4))}
POWER_SHAPES_TINY = {2: ((3, 2),), 3: ((3, 2),)}
POWER_PRIMES = (5, 7)
POWER_LAW_DEGREE = 10  # m (top - 1) + 1 for the largest shape

#: (characteristic, n, m) of the pair intertwiners; 0 is Q.  Over Q the cost
#: of a pair grows with the heights of the seeded law's coefficients, and
#: from n m = 15 on it varies by a factor of two between seeds, so the Q pairs
#: stay at n m <= 12.  They are listed twice.
PAIR_SLOTS = ([(p, n, m) for p in (2, 3, 5, 7) for n, m in ((3, 3), (4, 4), (5, 5), (3, 5))]
              + 2 * [(0, n, m) for n, m in ((3, 3), (3, 4), (4, 3), (2, 4), (4, 2), (2, 5),
                                           (5, 2), (2, 3))])
#: (characteristic, block size n, number of factors m) of the symmetric ones;
#: each slot runs once with a seeded formal group law and once with a scaled
#: multiplicative law.  Sym^2 of 4-blocks over Q is the heaviest case and its
#: cost hardly depends on the law; its 24 cases are the top fifth of a pass, so
#: case_p90_ms falls among them rather than on the edge between two sizes.
SYM_SLOTS = ([(p, n, 2) for p in (3, 5, 7) for n in (3, 4)]
             + [(p, n, 3) for p in (5, 7) for n in (2, 3)]
             + 2 * [(0, 3, 2), (0, 2, 3)]
             + 12 * [(0, 4, 2)])
PAIR_SLOTS_TINY = [(3, 2, 2), (0, 2, 2)]
SYM_SLOTS_TINY = [(5, 2, 2), (0, 2, 2)]


class MultilinearQ(Workload):
    """Wedge^m / Sym^m under several laws, and the constructive intertwiners
    over F_p and Q, each with its postcondition."""

    name = "multilinear-q"

    def __init__(self, seed, size="full", corrupt=False):
        super().__init__(corrupt)
        tiny = size == "tiny"
        rng = random.Random(f"bench-multilinear-q:{seed}")
        self._additive_oracle: dict = {}
        shapes = POWER_SHAPES_TINY if tiny else POWER_SHAPES
        for p in POWER_PRIMES:
            field = Field(p)
            laws = (("fgl", fgl.random_fgl(rng.randrange(10**6), POWER_LAW_DEGREE, field)),
                    ("scaled", fgl.scaled_multiplicative(field, rng.randint(1, p - 1))))
            for m, dims in shapes.items():
                for quotient in ("wedge", "sym"):
                    for _, law in laws:
                        for dim, top in dims:
                            lam = _seeded_partition(rng, dim, top)
                            self.cases.append(self._power_case(quotient, lam, m, law, field))
        for i, (p, n, m) in enumerate(PAIR_SLOTS_TINY if tiny else PAIR_SLOTS):
            field = Field(p)
            law = fgl.random_generalized_law(rng.randrange(10**6), n + m, field,
                                             unit_linear=i % 2 == 0)
            self.cases.append(self._pair_case(n, m, law))
        for i, (p, n, m) in enumerate(SYM_SLOTS_TINY if tiny else SYM_SLOTS):
            field = Field(p)
            for law in (fgl.random_fgl(rng.randrange(10**6), m * (n - 1) + 1, field),
                        fgl.scaled_multiplicative(field, field.random_nonzero(rng))):
                self.cases.append(self._symmetric_case(n, m, law))

    def _power_case(self, quotient, lam, m, law, field) -> Case:
        function = f"{quotient}_partition"
        d = sum(lam)
        dim = comb(d, m) if quotient == "wedge" else comb(d + m - 1, m)
        first = not self.cases

        def run():
            return getattr(repring, function)(lam, m, law, field)

        def check(result, ctx):
            want_dim = dim + (1 if self.corrupt and first else 0)
            if result.dim != want_dim:
                return f"dim {result.dim} != {want_dim}"
            key = (quotient, lam, m, field.p)
            if key not in self._additive_oracle:
                self._additive_oracle[key] = getattr(repring, function)(
                    lam, m, fgl.additive(field), field)
            if result != self._additive_oracle[key]:
                return "differs from the additive law"
            return None

        return Case(f"{quotient}{m}", dim, run, check)

    def _pair_case(self, n, m, law) -> Case:
        field = law.field

        def run():
            lam = repring.build_intertwiner_pair(n, m, law)
            y_plus_z = series.TruncatedPoly(field, (n, m), {(1, 0): field.one, (0, 1): field.one})
            conjugates = (lam @ series.mult_matrix(y_plus_z)
                          == series.mult_matrix(law.as_poly((n, m))) @ lam)
            return conjugates, lam.rank(), lam.shape

        def check(result, ctx):
            conjugates, rank, shape = result
            if not conjugates:
                return "does not conjugate y + z into F(y, z)"
            if rank != n * m or shape != (n * m, n * m):
                return f"rank {rank} on shape {shape}"
            return None

        return Case("pair-" + ("Q" if field.p == 0 else "Fp"), n * m, run, check)

    def _symmetric_case(self, n, m, law) -> Case:
        field = law.field

        def run():
            lam = repring.build_symmetric_intertwiner(n, m, law)
            trunc = (n,) * m
            s1 = series.elementary_symmetric(field, trunc, 1)
            tensor = fgl.iterated_tensor_series(law, m, trunc)
            conjugates = (lam @ series.mult_matrix(s1)) == (series.mult_matrix(tensor) @ lam)
            equivariant = all((lam @ s) == (s @ lam)
                              for s in repring.sigma_matrices(m, n, field))
            return conjugates, equivariant, lam.rank()

        def check(result, ctx):
            conjugates, equivariant, rank = result
            if not (conjugates and equivariant):
                return "symmetric intertwiner postcondition fails"
            if rank != n ** m:
                return f"rank {rank} != {n ** m}"
            return None

        return Case("symmetric-" + ("Q" if field.p == 0 else "Fp"), n ** m, run, check)


WORKLOADS = {cls.name: cls for cls in (RingLaws, Adjoint, MultilinearQ)}
