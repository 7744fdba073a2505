"""Tensor products of nilpotents under a law, and the ring they generate.

The class of a nilpotent operator is its Jordan partition, written as an
integer combination of block classes J_n.  The tensor product of (V, phi) and
(W, psi) with respect to a law F is the operator F(phi (x) 1, 1 (x) psi) on
V (x) W; the structure constants of the resulting ring are independent of the
law, which the verification suite checks by brute force.  Structure
constants and the squares of single blocks are memoized; in characteristic
0 both have closed forms (Clebsch-Gordan and the sl_2 plethysm).

The operators of canonical nilpotents (partitions, m-fold powers) are
gathered from the law's coefficients by ``canonical_series_operator``;
``tensor_operator`` sums Kronecker products of powers and takes any pair of
nilpotent matrices.

Exterior and symmetric powers are realized as quotients of the m-fold tensor
power: the induced matrix is computed by lifting a basis word, applying the
power operator, and straightening every resulting word (sort with sign and
kill repeats for the wedge, plain sort for the symmetric case).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import AlgebraError, InvalidInput, InvalidLaw, ZeroLinearScalar
from .fields import Field
from .fgl import GeneralizedLaw, iterated_tensor_series
from .linalg import (
    Matrix,
    Partition,
    canonical_series_operator,
    jordan_partition,
    nilpotent_from_partition,
    nilpotency_degree,
)
from .series import TruncatedPoly, build_automorphism, symmetric_split


class RingElement:
    """Integer combination of block classes J_n (negative coefficients allowed)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for n, mult in dict(terms or {}).items():
            n, mult = int(n), int(mult)
            if n < 1:
                raise InvalidInput(f"block size must be >= 1, got {n}")
            if mult:
                clean[n] = mult
        self.terms = clean

    @classmethod
    def from_partition(cls, lam) -> "RingElement":
        out: dict = {}
        for x in tuple(lam):
            out[x] = out.get(x, 0) + 1
        return cls(out)

    def to_partition(self) -> Partition:
        if any(m < 0 for m in self.terms.values()):
            raise InvalidInput("negative multiplicity is not a class of an object")
        parts = []
        for n, mult in self.terms.items():
            parts.extend([n] * mult)
        return Partition(sorted(parts, reverse=True))

    def dim(self) -> int:
        return sum(n * m for n, m in self.terms.items())

    def __add__(self, other):
        out = dict(self.terms)
        for n, m in other.terms.items():
            out[n] = out.get(n, 0) + m
        return RingElement(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for n, m in other.terms.items():
            out[n] = out.get(n, 0) - m
        return RingElement(out)

    def __rmul__(self, k: int):
        return RingElement({n: k * m for n, m in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"RingElement({self.pretty()})"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for n in sorted(self.terms, reverse=True):
            mult = self.terms[n]
            pieces.append(f"J{n}" if mult == 1 else f"{mult}·J{n}")
        return " + ".join(pieces)

    def to_json(self) -> dict:
        return {"terms": [{"n": n, "a": self.terms[n]} for n in sorted(self.terms, reverse=True)]}

    @classmethod
    def from_json(cls, data: dict) -> "RingElement":
        return cls({t["n"]: t["a"] for t in data["terms"]})


# -- tensor operators ------------------------------------------------------------

def _degree(lam: Partition) -> int:
    """Nilpotency degree of the canonical nilpotent of ``lam``: its largest part."""
    return lam[0] if len(lam) else 1


def _powers(phi: Matrix) -> list:
    """[phi^0, phi^1, ..., phi^{d-1}] where d is the nilpotency degree."""
    d = nilpotency_degree(phi)
    out = [Matrix.identity(phi.field, phi.nrows)]
    for _ in range(1, d):
        out.append(out[-1] @ phi)
    return out


def tensor_operator(phi: Matrix, psi: Matrix, law: GeneralizedLaw) -> Matrix:
    """F(phi (x) 1, 1 (x) psi) as a matrix on the tensor space."""
    phi_pow = _powers(phi)
    psi_pow = _powers(psi)
    law.require_degree(len(phi_pow) + len(psi_pow) - 2)
    field = phi.field
    out = Matrix.zeros(field, phi.nrows * psi.nrows, phi.nrows * psi.nrows)
    for (a, b), c in law.coeffs.items():
        if a < len(phi_pow) and b < len(psi_pow):
            out = out + phi_pow[a].kron(psi_pow[b]).scale(c)
    return out


def tensor_partition(lam, mu, law: GeneralizedLaw, field: Field) -> Partition:
    """Jordan type of F(phi (x) 1, 1 (x) psi) for the canonical nilpotents of
    ``lam`` and ``mu``, the operator gathered from the law's coefficients."""
    lam, mu = Partition(lam), Partition(mu)
    law.require_degree(_degree(lam) + _degree(mu) - 2)
    return jordan_partition(canonical_series_operator(field, (lam, mu), law.coeffs))


_constants_memo: dict = {}


def structure_constants(n: int, m: int, law: GeneralizedLaw, field: Field) -> RingElement:
    """Class of J_n (x)_F J_m.  Memoized on (n, m, law, characteristic).

    Accepts any law with invertible linear part: the decomposition is
    law-independent even without associativity, so the ring interpretation is
    available whenever the law validates as a formal group law.
    """
    if law.field != field:
        raise InvalidLaw("law and field characteristics disagree")
    key = (n, m, law.fingerprint())
    hit = _constants_memo.get(key)
    if hit is not None:
        return hit
    out = RingElement.from_partition(tensor_partition((n,), (m,), law, field))
    if out.dim() != n * m:
        raise AlgebraError(f"J_{n} (x) J_{m} came out of dimension {out.dim()}, not {n * m}")
    _constants_memo[key] = out
    return out


def square_constants(n: int, shape: str, law: GeneralizedLaw) -> RingElement:
    """Class of Sym^2 J_n (``shape == "sym"``) or wedge^2 J_n under the law.

    Memoized next to the structure constants, under a key of its own.
    """
    key = (shape, n, law.fingerprint())
    hit = _constants_memo.get(key)
    if hit is None:
        square = sym_partition if shape == "sym" else wedge_partition
        hit = _constants_memo[key] = RingElement.from_partition(
            square((n,), 2, law, law.field))
    return hit


def ring_multiply(x: RingElement, y: RingElement, law: GeneralizedLaw,
                  field: Field) -> RingElement:
    """Bilinear extension of the structure constants."""
    out = RingElement()
    for n, cx in x.terms.items():
        for m, cy in y.terms.items():
            out = out + (cx * cy) * structure_constants(n, m, law, field)
    return out


def cg_tensor(n: int, m: int) -> RingElement:
    """Characteristic-0 structure constants: J_{n+m-1} + J_{n+m-3} + ..."""
    if n < 1 or m < 1:
        raise InvalidInput("block sizes must be >= 1")
    return RingElement({n + m - 1 - 2 * i: 1 for i in range(min(n, m))})


def cg_square(n: int, shape: str) -> RingElement:
    """Characteristic-0 squares of one block (the sl_2 plethysm):
    Sym^2 J_n = J_{2n-1} + J_{2n-5} + ... and wedge^2 J_n = J_{2n-3} + J_{2n-7} + ...
    """
    if n < 1:
        raise InvalidInput("block size must be >= 1")
    if shape not in ("sym", "wedge"):
        raise InvalidInput(f"unknown square {shape!r}")
    top = 2 * n - 1 if shape == "sym" else 2 * n - 3
    return RingElement({top - 4 * i: 1 for i in range((top - 1) // 4 + 1)})


# -- m-fold powers ----------------------------------------------------------------

def power_operator(phi: Matrix, m: int, law: GeneralizedLaw) -> Matrix:
    """The operator of the m-fold tensor power of (V, phi) on V^(x)m.

    The m-fold tensor series of the law evaluated at
    Y_i -> 1 (x)..(x) phi (x)..(x) 1; the first tensor factor is the most
    significant index, matching the monomial basis order of the series
    algebra.  phi must be the canonical nilpotent of a partition: its block
    sizes are read off the superdiagonal.
    """
    if m < 1:
        raise InvalidInput("m must be >= 1")
    lam = _canonical_partition(phi)
    series = iterated_tensor_series(law, m, (_degree(lam),) * m)
    return canonical_series_operator(phi.field, (lam,) * m, series.coeffs)


def _canonical_partition(phi: Matrix) -> Partition:
    """The partition whose canonical nilpotent is phi; InvalidInput if none is."""
    cuts = [0] + [i + 1 for i, x in enumerate(np.diagonal(phi.a, 1)) if x == 0] + [phi.nrows]
    sizes = [b - a for a, b in zip(cuts, cuts[1:]) if b > a]
    if phi.is_square() and sizes == sorted(sizes, reverse=True):
        lam = Partition(sizes)
        if phi == nilpotent_from_partition(phi.field, lam):
            return lam
    raise InvalidInput("power_operator needs the canonical nilpotent of a partition")


def sigma_matrices(m: int, d: int, field: Field) -> list:
    """Adjacent-transposition generators of the symmetric group on (k^d)^(x)m.

    sigma sends a basis word w to the word w' with w'_k = w_{sigma^{-1}(k)}.
    """
    words = list(itertools.product(range(d), repeat=m))
    index = {w: i for i, w in enumerate(words)}
    out = []
    for i in range(m - 1):
        mat = Matrix.zeros(field, d ** m, d ** m)
        one = field.one
        for w in words:
            swapped = list(w)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            mat.a[index[tuple(swapped)], index[w]] = one
        out.append(mat)
    return out


# -- exterior / symmetric quotients -------------------------------------------------

def _sort_sign(word) -> int:
    sign = 1
    w = list(word)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                sign = -sign
    return sign


def quotient_maps(field: Field, d: int, m: int, kind: str):
    """(projection, injection, basis words) for wedge^m or Sym^m of k^d.

    wedge basis: strictly increasing words; Sym basis: weakly increasing.
    The projection straightens an arbitrary tensor word; the injection lifts
    a basis word to the plain tensor.
    """
    if kind == "wedge":
        words = list(itertools.combinations(range(d), m))
    elif kind == "sym":
        words = list(itertools.combinations_with_replacement(range(d), m))
    else:
        raise InvalidInput(f"unknown quotient kind {kind!r}")
    index = {w: i for i, w in enumerate(words)}
    strides = [d ** (m - 1 - i) for i in range(m)]

    def tindex(w):
        return sum(a * s for a, s in zip(w, strides))

    proj = Matrix.zeros(field, len(words), d ** m)
    one = field.one
    for u in itertools.product(range(d), repeat=m):
        if kind == "wedge":
            if len(set(u)) < m:
                continue
            proj.a[index[tuple(sorted(u))], tindex(u)] = one if _sort_sign(u) > 0 else field.neg(one)
        else:
            proj.a[index[tuple(sorted(u))], tindex(u)] = one
    inj = Matrix.zeros(field, d ** m, len(words))
    for w in words:
        inj.a[tindex(w), index[w]] = one
    return proj, inj, words


def induced_quotient_operator(x: Matrix, d: int, m: int, kind: str) -> Matrix:
    proj, inj, _ = quotient_maps(x.field, d, m, kind)
    return proj @ x @ inj


def wedge_operator(phi: Matrix, m: int, law: GeneralizedLaw) -> Matrix:
    """Endomorphism induced on wedge^m V by the m-fold power of phi."""
    return induced_quotient_operator(power_operator(phi, m, law), phi.nrows, m, "wedge")


def sym_operator(phi: Matrix, m: int, law: GeneralizedLaw) -> Matrix:
    return induced_quotient_operator(power_operator(phi, m, law), phi.nrows, m, "sym")


def wedge_partition(lam, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    phi = nilpotent_from_partition(field, lam)
    return jordan_partition(wedge_operator(phi, m, law))


def sym_partition(lam, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    phi = nilpotent_from_partition(field, lam)
    return jordan_partition(sym_operator(phi, m, law))


# -- constructive intertwiners ---------------------------------------------------

def split_law_tail(law: GeneralizedLaw, n: int, m: int):
    """Canonical split F - xi_1 u - xi_2 v = H_1 u + H_2 v on k[Y,Z]/(Y^n,Z^m).

    A term c u^a v^b with a >= 1 goes to H_1 as c u^{a-1} v^b, otherwise to
    H_2 as c u^a v^{b-1}.
    """
    law.require_degree(n + m - 2)
    field = law.field
    h1: dict = {}
    h2: dict = {}
    for (a, b), c in law.coeffs.items():
        if a + b < 2:
            continue
        if a >= 1:
            exp = (a - 1, b)
            target = h1
        else:
            exp = (a, b - 1)
            target = h2
        if exp[0] < n and exp[1] < m:
            target[exp] = field.add(target.get(exp, field.zero), c)
    trunc = (n, m)
    return TruncatedPoly(field, trunc, h1), TruncatedPoly(field, trunc, h2)


def build_intertwiner_pair(n: int, m: int, law: GeneralizedLaw) -> Matrix:
    """Invertible map on k[Y,Z]/(Y^n,Z^m) conjugating mult by y+z into mult by F(y,z).

    Realized as the algebra automorphism Y -> Y(xi_1 + H_1), Z -> Z(xi_2 + H_2)
    for the canonical tail split.
    """
    if law.xi1 == 0 or law.xi2 == 0:
        raise ZeroLinearScalar("law has a degenerate linear part")
    h1, h2 = split_law_tail(law, n, m)
    return build_automorphism((law.xi1, law.xi2), (h1, h2))


def build_symmetric_intertwiner(n: int, m: int, law: GeneralizedLaw) -> Matrix:
    """Sigma_m-equivariant automorphism of k[Y_1..Y_m]/(Y_i^n) conjugating
    mult by Y_1+...+Y_m into mult by the m-fold tensor series of the law.

    Needs m! invertible; the images Y_i -> f_i come from the symmetric split
    of the tensor series.
    """
    series = iterated_tensor_series(law, m, (n,) * m)
    pieces = symmetric_split(series)
    field = law.field
    ones = [field.one] * m
    tails = []
    for i, f_i in enumerate(pieces):
        quotient = f_i.divide_by_variable(i)
        tails.append(quotient - TruncatedPoly.constant(field, quotient.trunc, field.one))
    return build_automorphism(ones, tails)


def clear_memo() -> None:
    """Drop the memoized structure constants and block squares (used by tests)."""
    _constants_memo.clear()
