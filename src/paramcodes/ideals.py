"""Parameterized toric point sets and their vanishing ideals.

An exponent matrix V (s rows of n non-negative integers) parameterizes a
point set X* inside the affine torus: each parameter tuple x in (K*)^n
maps to the point whose i-th coordinate is the i-th row's monomial
evaluated at x.  Its vanishing ideal is a lattice ideal in the coordinates
alone (Renteria, Simis and Villarreal, FFA 2011): I(X*) is generated by
t^a - 1 for a in L = {a in Z^s : a^T V = 0 mod q-1} and by the torus
relations t_i^(q-1) - 1, which make every t_i a unit.  Generators of L
come from one integer row reduction, and `groebner.binomial_basis` turns
the binomials into the reduced GrevLex basis, with no parameter variable
and no elimination; the tests check it against the paper's elimination.

The points are one read-only int array of canonical field ints, and
`ParameterizedSet.certify` is the one check of a computed basis: it
evaluates the generators on those ints, so it does not share the log/exp
route of the evaluation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec
from .groebner import GroebnerBasis, binomial_basis, homogenize_basis
from .hilbert import standard_monomials
from .mpoly import GrevLex, Polynomial, RingContext, append_variable

DEFAULT_ENUMERATION_BUDGET = 2**20
#: Divisibility tests per numpy call when counting footprints.
_FOOTPRINT_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ExponentMatrix:
    """s rows of n non-negative integer exponents, one row per coordinate."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]]) -> "ExponentMatrix":
        if not rows:
            raise DomainError("exponent matrix needs at least one row")
        clean = []
        width = None
        for idx, row in enumerate(rows, start=1):
            entries = tuple(int(e) for e in row)
            if not entries:
                raise DomainError(f"matrix row {idx} is empty")
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise DomainError(
                    f"matrix row {idx} has {len(entries)} entries, expected {width}")
            if any(e < 0 for e in entries):
                raise DomainError(f"matrix row {idx} has a negative exponent")
            clean.append(entries)
        return cls(tuple(clean))

    @classmethod
    def torus(cls, s: int) -> "ExponentMatrix":
        """Identity matrix: the coordinates are the parameters themselves."""
        return cls.of([[1 if j == i else 0 for j in range(s)] for i in range(s)])

    @property
    def s(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True, eq=False)
class ParameterizedSet:
    """The enumerated points of the set, one read-only m x s array of
    canonical ints with rows in ascending order, with the vanishing
    ideal's basis and standard monomials, each computed once."""

    matrix: ExponentMatrix
    field: FieldSpec
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def affine_basis(self) -> GroebnerBasis:
        """Reduced GrevLex basis of all polynomials vanishing on the set;
        every generator is a binomial."""
        s, units = self.matrix.s, self.field.order - 1
        ring = RingContext(self.field, tuple(f"t{i + 1}" for i in range(s)))
        torus = [tuple(units * (k == i) for k in range(s)) for i in range(s)]
        minus_one, zero = self.field.neg(1), (0,) * s
        gens = lattice_generators(self.matrix, self.field.order) + torus
        return binomial_basis([Polynomial(ring, {a: 1, zero: minus_one}) for a in gens], ring)

    def certify(self, gb_y: GroebnerBasis) -> None:
        """Raise InternalInconsistencyError unless the affine basis and
        gb_y, its homogenization, generate the vanishing ideals.  Both meet
        the Buchberger criterion and every generator vanishes on every
        point (gb_y's with a trailing coordinate 1), so the affine basis is
        a Groebner basis of an ideal J inside I(X*); its standard monomials
        number |X*|, the dimension of the quotient by I(X*), so J = I(X*)."""
        gb_x = self.affine_basis
        for gb, kind in ((gb_x, "affine"), (gb_y, "projective")):
            if not gb.check_buchberger_criterion():
                raise InternalInconsistencyError(
                    f"{kind} basis fails the Buchberger criterion")
        rows = self.points.tolist()
        for gb, points, kind in ((gb_x, rows, "affine"),
                                 (gb_y, [pt + [1] for pt in rows], "projective")):
            for g in gb.generators:
                for pt in points:
                    if g.evaluate(pt):
                        raise InternalInconsistencyError(
                            f"{kind} generator {g} does not vanish on {tuple(pt)}")
        degree = sum(map(len, self.standard_monomials))
        if degree != len(self):
            raise InternalInconsistencyError(
                f"ring degree {degree} differs from the {len(self)} enumerated points")

    @cached_property
    def standard_monomials(self) -> list[np.ndarray]:
        """Delta, the monomials no leading monomial of the affine basis
        divides, one exponent array per degree; there are len(self)."""
        return standard_monomials(self.affine_basis.leading_monomials(),
                                  self.matrix.s)

    @cached_property
    def _footprint_minima(self) -> list[int]:
        """The footprint minimum of each degree of Delta reached so far."""
        return []

    def footprint(self, d: int) -> int:
        """Footprint lower bound on the minimum distance of the degree-d
        code (Geil and Hoeholdt, IEEE-IT 2000): the fewest standard
        monomials that one of degree <= d divides.  A nonzero codeword is
        f(X) for an f whose normal form leads with some M in Delta of degree
        <= d, and f has at most |Delta| - #{N in Delta : M | N} zeros on X.
        The count for M does not depend on d, so each degree's minimum is
        computed once, when a call first reaches that degree, and kept."""
        delta = np.concatenate(self.standard_monomials)
        step = max(1, _FOOTPRINT_ENTRIES // len(delta))
        minima = self._footprint_minima
        for leads in self.standard_monomials[len(minima):d + 1]:
            best = len(delta)
            for start in range(0, len(leads), step):
                chunk = leads[start:start + step]
                divides = np.ones((len(chunk), len(delta)), dtype=bool)
                for i in range(delta.shape[1]):
                    divides &= chunk[:, i, None] <= delta[None, :, i]
                best = min(best, int(divides.sum(axis=1).min()))
            minima.append(best)
        return min(minima[:d + 1])


def enumerate_points(matrix: ExponentMatrix, field: FieldSpec,
                     budget: int = DEFAULT_ENUMERATION_BUDGET) -> ParameterizedSet:
    """Evaluate the parameterizing monomials on every unit tuple, dedupe,
    and sort points by their canonical ints."""
    n = matrix.n
    total = (field.order - 1) ** n
    if total > budget:
        raise ResourceLimitError(
            f"(q-1)^n = {total} parameter tuples exceeds the enumeration "
            f"budget {budget}")
    # the parameters g^l, l in [0, q-1)^n, give the coordinates g^(v_i . l);
    # exponents reduce mod q-1 so the products stay small
    logs = np.indices((field.order - 1,) * n).reshape(n, -1)
    exps = np.array([[e % (field.order - 1) for e in row] for row in matrix.rows])
    # sorted(set(...)) rather than np.unique, whose first call imports numpy.ma
    points = np.array(sorted(set(map(tuple, field.exp(exps @ logs).T.tolist()))))
    points.flags.writeable = False
    return ParameterizedSet(matrix, field, points)


def lattice_generators(matrix: ExponentMatrix, q: int) -> list[tuple[int, ...]]:
    """Generators of L/(q-1)Z^s, L = {a in Z^s : a^T V = 0 mod q-1}, with
    entries in [0, q-1) and no zero vector.

    The rows of [V | I_s] over [(q-1) I_n | 0] span the pairs
    (a^T V + (q-1) b, a).  Euclid's algorithm on each V column in turn
    leaves one row with a nonzero entry there, which is set aside; the
    rows whose V part is then zero span {(0, a) : a in L}."""
    n, s, units = matrix.n, matrix.s, q - 1
    rows = [list(v) + [int(k == i) for k in range(s)]
            for i, v in enumerate(matrix.rows)]
    rows += [[units * (k == j) for k in range(n)] + [0] * s for j in range(n)]
    for col in range(n):
        while len(active := [r for r in rows if r[col]]) > 1:
            pivot = min(active, key=lambda r: abs(r[col]))
            for r in active:
                if r is not pivot:
                    c = r[col] // pivot[col]
                    r[:] = [x - c * y for x, y in zip(r, pivot)]
        rows = [r for r in rows if not r[col]]
    return [a for a in (tuple(x % units for x in r[n:]) for r in rows) if any(a)]


def vanishing_ideal_affine(pset: ParameterizedSet) -> GroebnerBasis:
    """The set's cached `affine_basis`."""
    return pset.affine_basis


def vanishing_ideal_projective(affine_gb: GroebnerBasis) -> GroebnerBasis:
    """Homogenize the affine basis with a fresh trailing variable; the
    result generates the vanishing ideal of the projective lift."""
    s = affine_gb.ring.num_vars
    extended = affine_gb.ring.with_extra_variable(f"t{s + 1}")
    lifted = tuple(append_variable(g, extended) for g in affine_gb.generators)
    gb = GroebnerBasis(lifted, GrevLex(), extended, is_reduced=affine_gb.is_reduced)
    return homogenize_basis(gb, hom_var=s)
