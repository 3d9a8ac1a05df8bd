"""Parameterized toric point sets and their vanishing ideals.

An exponent matrix (s rows of n non-negative integers) parameterizes a
point set inside the affine torus: each parameter tuple x in (K*)^n maps
to the point whose i-th coordinate is the i-th row's monomial evaluated
at x.  The vanishing ideal comes out of a block elimination: adjoin one
variable per parameter, relate coordinates to parameter monomials, impose
the unit-group relations, and eliminate the parameter block.  Every one of
those relations is a pure-difference binomial, so the elimination runs in
the binomial engine `groebner.eliminate_binomials` (exponent pairs,
Gebauer-Moeller pair updates, no field arithmetic); the general
`groebner.eliminate` computes the same basis and serves as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .gf import FieldElement, FieldSpec
from .groebner import GroebnerBasis, eliminate_binomials, homogenize_basis
from .hilbert import standard_monomials
from .mpoly import GrevLex, Polynomial, RingContext, append_variable

DEFAULT_ENUMERATION_BUDGET = 2**20
#: Divisibility tests per numpy call when counting footprints.
_FOOTPRINT_ENTRIES = 1 << 18

Point = tuple  # tuple of FieldElement


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


@dataclass(frozen=True)
class ParameterizedSet:
    """The enumerated points of the set, in canonical order, with the
    vanishing ideal's basis and standard monomials, each computed once."""

    matrix: ExponentMatrix
    field: FieldSpec
    affine_points: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.affine_points)

    @cached_property
    def affine_basis(self) -> GroebnerBasis:
        """Reduced GrevLex basis of all polynomials vanishing on the set;
        every generator is a binomial."""
        ring = relation_ring(self.matrix, self.field)
        gens = relation_ideal_generators(self.matrix, self.field, ring)
        return eliminate_binomials(gens, ring, self.matrix.n)

    @cached_property
    def standard_monomials(self) -> list[np.ndarray]:
        """Delta, the monomials no leading monomial of the affine basis
        divides, one exponent array per degree; there are len(self)."""
        return standard_monomials(self.affine_basis.leading_monomials(),
                                  self.matrix.s)

    def footprint(self, d: int) -> int:
        """Footprint lower bound on the minimum distance of the degree-d
        code (Geil and Hoeholdt, IEEE-IT 2000): the fewest standard
        monomials that one of degree <= d divides.  A nonzero codeword is
        f(X) for an f whose normal form leads with some M in Delta of degree
        <= d, and f has at most |Delta| - #{N in Delta : M | N} zeros on X."""
        delta = np.concatenate(self.standard_monomials)
        leads = np.concatenate(self.standard_monomials[:d + 1])
        step = max(1, _FOOTPRINT_ENTRIES // len(delta))
        best = len(delta)
        for start in range(0, len(leads), step):
            chunk = leads[start:start + step]
            divides = np.ones((len(chunk), len(delta)), dtype=bool)
            for i in range(delta.shape[1]):
                divides &= chunk[:, i, None] <= delta[None, :, i]
            best = min(best, int(divides.sum(axis=1).min()))
        return best


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
    points = sorted(set(map(tuple, field.exp(exps @ logs).T.tolist())))
    affine = tuple(tuple(FieldElement(field, c) for c in pt) for pt in points)
    return ParameterizedSet(matrix, field, affine)


def relation_ring(matrix: ExponentMatrix, field: FieldSpec) -> RingContext:
    """Parameter variables first (the elimination block), coordinates after."""
    names = tuple(f"y{j + 1}" for j in range(matrix.n)) + \
        tuple(f"t{i + 1}" for i in range(matrix.s))
    return RingContext(field, names)


def relation_ideal_generators(matrix: ExponentMatrix, field: FieldSpec,
                              ring: RingContext) -> list[Polynomial]:
    """t_i - y^{v_i} for each row, plus the unit-group relations y_j^{q-1} - 1."""
    n, s = matrix.n, matrix.s
    q = field.order
    one = field.one
    minus_one = -one
    gens = []
    for i, row in enumerate(matrix.rows):
        t_exps = [0] * (n + s)
        t_exps[n + i] = 1
        y_exps = list(row) + [0] * s
        gens.append(Polynomial(ring, {tuple(t_exps): one, tuple(y_exps): minus_one}))
    for j in range(n):
        y_exps = [0] * (n + s)
        y_exps[j] = q - 1
        gens.append(Polynomial(ring, {tuple(y_exps): one, (0,) * (n + s): minus_one}))
    return gens


def vanishing_ideal_affine(pset: ParameterizedSet) -> GroebnerBasis:
    """Reduced GrevLex basis of all polynomials vanishing on the affine set;
    every generator is a binomial.  Computed once per point set."""
    return pset.affine_basis


def vanishing_ideal_projective(affine_gb: GroebnerBasis,
                               verify: bool = False) -> GroebnerBasis:
    """Homogenize the affine basis with a fresh trailing variable; the
    result generates the vanishing ideal of the projective lift."""
    s = affine_gb.ring.num_vars
    extended = affine_gb.ring.with_extra_variable(f"t{s + 1}")
    lifted = tuple(append_variable(g, extended) for g in affine_gb.generators)
    gb = GroebnerBasis(lifted, GrevLex(), extended, is_reduced=affine_gb.is_reduced)
    return homogenize_basis(gb, hom_var=s, verify=verify)
