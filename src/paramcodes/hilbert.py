"""Hilbert function and degree of the projective coordinate ring, read off
the standard monomials (those no leading monomial divides) in one walk.

The homogenizing variable comes last under GrevLex and divides no leading
monomial of the projective basis, so the Hilbert value at d is the number
of affine standard monomials of degree <= d, and the ring degree, their
number, is the number of points of a vanishing ideal.

The functions here read only the leads of a `BinomialBasis`: the Hilbert
function of an ideal is that of its leading monomials.  `standard_monomials`
walks them from any list of leading monomials.  The pipeline does not need
it: `ideals.class_walk` returns the standard monomials of a point set
together with its basis, and the parameter table reads each Hilbert value
off those levels as the row count of its evaluation matrix.  So this walk
is the independent count of the counting certificate in
`ideals.ParameterizedSet.certify`, which `--verify` runs and which matches
its levels against the class walk's, and it serves the Hilbert values of a
bare basis.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, InternalInconsistencyError

if TYPE_CHECKING:
    from .ideals import BinomialBasis, Monomial


class HilbertProfile(NamedTuple):
    """Computed Hilbert values up to (and including) the stabilized tail."""

    values: dict[int, int]
    stabilized_at: int
    degree_of_ring: int


def standard_monomials(leads: list[Monomial], num_vars: int,
                       top: Optional[int] = None) -> list[np.ndarray]:
    """The standard monomials, one exponent array per degree from 0 up to
    `top` or to the last nonempty degree.  Each one of degree e is x_i
    times one of degree e - 1, x_i its last variable, so a level extends
    each monomial of the one before by every variable from its last on
    (making each monomial once) and drops the multiples of the leads."""
    level = np.zeros((1, num_vars), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)  # each row's last variable; 0 for 1
    levels: list[np.ndarray] = []
    while True:
        standard = np.ones(len(level), dtype=bool)
        for lead in leads:  # one at a time: memory stays at the level's size
            standard &= (level < lead).any(axis=1)
        level, last = level[standard], last[standard]
        if not len(level):
            return levels
        levels.append(level)
        if top is not None and len(levels) > top:
            return levels
        grow = num_vars - last  # children per row: times x_last, ..., x_(n-1)
        first = np.repeat(np.cumsum(grow) - grow, grow)
        last = np.repeat(last, grow) + np.arange(len(first)) - first
        level = np.repeat(level, grow, axis=0)
        level[np.arange(len(level)), last] += 1


def require_finite(leads: list[Monomial], names: Sequence[str]) -> None:
    """Raise InternalInconsistencyError unless the standard monomials of
    the leads are finitely many: each variable needs a pure power among
    them, or a walk of them never ends."""
    for i, name in enumerate(names):
        if not any(sum(m) == m[i] for m in leads):
            raise InternalInconsistencyError(
                f"no leading monomial is a power of {name}; "
                "the basis cannot cut out a finite point set")


def _affine_leads(gb_y: BinomialBasis) -> list[Monomial]:
    """Leading monomials of a homogeneous basis without the last variable,
    which must divide none of them."""
    if any(sum(g.lead) != sum(g.tail) for g in gb_y):
        raise DomainError("basis has a non-homogeneous generator")
    leads = gb_y.leads
    if any(m[-1] for m in leads):
        raise DomainError("the last variable divides a leading monomial")
    return [m[:-1] for m in leads]


def hilbert_value(gb_y: BinomialBasis, d: int) -> int:
    """Dimension of the degree-d graded piece of the quotient ring."""
    if d < 0:
        raise DomainError("degree must be non-negative")
    leads = _affine_leads(gb_y)
    return sum(map(len, standard_monomials(leads, len(gb_y.names) - 1, top=d)))


def hilbert_profile(gb_y: BinomialBasis) -> HilbertProfile:
    """The Hilbert function up to its first repeated value: it grows up to
    the top degree of the standard monomials and stays at their number."""
    leads = _affine_leads(gb_y)
    names = gb_y.names[:-1]
    require_finite(leads, names)
    levels = standard_monomials(leads, len(names))
    counts = list(itertools.accumulate(map(len, levels))) or [0]
    counts.append(counts[-1])
    return HilbertProfile(dict(enumerate(counts)), stabilized_at=len(counts) - 2,
                          degree_of_ring=counts[-1])
