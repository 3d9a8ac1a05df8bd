"""Parameterized toric point sets and their vanishing ideals.

An exponent matrix V (s rows of n non-negative integers) parameterizes a
point set X* inside the affine torus: each parameter tuple x in (K*)^n
maps to the point whose i-th coordinate is the i-th row's monomial
evaluated at x.  On X* the monomial t^a is the character x^(a^T V), so t^a
and t^b are the same function exactly when a^T V = b^T V mod q-1, and
monomials of distinct classes are linearly independent.  So I(X*) is
spanned by the binomials t^a - t^b within a class: the lattice ideal of
L = {a : a^T V = 0 mod q-1} plus the torus relations (Renteria, Simis and
Villarreal, FFA 2011).  Its reduced GrevLex basis needs no S-pair.  The
standard monomials are the GrevLex-least monomial of each class, the
leading monomials are the least non-standard ones, and each tail is the
standard monomial of its lead's class.  `class_walk` finds all of them in
one walk, degree by degree; the tests check its basis against the
paper's elimination.  Its levels, the standard monomials of each degree,
are views of Delta, the one array of monomials the package uses: it gives
the Hilbert function, the footprint bounds and the evaluation matrices.

Every basis here is a `BinomialBasis`, a tuple of (lead, tail) exponent
pairs, each the pure binomial t^lead - t^tail; homogenizing one pads each
tail with the new variable.

The points are one read-only int array of canonical field ints, and
`ParameterizedSet.certify` is the one check of a computed basis.  It
counts rather than reduces: binomials that vanish on X*, with leads
above their tails and with exactly |X*| standard monomials, form a
Groebner basis of I(X*).  It evaluates the generators by field
multiplication on those ints, so it does not share the log/exp route of
the evaluation matrices, and it walks the standard monomials of the
basis with `hilbert.standard_monomials`, not with the class walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec
from .hilbert import require_finite, standard_monomials

Monomial = tuple[int, ...]  # exponent tuple, one entry per variable

DEFAULT_ENUMERATION_BUDGET = 2**20
#: Divisibility tests per numpy call, which bounds their temporaries.
_CHUNK_ENTRIES = 1 << 18
#: Cap on the entries of the footprints' box (64 MiB of int32).
_FOOTPRINT_BOX_ENTRIES = 1 << 24


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

    def residues(self, units: int) -> np.ndarray:
        """The entries mod `units`, an int64 array; each reduces as a
        Python int first, so an entry past int64 is fine."""
        return np.array([[e % units for e in row] for row in self.rows], dtype=np.int64)


def _grevlex_key(m: Monomial) -> tuple:
    """Sort key of the graded reverse lexicographic order."""
    return (sum(m), tuple(-e for e in reversed(m)))


class Binomial(NamedTuple):
    """t^lead - t^tail."""

    lead: Monomial
    tail: Monomial

    @property
    def terms(self) -> tuple[Monomial, Monomial]:
        """The two monomials, lead first."""
        return (self.lead, self.tail)


@dataclass(frozen=True)
class BinomialBasis:
    """Pure binomials t^lead - t^tail in the named variables over a field,
    in ascending GrevLex order of lead, each lead GrevLex-greater than its
    tail: the reduced GrevLex basis of a vanishing ideal."""

    generators: tuple[Binomial, ...]
    names: tuple[str, ...]
    field: FieldSpec

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @property
    def leads(self) -> list[Monomial]:
        return [g.lead for g in self.generators]

    def format(self, g: Binomial) -> str:
        """g as text, lead first; -1 is 1 in characteristic 2, where g
        prints as a sum."""
        sign = " - " if self.field.characteristic > 2 else " + "
        return self._format_monomial(g.lead) + sign + self._format_monomial(g.tail)

    def _format_monomial(self, m: Monomial) -> str:
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(self.names, m) if e) or "1"


@dataclass(frozen=True, eq=False)
class ParameterizedSet:
    """The enumerated points of the set, one read-only m x s array of
    canonical ints with rows in ascending order, with their logs, the
    vanishing ideal's basis and standard monomials, the footprints and
    the product witnesses, each computed once.  The class walk's table
    has one entry per parameter tuple, so DEFAULT_ENUMERATION_BUDGET
    bounds it as it bounds the enumeration."""

    matrix: ExponentMatrix
    field: FieldSpec
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _walk(self) -> tuple[list[Binomial], list[np.ndarray], np.ndarray]:
        """The class walk of the set's matrix, done once; its levels are views of Delta."""
        leads, levels = class_walk(self.matrix, self.field.order)
        delta = np.concatenate(levels)
        delta.flags.writeable = False
        return leads, np.split(delta, np.cumsum(list(map(len, levels)))[:-1]), delta

    @cached_property
    def affine_basis(self) -> BinomialBasis:
        """Reduced GrevLex basis of all polynomials vanishing on the set:
        t^lead - t^tail for each lead and tail of the class walk."""
        names = tuple(f"t{i + 1}" for i in range(self.matrix.s))
        return BinomialBasis(tuple(self._walk[0]), names, self.field)

    @property
    def standard_monomials(self) -> list[np.ndarray]:
        """Delta, the monomials no leading monomial of the affine basis
        divides, one exponent array per degree in ascending GrevLex order;
        there are len(self).  They are the rows of every evaluation matrix
        and the monomials of the Hilbert function and the footprint."""
        return self._walk[1]

    @property
    def delta(self) -> np.ndarray:
        """Delta in one read-only array; each level and each Delta<=d is a view of it."""
        return self._walk[2]

    def certify(self, gb_y: BinomialBasis) -> None:
        """Raise InternalInconsistencyError unless the affine basis G and
        gb_y, its homogenization, are Groebner bases of the vanishing
        ideals.  Let J be the ideal of G and L its leads.  Each lead is
        GrevLex-greater than its tail, so L lies in lt(J); each generator
        vanishes on every point, so J lies in I(X*).  Then
        |X*| <= dim S/J = dim S/lt(J) <= dim S/(L) = |Delta(L)|, and
        |Delta(L)| = |X*| makes lt(J) = (L) and J = I(X*): G is a Groebner
        basis of I(X*), and by the homogenization theorem gb_y is one of the
        projective ideal, provided each of its generators is homogeneous,
        has a lead free of the new variable, and gives back its affine
        generator when that variable is set to 1: together these make it
        the homogenization.  That also makes each of gb_y's generators vanish
        on the points with a trailing coordinate 1, where it is its affine
        generator, and lead above its tail under GrevLex: the padded tail has
        the lead's degree and either a larger power of the new variable or
        the affine tail, which is below the affine lead.  Delta(L) is
        finite only when each variable has a pure power in L, which is
        checked before Delta(L) is walked from the basis alone; it must
        equal the class walk's levels, which the footprints read."""
        gb_x, spec = self.affine_basis, self.field
        if len(gb_y) != len(gb_x):
            raise InternalInconsistencyError(
                f"{len(gb_y)} projective generators for {len(gb_x)} affine ones")
        for g, h in zip(gb_x, gb_y):
            if sum(h.lead) != sum(h.tail):
                raise InternalInconsistencyError(
                    f"projective generator {gb_y.format(h)} is not homogeneous")
            if h.lead[-1] or (h.lead[:-1], h.tail[:-1]) != g:
                raise InternalInconsistencyError(
                    f"projective generator {gb_y.format(h)} is not the "
                    f"homogenization of {gb_x.format(g)}")
        for g in gb_x:
            if _grevlex_key(g.lead) <= _grevlex_key(g.tail):
                raise InternalInconsistencyError(
                    f"affine generator {gb_x.format(g)} has a lead not above "
                    "its tail under GrevLex")
            differ = np.flatnonzero(_monomial_values(self.points, g.lead, spec)
                                    != _monomial_values(self.points, g.tail, spec))
            if differ.size:
                point = tuple(self.points[differ[0]].tolist())
                raise InternalInconsistencyError(
                    f"affine generator {gb_x.format(g)} does not vanish on {point}")
        require_finite(gb_x.leads, gb_x.names)
        levels = standard_monomials(gb_x.leads, self.matrix.s)
        degree = sum(map(len, levels))
        if degree != len(self):
            raise InternalInconsistencyError(
                f"ring degree {degree} differs from the {len(self)} enumerated points")
        if [set(map(tuple, level.tolist())) for level in levels] != \
                [set(map(tuple, level.tolist())) for level in self.standard_monomials]:
            raise InternalInconsistencyError(
                "the class walk's standard monomials differ from the basis's")

    @cached_property
    def logs(self) -> np.ndarray:
        """The discrete logs of the points' coordinates, one read-only int32
        row per coordinate (s x m): every coordinate is a unit."""
        logs = np.ascontiguousarray(self.field.log(self.points).T, dtype=np.int32)
        logs.flags.writeable = False
        return logs

    @cached_property
    def _footprints(self) -> list[int]:
        """The footprint of each degree of Delta, from one pass over Delta.
        Delta lies in the box of exponents up to its greatest exponent of
        each variable.  Entry top - N of the box is 1 for each N in Delta;
        after a cumulative sum along each axis, entry top - M holds the
        number of N in Delta with N >= M, the multiples of M.  The box has
        an entry per divisor of Delta's lcm, far more than |Delta| when
        Delta reaches far along many variables, so above a cap the same
        sums run over Delta's own rows: a monomial outside Delta has no
        multiple in it, so its entry stays 0 and the sum along an axis
        needs only the rows of Delta that agree off that axis.  The bound
        of degree d is the least count over the degrees up to d."""
        levels, delta = self.standard_monomials, self.delta
        top = delta.max(axis=0)
        if math.prod((top + 1).tolist()) <= _FOOTPRINT_BOX_ENTRIES:
            box = np.zeros(top + 1, dtype=np.int32)
            index = tuple((top - delta).T)
            box[index] = 1
            for axis in range(box.ndim):
                np.add.accumulate(box, axis=axis, out=box, dtype=box.dtype)
            counts = box[index]
        else:
            counts = np.ones(len(delta), dtype=np.int64)
            for axis in range(delta.shape[1]):
                rest = np.delete(delta, axis, axis=1)
                # runs of rows equal off the axis, each in descending order
                # along it, so a cumulative sum within a run is the suffix sum
                order = np.lexsort((-delta[:, axis], *rest.T))
                rest = rest[order]
                starts = np.ones(len(order), dtype=bool)
                starts[1:] = (rest[1:] != rest[:-1]).any(axis=1)
                run = counts[order]
                total = np.cumsum(run)
                counts[order] = total - (total - run)[starts][np.cumsum(starts) - 1]
        starts = np.cumsum([0] + [len(level) for level in levels[:-1]])
        return np.minimum.accumulate(np.minimum.reduceat(counts, starts)).tolist()

    def footprint(self, d: int) -> int:
        """Footprint lower bound on the minimum distance of the degree-d
        code (Geil and Hoeholdt, IEEE-IT 2000): the fewest standard
        monomials that one of degree <= d divides.  A nonzero codeword is
        f(X) for an f whose normal form leads with some M in Delta of degree
        <= d, and f has at most |Delta| - #{N in Delta : M | N} zeros on X.
        Every degree's bound is counted in one pass, on the first call."""
        minima = self._footprints
        return minima[min(d, len(minima) - 1)]

    @cached_property
    def _products(self) -> tuple[list[tuple[int, int]], np.ndarray, list[int]]:
        """The product so far: factors, nonzero mask, weight per factor."""
        return [], np.ones(len(self), dtype=bool), [len(self)]

    def product_factors(self, d: int) -> list[tuple[int, int]]:
        """The factors t_i - c, as (i, c), of the degree-d product witness.
        Each zeroes the most points the product so far is nonzero on, but
        not all: one bincount of their logs per coordinate.  Such products
        are the extremal codewords of tori and affine cartesian codes
        (Lopez, Renteria-Marquez and Villarreal, DCC 2014)."""
        factors, alive, weights = self._products
        while len(factors) < d and weights[-1] > 1:
            best = (0, 0, 0)
            for i, logs in enumerate(self.logs):
                counts = np.bincount(logs[alive])
                counts[counts == weights[-1]] = 0  # a value every point shares
                c = int(counts.argmax())
                if counts[c] > best[0]:
                    best = (int(counts[c]), i, c)
            zeroed, i, c = best
            alive &= self.logs[i] != c
            factors.append((i, self.field.exp(c)))
            weights.append(weights[-1] - zeroed)
        return factors[:d]

    def product_witness(self, d: int) -> int:
        """Weight of the product of `product_factors(d)`, of degree <= d: an
        upper bound on the distance."""
        return self._products[2][len(self.product_factors(d))]


def enumerate_points(matrix: ExponentMatrix, field: FieldSpec) -> ParameterizedSet:
    """Evaluate the parameterizing monomials on every unit tuple, dedupe,
    and sort points by their canonical ints.  More than
    DEFAULT_ENUMERATION_BUDGET tuples, read at each call, are refused
    before anything is allocated."""
    n, q = matrix.n, field.order
    total = (q - 1) ** n
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"(q-1)^n = {total} parameter tuples exceeds the enumeration "
            f"budget {DEFAULT_ENUMERATION_BUDGET}")
    # the parameters g^l, l in [0, q-1)^n, give the coordinates g^(v_i . l);
    # exponents reduce mod q-1 so the products stay small.  The tuples l are
    # the base-(q-1) digits of 0 .. total-1: np.indices would need an array
    # of n + 1 dimensions, and numpy allows 64
    logs = np.arange(total) // (q - 1) ** np.arange(n - 1, -1, -1)[:, None] % (q - 1)
    points = field.exp(matrix.residues(q - 1) @ logs).T.astype(np.int64)
    # sort the base-q codes of the points and keep the first of each run;
    # np.unique would do it, but its first call imports numpy.ma.  Codes
    # that int64 cannot hold are Python ints.
    radix = np.array([q ** i for i in reversed(range(matrix.s))],
                     dtype=np.int64 if q ** matrix.s < 2**63 else object)
    codes = points @ radix
    order = np.argsort(codes)
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    points = points[order[first]]
    points.flags.writeable = False
    return ParameterizedSet(matrix, field, points)


def class_walk(matrix: ExponentMatrix, q: int) -> tuple[list[Binomial], list[np.ndarray]]:
    """The reduced GrevLex basis of I(X*) as (lead, tail) exponent pairs
    in ascending order of lead, and its standard monomials, one array per
    degree in ascending GrevLex order.

    The class of t^a is a^T V mod q-1, coded in base q-1; a table over all
    (q-1)^n codes holds the index of each class's standard monomial, so
    it is checked against DEFAULT_ENUMERATION_BUDGET, read at each call,
    before it is allocated.  Degree D's candidates are t_j times each
    standard monomial of degree D-1 whose last variable is at most j,
    with multiples of earlier leads dropped: each monomial with all
    divisors standard comes once, and in ascending GrevLex order, taking j
    from the last variable down.  The first candidate of a class not seen
    before is standard; every other candidate is a lead, and its tail is
    the standard monomial of its class, so the leads, too, come in
    ascending GrevLex order.  The walk ends at the first degree with no
    standard monomial."""
    s, n, units = matrix.s, matrix.n, q - 1
    classes = units ** n
    if classes > DEFAULT_ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"(q-1)^n = {classes} exponent classes exceeds the class table "
            f"budget {DEFAULT_ENUMERATION_BUDGET}")
    # each row: the exponents of a monomial, then its class a^T V mod q-1;
    # step j multiplies by t_j
    steps = np.hstack([np.eye(s, dtype=np.int64), matrix.residues(units)])
    radix = units ** np.arange(n, dtype=np.int64)
    standard_of = np.full(classes, -1, dtype=np.int64)
    standard_of[0] = 0
    level = np.zeros((1, s + n), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)  # each row's last variable; 0 for 1
    levels, leads, tails = [level[:, :s]], np.zeros((0, s), dtype=np.int64), []
    variables = np.arange(s - 1, -1, -1)
    count = 1  # standard monomials so far
    while True:
        # a level in ascending GrevLex order lists its rows by descending last
        # variable, so those whose last variable is at most j are a suffix,
        # which starts after the rows whose last variable is above j
        starts = (last > variables[:, None]).sum(axis=1)
        last = np.repeat(variables, len(level) - starts)
        rows = np.concatenate([level[i:] for i in starts.tolist()]) + steps[last]
        rows[:, s:] %= units
        if len(leads):  # drop the multiples of earlier leads
            step = max(1, _CHUNK_ENTRIES // len(leads))
            keep = np.concatenate([~_divides(leads, rows[i:i + step, :s]).any(axis=0)
                                   for i in range(0, len(rows), step)])
            rows, last = rows[keep], last[keep]
        keys = rows[:, s:] @ radix
        # sort by class, ties by position: keys * len + position is unique
        # and below classes * len(keys).  numpy's stable argsort would do
        # the same, but its first call maps 128 KiB more of numpy's code
        order = np.argsort(keys * len(keys) + np.arange(len(keys)))
        sorted_keys = keys[order]
        first = standard_of[sorted_keys] < 0
        first[1:] &= sorted_keys[1:] != sorted_keys[:-1]
        new = np.empty(len(keys), dtype=bool)
        new[order] = first
        fresh = int(first.sum())
        standard_of[keys[new]] = np.arange(count, count + fresh)
        count += fresh
        if fresh < len(keys):
            leads = np.concatenate([leads, rows[~new, :s]])
            tails.append(standard_of[keys[~new]])
        if not fresh:
            break
        level, last = rows[new], last[new]
        levels.append(level[:, :s])
    tails = np.concatenate(levels)[np.concatenate(tails)]
    return list(map(Binomial, map(tuple, leads.tolist()), map(tuple, tails.tolist()))), levels


def _divides(divisors: np.ndarray, monomials: np.ndarray) -> np.ndarray:
    """Entry (i, j) says whether divisors[i] divides monomials[j]."""
    out = divisors[:, 0, None] <= monomials[None, :, 0]
    for i in range(1, divisors.shape[1]):
        out &= divisors[:, i, None] <= monomials[None, :, i]
    return out


def _monomial_values(points: np.ndarray, m: Monomial, spec: FieldSpec) -> np.ndarray:
    """t^m at every point, a product of powers of the coordinates."""
    values = np.ones(len(points), dtype=np.int64)
    for column, e in zip(points.T, m):
        if e:
            values = spec.mul(values, spec.pow(column, e))
    return values


def vanishing_ideal_affine(pset: ParameterizedSet) -> BinomialBasis:
    """The set's cached `affine_basis`."""
    return pset.affine_basis


def vanishing_ideal_projective(affine: BinomialBasis) -> BinomialBasis:
    """Homogenize the affine basis with a fresh trailing variable, which
    pads each tail up to its lead's degree; the result generates the
    vanishing ideal of the projective lift.  The leads keep their order and
    stay leads: the padded tail has the lead's degree and, where it gained
    the last variable, is the smaller under GrevLex."""
    s = len(affine.names)
    return BinomialBasis(
        tuple(Binomial(g.lead + (0,), g.tail + (sum(g.lead) - sum(g.tail),))
              for g in affine),
        affine.names + (f"t{s + 1}",), affine.field)
