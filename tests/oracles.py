"""Independent oracles used by the tests.

Everything here recomputes quantities by definition (exhaustive spans,
evaluation kernels, the paper's elimination of the parameters with the
general engine of `mpoly` and `groebner`, and the lattice route:
generators of the lattice L = {a : a^T V = 0 mod q-1} and a binomial
Buchberger engine), deliberately avoiding the package's optimized paths,
so test expectations never come from the code under test.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional, Sequence

import numpy as np

from paramcodes.errors import DomainError, ResourceLimitError
from paramcodes.gf import FieldSpec
from paramcodes.ideals import BinomialBasis, ExponentMatrix
from paramcodes.linalg import rref

from groebner import GroebnerBasis, eliminate
from mpoly import GrevLex, Monomial, Polynomial, RingContext, monomials_up_to_degree

SPAN_GUARD = 300_000


def span_words(rows, spec: FieldSpec):
    """All q^rank codewords of the row space, as tuples of canonical ints."""
    rows = [[int(x) for x in row] for row in rows]
    words = {tuple(0 for _ in rows[0])}
    for row in rows:
        new = set()
        for w in words:
            for c in range(spec.order):
                new.add(tuple(spec.add(x, spec.mul(c, r))
                              for x, r in zip(w, row)))
        words = new
        if len(words) > SPAN_GUARD:
            raise ResourceLimitError("oracle span too large")
    return words


def brute_min_distance(rows, spec: FieldSpec) -> int:
    """Minimum Hamming weight over the nonzero words of the row space."""
    best = None
    for w in span_words(rows, spec):
        weight = sum(1 for x in w if x != 0)
        if weight and (best is None or weight < best):
            best = weight
    assert best is not None, "zero code"
    return best


def brute_weight_distribution(rows, spec: FieldSpec) -> dict[int, int]:
    dist: dict[int, int] = {}
    for w in span_words(rows, spec):
        weight = sum(1 for x in w if x != 0)
        dist[weight] = dist.get(weight, 0) + 1
    return dist


def standard_count_by_inclusion_exclusion(lms, num_vars: int, degree: int) -> int:
    """Monomials of total degree `degree` in num_vars variables divisible by
    none of the monomials lms, by inclusion-exclusion over lcms of subsets."""
    def multiples(exps):
        # monomials of total degree `degree` divisible by x^exps
        excess = degree - sum(exps)
        return comb(excess + num_vars - 1, num_vars - 1) if excess >= 0 else 0

    total = comb(degree + num_vars - 1, num_vars - 1)
    for size in range(1, len(lms) + 1):
        for subset in combinations(lms, size):
            lcm = tuple(max(column) for column in zip(*subset))
            total += (-1) ** size * multiples(lcm)
    return total


def right_kernel_basis(rows: Sequence[Sequence[int]], spec: FieldSpec) -> list[np.ndarray]:
    """Basis of {v : M v = 0}, one vector per free column."""
    echelon, pivots = rref(rows, spec)
    ncols = echelon.shape[1]
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = np.zeros(ncols, dtype=np.int32)
        v[free] = 1
        v[pivots] = spec.neg(echelon[:, free])
        basis.append(v)
    return basis


def polynomial_basis(basis: BinomialBasis) -> GroebnerBasis:
    """A binomial basis as the engine's polynomials t^lead - t^tail."""
    ring = RingContext(basis.field, basis.names)
    minus_one = basis.field.neg(1)
    return GroebnerBasis(
        tuple(Polynomial(ring, {g.lead: 1, g.tail: minus_one}) for g in basis),
        GrevLex(), ring, is_reduced=True)


def evaluation_rows(pset, degree: int, ring: RingContext):
    """Every monomial of degree <= degree evaluated on the point set, as
    an array of canonical ints: each entry a product of powers of the
    coordinates, not the package's exp/log product."""
    spec = pset.field
    monos = monomials_up_to_degree(ring.num_vars, degree)
    rows = np.ones((len(monos), len(pset)), dtype=np.int64)
    for row, m in zip(rows, monos):
        for column, e in zip(pset.points.T, m):
            row[:] = spec.mul(row, spec.pow(column, e))
    return monos, rows


def point_interpolation_ideal(pset, degree: int) -> list[Polynomial]:
    """All polynomials of degree <= degree vanishing on the point set,
    via the kernel of the transposed evaluation matrix."""
    spec = pset.field
    s = pset.matrix.s
    ring = RingContext(spec, tuple(f"t{i + 1}" for i in range(s)))
    monos, rows = evaluation_rows(pset, degree, ring)
    transposed = [[rows[i][j] for i in range(len(monos))]
                  for j in range(len(pset))]
    kernel = right_kernel_basis(transposed, spec)
    polys = []
    for vec in kernel:
        terms = {m: int(c) for m, c in zip(monos, vec) if c}
        polys.append(Polynomial(ring, terms))
    return polys


def relation_ring(matrix, field: FieldSpec) -> RingContext:
    """Parameter variables first (the elimination block), coordinates after."""
    names = tuple(f"y{j + 1}" for j in range(matrix.n)) + \
        tuple(f"t{i + 1}" for i in range(matrix.s))
    return RingContext(field, names)


def relation_ideal_generators(matrix, field: FieldSpec,
                              ring: RingContext) -> list[Polynomial]:
    """t_i - y^{v_i} for each row, plus the unit-group relations y_j^{q-1} - 1."""
    n, s = matrix.n, matrix.s
    minus_one = field.neg(1)
    gens = []
    for i, row in enumerate(matrix.rows):
        t_exps = [0] * (n + s)
        t_exps[n + i] = 1
        gens.append(Polynomial(ring, {tuple(t_exps): 1,
                                      tuple(row) + (0,) * s: minus_one}))
    for j in range(n):
        y_exps = [0] * (n + s)
        y_exps[j] = field.order - 1
        gens.append(Polynomial(ring, {tuple(y_exps): 1, (0,) * (n + s): minus_one}))
    return gens


def paper_elimination(matrix, field: FieldSpec) -> GroebnerBasis:
    """I(X*) as the paper computes it: eliminate the parameters y_j from
    (t_i - y^{v_i}, y_j^{q-1} - 1) with the general Buchberger engine."""
    ring = relation_ring(matrix, field)
    return eliminate(relation_ideal_generators(matrix, field, ring), ring, matrix.n)


# -- the lattice route to the vanishing ideal ----------------------------------

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


def lattice_relations(matrix: ExponentMatrix, spec: FieldSpec):
    """The ring in t_1..t_s, and t^a - 1 for the lattice generators a and
    t_i^(q-1) - 1, which generate I(X*) (Renteria, Simis and Villarreal,
    FFA 2011)."""
    r = RingContext(spec, tuple(f"t{i + 1}" for i in range(matrix.s)))
    units = spec.order - 1
    torus = [tuple(units * (k == i) for k in range(matrix.s)) for i in range(matrix.s)]
    minus_one, zero = spec.neg(1), (0,) * matrix.s
    return r, [Polynomial(r, {a: 1, zero: minus_one})
               for a in lattice_generators(matrix, spec.order) + torus]


def lattice_basis(matrix: ExponentMatrix, spec: FieldSpec) -> GroebnerBasis:
    """I(X*) by the lattice route: the binomial engine on the lattice
    relations."""
    ring, gens = lattice_relations(matrix, spec)
    return binomial_basis(gens, ring)


def binomial_basis(gens: Sequence[Polynomial], ring: RingContext) -> GroebnerBasis:
    """Reduced GrevLex basis of an ideal generated by pure-difference
    binomials x^a - x^b, the one `buchberger` returns.

    Every S-polynomial and every remainder of such binomials is again one,
    so the computation runs on (lead, tail) exponent pairs and builds
    polynomials only for the returned basis."""
    minus_one = ring.field.neg(1)
    engine = _BinomialBuchberger(ring.num_vars)
    for g in gens:
        if g.ring != ring:
            raise DomainError("generator lives in a different ring")
        if not g:
            continue
        if len(g.terms) != 2 or set(g.terms.values()) != {1, minus_one}:
            raise DomainError(f"{g} is not a pure-difference binomial x^a - x^b")
        engine.insert(_orient(*g.terms))
    engine.run()
    basis = sorted(engine.reduced_basis(), key=lambda pair: GrevLex.key(pair[0]))
    return GroebnerBasis(
        tuple(Polynomial(ring, {lead: 1, tail: minus_one}) for lead, tail in basis),
        GrevLex(), ring, is_reduced=True)


def _orient(a: Monomial, b: Monomial) -> Optional[tuple[Monomial, Monomial]]:
    """(lead, tail) of x^a - x^b up to sign; None when it is zero."""
    if a == b:
        return None
    return (a, b) if GrevLex.key(a) > GrevLex.key(b) else (b, a)


def _shift(m: Monomial, lead: Monomial, tail: Monomial) -> Monomial:
    """m * tail / lead: the term that replaces m when x^lead - x^tail
    reduces it."""
    return tuple(x - a + b for x, a, b in zip(m, lead, tail))


class _BinomialBuchberger:
    """Buchberger's algorithm on binomials x^lead - x^tail, lead > tail
    under GrevLex, with the Gebauer-Moeller pair update.

    Elements are never deleted.  An element is live while no later lead
    divides its lead; reduction uses the live leads only, and new S-pairs
    are formed with live elements only.  Every element enters top-reduced,
    so the live leads never divide one another: the live set is a minimal
    basis."""

    def __init__(self, num_vars: int):
        self.leads: list[Monomial] = []
        self.tails: list[Monomial] = []
        self.lead_rows = np.zeros((0, num_vars), dtype=np.int64)
        self.live = np.zeros(0, dtype=np.int64)
        self.live_rows = self.lead_rows
        # pending S-pairs, one row each: lcm degree, i, j, lcm exponents
        self.pairs = np.zeros((0, 3 + num_vars), dtype=np.int64)

    def _divisor(self, m: Monomial) -> Optional[int]:
        """The first live element whose lead divides m, if any."""
        hits = np.flatnonzero((self.live_rows <= m).all(axis=1))
        return int(self.live[hits[0]]) if hits.size else None

    def insert(self, binomial) -> None:
        """Top-reduce a binomial (or None) and add what is left."""
        while binomial is not None:
            lead, tail = binomial
            i = self._divisor(lead)
            if i is None:
                self._add(lead, tail)
                return
            binomial = _orient(_shift(lead, self.leads[i], self.tails[i]), tail)

    def _add(self, lead: Monomial, tail: Monomial) -> None:
        """Append a top-reduced element and update the pairs and the live set
        by criteria B, M and F (Gebauer and Moeller, JSC 1988)."""
        new = len(self.leads)
        self.leads.append(lead)
        self.tails.append(tail)
        h = np.array(lead, dtype=np.int64)
        rows = self.lead_rows = np.vstack([self.lead_rows, h])
        # B: a pending pair (i, j) is redundant when lead(h) divides its lcm
        # and that lcm differs from both lcm(i, h) and lcm(j, h)
        pairs = self.pairs
        lcm = pairs[:, 3:]
        redundant = ((h <= lcm).all(axis=1)
                     & (np.maximum(rows[pairs[:, 1]], h) != lcm).any(axis=1)
                     & (np.maximum(rows[pairs[:, 2]], h) != lcm).any(axis=1))
        pairs = pairs[~redundant]
        live, live_rows = self.live, self.live_rows
        if live.size:
            lcms = np.maximum(live_rows, h)
            coprime = ~np.minimum(live_rows, h).any(axis=1)
            distinct, first, inverse = np.unique(
                lcms, axis=0, return_index=True, return_inverse=True)
            # F: one pair per distinct lcm, none where some pair with that lcm
            # has coprime leads (its S-polynomial reduces to zero)
            with_coprime = np.zeros(len(distinct), dtype=bool)
            with_coprime[inverse.reshape(-1)[coprime]] = True
            # M: none whose lcm another new pair's lcm properly divides
            divided = (distinct[:, None, :] <= distinct[None, :, :]).all(axis=2)
            minimal = divided.sum(axis=0) == 1
            chosen = np.sort(first[minimal & ~with_coprime])
            fresh = np.column_stack([lcms[chosen].sum(axis=1), live[chosen],
                                     np.full(chosen.size, new), lcms[chosen]])
            pairs = np.vstack([pairs, fresh])
        self.pairs = pairs
        stays = ~(h <= live_rows).all(axis=1)
        self.live = np.append(live[stays], new)
        self.live_rows = np.vstack([live_rows[stays], h])

    def run(self) -> None:
        """Process the pending S-pairs, smallest lcm degree first."""
        while len(self.pairs):
            k = int(np.argmin(self.pairs[:, 0]))
            _, i, j, *lcm = self.pairs[k].tolist()
            self.pairs = np.delete(self.pairs, k, axis=0)
            self.insert(_orient(_shift(lcm, self.leads[i], self.tails[i]),
                                    _shift(lcm, self.leads[j], self.tails[j])))

    def reduced_basis(self) -> list[tuple[Monomial, Monomial]]:
        """The live elements with fully reduced tails: the reduced basis."""
        out = []
        for i in self.live.tolist():
            tail = self.tails[i]
            while (d := self._divisor(tail)) is not None:
                tail = _shift(tail, self.leads[d], self.tails[d])
            out.append((self.leads[i], tail))
        return out
