"""Buchberger engines: S-polynomials, reduced Groebner bases, block
elimination, and homogenization of a whole basis.

`buchberger` and `eliminate` take any polynomials.  Their pair queue uses
the normal strategy (smallest lcm total degree first, then pair index) and
skips pairs by the coprimality and chain criteria; they are the references
the binomial engine and the lattice route are tested against.

`binomial_basis` returns the same reduced GrevLex basis for ideals
generated by pure-difference binomials x^a - x^b.  The vanishing ideal of
a parameterized set is one: a lattice ideal plus the torus relations
(Renteria, Simis and Villarreal, FFA 2011).  Its S-pairs and remainders
are again such binomials, so the engine works on exponent pairs alone,
tests divisibility against all live leading monomials in one numpy
comparison, and prunes pairs by the Gebauer-Moeller update (criteria B, M
and F) whenever an element is added.

Output bases are inter-reduced and monic, sorted by ascending leading
monomial, so identical ideals yield identical bases regardless of
generator order.  No engine checks its own output: the vanishing ideal is
certified in one place, `ideals.ParameterizedSet.certify`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .mpoly import (
    BlockElim,
    GrevLex,
    MonomialOrder,
    Monomial,
    Polynomial,
    RingContext,
    homogenize,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    reduce_mod,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A generator set together with the order it is (claimed) Groebner for."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    ring: RingContext
    is_reduced: bool = False

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial(self.order) for g in self.generators]

    def check_buchberger_criterion(self) -> bool:
        """Every pairwise S-polynomial reduces to zero modulo the basis."""
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i):
                s = s_polynomial(gens[i], gens[j], self.order)
                if reduce_mod(s, gens, self.order):
                    return False
        return True


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g; the leading terms cancel."""
    if not f or not g:
        raise DomainError("S-polynomial of the zero polynomial")
    f._check_ring(g)
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    lcm = mono_lcm(fm, gm)
    ring, inv = f.ring, f.ring.field.inv
    uf = ring.monomial(mono_div(lcm, fm), inv(fc))
    ug = ring.monomial(mono_div(lcm, gm), inv(gc))
    return uf * f - ug * g


def _interreduce(basis: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Minimalize then tail-reduce: the unique reduced monic basis."""
    key = order.key
    basis = sorted((g for g in basis if g), key=lambda g: key(g.leading_monomial(order)))
    kept: list[Polynomial] = []
    kept_lms: list[Monomial] = []
    for g in basis:
        lm = g.leading_monomial(order)
        if not any(mono_divides(other, lm) for other in kept_lms):
            kept.append(g)
            kept_lms.append(lm)
    reduced: list[Polynomial] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = reduce_mod(g, others, order) if others else g
        reduced.append(r.monic(order))
    reduced.sort(key=lambda g: key(g.leading_monomial(order)))
    return reduced


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder,
               ring: Optional[RingContext] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by *gens* under *order*."""
    live = [g for g in gens if g]
    if ring is None:
        if not gens:
            raise DomainError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    if not live:
        return GroebnerBasis((), order, ring, is_reduced=True)

    basis = [g.monic(order) for g in live]
    lms = [g.leading_monomial(order) for g in basis]
    processed: set[tuple[int, int]] = set()
    queue: list[tuple[int, int, int]] = []
    for i in range(len(basis)):
        for j in range(i):
            lcm = mono_lcm(lms[i], lms[j])
            heapq.heappush(queue, (mono_degree(lcm), j, i))

    while queue:
        _, j, i = heapq.heappop(queue)
        processed.add((j, i))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials: S-pair reduces to zero
        if _chain_applies(i, j, lcm, lms, processed):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = reduce_mod(s, basis, order)
        if r:
            r = r.monic(order)
            basis.append(r)
            lms.append(r.leading_monomial(order))
            new = len(basis) - 1
            for k in range(new):
                lcm = mono_lcm(lms[new], lms[k])
                heapq.heappush(queue, (mono_degree(lcm), k, new))

    return GroebnerBasis(tuple(_interreduce(basis, order)), order, ring,
                         is_reduced=True)


def _chain_applies(i, j, lcm, lms, processed):
    for k in range(len(lms)):
        if k in (i, j):
            continue
        if mono_divides(lms[k], lcm):
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in processed and b in processed:
                return True
    return False


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the basis; zero iff f is in the ideal."""
    if f.ring != gb.ring:
        raise DomainError("polynomial and basis live in different rings")
    if not gb.generators:
        return f
    return reduce_mod(f, gb.generators, gb.order)


def eliminate(gens: Sequence[Polynomial], ring: RingContext,
              block_size: int) -> GroebnerBasis:
    """Groebner basis of the elimination ideal after dropping the first
    *block_size* variables, re-tagged to the smaller ring, under GrevLex."""
    from .mpoly import restrict_variables

    if not 0 <= block_size < ring.num_vars:
        raise DomainError(
            f"block size {block_size} out of range for {ring.num_vars} variables")
    if block_size == 0:
        return buchberger(gens, GrevLex(), ring=ring)
    gb = buchberger(gens, BlockElim(block_size), ring=ring)
    subring = ring.drop_first(block_size)
    kept = []
    for g in gb.generators:
        if all(not any(m[:block_size]) for m in g.terms):
            kept.append(restrict_variables(g, subring, block_size))
    return GroebnerBasis(tuple(kept), GrevLex(), subring, is_reduced=True)


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


def homogenize_basis(gb: GroebnerBasis, hom_var: int) -> GroebnerBasis:
    """Homogenize each generator at its own degree with the (fresh, last)
    variable; the result is a Groebner basis under GrevLex without
    recomputation (`ideals.ParameterizedSet.certify` re-checks it)."""
    if gb.order != GrevLex():
        raise DomainError("input basis must be reduced under GrevLex")
    if hom_var != gb.ring.num_vars - 1:
        raise DomainError("homogenization variable must be the last ring variable")
    out = []
    for g in gb.generators:
        if any(m[hom_var] for m in g.terms):
            raise DomainError(
                f"homogenization variable {gb.ring.names[hom_var]} occurs in a generator")
        out.append(homogenize(g, g.degree(), hom_var))
    return GroebnerBasis(tuple(out), GrevLex(), gb.ring, is_reduced=gb.is_reduced)
