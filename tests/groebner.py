"""Buchberger's algorithm, reduced Groebner bases, block elimination, and
homogenization of a whole basis: the general engine of the tests.

`buchberger` and `eliminate` take any polynomials.  Their pair queue uses
the normal strategy (smallest lcm total degree first, then pair index) and
skips pairs by the coprimality and chain criteria.  The package never runs
them: `paramcodes.ideals.class_walk` reads the reduced basis of a vanishing
ideal off the exponent classes as binomials, and the tests check that basis
against `eliminate` on the paper's generators and against
`GroebnerBasis.check_buchberger_criterion`.

Output bases are inter-reduced and monic, sorted by ascending leading
monomial, so identical ideals yield identical bases regardless of
generator order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from paramcodes.errors import DomainError

from mpoly import (
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
    restrict_variables,
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


def homogenize_basis(gb: GroebnerBasis, hom_var: int) -> GroebnerBasis:
    """Homogenize each generator at its own degree with the (fresh, last)
    variable; the result is a Groebner basis under GrevLex without
    recomputation."""
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
