"""Evaluation codes on parameterized point sets: evaluation matrices,
dimension/rank, minimum distance, closed-form torus parameters, and the
end-to-end parameter pipeline with its cross-checks.

Length and dimension come from the Hilbert function of the vanishing
ideal's binomial basis, which verification certifies by counting
(`ideals.ParameterizedSet.certify`).  The rows of the degree-d evaluation
matrix are the standard monomials Delta<=d of the class walk, one per
exponent class, so distinct characters of the group X*: the dimension is
their number (see `minimum_distance`), and the rank of every echelon form
built is compared with it.  The certified basis is a GrevLex basis, and
GrevLex is graded, so on X* each monomial equals a standard monomial of
no higher degree: the rows span the code of all monomials of degree <= d.

An entry is g^(exponents . logs of the point), read through the field's
exp table.  Delta<=d is a prefix view of the set's one Delta, so each
degree, on first read, evaluates only the monomials above the degree
below, and extends the form below, or the empty form, a degree at a time.

Minimum distance is settled by the first certificate that applies, in
the order `minimum_distance` gives.  The footprint of Delta (Geil and
Hoeholdt, "Footprints or generalized Bezout's theorem", IEEE-IT 2000),
min over M in Delta of degree <= d of #{N in Delta : M | N}, is a lower
bound, and a codeword, the witness, an upper bound: a product of at most
d factors t_i - c, or the lightest row of the reduced echelon form.  The
budget caps only the sweep of one codeword per scalar class, so a row
can be exact above it; an unsettled row is an interval, never a silent
wrong number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec
from .ideals import ExponentMatrix, ParameterizedSet, vanishing_ideal_projective

DEFAULT_MD_BUDGET = 20_000_000
DEFAULT_MATRIX_BUDGET = 5_000_000
#: Cap on the whole-code sweep that verification adds, in codeword entries:
#: one codeword per scalar class times the points.
VERIFY_SWEEP_ENTRIES = 10**9

_BLOCK_ROWS_TARGET = 1 << 14
#: Cap on the codeword block's entries, m points times its columns (16 MiB
#: of uint8), so that the block's size does not grow with the point count.
_BLOCK_ENTRIES = 1 << 24
#: Entries of the int words computed per write into the codeword block.
_BLOCK_WRITE_ENTRIES = 1 << 18


# -- evaluation matrix -------------------------------------------------------

@dataclass(eq=False)
class EvaluationMatrix:
    """The standard monomials of degree <= d, `monomials`, a prefix view
    of `pset.delta`, evaluated at every point as canonical field ints; the
    row space is the code, and `below` the matrix it extends, if any.
    Nothing is evaluated, nor the matrix budget checked, until `rows` or
    `echelon` is first read: a row that reads neither is never refused."""

    degree: int
    monomials: np.ndarray
    pset: ParameterizedSet
    below: Optional["EvaluationMatrix"] = None

    @property
    def field(self) -> FieldSpec:
        return self.pset.field

    @cached_property
    def rows(self) -> np.ndarray:
        """Every row, read-only."""
        return _evaluate(self, self.monomials)

    def rep_rows(self) -> np.ndarray:
        return self.rows

    @cached_property
    def echelon(self) -> tuple[np.ndarray, list[int]]:
        """The reduced row echelon form and its pivots: that of `below`,
        let go after, or the empty form, extended one level of Delta at a
        time by the rows above `below`'s, all evaluated first, so a degree
        costs about what the range up to it costs.  The rank must be |Delta<=d|."""
        below, levels = self.below, self.pset.standard_monomials[:self.degree + 1]
        new = _evaluate(self, self.monomials[len(below.monomials) if below else 0:])
        form = below.echelon if below else (np.zeros((0, len(self.pset)), dtype=np.int32), [])
        for level in levels[below.degree + 1 if below else 0:]:
            form = linalg.extend_rref(*form, new[:len(level)], self.field)
            new = new[len(level):]
        self.below = None
        if len(form[1]) != len(self.monomials):
            raise InternalInconsistencyError(
                f"rank {len(form[1])} of the evaluation matrix at degree {self.degree} "
                f"differs from the Hilbert value {len(self.monomials)}")
        return form


def _evaluate(matrix: EvaluationMatrix, exponents: np.ndarray) -> np.ndarray:
    """t^a at every point for each row a of `exponents`, read-only.  A
    matrix of more than DEFAULT_MATRIX_BUDGET entries, read at each call,
    is refused before anything is allocated.  Every coordinate is a unit,
    so the value is g^(a . logs), and the dot products are summed one
    coordinate at a time.  On X* each variable's (q-1)-th power is 1, so
    standard monomials, like logs, have entries at most q-2: the sums are
    int32 unless s(q-2)^2 could reach 2^31."""
    k, m = len(matrix.monomials), len(matrix.pset)
    if k * m > DEFAULT_MATRIX_BUDGET:
        raise ResourceLimitError(
            f"evaluation matrix with {k} x {m} entries exceeds "
            f"the budget {DEFAULT_MATRIX_BUDGET}")
    logs, spec = matrix.pset.logs, matrix.field
    dtype = np.int32 if len(logs) * (spec.order - 2) ** 2 < 2**31 else np.int64
    exponents = exponents.astype(dtype)
    total = exponents[:, :1] * logs[0]
    for column, row in zip(exponents.T[1:], logs[1:]):
        total += column[:, None] * row
    rows = spec.exp(total)
    rows.flags.writeable = False  # the cached echelon form depends on it
    return rows


def build_evaluation_matrix(pset: ParameterizedSet, d: int,
                            below: Optional[EvaluationMatrix] = None) -> EvaluationMatrix:
    """Rows are Delta<=d, a prefix view of `pset.delta`, columns follow
    the canonical point order; the echelon form extends that of `below`,
    and only the monomials above its degree are evaluated, when first
    read.  A degree above Delta's top degree adds no row.  Nothing is
    evaluated here, so the matrix budget is not checked here."""
    if d < 0:
        raise DomainError("degree must be non-negative")
    if below and (below.pset is not pset or below.degree >= d):
        raise DomainError("only a lower degree on the same points extends")
    k = sum(map(len, pset.standard_monomials[:d + 1]))
    return EvaluationMatrix(d, pset.delta[:k], pset, below)


def code_dimension(matrix: EvaluationMatrix) -> int:
    """Rank of the evaluation matrix over GF(q)."""
    return len(matrix.echelon[1])


# -- minimum distance --------------------------------------------------------

@dataclass(frozen=True)
class MinDistance:
    """Outcome of a minimum-distance computation."""

    status: str  # exact | weight_one | bounded | skipped
    value: Optional[int] = None  # the distance, when exact or weight_one
    lower: Optional[int] = None
    upper: Optional[int] = None
    # what settled the value: footprint (the bounds met), search (the
    # sweep) or weight-1 (a unit vector in the code); None when unsettled
    method: Optional[str] = None

    @classmethod
    def exact(cls, value: int, method: Optional[str] = None) -> "MinDistance":
        return cls("exact", value=value, method=method)

    @classmethod
    def weight_one(cls) -> "MinDistance":
        return cls("weight_one", value=1, method="weight-1")

    @classmethod
    def bounded(cls, lower: int, upper: int) -> "MinDistance":
        return cls("bounded", lower=lower, upper=upper)

    @classmethod
    def skipped(cls) -> "MinDistance":
        return cls("skipped")

    def __str__(self) -> str:
        if self.status in ("exact", "weight_one"):
            return str(self.value)
        if self.status == "bounded":
            return f"{self.lower}..{self.upper}"
        return "-"


def _normalised_combos(n: int, q: int):
    """Coefficient tuples of length n whose first nonzero entry is 1: one
    representative of every nonzero tuple up to scaling."""
    for lead in range(n):
        for tail in itertools.product(range(q), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def _enumerate_weights(basis: np.ndarray, spec: FieldSpec, floor: int = 1) -> int:
    """Minimum weight over the nonzero codewords of the row space, one
    codeword per scalar class.  The sweep stops at the first weight <=
    floor, which must be a lower bound on the minimum weight.

    The first k_lo rows span a block of all q^k_lo low words, with at most
    _BLOCK_ROWS_TARGET columns and _BLOCK_ENTRIES entries.  Every high
    word whose first nonzero coefficient is 1 is swept against the whole
    block, and the zero high word against the low words whose last nonzero
    coefficient is 1.  The floor is checked after each block row and each
    high word, so the block can stay partly unwritten."""
    k, m = basis.shape
    q = spec.order
    k_lo, block_rows = 0, 1
    while k_lo < k - 1 and block_rows * q <= _BLOCK_ROWS_TARGET \
            and m * block_rows * q <= _BLOCK_ENTRIES:
        block_rows *= q
        k_lo += 1
    # one low word per column, so the sweep sums m contiguous rows; each row
    # prepends its coefficient c as the most significant base-q digit.  The
    # words with leading digits c are computed a few scalars at a time and
    # written straight into their columns, so no int copy of the block exists
    dtype = np.uint8 if q <= 256 else np.uint16
    # on a prime field two residues sum below 2p, which the next wider
    # unsigned type holds, so one conditional subtraction of p reduces them
    wide, p = (np.uint16 if q <= 256 else np.uint32), spec.characteristic
    low = np.zeros((m, block_rows), dtype=dtype)
    best = m + 1
    size = 1
    for row in basis[:k_lo]:
        step = max(1, _BLOCK_WRITE_ENTRIES // (m * size))
        for c in range(1, q, step):
            scalars = np.arange(c, min(c + step, q))
            products = spec.mul(scalars, row[:, None])[:, :, None]
            if spec.extension_degree == 1:
                words = products.astype(wide) + low[:, None, :size]
                np.subtract(words, p, out=words, where=words >= p)
            else:
                words = spec.add(products, low[:, None, :size])
            low[:, c * size:(c + len(scalars)) * size] = words.reshape(m, -1)
        # the zero-high sweep, as each row is written: words size .. 2size - 1
        # have their last nonzero coefficient, 1, on this row
        counts = np.count_nonzero(low[:, size:2 * size], axis=0)
        best = min(best, int(counts.min()))
        if best <= floor:
            return best
        size *= q
    high = basis[k_lo:]
    for combo in _normalised_combos(k - k_lo, q):
        word = np.zeros(m, dtype=basis.dtype)
        for c, row in zip(combo, high):
            if c:
                word = spec.add(word, spec.mul(c, row))
        # the block is closed under negation, so the Hamming distances
        # from the word to the block are the weights of word + block
        weights = (low != word.astype(dtype)[:, None]).sum(axis=0, dtype=np.int32)
        best = min(best, int(weights.min()))
        if best <= floor:
            break
    return best


def minimum_distance(matrix: EvaluationMatrix, budget: int = DEFAULT_MD_BUDGET,
                     threads: int = 1) -> MinDistance:
    """The first certificate that applies settles the row: budget=0 skips
    it; k = m is weight 1, exact when q^k fits the budget and weight_one
    above it; otherwise the footprint, at least 2, is a lower bound and
    the product witness an upper one, lowered to the lightest echelon row
    only when it exceeds the footprint.  Bounds that meet are exact; else
    a sweep settles the row when q^k fits the budget, and above it the row
    is the interval between the bounds.

    On a point set X* the rows are the characters t^a, a in Delta<=d, of
    the group X*, one per class, and distinct characters are linearly
    independent (Artin's lemma): k = |Delta<=d|.  The order m of X*
    divides (q-1)^s, so it is prime to p, and the indicator of a point is
    a combination of all m characters with nonzero coefficients: the
    distance is 1 exactly when k = m, and both witnesses weigh at least 2
    below it.

    The sweep reads only the echelon rows after the first.  In reduced
    echelon form they span exactly the codewords that are zero at the
    first pivot column, whose point is p_j.
    A lightest codeword f(X*) has weight at most m - k + 1 < m, so it is
    zero at some point p_i.  X* is a subgroup of the torus, so h = p_i/p_j
    lies in X*, x -> h*x permutes X*, and f(h*t) has f's degree: its
    codeword has the same weight and is zero at p_j.  So the subcode's
    minimum weight is the code's.

    The sweep runs on the calling thread; `threads` is accepted and
    ignored, for callers that still pass it."""
    pset, d = matrix.pset, matrix.degree
    k = len(matrix.monomials)
    if k == 0:
        raise DomainError("the zero code has no minimum distance")
    if budget == 0:
        return MinDistance.skipped()
    q = matrix.field.order
    if k == len(pset):
        return (MinDistance.exact(1, "weight-1") if q ** k <= budget
                else MinDistance.weight_one())
    lower = max(pset.footprint(d), 2)
    witness = pset.product_witness(d)
    if witness > lower:
        witness = min(witness, int(np.count_nonzero(matrix.echelon[0], axis=1).min()))
    if lower == witness:
        return MinDistance.exact(witness, "footprint")
    if q ** k <= budget:
        weight = _enumerate_weights(matrix.echelon[0][1:], matrix.field, floor=lower)
        return MinDistance.exact(weight, "search")
    return MinDistance.bounded(lower, witness)


# -- closed forms for the torus ----------------------------------------------

def torus_dimension(q: int, s: int, d: int) -> int:
    """Dimension of the degree-d code on the s-dimensional affine torus;
    the sum stops at j = s, past which C(s, j) is 0."""
    if q < 2 or s < 1 or d < 0:
        raise DomainError("need q >= 2, s >= 1, d >= 0")
    total = 0
    for j in range(min(s, d // (q - 1)) + 1):
        total += (-1) ** j * comb(s, j) * comb(s + d - j * (q - 1), s)
    return total


def torus_min_distance(q: int, s: int, d: int) -> int:
    """Minimum distance of the degree-d torus code (closed form)."""
    if q < 3:
        raise DomainError("the torus distance formula needs q >= 3")
    if s < 1 or d < 1:
        raise DomainError("need s >= 1 and d >= 1")
    if d >= (q - 2) * s:
        return 1
    k, ell = divmod(d - 1, q - 2)
    ell += 1  # decomposition d = k(q-2) + ell with 1 <= ell <= q-2
    return (q - 1) ** (s - k - 1) * (q - 1 - ell)


# -- code parameters and the pipeline -----------------------------------------

@dataclass(frozen=True)
class CodeParameters:
    """Basic parameters of one code in the degree family."""

    d: int
    length: int
    dimension: int
    min_distance: MinDistance

    @property
    def singleton_bound(self) -> int:
        return self.length - self.dimension + 1

    @property
    def singleton_defect(self) -> Optional[int]:
        delta = self.min_distance.value
        if delta is None:
            return None
        return self.singleton_bound - delta

    @property
    def mds(self) -> Optional[bool]:
        delta = self.min_distance.value
        if delta is None:
            return None
        return delta == self.singleton_bound


@dataclass(frozen=True)
class PipelineRun:
    """Everything the pipeline produces for one point set; `checks` names
    each check that verification ran, with what it checked."""

    table: tuple[CodeParameters, ...]
    checks: tuple[tuple[str, str], ...] = ()


def torus_table(q: int, s: int, degrees: Sequence[int]) -> list[CodeParameters]:
    """The closed forms' rows on the s-dimensional torus over GF(q); at
    d = 0 the code is the repetition code, whose distance is the length."""
    length = (q - 1) ** s
    return [CodeParameters(d, length, torus_dimension(q, s, d), MinDistance.exact(
        torus_min_distance(q, s, d) if d >= 1 else length)) for d in degrees]


def run_pipeline(pset: ParameterizedSet, degrees: Sequence[int],
                 md_budget: int = DEFAULT_MD_BUDGET,
                 verify: bool = False) -> PipelineRun:
    """Per-degree code parameters.  One walk of the standard monomials
    serves the footprint bounds and the matrix rows.  The homogenizing
    variable divides no leading monomial, so the Hilbert value of the
    projective closure at d is k = |Delta<=d|, the rows of the degree-d
    matrix and the dimension (see `minimum_distance`), and the ring degree
    is |Delta|.  Each matrix extends the previous degree's if that is
    lower.  With verify=True the basis and its homogenization are
    certified (`ParameterizedSet.certify`); every degree's echelon form is
    built, so its rank is compared with k, and compared with `linalg.rref`
    of the whole matrix; each product witness is evaluated again on the
    points with field arithmetic and must lie in the code with the weight
    it claims; and every distance the footprint or the subcode sweep
    settled within the budget is checked by sweeping the whole code,
    unless its codewords times the points exceed VERIFY_SWEEP_ENTRIES,
    which raises ResourceLimitError.  Then the exact distances, by
    degree, must not increase and must lie within the Singleton bound,
    and on the torus over GF(q), q >= 3, every row must agree with the
    closed forms.  A failed check raises InternalInconsistencyError; each
    one that ran is recorded in `checks`."""
    if verify:
        pset.certify(vanishing_ideal_projective(pset.affine_basis))
    m, spec = len(pset), pset.field
    degree = sum(map(len, pset.standard_monomials))
    if degree != m:
        raise InternalInconsistencyError(
            f"ring degree {degree} differs from the {m} enumerated points")
    rows, matrix = [], None
    for d in degrees:
        matrix = build_evaluation_matrix(
            pset, d, below=matrix if matrix and matrix.degree < d else None)
        k = len(matrix.monomials)
        if verify:
            echelon, pivots = linalg.rref(matrix.rows, spec)
            if pivots != matrix.echelon[1] or (echelon != matrix.echelon[0]).any():
                raise InternalInconsistencyError(
                    f"echelon form at degree {d} differs from a reduction from scratch")
        md = minimum_distance(matrix, budget=md_budget)
        if verify and k < m:
            product = np.ones(m, dtype=np.int32)
            for i, c in pset.product_factors(d):
                product = spec.mul(product, spec.sub(pset.points[:, i], c))
            claimed, weight = pset.product_witness(d), int(np.count_nonzero(product))
            if weight != claimed:
                raise InternalInconsistencyError(
                    f"product witness at degree {d} claims weight {claimed} "
                    f"but is nonzero on {weight} points")
            # the form is reduced, so only a vector of its row space
            # reduces to zero against it
            if spec.sub_product(product[None], product[None, pivots], echelon).any():
                raise InternalInconsistencyError(
                    f"product witness at degree {d} lies outside the code")
        q = spec.order
        if verify and md.method in ("footprint", "search") and q ** k <= md_budget:
            words = (q ** k - 1) // (q - 1)
            if words * m > VERIFY_SWEEP_ENTRIES:
                raise ResourceLimitError(
                    f"verifying degree {d} would sweep {words} codewords x {m} "
                    f"points = {words * m} entries, above the cap "
                    f"{VERIFY_SWEEP_ENTRIES}")
            swept = _enumerate_weights(matrix.echelon[0], spec)
            if swept != md.value:
                raise InternalInconsistencyError(
                    f"{md.method} distance {md.value} at degree {d} differs "
                    f"from the sweep's {swept}")
        rows.append(CodeParameters(d, m, k, md))
    if not verify:
        return PipelineRun(tuple(rows))
    checks = [("pipeline", "basis certified; at every degree the rank by "
               "elimination equals |Delta<=d|, the echelon form equals one "
               "recomputed from scratch, and each product witness is recounted")]
    exact = sorted((p.d, p.min_distance.value) for p in rows
                   if p.min_distance.value is not None)
    for (d, above), (e, below) in zip(exact, exact[1:]):
        if below > above:
            raise InternalInconsistencyError(
                f"exact distance {below} at degree {e} exceeds {above} at degree {d}")
    checks.append(("distance-monotone", "exact distance non-increasing in the degree"))
    for p in rows:
        delta = p.min_distance.value
        if delta is not None and not 1 <= delta <= p.singleton_bound:
            raise InternalInconsistencyError(
                f"distance {delta} at degree {p.d} lies outside "
                f"1..{p.singleton_bound}, the Singleton bound")
    checks.append(("singleton-bound", "1 <= distance <= length - dimension + 1"))
    s = pset.matrix.s
    if pset.matrix.rows == ExponentMatrix.torus(s).rows and spec.order >= 3:
        # one message per number that differs: the length once, then at each
        # degree the dimension and, where the pipeline has one, the distance
        want = torus_table(spec.order, s, [p.d for p in rows])
        problems = []
        if want and want[0].length != m:
            problems.append(f"length {m} != {want[0].length}")
        for w, g in zip(want, rows):
            if g.dimension != w.dimension:
                problems.append(f"d={w.d}: dim {g.dimension} != {w.dimension}")
            delta = g.min_distance.value
            if delta is not None and delta != w.min_distance.value:
                problems.append(f"d={w.d}: delta {delta} != {w.min_distance.value}")
        if problems:
            raise InternalInconsistencyError(
                "the torus's closed forms differ: " + "; ".join(problems))
        checks += [("torus-dimension-formula", "pipeline dimensions match the closed form"),
                   ("torus-distance-formula", "exact distances match the closed form")]
    return PipelineRun(tuple(rows), tuple(checks))
