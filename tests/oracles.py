"""Independent oracles used by the tests.

Everything here recomputes quantities by definition (exhaustive spans,
evaluation kernels, the paper's elimination of the parameters),
deliberately avoiding the package's optimized paths, so test expectations
never come from the code under test.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from paramcodes.errors import ResourceLimitError
from paramcodes.gf import FieldSpec
from paramcodes.groebner import GroebnerBasis, eliminate
from paramcodes.linalg import right_kernel_basis
from paramcodes.mpoly import Polynomial, RingContext, monomials_up_to_degree

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


def evaluation_rows(pset, degree: int, ring: RingContext):
    """Monomials of degree <= degree evaluated on the point set, as
    canonical ints."""
    spec = pset.field
    monos = monomials_up_to_degree(ring.num_vars, degree)
    rows = []
    for m in monos:
        row = []
        for pt in pset.points.tolist():
            value = 1
            for coord, e in zip(pt, m):
                if e:
                    value = spec.mul(value, spec.pow(coord, e))
            row.append(value)
        rows.append(row)
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
