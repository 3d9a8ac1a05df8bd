"""Traced replay of the parameter pipeline.

The replay calls each module's public functions in the order
`codes.run_pipeline` uses them and wraps every call in a span recorded
here, in the benchmark, not inside the program.  Span names follow the
layer that does the work:

  ideals.enumerate     ideals.enumerate_points
  groebner.eliminate   ideals.vanishing_ideal_affine (runs groebner.eliminate)
  groebner.homogenize  ideals.vanishing_ideal_projective
  hilbert.profile      hilbert.hilbert_profile
  codes.eval_matrix    codes.build_evaluation_matrix
  linalg.rank          codes.code_dimension (runs linalg.rank)
  hilbert.value        hilbert.hilbert_value
  codes.distance       codes.minimum_distance

Each instance has one root span `cli.instance`; the calls above are its
children.  After the traced pass, two probes run outside the span tree:
a standalone `linalg.rref` on every evaluation matrix (the reduction that
`minimum_distance` repeats) and `minimum_distance` with two threads.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from paramcodes import cli, codes, hilbert, ideals, linalg
from paramcodes.codes import CodeParameters
from paramcodes.errors import InternalInconsistencyError
from paramcodes.gf import FieldSpec


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, instance]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, None, None, parent, instance])
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index][1:3] = [start, end]


def replay_instance(inst, tracer: Tracer) -> tuple[str, dict, list]:
    """The instance's JSON table, its counters, and one record per degree
    for the probes."""
    span = tracer.span
    name = inst.name
    counters = dict.fromkeys(
        ("points", "tuples", "basis_size", "basis_terms", "eval_entries",
         "cells", "codewords"), 0)
    with span("cli.instance", name):
        field = FieldSpec.of(inst.q, inst.modulus)
        matrix = ideals.ExponentMatrix.of(inst.rows)
        with span("ideals.enumerate", name):
            pset = ideals.enumerate_points(matrix, field)
        with span("groebner.eliminate", name):
            gb_x = ideals.vanishing_ideal_affine(pset)
        with span("groebner.homogenize", name):
            gb_y = ideals.vanishing_ideal_projective(gb_x)
        with span("hilbert.profile", name):
            profile = hilbert.hilbert_profile(gb_y)
        m = len(pset)
        if profile.degree_of_ring != m:
            raise InternalInconsistencyError(
                f"{name}: ring degree {profile.degree_of_ring} != {m} points")
        rows, records = [], []
        for d in inst.degree_list():
            with span("codes.eval_matrix", name):
                em = codes.build_evaluation_matrix(pset, d)
            with span("linalg.rank", name):
                dim = codes.code_dimension(em)
            if d >= 1:
                with span("hilbert.value", name):
                    h = hilbert.hilbert_value(gb_y, d)
                if h != dim:
                    raise InternalInconsistencyError(
                        f"{name} d={d}: rank {dim} != Hilbert value {h}")
            with span("codes.distance", name):
                md = codes.minimum_distance(em, threads=1)
            _, start, end, _, _ = tracer.spans[-1]
            searched = (md.status == "exact"
                        and field.order ** dim <= codes.DEFAULT_MD_BUDGET)
            rows.append(CodeParameters(d, m, dim, md))
            records.append({"d": d, "em": em, "md": md, "searched": searched,
                            "distance_s": end - start})
            counters["eval_entries"] += len(em.monomials) * m
            # code_dimension and minimum_distance each reduce the matrix
            counters["cells"] += 2 * len(em.monomials) * m
            if searched:
                counters["codewords"] += field.order ** dim
        text = cli.render_rows(rows, "json")
    counters["points"] = m
    counters["tuples"] = (inst.q - 1) ** matrix.n
    counters["basis_size"] = len(gb_x)
    counters["basis_terms"] = sum(len(g.terms) for g in gb_x.generators)
    return text, counters, records


def probe(records) -> None:
    """Add to each record the seconds of a standalone rref, the seconds of
    the distance with two threads, and whether that distance agrees."""
    for rec in records:
        em = rec.pop("em")
        t0 = time.perf_counter()
        linalg.rref(em.rep_rows(), em.field)
        t1 = time.perf_counter()
        md2 = codes.minimum_distance(em, threads=2)
        t2 = time.perf_counter()
        rec.update(rref_s=t1 - t0, t2_s=t2 - t1, t2_agrees=md2 == rec.pop("md"))
