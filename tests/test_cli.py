import argparse
import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from paramcodes import cli, codes, gf, ideals, linalg
from paramcodes.cli import main, parse_degrees
from paramcodes.gf import FieldSpec
from paramcodes.ideals import Binomial, ExponentMatrix

TRIANGLE = ["--q", "5", "--matrix", "1 1 0; 0 1 1; 1 0 1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "params", *TRIANGLE,
                           "--degrees", "1..5", "--format", "csv",
                           "--md-budget", "700")
    assert code == 0
    assert out.splitlines() == [
        "d,length,dim,delta,delta_status,singleton_defect,mds",
        "1,32,4,23,exact,6,false",
        "2,32,10,8..14,bounded,,",
        "3,32,20,4,exact,9,false",
        "4,32,29,2,exact,2,false",
        "5,32,32,1,weight_one,0,true",
    ]


def test_params_byte_stable(capsys):
    args = ("params", *TRIANGLE, "--degrees", "1..2", "--md-budget", "700")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_params_json(capsys):
    code, out, _ = run_cli(capsys, "params", *TRIANGLE,
                           "--degrees", "1..1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{
        "d": 1, "length": 32, "dim": 4, "delta": 23,
        "delta_status": "exact", "singleton_defect": 6, "mds": False,
    }]


def test_ideal_output(capsys):
    code, out, _ = run_cli(capsys, "ideal", "xstar", *TRIANGLE)
    assert code == 0
    assert out.splitlines() == [
        "t3^4 - 1",
        "t2^2*t3^2 - t1^2",
        "t1^2*t3^2 - t2^2",
        "t2^4 - 1",
        "t1^2*t2^2 - t3^2",
        "t1^4 - 1",
    ]
    code, out, _ = run_cli(capsys, "ideal", "y", *TRIANGLE)
    assert code == 0
    assert out.splitlines() == [
        "t3^4 - t4^4",
        "t2^2*t3^2 - t1^2*t4^2",
        "t1^2*t3^2 - t2^2*t4^2",
        "t2^4 - t4^4",
        "t1^2*t2^2 - t3^2*t4^2",
        "t1^4 - t4^4",
    ]


def test_ideal_output_over_an_odd_extension_field(capsys):
    # -1 is the int 2 in GF(9), not 8, so every binomial prints as a difference
    gf9 = ["--q", "9", "--modulus", "1 0 1", "--matrix", "1 1 0; 0 1 1; 1 0 1"]
    for verify in ((), ("--verify",)):
        code, out, err = run_cli(capsys, "ideal", "xstar", *gf9, *verify)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "t3^8 - 1",
            "t2^4*t3^4 - t1^4",
            "t1^4*t3^4 - t2^4",
            "t2^8 - 1",
            "t1^4*t2^4 - t3^4",
            "t1^8 - 1",
        ]
        code, out, err = run_cli(capsys, "ideal", "y", *gf9, *verify)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "t3^8 - t4^8",
            "t2^4*t3^4 - t1^4*t4^4",
            "t1^4*t3^4 - t2^4*t4^4",
            "t2^8 - t4^8",
            "t1^4*t2^4 - t3^4*t4^4",
            "t1^8 - t4^8",
        ]


@pytest.mark.parametrize("which", ["xstar", "y"])
@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "ring degree 64"),
    ([[0, 0, 0], [0, 1, 1], [1, 0, 1]], "does not vanish"),
], ids=["no-lattice", "outside-lattice"])
def test_ideal_verify_refuses_a_wrong_basis(capsys, which, rows, message):
    # a class walk over the wrong matrix returns a true Groebner basis of the
    # wrong ideal.  Over the torus every exponent vector mod 4 is a class of
    # its own, as if L held nothing, which leaves 64 standard monomials for
    # the 32 points; with the first row zero, t1 joins the class of 1,
    # although (1, 0, 0) lies outside L, so t1 - 1 does not vanish on X*.
    # Either way nothing is printed.
    walk = ideals.class_walk
    with mock.patch.object(ideals, "class_walk", lambda matrix, q:
                           walk(ExponentMatrix.of(rows), q)):
        code, out, err = run_cli(capsys, "ideal", which, *TRIANGLE, "--verify")
    assert (code, out) == (3, "")
    assert err.startswith("paramcodes: INTERNAL INCONSISTENCY: ")
    assert message in err


@pytest.mark.parametrize("lead, tail, message", [
    ((0, 0, 4, 0), (0, 0, 0, 3), "projective generator t3^4 - t4^3 is not homogeneous"),
    ((0, 0, 4, 0), (0, 0, 1, 3), "projective generator t3^4 - t3*t4^3 is not the "
                                 "homogenization of t3^4 - 1"),
    ((0, 0, 4, 1), (0, 0, 0, 5), "projective generator t3^4*t4 - t4^5 is not the "
                                 "homogenization of t3^4 - 1"),
], ids=["not-homogeneous", "other-affine-generator", "new-variable-in-lead"])
def test_verify_refuses_a_projective_basis_that_is_no_homogenization(
        capsys, lead, tail, message):
    # each in place of t3^4 - t4^4, with its lead above its tail; the first
    # and last vanish on the points with a trailing 1, and would reach the
    # Hilbert profile, which refuses them only as a usage error
    homogenize = codes.vanishing_ideal_projective

    def broken(gb_x):
        gb = homogenize(gb_x)
        return replace(gb, generators=tuple(
            Binomial(lead, tail) if g == ((0, 0, 4, 0), (0, 0, 0, 4)) else g
            for g in gb))

    with mock.patch.object(codes, "vanishing_ideal_projective", broken):
        code, out, err = run_cli(capsys, "verify", *TRIANGLE, "--degrees", "1..2",
                                 "--md-budget", "700")
        assert (code, out, err) == (3, f"FAIL pipeline: {message}\n",
                                    "1 of 1 checks failed\n")
        code, out, err = run_cli(capsys, "params", *TRIANGLE, "--degrees", "1..2",
                                 "--verify")
        assert (code, out, err) == (3, "", f"paramcodes: INTERNAL INCONSISTENCY: {message}\n")


@pytest.mark.parametrize("argv, lines", [
    # characteristic 2: -1 = 1, so every binomial prints as a sum
    (("y", "--q", "8", "--modulus", "1 1 0 1", "--matrix", "1 2; 3 1"),
     ["t2^7 + t3^7", "t1^7 + t3^7"]),
    (("xstar", "--q", "2", "--matrix", "1 1; 0 1"), ["t2 + 1", "t1 + 1"]),
], ids=["y-gf8", "xstar-gf2"])
def test_ideal_verify_golden_in_characteristic_two(capsys, argv, lines):
    code, out, err = run_cli(capsys, "ideal", argv[0], "--verify", *argv[1:])
    assert (code, err) == (0, "")
    assert out.splitlines() == lines


def test_ideal_torus_single_variable(capsys):
    code, out, _ = run_cli(capsys, "ideal", "xstar", "--q", "7",
                           "--matrix", "1")
    assert code == 0
    assert out.strip() == "t1^6 - 1"


def test_torus_table_csv(capsys):
    code, out, _ = run_cli(capsys, "torus", "--q", "11", "--s", "2",
                           "--degrees", "1..13", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    dims = [int(line.split(",")[2]) for line in lines[1:]]
    deltas = [int(line.split(",")[3]) for line in lines[1:]]
    assert dims == [3, 6, 10, 15, 21, 28, 36, 45, 55, 64, 72, 79, 85]
    assert deltas == [90, 80, 70, 60, 50, 40, 30, 20, 10, 9, 8, 7, 6]


def test_torus_cross_check_reports_a_disagreement(capsys):
    # a closed form off by one at d = 2 must fail the torus check: params
    # --verify exits 3 before printing, and verify prints the FAIL line
    dimension = codes.torus_dimension

    def off_at_2(q, s, d):
        return dimension(q, s, d) + (d == 2)

    argv = ("--q", "5", "--matrix", "1 0; 0 1", "--degrees", "1..3")
    with mock.patch.object(codes, "torus_dimension", off_at_2):
        code, out, err = run_cli(capsys, "params", "--verify", *argv)
        assert (code, out) == (3, "")
        assert err == ("paramcodes: INTERNAL INCONSISTENCY: the torus's closed "
                       "forms differ: d=2: dim 6 != 7\n")
        code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 3
    assert out == "FAIL pipeline: the torus's closed forms differ: d=2: dim 6 != 7\n"
    assert err == "1 of 1 checks failed\n"


def test_torus_rejects_q2(capsys):
    code, _, err = run_cli(capsys, "torus", "--q", "2", "--s", "1",
                           "--degrees", "1..2")
    assert code == 1
    assert "q >= 2" in err or "q = 2" in err


def test_torus_rejects_a_field_that_does_not_exist(capsys):
    code, out, err = run_cli(capsys, "torus", "--q", "6", "--s", "1",
                             "--degrees", "1..2")
    assert (code, out) == (1, "")
    assert err == "paramcodes: error: 6 is not a prime power\n"


def test_torus_table_builds_no_field(capsys):
    # the table and the refusal of a q past the order limit need neither a
    # modulus nor a field
    fail = mock.Mock(side_effect=AssertionError("field built"))
    with mock.patch.object(FieldSpec, "of", fail), \
            mock.patch.object(gf, "_check_irreducible", fail):
        code, out, err = run_cli(capsys, "torus", "--q", "65536", "--s", "1",
                                 "--degrees", "1..2")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "d  length  dim  delta  delta_status  singleton_defect  mds",
            "1  65535   2    65534  exact         0                 true",
            "2  65535   3    65533  exact         0                 true",
        ]
        for fmt in ("csv", "json"):
            assert run_cli(capsys, "torus", "--q", "65536", "--s", "1",
                           "--degrees", "1..2", "--format", fmt)[0] == 0
        code, out, err = run_cli(capsys, "torus", "--q", "1048576", "--s", "1",
                                 "--degrees", "1..2")
        assert (code, out) == (1, "")
        assert err == "paramcodes: error: field order 1048576 exceeds the limit 65536\n"


def test_torus_refuses_an_order_over_the_limit_before_factoring(capsys):
    # trial division of this prime would run for hours
    def endless(signum, frame):
        raise AssertionError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(10)
    try:
        code, out, err = run_cli(capsys, "torus", "--q", "1000000000000000003",
                                 "--s", "1", "--degrees", "1")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (1, "")
    assert err == ("paramcodes: error: field order 1000000000000000003 exceeds "
                   "the limit 65536\n")
    # an order over the limit that is no prime power gets the same line as params
    code, out, err = run_cli(capsys, "torus", "--q", "70000", "--s", "1",
                             "--degrees", "1")
    assert (code, out) == (1, "")
    assert err == "paramcodes: error: field order 70000 exceeds the limit 65536\n"
    assert run_cli(capsys, "params", "--q", "70000", "--matrix", "1",
                   "--degrees", "1") == (code, out, err)


def test_torus_refuses_a_length_python_cannot_print(capsys):
    # every cell is at most the length (q-1)^s, which must print in at most
    # sys.get_int_max_str_digits() digits
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this Python prints integers of any length")
    code, out, err = run_cli(capsys, "torus", "--q", "7", "--s", "6000",
                             "--degrees", "1..1")
    assert (code, out) == (1, "")
    assert err == (f"paramcodes: error: the length 6^6000 has more than {digits} "
                   f"digits, Python's limit for printing an integer\n")
    code, out, err = run_cli(capsys, "torus", "--q", "7", "--s", "1500",
                             "--degrees", "1..2")
    assert (code, err) == (0, "")
    assert [line.split()[1] for line in out.splitlines()[1:]] == [str(6 ** 1500)] * 2
    # 10^s has s + 1 digits: the last s that prints and the first refused
    code, out, err = run_cli(capsys, "torus", "--q", "11", "--s", str(digits - 1),
                             "--degrees", "1..1", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[1] == "1" + "0" * (digits - 1)
    code, out, err = run_cli(capsys, "torus", "--q", "11", "--s", str(digits),
                             "--degrees", "1..1")
    assert (code, out) == (1, "")
    assert err.startswith(f"paramcodes: error: the length 10^{digits} has more")


def test_threads_start_no_thread(capsys):
    # --threads is accepted and ignored: the whole-code sweep of --verify at
    # d=2 reaches the high words, and runs them on the calling thread
    fail = mock.Mock(side_effect=AssertionError("thread started"))
    with mock.patch("threading.Thread.start", fail):
        code, out, err = run_cli(capsys, "params", "--verify", "--threads", "4",
                                 *TRIANGLE, "--degrees", "1..2")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "d  length  dim  delta  delta_status  singleton_defect  mds",
        "1  32      4    23     exact         6                 false",
        "2  32      10   8      exact         15                false",
    ]
    fail.assert_not_called()


def spy(module, name):
    return mock.patch.object(module, name, wraps=getattr(module, name))


@pytest.mark.parametrize("field,s,degrees", [
    (["--q", "13"], 3, "1..6"),
    (["--q", "16", "--modulus", "1 1 0 0 1"], 1, "1..14"),
    (["--q", "9", "--modulus", "1 0 1"], 3, "1..4"),
    (["--q", "13"], 4, "1..45"),
], ids=["torus-gf13-s3", "rs-gf16", "torus-gf9-s3", "torus-gf13-s4"])
def test_torus_rows_need_no_matrix(capsys, field, s, degrees):
    # below Delta's top degree the product witness meets the footprint, and
    # from it on k = m gives weight 1, so no row is evaluated or reduced, nor
    # refused by the matrix budget: from d = 7 on the GF(13) 4-torus has
    # more than 5,000,000 entries, and at d = 44 it has 20,736 x 20,736
    torus = "; ".join(" ".join(str(int(i == j)) for j in range(s)) for i in range(s))
    with spy(codes, "_evaluate") as evaluate, spy(linalg, "extend_rref") as extend, \
            spy(linalg, "rref") as rref:
        code, out, err = run_cli(capsys, "params", *field, "--matrix", torus,
                                 "--degrees", degrees, "--format", "csv")
    assert (code, err) == (0, "")
    assert (evaluate.call_count, extend.call_count, rref.call_count) == (0, 0, 0)
    _, closed, _ = run_cli(capsys, "torus", "--q", field[1], "--s", str(s),
                           "--degrees", degrees, "--format", "csv")
    # the closed forms call a distance of 1 exact; where the code is the
    # whole space and its q^dim codewords exceed the distance budget, the
    # pipeline reports a weight-1 witness
    q = int(field[1])

    def expected(row):
        d, length, dim, delta, status, rest = row.split(",", 5)
        if dim == length and q ** int(dim) > codes.DEFAULT_MD_BUDGET:
            status = "weight_one"
        return ",".join((d, length, dim, delta, status, rest))

    assert out.splitlines() == [expected(row) for row in closed.splitlines()]


@pytest.mark.parametrize("argv", [["verify"], ["params", "--verify"]],
                         ids=["verify", "params-verify"])
def test_a_row_that_reads_its_matrix_past_the_budget_is_refused(capsys, argv):
    # --verify reads every degree's echelon form, and the first past the
    # budget is d = 7's
    code, out, err = run_cli(capsys, *argv, "--q", "13", "--matrix",
                             "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1", "--degrees", "1..8")
    assert (code, out) == (2, "")
    assert err == ("paramcodes: resource limit: evaluation matrix with 330 x 20736 "
                   "entries exceeds the budget 5000000\n")


def test_the_four_cycle_still_eliminates(capsys):
    # its product witnesses 180, 144 and 108 exceed the footprints 90, 60
    # and 36, so every degree reads its echelon form: d = 1 built from
    # Delta's levels 0 and 1, then d = 2 and d = 3 extended by one level each
    with spy(codes, "_evaluate") as evaluate, spy(linalg, "extend_rref") as extend:
        code, out, err = run_cli(capsys, "params", "--q", "7", "--matrix",
                                 "1 1 0 0; 0 1 1 0; 0 0 1 1; 1 0 0 1",
                                 "--degrees", "1..3", "--format", "csv")
    assert (code, err) == (0, "")
    assert (evaluate.call_count, extend.call_count) == (3, 4)
    assert out.splitlines() == [
        "d,length,dim,delta,delta_status,singleton_defect,mds",
        "1,216,5,150,exact,62,false",
        "2,216,14,60..125,bounded,,",
        "3,216,30,36..80,bounded,,",
    ]


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", *TRIANGLE, "--degrees", "1..2",
                           "--md-budget", "700")
    assert code == 0
    assert "all" in out and "checks passed" in out


def test_verify_golden_lines(capsys):
    code, out, err = run_cli(capsys, "verify", *TRIANGLE, "--degrees", "1..5",
                             "--md-budget", "700")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "ok   pipeline: basis certified; at every degree the rank by elimination "
        "equals |Delta<=d|, the echelon form equals one recomputed from scratch, "
        "and each product witness is recounted",
        "ok   distance-monotone: exact distance non-increasing in the degree",
        "ok   singleton-bound: 1 <= distance <= length - dimension + 1",
        "all 3 checks passed",
    ]


@pytest.mark.parametrize("argv, torus", [
    (("--q", "7", "--matrix", "1 1 0 0; 0 1 1 0; 0 0 1 1; 1 0 0 1",
      "--degrees", "1..3"), False),
    (("--q", "5", "--matrix", "1 0; 0 1", "--degrees", "1..3"), True),
    (("--q", "9", "--modulus", "1 0 1", "--matrix", "1 0 0; 0 1 0; 0 0 1",
      "--degrees", "1..4"), True),
], ids=["four-cycle-gf7", "torus-gf5", "torus-gf9"])
def test_verify_prints_the_torus_lines_only_on_the_torus(capsys, argv, torus):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    names = ["pipeline", "distance-monotone", "singleton-bound"]
    if torus:
        names += ["torus-dimension-formula", "torus-distance-formula"]
    lines = out.splitlines()
    assert [line[5:].split(":")[0] for line in lines[:-1]] == names
    assert lines[-1] == f"all {len(names)} checks passed"
    if torus:
        assert lines[3:5] == [
            "ok   torus-dimension-formula: pipeline dimensions match the closed form",
            "ok   torus-distance-formula: exact distances match the closed form"]


@pytest.mark.parametrize("distances, message", [
    ({1: 5, 2: 6}, "exact distance 6 at degree 2 exceeds 5 at degree 1"),
    ({1: 30}, "distance 30 at degree 1 lies outside 1..29, the Singleton bound"),
], ids=["increasing", "above-singleton"])
def test_verify_refuses_distances_no_code_has(capsys, distances, message):
    # a distance that grows with the degree, or exceeds n - k + 1, is refused
    # by params --verify as by verify; without --verify it is printed
    def wrong(matrix, budget):
        return codes.MinDistance.exact(distances[matrix.degree])

    degrees = f"1..{len(distances)}"
    with mock.patch.object(codes, "minimum_distance", wrong):
        code, out, err = run_cli(capsys, "params", "--verify", *TRIANGLE,
                                 "--degrees", degrees)
        assert (code, out) == (3, "")
        assert err == f"paramcodes: INTERNAL INCONSISTENCY: {message}\n"
        code, out, err = run_cli(capsys, "verify", *TRIANGLE, "--degrees", degrees)
        assert (code, out, err) == (3, f"FAIL pipeline: {message}\n",
                                    "1 of 1 checks failed\n")
        code, out, err = run_cli(capsys, "params", *TRIANGLE, "--degrees", degrees,
                                 "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[3] == str(distances[1])


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "triangle.cfg"
    config.write_text(
        "# golden instance\n"
        "q 5\n"
        "matrix 1 1 0\n"
        "matrix 0 1 1\n"
        "matrix 1 0 1\n"
        "degrees 1..5\n"
        "md-budget 700\n"
        "format csv\n")
    code, out, _ = run_cli(capsys, "params", "--config", str(config))
    assert code == 0
    assert out.startswith("d,length,dim,")
    assert len(out.splitlines()) == 6
    # flags win over the file
    code, out2, _ = run_cli(capsys, "params", "--config", str(config),
                            "--degrees", "1..1")
    assert len(out2.splitlines()) == 2


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("q 5\nmatrix 1 a 0\n")
    code, _, err = run_cli(capsys, "params", "--config", str(bad),
                           "--degrees", "1..2")
    assert code == 1
    assert "bad.cfg:2" in err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("qq 5\n")
    code, _, err = run_cli(capsys, "params", "--config", str(unknown),
                           "--degrees", "1..2")
    assert code == 1
    assert "unknown key" in err

    novalue = tmp_path / "novalue.cfg"
    novalue.write_text("q 5\nmatrix 1 1 0\nmatrix 0 1 1\nmatrix 1 0 1\nformat\n")
    code, out, err = run_cli(capsys, "params", "--config", str(novalue),
                             "--degrees", "1")
    assert (code, out) == (1, "")
    assert err == f"paramcodes: error: {novalue}:5: key 'format' has no value\n"

    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, "params", "--config", str(missing),
                             "--degrees", "1")
    assert (code, out) == (1, "")
    assert err == (f"paramcodes: error: cannot read config {missing}: [Errno 2] "
                   f"No such file or directory: '{missing}'\n")


def test_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "latin.cfg"
    config.write_bytes(b"q 5 # \xff\n")
    code, out, err = run_cli(capsys, "params", "--config", str(config),
                             "--degrees", "1")
    assert (code, out) == (1, "")
    assert err == (f"paramcodes: error: cannot read config {config}: 'utf-8' codec "
                   "can't decode byte 0xff in position 6: invalid start byte\n")


@pytest.mark.parametrize("argv", [["params", "--degrees", "0..2", "--format", "csv"],
                                  ["ideal", "xstar"], ["ideal", "y"]])
def test_exponents_past_int64_act_as_their_residues(capsys, argv):
    # 10^20 - 1 = 3 mod q - 1 = 4: the same point set, the same bytes
    huge = run_cli(capsys, *argv, "--q", "5", "--matrix", "99999999999999999999")
    assert huge == run_cli(capsys, *argv, "--q", "5", "--matrix", "3")
    assert huge[0] == 0 and huge[1]


@pytest.mark.parametrize("argv", [["params", "--degrees", "0..1"], ["ideal", "xstar"]],
                         ids=["params", "ideal"])
def test_sixty_four_parameters_over_gf2(capsys, argv):
    # (q-1)^n = 1 tuple of any length n gives the one point (1, ..., 1)
    ones = " ".join(["1"] * 64)
    got = run_cli(capsys, *argv, "--q", "2", "--matrix", ones)
    assert got == run_cli(capsys, *argv, "--q", "2", "--matrix", ones[2:])
    assert got[0] == 0 and got[2] == ""


# a value for each config key; matrix takes one line per row
CONFIG_VALUES = {"q": ["9"], "modulus": ["1 0 1"], "matrix": ["1 2", "2 1"],
                 "degrees": ["1..2"], "md-budget": ["0"], "format": ["csv"],
                 "threads": ["2"]}


@pytest.mark.parametrize("separator", [" ", " = ", "\t"], ids=["space", "equals", "tab"])
@pytest.mark.parametrize("key", list(cli._CONFIG_KEYS))
def test_each_config_key_means_what_its_flag_means(tmp_path, capsys, key,
                                                   separator):
    flags = [arg for k, rows in CONFIG_VALUES.items() if k != key
             for arg in (f"--{k}", "; ".join(rows))]
    config = tmp_path / "one.cfg"
    config.write_text("".join(f"{key}{separator}{row}  # {key}\n"
                              for row in CONFIG_VALUES[key]))
    want = run_cli(capsys, "params", *flags, f"--{key}",
                   "; ".join(CONFIG_VALUES[key]))
    assert want[0] == 0 and want[1]
    assert run_cli(capsys, "params", *flags, "--config", str(config)) == want


@pytest.mark.parametrize("argv, line", [
    (("ideal", "xstar"), "degrees 1..3"),
    (("ideal", "y"), "md-budget 5"),
    (("ideal", "xstar"), "format csv"),
    (("ideal", "y"), "threads 4"),
    (("verify",), "format csv"),
    (("verify",), "threads 4"),
], ids=["ideal-degrees", "ideal-md-budget", "ideal-format", "ideal-threads",
        "verify-format", "verify-threads"])
def test_config_keys_a_subcommand_would_ignore_are_refused(tmp_path, capsys,
                                                           argv, line):
    config = tmp_path / "extra.cfg"
    config.write_text(f"q 5\nmatrix 1 1 0\nmatrix 0 1 1\nmatrix 1 0 1\n{line}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(config))
    key = line.split()[0]
    assert code == 1 and out == ""
    assert err == (f"paramcodes: error: {config}:5: key {key!r} does not "
                   f"apply to {argv[0]}\n")


def test_verify_reads_its_keys_from_a_config(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("q 5\nmatrix 1 1 0\nmatrix 0 1 1\nmatrix 1 0 1\n"
                      "degrees 1..2\nmd-budget 700\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0 and "checks passed" in out


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "params", "--q", "5", "--degrees", "1..2")
    assert code == 1 and "matrix" in err
    code, _, err = run_cli(capsys, "params", *TRIANGLE)
    assert code == 1 and "degrees" in err
    # ragged matrix rows
    code, _, err = run_cli(capsys, "params", "--q", "5",
                           "--matrix", "1 1 0; 0 1", "--degrees", "1..2")
    assert code == 1 and "row 2" in err


@pytest.mark.parametrize("matrix, message", [
    ("1; 2 3", "matrix row 2 has 2 entries, expected 1"),
    ("1 -1", "matrix row 1 has a negative exponent"),
], ids=["ragged", "negative"])
def test_a_bad_exponent_matrix_is_a_usage_error(tmp_path, capsys, matrix, message):
    config = tmp_path / "bad.cfg"
    config.write_text("q 5\n" + "".join(f"matrix {row}\n" for row in matrix.split(";")))
    for source in (["--matrix", matrix], ["--config", str(config)]):
        code, out, err = run_cli(capsys, "params", "--q", "5", *source, "--degrees", "1")
        assert (code, out, err) == (1, "", f"paramcodes: error: {message}\n")


@pytest.mark.parametrize("argv", [["params", "--q", "5", "--matrix", "1"],
                                  ["verify", "--q", "5", "--matrix", "1"],
                                  ["torus", "--q", "5", "--s", "1"]],
                         ids=["params", "verify", "torus"])
def test_an_empty_degree_range_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--degrees", "")
    assert (code, out) == (1, "")
    assert err == ("paramcodes: error: --degrees: invalid literal for int() "
                   "with base 10: ''\n")


@pytest.mark.parametrize("argv, flag", [
    (("params", *TRIANGLE, "--degrees", "abc"), "--degrees"),
    (("params", *TRIANGLE, "--degrees", "1.."), "--degrees"),
    (("params", "--q", "5", "--matrix", "1 x", "--degrees", "1"), "--matrix"),
    (("ideal", "xstar", "--q", "9", "--modulus", "1 a 1", "--matrix", "1"), "--modulus"),
    (("torus", "--q", "7", "--s", "1", "--degrees", "x"), "--degrees"),
    (("params", "--q", "x", "--matrix", "1", "--degrees", "1"), "--q"),
    (("torus", "--q", "x", "--s", "1", "--degrees", "1"), "--q"),
    (("torus", "--q", "7", "--s", "x", "--degrees", "1"), "--s"),
    (("params", *TRIANGLE, "--degrees", "1", "--md-budget", "x"), "--md-budget"),
    (("verify", *TRIANGLE, "--degrees", "1", "--md-budget=1.5"), "--md-budget"),
])
def test_malformed_flag_values(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"paramcodes: error: {flag}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--md-budget", "-5", "md-budget must be >= 0"),
    ("--threads", "0", "threads must be >= 1"),
    ("--threads", "-3", "threads must be >= 1"),
])
def test_torus_rejects_bad_search_limits(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "params", *TRIANGLE, "--degrees", "1",
                             flag, value)
    assert code == 1 and out == ""
    assert err == f"paramcodes: error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (("ideal", "xstar", *TRIANGLE, "--degrees", "1..2"), "--degrees"),
    (("ideal", "y", *TRIANGLE, "--md-budget", "700"), "--md-budget"),
    (("ideal", "xstar", *TRIANGLE, "--format", "csv"), "--format"),
    (("ideal", "y", *TRIANGLE, "--threads", "1"), "--threads"),
    (("verify", *TRIANGLE, "--degrees", "1..2", "--format", "csv"), "--format"),
    (("verify", *TRIANGLE, "--degrees", "1..2", "--verify"), "--verify"),
    (("verify", *TRIANGLE, "--degrees", "1..2", "--threads", "1"), "--threads"),
    (("torus", "--q", "5", "--s", "2", "--degrees", "1..3", "--cross-check"),
     "--cross-check"),
    (("torus", "--q", "5", "--s", "2", "--degrees", "1..3", "--md-budget", "700"),
     "--md-budget"),
    (("torus", "--q", "5", "--s", "2", "--degrees", "1..3", "--threads", "1"),
     "--threads"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flags_a_subcommand_would_ignore_are_refused(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: paramcodes ")
    assert f"error: unrecognized arguments: {flag}" in captured.err


def test_resource_exit_code(capsys):
    code, _, err = run_cli(capsys, "params", "--q", "31",
                           "--matrix", "1 1 1 1 1", "--degrees", "1..1")
    assert code == 2
    assert "budget" in err


def test_verify_refuses_a_whole_code_sweep_over_the_cap(capsys):
    # on the GF(5) 9-torus the footprint settles d = 1 within the codeword
    # budget, but sweeping the whole code to verify it would read
    # (5^10 - 1)/4 codewords of 4^9 points
    nine = "; ".join(" ".join(str(int(i == j)) for j in range(9)) for i in range(9))

    def endless(signum, frame):
        raise AssertionError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(30)
    try:
        code, out, err = run_cli(capsys, "params", "--q", "5", "--matrix", nine,
                                 "--degrees", "1..1", "--verify")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err == ("paramcodes: resource limit: verifying degree 1 would sweep "
                   "2441406 codewords x 262144 points = 639999934464 entries, "
                   "above the cap 1000000000\n")


def test_extension_field_via_modulus(capsys):
    code, out, _ = run_cli(capsys, "ideal", "xstar", "--q", "4",
                           "--modulus", "1 1 1", "--matrix", "1")
    assert code == 0
    assert out.strip() == "t1^3 + 1"


def test_parse_degrees():
    assert parse_degrees("1..5") == [1, 2, 3, 4, 5]
    assert parse_degrees("4") == [4]
    with pytest.raises(Exception):
        parse_degrees("5..1")


@pytest.mark.parametrize("argv", [["params", "--q", "5", "--matrix", "1"],
                                  ["torus", "--q", "5", "--s", "1"]],
                         ids=["params", "torus"])
def test_a_degree_range_past_ssize_t_is_a_resource_limit(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--degrees", "0..100000000000000000000")
    assert (code, out) == (2, "")
    assert err == ("paramcodes: resource limit: degree range "
                   "'0..100000000000000000000' is too long to list\n")


def test_a_degree_range_past_memory_is_a_resource_limit():
    # 10^15 degrees fit ssize_t, but not 3 GB of address space
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 3 * 1024 ** 3
    for argv in (["params", "--q", "5", "--matrix", "1"], ["torus", "--q", "5", "--s", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "paramcodes.cli", *argv,
             "--degrees", "0..1000000000000000"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("paramcodes: resource limit: degree range "
                               "'0..1000000000000000' is too long to list\n")


def test_unknown_subcommand_usage_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("argv, line", [
    ([], "paramcodes: error: the following arguments are required: command"),
    (["frobnicate"], "paramcodes: error: argument command: invalid choice: "
                     "'frobnicate' (choose from 'params', 'ideal', 'torus', 'verify')"),
    (["params", *TRIANGLE, "--bogus", "5"],
     "paramcodes params: error: unrecognized arguments: --bogus 5"),
    (["params", "--verify=yes", *TRIANGLE],
     "paramcodes params: error: unrecognized arguments: --verify=yes"),
    (["params", "--q", "--matrix", "1"],
     "paramcodes params: error: argument --q: expected one argument"),
    (["verify", *TRIANGLE, "--degrees"],
     "paramcodes verify: error: argument --degrees: expected one argument"),
    (["params", "--m", "1"], "paramcodes params: error: ambiguous option: --m "
                             "could match --modulus, --matrix, --md-budget"),
    (["ideal", "xstar", "--m=1"], "paramcodes ideal: error: ambiguous option: "
                                  "--m=1 could match --modulus, --matrix"),
    (["torus", "--q", "5"],
     "paramcodes torus: error: the following arguments are required: --s, --degrees"),
    (["ideal", *TRIANGLE],
     "paramcodes ideal: error: the following arguments are required: which"),
    (["ideal", "z", *TRIANGLE], "paramcodes ideal: error: argument which: "
                                "invalid choice: 'z' (choose from 'xstar', 'y')"),
    (["ideal", "xstar", "y", *TRIANGLE],
     "paramcodes ideal: error: unrecognized arguments: y"),
], ids=["no-command", "unknown-command", "unknown-flag", "switch-with-value",
        "value-is-a-flag", "value-missing", "ambiguous", "ambiguous-equals",
        "required-flags", "required-positional", "bad-choice", "extra-positional"])
def test_command_lines_that_do_not_parse_are_usage_errors(capsys, argv, line):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 1 and captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: {line.split(': error: ')[0]} [-h] ")
    assert error == line


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    *([name, spelled] for name in cli.COMMANDS for spelled in ("-h", "--help")),
    ["params", "--q", "x", "--bogus", "--h"], ["ideal", "--help", "z"],
])
def test_help_lists_every_flag(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 0 and captured.err == ""
    command = cli.COMMANDS.get(argv[0])
    names = [f"--{f}" for f in command.flags] if command else list(cli.COMMANDS)
    words = set(captured.out.replace("[", " ").replace("]", " ").split())
    assert {"-h", *names} <= words


@pytest.mark.parametrize("argv", [
    ["params", *TRIANGLE, "--degrees", "1", "--format", "xml"],
    ["params", *TRIANGLE, "--degrees", "1", "--config", "xml.cfg"],
    ["torus", "--q", "5", "--s", "1", "--degrees", "1", "--format", "xml"],
], ids=["params-flag", "params-config", "torus-flag"])
def test_an_unknown_format_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the same message whether the format comes from a flag or a config file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xml.cfg").write_text("format xml\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "paramcodes: error: unknown format 'xml': pick table, csv or json\n"


def test_every_spelling_of_a_command_line_prints_the_same_bytes(capsys):
    want = run_cli(capsys, "params", *TRIANGLE, "--degrees", "1..5", "--format", "csv",
                   "--md-budget", "700")
    assert want[0] == 0
    for argv in (
        ["params", "--md-budget=700", "--form", "csv", "--deg=1..5",
         "--mat", "1 1 0; 0 1 1; 1 0 1", "--q=5"],
        ["params", "--q", "7", "--format", "json", *TRIANGLE, "--md-budget", "-5",
         "--degrees", "1..5", "--format", "csv", "--md-budget", "700"],
        ["params", "--config", "", *TRIANGLE, "--degrees", "1..5", "--format", "csv",
         "--md-budget", "700"],
    ):
        assert run_cli(capsys, *argv) == want
    want = run_cli(capsys, "ideal", "y", *TRIANGLE, "--verify")
    assert want[0] == 0
    for argv in (["ideal", "--verify", *TRIANGLE, "y"], ["ideal", "--q", "5", "y", "--ver",
                 "--matrix", TRIANGLE[-1]], ["ideal", *TRIANGLE, "--verify", "--", "y"]):
        assert run_cli(capsys, *argv) == want


def test_the_front_end_imports_no_argument_parser():
    # argparse, with the gettext and locale it loads, took about half of a
    # short run; the front end reads argv from its own command table
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "import paramcodes.cli\n"
              f"paramcodes.cli.main(['params', *{TRIANGLE!r}, '--degrees', '1..2'])\n"
              "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "[]"


class _Refusing(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def reference_parser() -> argparse.ArgumentParser:
    """argparse's reading of `cli.COMMANDS`, with every value kept as text:
    the reference that `cli.parse_argv` must agree with."""
    parser = _Refusing(prog="paramcodes")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        sub = commands.add_parser(name)
        if command.choices:
            sub.add_argument("which", choices=command.choices)
        for flag in command.flags:
            if flag == "verify":
                sub.add_argument("--verify", action="store_true")
            else:
                sub.add_argument(f"--{flag}", required=flag in command.required)
    return parser


# flag values, negative ones among them.  Where the two parsers differ, none
# is drawn: argparse takes "-x" for an unknown flag, so a value that starts
# with a single "-" here is a negative number or holds a space, and it takes
# "--bogus=1 -1" for a value, so the "=" value of a flag that is unknown or
# cut to a prefix holds no space.
FLAG_VALUES = ["5", "-5", "1 -1", "-1 2", "1..3", "x", "", "a=b", "xstar", "--x"]


@st.composite
def command_lines(draw):
    """A subcommand's flags in any order, each spelled whole or by a prefix
    (unique or not), as "--flag value", "--flag=value" or now and then
    "--flag" alone, some unknown or repeated, with positionals anywhere."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    flags = list(command.required) + draw(st.lists(st.sampled_from(command.flags), max_size=6))
    argv = []
    for flag in draw(st.permutations(flags)):
        if draw(st.integers(0, 9)) == 0:
            flag = draw(st.sampled_from(["s", "bogus"]))
        if draw(st.booleans()):
            flag = flag[:draw(st.integers(1, len(flag)))]
        value = draw(st.sampled_from(FLAG_VALUES))
        form = draw(st.integers(0, 6))
        if form < 3 and " " in value and flag not in command.flags:
            value = value.replace(" ", "")
        argv += [f"--{flag}={value}"] if form < 3 else [f"--{flag}", value] if form < 6 \
            else [f"--{flag}"]
    words = draw(st.lists(st.sampled_from(["xstar", "y", "z", "-5"]), max_size=2))
    for word in words if command.choices or draw(st.integers(0, 4)) == 0 else ():
        argv.insert(draw(st.integers(0, len(argv))), word)
    return [name, *argv]


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["ideal", "--q", "5", "xstar", "--mat", "1"])
@example(["params", "--form", "json", "--deg=1..2", "--q", "5", "--q", "-5"])
@example(["params", "--md-budget", "-5", "--matrix", "1 -1", "--modulus=--x"])
@example(["torus", "--q", "5", "--s", "1", "--degrees", "1", "--s=2"])
def test_the_parser_accepts_what_argparse_accepts_with_the_same_values(argv):
    try:
        parsed = vars(reference_parser().parse_args(argv))
        want = {k.replace("_", "-"): v for k, v in parsed.items() if v not in (None, False)}
    except ValueError:
        want = None
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            got = cli.parse_argv(argv)
        except SystemExit as exc:
            assert exc.code == 1
            got = None
    assert got == want


def test_a_reader_that_closed_stdout_ends_the_run_quietly():
    read, write = os.pipe()
    os.close(read)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "paramcodes.cli", "params", *TRIANGLE,
             "--degrees", "1..5", "--format", "csv", "--md-budget", "700"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert proc.returncode == 141
