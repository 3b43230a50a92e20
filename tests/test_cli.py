from __future__ import annotations

import gc
import importlib
import json
import pkgutil
import random
import re
import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from levode import (
    RationalFn,
    SymMatrix,
    error_ledger,
    solution_bundle,
    total_error_bound,
)
from levode import cli, errors, ode_connector, transform_engine
from levode.cli import main
from levode.ode_connector import PoleInInterval
from levode.sampling import random_problem
from levode.symexpr import BoundNotCertified, PoleInDomain, UnboundedAtInfinity
from levode.transform_engine import DivisionByZeroDenominator, OrderRegression
from levode.system_model import (
    MAX_M,
    STANDARD,
    Monomial,
    ProblemSpec,
    serialize_problem,
    validate,
)
from levode.verify import run_checks

S2_STRINGS = [
    ["(-3)/(x^6)", "0", "(6)/(x^6)"],
    ["(252*x^3 + 72)/(x^9)", "0", "(-24)/(5*x^6)"],
    ["0", "0", "(-3)/(x^6)"],
]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, doc: dict, name: str = "problem.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fixture_document() -> dict:
    from levode.fixtures import builtin_hypergeometric

    return serialize_problem(builtin_hypergeometric())


def undominated_problem() -> ProblemSpec:
    # valid, but the two exponents cross at x = 200, far beyond X = 5:
    # no solution dominates on [X, infinity)
    return validate(ProblemSpec(
        n=2,
        N=0,
        d_large=(),
        d_small=(Fraction(0), Fraction(3, 8)),
        rho=Monomial(Fraction(1), 0),
        lam=Monomial(Fraction(1), 1),
        phi1_large=(),
        phi1_small=(RationalFn.const(0), RationalFn.parse("(-75)/(x)")),
        ladder=(),
        E1=SymMatrix.zeros(2),
        a=Fraction(1),
        K=1,
        L=1,
        M=2,
        mode=STANDARD,
        X=Fraction(5),
    ))


# -- transform ----------------------------------------------------------

def test_transform_reports_first_correction(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["iterations"][0]["S"] == S2_STRINGS
    assert report["ledger"]["entries"][0]["stage"] == 1
    assert 0 < report["total_error_bound"] < 1e-7


TRANSFORM = ("transform", "--builtin", "hypergeom")
SOLVE = ("solve", "--builtin", "hypergeom", "-k", "3")
VERIFY = ("verify",)
REPORTS = (TRANSFORM, SOLVE + ("--target", "0"), VERIFY)


def test_every_report_is_byte_deterministic(capsys):
    # a report depends on the problem and the flags alone: it carries no
    # timestamp or other run metadata
    for argv in REPORTS:
        for fmt in ("json", "text"):
            first = run_cli(capsys, *argv, "--format", fmt)
            assert first[0] == 0
            assert run_cli(capsys, *argv, "--format", fmt) == first


@pytest.mark.parametrize("argv", [TRANSFORM, SOLVE, VERIFY], ids=["transform", "solve", "verify"])
def test_text_reports_print_no_none(capsys, argv):
    # a JSON null, such as stage 1's via_iteration, has words of its own in text
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "None" not in out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("transform_hypergeom.json", TRANSFORM),
        ("solve_hypergeom_k3_target0.json", SOLVE + ("--target", "0")),
        ("verify_hypergeom.json", VERIFY),
    ],
)
def test_json_report_matches_golden_file(capsys, name, argv):
    # the golden files are these reports as printed, valid JSON without a
    # timestamp; they pin every printed figure, total_error_bound,
    # norm_at_X, P_norms and eta_bound included, byte for byte
    with open(GOLDEN / name) as fh:
        assert "timestamp" not in json.load(fh)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_transform_with_lower_accuracy(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "-M", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["iterations"]) == 1
    # with everything at accuracy already, no correction term survives
    assert "S" not in report["iterations"][0]
    assert report["problem"]["M"] == 2


def test_transform_bounds_each_ledger_matrix_once(capsys, fixture_final, monkeypatch):
    # which sup bounds are taken does not depend on their values, so a
    # counting stub stands in for the real (seconds-long) bound
    calls = []

    def counting_sup_bound(f, X):
        calls.append(f)
        return Fraction(1, 10**9)

    monkeypatch.setattr(error_ledger, "sup_bound", counting_sup_bound)
    total_error_bound(fixture_final.ledger)
    bare = len(calls)
    calls.clear()
    code, _, _ = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "--format", "json"
    )
    assert code == 0
    assert 0 < len(calls) <= bare


def test_transform_with_moved_evaluation_point(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "-X", "20",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["problem"]["X"] == "20"


def test_transform_text_format_mentions_iterations(capsys):
    code, out, _ = run_cli(capsys, "transform", "--builtin", "hypergeom")
    assert code == 0
    assert "iteration" in out.lower()
    assert "error" in out.lower()
    assert "  stage 1 (input remainder E1): norm at X = " in out
    assert "  stage 2 (via iteration 1): norm at X = " in out


def test_transform_from_file(capsys, tmp_path):
    path = write_problem(tmp_path, fixture_document())
    code, out, _ = run_cli(
        capsys, "transform", "--problem", path, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["iterations"][0]["S"] == S2_STRINGS


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "transform"


# -- input rejection ----------------------------------------------------

def test_duplicate_scale_entries_rejected(capsys, tmp_path):
    doc = fixture_document()
    doc["D_small"] = ["1", "1"]
    path = write_problem(tmp_path, doc)
    code, _, err = run_cli(capsys, "transform", "--problem", path)
    assert code == 2
    assert "duplicate" in err


def test_missing_file_rejected(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "transform", "--problem", str(tmp_path / "absent.json")
    )
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_rejected(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run_cli(capsys, "transform", "--problem", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b'{"n": 1' + b"0" * 5000 + b"}"],
    ids=["not-utf8", "int-past-digit-limit"],
)
def test_undecodable_problem_file_rejected(capsys, tmp_path, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "transform", "--problem", str(path))
    assert code == 2
    assert err.startswith("cannot read problem: ")
    assert err.count("\n") == 1


def test_sum_beside_a_slash_rejected(capsys, tmp_path):
    # read at its first '/', the entry would be x/3
    doc = fixture_document()
    doc["E1"][0][0] = "x/4 - 1"
    code, out, err = run_cli(capsys, "transform", "--problem", write_problem(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == (
        "invalid input: E1: parenthesise a sum on either side of '/' in 'x/4 - 1'\n"
    )


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("E1", "(1)/(x^200000)", "E1: degree 200000 exceeds the limit 1000"),
        ("E1", "x^999999999 - x^999999999", "E1: degree 999999999 exceeds the limit 1000"),
        ("lambda", {"coeff": "1", "exp": 10**9}, "exponent of lambda exceeds the limit 1000"),
    ],
)
def test_degree_past_limit_rejected(capsys, tmp_path, field, value, message):
    doc = fixture_document()
    if field == "E1":
        doc["E1"][0][1] = value
    else:
        doc[field] = value
    code, out, err = run_cli(capsys, "transform", "--problem", write_problem(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"invalid input: {message}\n"


def test_ragged_matrix_rejected(capsys, tmp_path):
    doc = fixture_document()
    doc["E1"][1] = doc["E1"][1][:-1]
    path = write_problem(tmp_path, doc)
    code, _, err = run_cli(capsys, "transform", "--problem", path)
    assert code == 2
    assert err == "invalid input: E1 must have nonempty rows of equal length\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--builtin", "hypergeom", "-X", "abc"),
        ("solve", "--builtin", "hypergeom", "-k", "3", "--target", "abc"),
    ],
)
def test_non_numeric_point_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("invalid input: ")
    assert "'abc'" in err
    assert err.count("\n") == 1


def test_evaluation_point_before_pole_rejected(capsys):
    # E1 carries x^3 - 1 denominators, which vanish at x = 1
    code, _, err = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "-X", "1"
    )
    assert code == 2
    assert "E1 entry" in err
    assert "has a pole on [1, inf)" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--target", "0", "--rtol", "nan"), "--rtol"),
        (("--target", "0", "--rtol", "-1"), "--rtol"),
        (("--target", "0", "--rtol", "inf", "--format", "json"), "--rtol"),
        (("--atol", "0"), "--atol"),
        (("--target", "1e400"), "--target"),
        (("-X", "1e400", "--target", "0"), "evaluation point X"),
        # no continuation to sample
        (("--dense-csv", "out.csv"), "--dense-csv"),
    ],
)
def test_bad_tolerance_or_target_rejected(capsys, monkeypatch, argv, flag):
    # each is refused before the reduction runs
    def refuse(spec):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(cli, "run", refuse)
    code, out, err = run_cli(capsys, *SOLVE, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ")
    assert flag in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag,text", [("--atol", "1e-400"), ("--rtol", "1e-400"), ("--rtol", "abc")]
)
def test_tolerance_is_reported_as_written(capsys, flag, text):
    # as a float 1e-400 is 0.0; the message keeps the flag's text instead
    code, out, err = run_cli(capsys, *SOLVE, "--target", "0", flag, text)
    assert (code, out) == (2, "")
    assert err == f"invalid input: {flag} must be a positive finite number, got {text!r}\n"


def test_rtol_below_machine_resolution_rejected(capsys):
    # integrate would run at 100 machine epsilons instead, so the report
    # would name a tolerance the run never used
    code, out, err = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3", "--target", "2",
        "--rtol", "1e-20", "--atol", "1e-14",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: --rtol must be at least ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("solve", "--builtin", "hypergeom", "-k", "x"),
         "argument -k: invalid int value: 'x'"),
        (("solve", "--builtin", "hypergeom", "-k", "3", "--target"),
         "argument --target: expected one argument"),
        (("transform", "--builtin", "hypergeom", "--bogus"),
         "unrecognized arguments: --bogus"),
        ((), "the following arguments are required: command"),
    ],
)
def test_unparsable_command_line_is_one_line(capsys, argv, message):
    # argparse would print its usage text and an error line
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"invalid input: {message}\n"


def test_negative_target_without_equals_sign(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3",
        "--target", "-1/3", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["continuation"]["target"] == "-1/3"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_target_is_reported_as_written(capsys, fmt):
    # as a Fraction 1e300 is a 301-digit integer; the report keeps the
    # --target text instead
    code, out, err = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3",
        "--target", "1e300", "--format", fmt,
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["continuation"]["target"] == "1e300"
    else:
        assert out.splitlines()[-1].startswith("Y(1e300) = [")


def test_failed_continuation_prints_one_line():
    # from X = 1e300 the float Horner sums overflow on the way to 0; the
    # numpy warnings they raise must not reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "levode.cli", "solve", "--builtin", "hypergeom",
         "-k", "3", "-X", "1e300", "--target", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("computation failed: ")
    assert proc.stderr.count("\n") == 1


def test_non_finite_verify_tolerance_rejected(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--only", "error", "--tolerance", "total_error=inf",
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "invalid input: tolerance value for 'total_error' is not a finite "
        "number: 'inf'\n"
    )


@pytest.mark.parametrize("name", ["y_at_10", "total_error"])
def test_negative_verify_tolerance_rejected(capsys, name):
    code, out, err = run_cli(
        capsys, "verify", "--only", "error", "--tolerance", f"{name}=-1",
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"invalid input: tolerance value for {name!r} is negative: '-1'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--builtin", "hypergeom", "--output", "{missing}"),
        ("solve", "--builtin", "hypergeom", "-k", "3", "--target", "5",
         "--dense-csv", "{missing}"),
    ],
)
def test_unwritable_output_reported_as_write_failure(capsys, tmp_path, argv):
    missing = str(tmp_path / "absent" / "out.txt")
    code, _, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert err.startswith("cannot write output: ")
    assert missing in err
    assert err.count("\n") == 1


def test_small_M_override_rejected(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--builtin", "hypergeom", "-M", "1"
    )
    assert code == 2
    assert "at least 2" in err


def test_resonant_scales_rejected(capsys, tmp_path):
    # with a = 2 and d_small = (-1, 2), V_1's entry (2,3) = -3/x^3 has the
    # decay exponent 3 = d_3 - d_2: the first elimination divides by zero
    doc = fixture_document()
    doc["a"] = "2"
    doc["D_small"] = ["-1", "2"]
    path = write_problem(tmp_path, doc)
    for argv in (("transform",), ("solve", "-k", "3")):
        code, out, err = run_cli(capsys, *argv, "--problem", path)
        assert code == 3
        assert out == ""
        assert err == "resonance at iteration 1: d_3 - d_2 = 3 in entry (2,3)\n"


def test_gap_equal_to_m_times_a_is_no_resonance(capsys, tmp_path):
    # with a = 2, d_2 - d_3 = 2 = 1*a, but no entry of V_1 between the two
    # decays like x^-2, so no elimination denominator vanishes
    doc = fixture_document()
    doc["a"] = "2"
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(capsys, "transform", "--problem", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["iterations"][0]["P_plain"][1][2] == "(3)/(5*x^3)"
    for extra in ((), ("--target", "0")):
        code, _, _ = run_cli(capsys, "solve", "--problem", path, "-k", "3", *extra)
        assert code == 0


def test_norm_beyond_float_range_in_the_transform_report_exits_1(capsys, tmp_path):
    # with no ledger entries the total error bound is 0 and rounds no norm;
    # P_1's norm, about 2^1316, must still fail in one line
    doc = fixture_document()
    doc["ladder"] = doc["ladder"][:1]
    doc["ladder"][0]["matrix"][1][2] = f"({10**400})/(x^3)"
    doc["E1"] = [["0"] * 3 for _ in range(3)]
    doc["M"] = 2
    path = write_problem(tmp_path, doc)
    for argv, what in (
        (("transform",), "norm of P_1"),
        (("solve", "-k", "3"), "n * integral"),
    ):
        code, out, err = run_cli(capsys, *argv, "--problem", path)
        assert code == 1
        assert out == ""
        assert err == f"computation failed: {what} exceeds the float range\n"


# -- solve --------------------------------------------------------------

def test_solve_reports_value_at_X(capsys, fixture_final, fixture_eta):
    code, out, _ = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    bundle = solution_bundle(3, fixture_final, fixture_eta)
    assert report["C"] == bundle.C
    assert report["Z_at_X"] == list(bundle.Z_at_X)
    assert report["Y_at_X"] == list(bundle.Y_at_X)
    assert report["eta_bound"] == bundle.eta_bound
    assert report["k"] == 3
    assert report["Z_at_X"][2] == pytest.approx(0.09990009993337498, rel=1e-12)
    assert report["Y_at_X"][0] == pytest.approx(0.09996009933218178, rel=1e-10)
    assert report["dichotomy_ok"] is True
    assert 0 < report["eta_bound"] < 1e-6
    assert "continuation" not in report


def test_solve_continues_to_target(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3",
        "--target", "0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    cont = report["continuation"]
    assert cont["target"] == "0"
    assert cont["integrator"]["method"] == "RK45"
    assert cont["Y"][0] == pytest.approx(1.87778588, abs=1e-6)
    assert cont["Y"][2] == pytest.approx(2.0, abs=1e-6)


def test_solve_refuses_to_continue_growing_solution(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "1", "--target", "0"
    )
    assert code == 1
    assert "refusing" in err


def test_solve_rejects_out_of_range_k(capsys):
    code, _, err = run_cli(capsys, "solve", "--builtin", "hypergeom", "-k", "5")
    assert code == 2
    assert "k must be in 1..3" in err


def test_solve_needs_back_transform_for_target(capsys, tmp_path):
    path = write_problem(tmp_path, serialize_problem(undominated_problem()))
    code, _, err = run_cli(
        capsys, "solve", "--problem", path, "-k", "1", "--target", "1"
    )
    assert code == 2
    assert "back-transformation" in err


def test_solve_reports_failed_dichotomy(capsys, tmp_path):
    path = write_problem(tmp_path, serialize_problem(undominated_problem()))
    code, _, err = run_cli(capsys, "solve", "--problem", path, "-k", "1")
    assert code == 4
    assert "dichotomy fails for pairs (1,2);" in err
    # F_21 = -F_12: the pair is decided, and named, once
    assert "(2,1)" not in err


def test_solve_writes_dense_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3",
        "--target", "5", "--dense-csv", str(trace), "--format", "json",
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "x,y1,y2,y3"
    assert len(lines) == 202


@pytest.mark.parametrize(
    "k,t", [(k, t) for k in (2, 3) for t in (11, 12, 20)] + [(1, 11), (1, 12)]
)
def test_forward_target_is_the_value_at_X_moved_there(capsys, monkeypatch, k, t):
    # Levinson's form holds on [X, inf): --target t >= X evaluates it at t
    # exactly as -X t evaluates it at X, and integrates nothing
    def no_integration(*args, **kwargs):
        raise AssertionError("a forward target must not integrate")

    monkeypatch.setattr(ode_connector, "integrate", no_integration)
    code, out, _ = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", str(k),
        "--target", str(t), "--format", "json",
    )
    assert code == 0
    cont = json.loads(out)["continuation"]
    assert cont.keys() == {"target", "Y", "integrator"}
    assert cont["integrator"] == {"method": "Levinson form"}
    code, out, _ = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", str(k),
        "-X", str(t), "--format", "json",
    )
    assert code == 0
    assert cont["Y"] == json.loads(out)["Y_at_X"]


def test_forward_target_of_the_polynomial_solution(capsys, tmp_path):
    # the second solution is exactly (x, 1, 0); RK45 stopped on step-size
    # underflow on the way to 1000
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "2",
        "--target", "1000", "--dense-csv", str(trace),
    )
    assert code == 0
    assert out.splitlines()[-1] == "Y(1000) = [1000.0, 1.0, 0.0]  [Levinson form]"
    lines = trace.read_text().splitlines()
    assert len(lines) == 202
    assert lines[1] == "10.0,10.0,1.0,0.0"
    assert lines[2] == "14.95,14.95,1.0,0.0"
    assert lines[-1] == "1000.0,1000.0,1.0,0.0"


def _tail_document(c: int) -> dict:
    # G_2's integrand (1/2 + c/(x^10 + 1))/x leaves the tail c/(x^11 + x)
    # beyond accuracy, whose integral over [10, inf) is bounded by c*10^-11
    return {
        "n": 2, "N": 0, "D_large": [], "D_small": ["0", "1/2"],
        "rho": {"coeff": "1", "exp": -1}, "lambda": {"coeff": "1", "exp": 1},
        "phi1": ["0", f"({c})/(x^10 + 1)"], "ladder": [],
        "E1": [["0", "0"], ["0", "0"]],
        "a": "1", "L": 1, "M": 2, "mode": "inverse_x", "X": "10",
    }


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "c,what",
    [
        (10**14, "eta bound with the exponent tail of G_2"),
        (10**400, "exponent tail budget of G_2"),
    ],
    ids=["expm1", "tail"],
)
def test_exponent_tail_beyond_float_range_exits_1(capsys, tmp_path, fmt, c, what):
    path = write_problem(tmp_path, _tail_document(c))
    code, out, err = run_cli(capsys, "solve", "--problem", path, "-k", "2", "--format", fmt)
    assert code == 1
    assert out == ""
    assert err == f"computation failed: {what} exceeds the float range\n"


def test_solve_overflowing_value_exits_1(capsys):
    # exp(G_1(20)) is about 1.6e1154, beyond the float range; the JSON
    # report must not carry it as Infinity
    code, out, err = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "1", "-X", "20",
        "--format", "json",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed: Z_1(20) = 1.6427925e+1154")
    assert err.count("\n") == 1


# -- computation failures -------------------------------------------------

@pytest.mark.parametrize(
    "module,name,error",
    [
        (cli, "run", OrderRegression("term decays slower than promised")),
        (error_ledger, "sup_bound", BoundNotCertified("cannot certify the bound")),
        (error_ledger, "sup_bound", PoleInDomain("denominator vanishes on [10, inf)")),
        (error_ledger, "sup_bound", UnboundedAtInfinity("leading power 1 > 0 on [10, inf)")),
        (cli, "run", PoleInInterval("entry (1,1) has a pole at 0 in [0, 10]")),
    ],
    ids=["order-regression", "bound-not-certified",
         "pole-in-domain", "unbounded-at-infinity", "pole-in-interval"],
)
def test_computation_failure_exits_1(capsys, monkeypatch, module, name, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, fail)
    code, out, err = run_cli(capsys, "transform", "--builtin", "hypergeom")
    assert code == 1
    assert out == ""
    assert err == f"computation failed: {error}\n"


def test_expansion_cap_exceeded_exits_1(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(transform_engine, "_EXPANSION_CAP", 0)
    doc = serialize_problem(random_problem(random.Random(2024)))
    code, out, err = run_cli(capsys, "transform", "--problem", write_problem(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err == (
        "computation failed: expansion of V2 at iteration 1 did not reach accuracy\n"
    )


@pytest.mark.parametrize(
    "target,code", [("0", 1), ("5", 0)], ids=["across-the-pole", "short-of-it"]
)
def test_continuation_stops_at_a_pole(capsys, tmp_path, target, code):
    # with a zero E1 the built-in's derived A has a pole in [0, 10]
    doc = fixture_document()
    doc["E1"] = [["0"] * 3 for _ in range(3)]
    path = write_problem(tmp_path, doc)
    got, out, err = run_cli(capsys, "solve", "--problem", path, "-k", "3", "--target", target)
    assert got == code
    if code:
        assert out == ""
        assert err == "computation failed: entry (1,1) has a pole in [0, 10]\n"
    else:
        assert err == ""


def test_zero_denominator_exits_3(capsys, monkeypatch):
    error = DivisionByZeroDenominator(
        "resonance at iteration 1: d_3 - d_2 = 3 in entry (2,3)"
    )

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    code, out, err = run_cli(capsys, "transform", "--builtin", "hypergeom")
    assert code == 3
    assert out == ""
    assert err == f"{error}\n"


def test_elimination_identity_violation_exits_1(capsys, monkeypatch):
    # a nonzero defect stands in for a broken elimination step; it replaces
    # the defect run() computes itself, not the cached entry points
    monkeypatch.setattr(
        transform_engine,
        "_elimination_defect",
        lambda *args: SymMatrix([[RationalFn.x_power(-7)]]),
    )
    code, out, err = run_cli(capsys, "transform", "--builtin", "hypergeom")
    assert code == 1
    assert out == ""
    assert err == (
        "computation failed: elimination identity violated at iteration 1: "
        "defect leading order -7\n"
    )


def test_expansion_past_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(SymMatrix, "order_at_most", lambda mat, exponent: False)
    code, out, err = run_cli(capsys, "transform", "--builtin", "hypergeom")
    assert code == 1
    assert out == ""
    assert err == (
        "computation failed: expansion of Qtilde_deriv at iteration 1 "
        "did not reach accuracy\n"
    )


def test_continuation_past_the_step_budget_exits_1(capsys, monkeypatch):
    # the continuation to 0 takes about 1,000 RK45 steps; with a budget of
    # 100 it is refused in one line naming the target and the budget
    monkeypatch.setattr(ode_connector, "_MAX_STEPS", 100)
    code, out, err = run_cli(
        capsys, "solve", "--builtin", "hypergeom", "-k", "3", "--target", "0"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "computation failed: the continuation to x = 0.0 needs more than "
        "100 RK45 steps\n"
    )


HUGE = Fraction(10**400)


@pytest.mark.parametrize(
    "stubs,argv,what",
    [
        ({"sup_bound": lambda f, X: HUGE}, TRANSFORM,
         "n*norm(accumulated transform at stage 1)"),
        ({"sup_bound": lambda f, X: HUGE,
          "_inverse_deviation": lambda *args: Fraction(0)}, TRANSFORM,
         "total error bound"),
        ({"integral_tail_bound": lambda mat, X: HUGE}, SOLVE, "n * integral"),
        ({"integral_tail_bound": lambda mat, X: Fraction(1, 3) - 1 / HUGE},
         SOLVE, "eta bound"),
    ],
    ids=["contraction-message", "total", "eta-message", "eta"],
)
def test_bound_beyond_float_range_exits_1(capsys, monkeypatch, stubs, argv, what):
    # an exact bound past about 1e308 has no float to be rounded to
    for name, stub in stubs.items():
        monkeypatch.setattr(error_ledger, name, stub)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"computation failed: {what} exceeds the float range\n"


@pytest.mark.parametrize(
    "argv,fmt,count",
    [(TRANSFORM, "json", 6), (TRANSFORM, "text", 4), (SOLVE, "json", 2), (SOLVE, "text", 2)],
    ids=["transform-json", "transform-text", "solve-json", "solve-text"],
)
def test_bound_below_float_range_stays_positive(capsys, argv, fmt, count):
    # at X = 1e400 every exact bound is positive and far below the least
    # positive float, which is what it reports: never 0.  The transform
    # report has the total, two P norms and three stage norms (the text
    # one no P norms); solve has eta and the total
    code, out, err = run_cli(capsys, *argv, "-X", "1e400", "--format", fmt)
    assert code == 0
    assert err == ""
    if fmt == "json":
        report = json.loads(out)
        bounds = [report["total_error_bound"]]
        if argv == TRANSFORM:
            ledger = report["ledger"]
            bounds += ledger["P_norms"] + [e["norm_at_X"] for e in ledger["entries"]]
        else:
            bounds.append(report["eta_bound"])
    else:
        bounds = [float(v) for v in re.findall(r"(?:bound|norm at X)\s*[:=]\s*(\S+)", out)]
    assert len(bounds) == count
    assert all(0 < b < 1e-300 for b in bounds), bounds


@pytest.mark.parametrize("x_flag", [(), ("-X", "1e400")], ids=["builtin", "X-1e400"])
@pytest.mark.parametrize("argv", [TRANSFORM, SOLVE], ids=["transform", "solve"])
def test_text_bounds_are_at_least_their_json_floats(capsys, argv, x_flag):
    # a text report rounds each bound up at its last printed digit: to
    # nearest, solve -k 3 printed a total of 2.283149e-08 for the float
    # 2.2831494880328522e-08, and at X = 1e400 4.940656e-324 for 5e-324
    code, out, _ = run_cli(capsys, *argv, *x_flag, "--format", "json")
    assert code == 0
    report = json.loads(out)
    if argv == TRANSFORM:
        floats = [e["norm_at_X"] for e in report["ledger"]["entries"]]
        floats.append(report["total_error_bound"])
    else:
        floats = [
            report["eta_bound"], report["total_error_bound"],
            report["exponent"]["tail_budget"],
        ]
    code, out, _ = run_cli(capsys, *argv, *x_flag)
    assert code == 0
    texts = re.findall(r"(?:bound|norm at X|tail budget)\s*[:=]?\s*(\S+)", out)
    assert len(texts) == len(floats)
    for text, bound in zip(texts, floats):
        assert Decimal(text) >= Decimal(bound), (text, bound)


CATEGORIES = (
    errors.InvalidInput,
    errors.ComputationFailed,
    errors.Resonance,
    errors.DichotomyFailure,
    errors.ContinuationRefused,
)


def test_every_exception_class_has_exactly_one_category():
    # main maps a failure to its exit code by its category alone
    import levode

    seen = []
    for info in pkgutil.iter_modules(levode.__path__):
        module = importlib.import_module(f"levode.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
                and obj is not errors.LevodeError
            ):
                seen.append(obj.__name__)
                assert sum(issubclass(obj, c) for c in CATEGORIES) == 1, obj
    # the walk is not vacuous: each module's own classes are found
    assert {"ParseError", "SchemaError", "BoundOverflow", "PoleInInterval",
            "OrderRegression", "SolutionOverflow", "UsageError"} <= set(seen)


# -- verify -------------------------------------------------------------

def test_verify_symbolic_group_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--only", "symbolic", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(r["group"] == "symbolic" for r in report["rows"])
    assert report["rows"]


def test_verify_identity_row_fails_on_a_defect(monkeypatch):
    monkeypatch.setattr(
        transform_engine,
        "_elimination_defect",
        lambda *args: SymMatrix([[RationalFn.x_power(-7)]]),
    )
    rows = {r.name: r for r in run_checks(only="symbolic")}
    row = rows["elimination_identity_sample"]
    assert not row.passed
    assert row.computed == "defect at spec 0"


def test_verify_fails_under_impossible_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--only", "continuation",
        "--tolerance", "y_at_0_regression=1e-12",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_unknown_tolerance_name(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--only", "symbolic", "--tolerance", "nope=1"
    )
    assert code == 2
    assert out == ""
    assert err == "invalid input: tolerance override for unknown check: ['nope']\n"


def test_verify_rejects_a_tolerance_for_an_exact_row(capsys):
    # an exact row has no tolerance to replace: the override would be
    # printed as "tolerance=exact" and never read
    code, out, err = run_cli(capsys, "verify", "--tolerance", "s1_matrix=1")
    assert code == 2
    assert out == ""
    assert err == "invalid input: tolerance override for exact check: ['s1_matrix']\n"
    with pytest.raises(errors.InvalidInput, match="exact check: .'s1_matrix'.$"):
        run_checks(tolerance_overrides={"s1_matrix": 1})
    # a bad value is refused first, then an unknown name, then an exact row
    with pytest.raises(errors.InvalidInput, match="for 's1_matrix' is negative"):
        run_checks(tolerance_overrides={"s1_matrix": -1})
    with pytest.raises(errors.InvalidInput, match="unknown check: .'nope'.$"):
        run_checks(tolerance_overrides={"s1_matrix": 1, "nope": 1})


def test_verify_rejects_malformed_tolerance(capsys):
    code, _, err = run_cli(capsys, "verify", "--tolerance", "justaname")
    assert code == 2
    assert "NAME=VALUE" in err


@pytest.mark.parametrize(
    "value, message",
    [
        (-1, "is negative: -1"),
        (float("nan"), "is not a finite number: nan"),
        (float("inf"), "is not a finite number: inf"),
    ],
)
def test_run_checks_rejects_a_bad_tolerance(value, message):
    # a library caller meets the command line's rule, value errors before
    # unknown names and exact rows; an infinite tolerance would pass y_at_10
    # whatever it computed, and -1 or nan would fail it without a word
    overrides = {"nope": 1, "s1_matrix": 1, "y_at_10": value}
    with pytest.raises(errors.InvalidInput) as info:
        run_checks(only="asymptotic", tolerance_overrides=overrides)
    assert str(info.value) == f"tolerance value for 'y_at_10' {message}"
    rows = run_checks(only="asymptotic", tolerance_overrides={"y_at_10": Fraction(1, 2)})
    assert [(r.tolerance, r.passed) for r in rows if r.name == "y_at_10"] == [(0.5, True)]


# -- exit-code contract under fuzzed flags -------------------------------

def _strict_json_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_fuzzed_flags_keep_the_exit_code_contract(capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    def optional(flag, values):
        # the --flag=value form keeps values such as -1 from reading as flags
        return st.one_of(
            st.just(()), st.sampled_from(values).map(lambda v: (f"{flag}={v}",))
        )

    def target_flag(values):
        # --target also takes a negative value as the next argument
        return st.one_of(
            optional("--target", values),
            st.sampled_from(values).map(lambda v: ("--target", v)),
        )

    numbers = ["nan", "inf", "-1", "0", "1e400", "1e-6", "1e-10"]
    forward = dict(command="solve", fmt="json", M=(), rtol=(), atol=())

    @settings(max_examples=30, deadline=None)
    # forward targets, which random draws seldom reach
    @example(**forward, k="3", X=(), target=("--target", "12"))
    @example(**forward, k="2", X=("-X=5",), target=("--target=5",))
    @example(**dict(forward, M=("-M=2",), rtol=("--rtol=1e-6",)), k="1", X=("-X=5",),
             target=("--target", "12"))
    @given(
        command=st.sampled_from(["transform", "solve"]),
        fmt=st.sampled_from(["text", "json"]),
        k=st.sampled_from(["0", "1", "2", "3", "4", "x"]),
        X=optional("-X", ["5", "10", "20", "1/3", "1e400", "abc"]),
        M=optional("-M", ["1", "2", "3", "4"]),
        target=target_flag(["0", "5", "12", "-1", "-1/3", "-1e400", "1e400", "nan"]),
        rtol=optional("--rtol", numbers),
        atol=optional("--atol", numbers),
    )
    def check(command, fmt, k, X, M, target, rtol, atol):
        argv = [command, "--builtin", "hypergeom", "--format", fmt, *X, *M]
        if command == "solve":
            argv += ["-k", k, *target, *rtol, *atol]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in {0, 1, 2, 3, 4}
        if code:
            assert err.count("\n") <= 1, err
        if fmt == "json" and out:
            report = json.loads(out, parse_constant=_strict_json_constant)
            cont = report.get("continuation")
            if code == 0 and cont and cont["integrator"] == {"method": "Levinson form"}:
                # a forward target is the value at X moved there, bit for bit
                at_target = [
                    "solve", "--builtin", "hypergeom", "--format", fmt, *M,
                    "-k", k, *rtol, *atol, f"-X={cont['target']}",
                ]
                assert main(at_target) == 0
                moved = json.loads(capsys.readouterr().out)["Y_at_X"]
                assert list(map(float.hex, moved)) == list(map(float.hex, cont["Y"]))

    check()


# the locations a mutation may drop or overwrite, as paths into the
# serialised built-in problem
DOCUMENT_PATHS = [
    *[(key,) for key in fixture_document()],
    ("rho", "exp"), ("lambda", "exp"), ("lambda", "coeff"),
    ("phi1", 0), ("phi1", 2), ("E1", 0, 1), ("E1", 2, 2),
    ("ladder", 0, "j"), ("ladder", 0, "matrix"), ("ladder", 0, "matrix", 1, 0),
    ("ladder", 1, "matrix", 2, 2), ("back_transform", 2, 0),
]

WRONG_TYPES = [None, True, 1.5, -1, 0, "abc", "1/0", [], {}, [[]], [["0"]]]

HUGE_EXPONENTS = [
    "x^1001", "(1)/(x^100000)", "x^99999999999", "(1)/(x^1000)", "x^1000",
    "(1)/(x^" + "9" * 5000 + ")", 10**12, -(10**12), 1000,
]

# an accuracy index past the limit on a zero E1, which would otherwise be
# valid and make the reduction and its bounds run for minutes
LARGE_M_ZERO_E1 = [
    [(("M",), M), (("E1",), [["0"] * 3 for _ in range(3)])]
    for M in (MAX_M + 1, 100, 10**6)
]

# denominators that vanish at X = 10 or beyond it: at x = 12, at X itself,
# near x = 14.1, and a double root at x = 11
POLES_FROM_X = [
    "(1)/(x^12 - 12*x^11)", "(1)/(x^12 - 10*x^11)", "(1)/(x^2 - 200)",
    "(1)/(x^11 - 22*x^10 + 121*x^9)",
]


def test_accuracy_index_past_the_limit_exits_2(capsys, tmp_path):
    doc = fixture_document()
    doc["M"] = MAX_M + 1
    doc["E1"] = [["0"] * 3 for _ in range(3)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["transform", "--problem", str(path)],
        ["transform", "--builtin", "hypergeom", "-M", str(MAX_M + 1)],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("invalid input:") and err.count("\n") == 1, err
        assert f"exceeds the limit {MAX_M}" in err


def test_fuzzed_problem_documents_keep_the_exit_code_contract(capsys, tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    DROP = object()

    def mutate(doc, path, value):
        *head, last = path
        try:
            for key in head:
                doc = doc[key]
            if value is DROP:
                del doc[last]
            else:
                doc[last] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped the location

    # each mutation is a list of (path, value) edits made together
    mutation = st.one_of(
        st.tuples(
            st.sampled_from(DOCUMENT_PATHS),
            st.sampled_from([DROP, *WRONG_TYPES, *HUGE_EXPONENTS, *POLES_FROM_X]),
        ).map(lambda edit: [edit]),
        st.sampled_from(LARGE_M_ZERO_E1),
    )

    @settings(max_examples=25, deadline=None)
    @given(
        mutations=st.lists(mutation, min_size=1, max_size=3),
        command=st.sampled_from([
            ("transform",), ("solve", "-k", "3"), ("solve", "-k", "3", "--target", "0"),
        ]),
        fmt=st.sampled_from(["text", "json"]),
    )
    def check(mutations, command, fmt):
        doc = fixture_document()
        for edits in mutations:
            for path, value in edits:
                mutate(doc, path, value)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code = main([*command, "--problem", str(path), "--format", fmt])
        out, err = capsys.readouterr()
        assert code in {0, 1, 2, 3, 4}
        if code:
            assert err.count("\n") <= 1, err
        if fmt == "json" and out:
            json.loads(out, parse_constant=_strict_json_constant)

    check()


# -- console entry point ------------------------------------------------

def _console_script() -> list[str]:
    """The installed ``levode`` script when there is one; otherwise what
    the script pip generates from ``[project.scripts]`` runs: the target
    called, its value the exit code."""
    script = shutil.which("levode")
    if script is not None:
        return [script]
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    entry = re.search(
        r'^\[project\.scripts\][^\[]*?^levode\s*=\s*"([\w.]+):(\w+)"', pyproject, re.M
    )
    assert entry, "pyproject.toml declares no levode console script"
    module, name = entry.groups()
    assert callable(getattr(importlib.import_module(module), name))
    return [sys.executable, "-c", f"import sys; from {module} import {name}; sys.exit({name}())"]


ENTRY_POINTS = {
    "console-script": _console_script,
    "module": lambda: [sys.executable, "-m", "levode.cli"],
}


def test_installed_script_runs():
    proc = subprocess.run(
        [*_console_script(), "transform", "--builtin", "hypergeom", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "transform"


OUTPUT_FILES = [
    (TRANSFORM + ("--format", "json"), False),
    (TRANSFORM, False),
    (SOLVE + ("--target", "5", "--format", "json"), True),
    (SOLVE + ("--target", "0"), False),
]


def _written_files(folder: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in folder.iterdir()}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_write_complete_files(capsys, tmp_path, entry):
    # the entry points freeze the collector before the interpreter
    # finalises; every file must be closed and whole by then
    command = ENTRY_POINTS[entry]()
    for i, (argv, dense) in enumerate(OUTPUT_FILES):
        process, in_process = tmp_path / f"process-{i}", tmp_path / f"in-process-{i}"
        for folder in (process, in_process):
            folder.mkdir()
            flags = ["--output", str(folder / "report")]
            if dense:
                flags += ["--dense-csv", str(folder / "trace.csv")]
            if folder is process:
                proc = subprocess.run(
                    [*command, *argv, *flags], capture_output=True, text=True, timeout=120
                )
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
            else:
                assert run_cli(capsys, *argv, *flags) == (0, "", "")
        assert _written_files(process) == _written_files(in_process)
        assert len(_written_files(process)) == 1 + dense


@pytest.mark.parametrize(
    "argv,want",
    [(TRANSFORM, 0), (SOLVE + ("--target", "0"), 0), (TRANSFORM + ("-M", "1"), 2)],
    ids=["transform", "solve", "exit-2"],
)
def test_only_the_entry_point_freezes_the_collector(capsys, monkeypatch, argv, want):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert run_cli(capsys, *argv)[0] == want
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)

    calls = []
    monkeypatch.setattr(sys, "argv", ["levode", *argv])
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(gc.get_freeze_count()))
    assert cli.program() == want
    assert calls == [frozen]


def test_cli_import_leaves_numerics_unloaded():
    # only continuation integrates, so loading the CLI must not pay for scipy
    proc = subprocess.run(
        [sys.executable, "-c",
         "import levode.cli, sys; print('scipy' in sys.modules, 'numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["False", "False"]


def test_verify_leaves_scipy_unloaded():
    # verify's quadrature is mpmath's; scipy is only a test oracle
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, levode.cli; code = levode.cli.main(['verify']); "
         "print(code, 'scipy' in sys.modules, file=sys.stderr)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr.split() == ["0", "False"]
    assert "16/16 checks passed" in proc.stdout


def _modules_loaded_by(argv: list[str], names: list[str]) -> tuple[int, list[str], str]:
    """Exit code, the ``names`` in sys.modules after ``main(argv)`` in a
    fresh interpreter, and stdout."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, levode.cli; code = levode.cli.main(sys.argv[2:]); "
         "names = sys.argv[1].split(','); "
         "print(code, *[n for n in names if n in sys.modules], file=sys.stderr)",
         ",".join(names), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, *loaded = proc.stderr.split()
    return int(code), loaded, proc.stdout


def test_transform_loads_only_the_reduction():
    code, loaded, out = _modules_loaded_by(
        ["transform", "--builtin", "hypergeom", "--format", "json"],
        ["levode.levinson_solver", "levode.ode_connector", "levode.verify",
         "numpy", "mpmath"],
    )
    assert (code, loaded) == (0, [])
    assert json.loads(out)["command"] == "transform"


def test_solve_leaves_mpmath_scipy_and_verify_unloaded():
    # the integrator is levode's own, and solution values need no mpmath
    code, loaded, out = _modules_loaded_by(
        ["solve", "--builtin", "hypergeom", "-k", "3", "--target", "0"],
        ["levode.verify", "mpmath", "scipy", "csv", "levode.levinson_solver", "numpy"],
    )
    # the solver and numpy do load: the check above is not vacuous
    assert (code, loaded) == (0, ["levode.levinson_solver", "numpy"])
    assert "Y(0) = [1.8777858808658072, " in out


def test_dense_csv_loads_csv(tmp_path):
    trace = tmp_path / "trace.csv"
    code, loaded, _ = _modules_loaded_by(
        ["solve", "--builtin", "hypergeom", "-k", "3", "--target", "5",
         "--dense-csv", str(trace)],
        ["csv"],
    )
    assert (code, loaded) == (0, ["csv"])
    assert trace.read_text().startswith("x,y1,y2,y3\n")


def test_integrator_import_leaves_the_solver_unloaded():
    # SolutionOverflow comes from levode.errors, not from the solver
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, levode.ode_connector; "
         "print('levode.errors' in sys.modules, 'levode.levinson_solver' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["True", "False"]


def test_package_exports_resolve():
    import levode

    assert set(levode.__all__) == {
        "ComputationFailed", "ContractionFailure", "DivergentIntegral",
        "ErrorLedger", "INVERSE_X", "InvalidInput", "InvariantViolation",
        "LedgerEntry", "LevodeError", "LinearSystem",
        "MissingBackTransform", "Monomial", "OrderRegression",
        "PoleInInterval", "RationalFn", "STANDARD", "SchemaError",
        "StepSizeUnderflow", "SymMatrix", "back_transform",
        "builtin_hypergeometric", "check_dichotomy", "derive_original_system",
        "eta_bound", "exponent_data", "integrate", "linear_system",
        "load_problem", "matrix_norm_bound", "run", "serialize_problem",
        "solution_bundle", "total_error_bound", "validate",
    }
    for name in levode.__all__:
        value = getattr(levode, name)
        assert getattr(value, "__name__", name) == name
    namespace: dict = {}
    exec("from levode import *", namespace)
    assert set(levode.__all__) <= set(namespace)
    assert set(levode.__all__) <= set(dir(levode))
    with pytest.raises(AttributeError):
        levode.no_such_name
