"""Command-line interface: transform, solve, verify.

Exit codes: 0 success; 1 verification failure, refused continuation, or a
failed computation (an uncertified or divergent bound, a reduction step
that breaks down, a bound or solution value beyond the float range);
2 invalid input (schema, invariant, file, flags) or an output that cannot
be written; 3 resonance, a zero denominator d_j - d_i - s met by the
elimination; 4 dichotomy failure.  Every failure but an unwritable output
is a ``LevodeError``, raised by the stage that meets it: ``main`` prints
its category's prefix and message as one line on stderr and returns its
category's exit code (``levode.errors``).  JSON reports never contain
Infinity or NaN, and carry no timestamp: equal runs print equal bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

from .error_ledger import _to_float, bound_ledger, eta_bound, total_error_bound
from .errors import (
    ContinuationRefused,
    DichotomyFailure,
    InvalidInput,
    LevodeError,
)
from .fixtures import BUILTINS, CHECK_GROUPS
from .system_model import (
    ProblemSpec,
    load_problem,
    validate,
)
from .transform_engine import run

# solve imports the solver and the integrator, verify its check suite:
# transform loads neither

SCHEMA_VERSION = 1


class ProblemUnreadable(InvalidInput):
    """The problem file could not be opened or is not JSON."""

    prefix = "cannot read problem: "


class UsageError(InvalidInput):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage and exit, so
    that a bad command line gets the one ``invalid input:`` line and exit 2
    of every other bad input.  Subcommand parsers share the class."""

    def error(self, message):
        raise UsageError(message)


def _target_values_attached(argv: list[str]) -> list[str]:
    """``--target V`` written as ``--target=V``, so that argparse takes a
    negative V such as -1/3 as the value instead of as a flag."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--target":
            value = next(tokens, None)
            if value is not None:
                tok = f"--target={value}"
        out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levode",
        description=(
            "Reduce a singular linear ODE system by repeated transformations, "
            "evaluate its asymptotic solutions with error bounds, and continue "
            "them numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    transform = sub.add_parser(
        "transform", help="run the reduction and report the transcript"
    )
    _add_common(transform)

    solve = sub.add_parser(
        "solve", help="evaluate one asymptotic solution, optionally continue it"
    )
    _add_common(solve)
    solve.add_argument("-k", type=int, required=True, help="solution index (1-based)")
    solve.add_argument("--target", help="continuation target point (rational)")
    solve.add_argument("--rtol", default="1e-10")
    solve.add_argument("--atol", default="1e-12")
    solve.add_argument("--dense-csv", metavar="PATH", help="write dense output CSV")

    verify = sub.add_parser("verify", help="run the built-in check suite")
    verify.add_argument("--only", choices=CHECK_GROUPS, help="run a single check group")
    verify.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a check tolerance (repeatable)",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--output", metavar="PATH")
    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", choices=sorted(BUILTINS), help="built-in problem name")
    g.add_argument("--problem", metavar="PATH", help="problem description JSON file")
    p.add_argument(
        "-M",
        dest="M_override",
        type=int,
        help="override the accuracy stage count (rungs beyond it fold into E1)",
    )
    p.add_argument("-X", dest="X_override", help="override the evaluation point")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH")


def _load_spec(args) -> ProblemSpec:
    if args.builtin:
        spec = BUILTINS[args.builtin]()
    else:
        try:
            with open(args.problem) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON, UTF-8 or int-size errors
            raise ProblemUnreadable(exc) from None
        spec = load_problem(doc)
    if args.M_override is not None:
        spec = validate(spec.with_M(args.M_override))
    if args.X_override is not None:
        spec = validate(spec.with_X(_rational_flag(args.X_override, "-X")))
    return spec


def _rational_flag(value: str, flag: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(
            f"{flag} must be a rational number, got {value!r}"
        ) from None


def _tolerance_flag(text: str, flag: str) -> float:
    """The flag's float, which must be positive and finite; the message
    names the text, since a value such as 1e-400 reads 0.0 as a float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise InvalidInput(f"{flag} must be a positive finite number, got {text!r}")
    return value


def _float_range(value: Fraction, what: str) -> None:
    try:
        float(value)
    except OverflowError:
        raise InvalidInput(f"{what} is beyond the float range") from None


def _emit(args, report: dict, render) -> None:
    """Writes a command's report once, to ``--output`` or to stdout: as
    sorted JSON under the schema version and the command's name, or as
    ``render``'s text.  Equal runs write equal bytes."""
    report = {"schema": SCHEMA_VERSION, "command": args.command, **report}
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = render(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _problem_summary(spec: ProblemSpec, args) -> dict:
    return {
        "source": args.builtin or args.problem,
        "n": spec.n,
        "N": spec.N,
        "M": spec.M,
        "a": str(spec.a),
        "mode": spec.mode,
        "X": str(spec.X),
    }


def _cmd_transform(args) -> dict:
    spec = _load_spec(args)
    fs = run(spec)
    iterations = []
    for rec in fs.iterations:
        entry = {
            "m": rec.m,
            "P_scaled": rec.psplit.scaled.to_strings(),
            "P_plain": rec.psplit.plain.to_strings(),
            "lambda": [f.to_string() for f in rec.lambda_next],
            "nu": {label: nu for label, nu in rec.nu_choices},
            "bucket_orders": {str(k): str(lo) for k, lo in rec.bucket_orders},
        }
        if not rec.s_next.is_zero:
            entry["S"] = rec.s_next.to_strings()
        iterations.append(entry)
    ledger = fs.ledger
    norms = bound_ledger(ledger)
    return {
        "problem": _problem_summary(spec, args),
        "lambda1": [f.to_string() for f in spec.lambda1_diagonal()],
        "S1": fs.dominant_terms[0].to_strings(),
        "iterations": iterations,
        "ledger": {
            "entries": [
                {
                    "stage": e.stage,
                    "via_iteration": e.via_iteration,
                    "matrix": e.matrix.to_strings(),
                    "norm_at_X": _to_float(norm, f"norm of stage {e.stage} at X"),
                }
                for e, norm in zip(ledger.entries, norms.entries)
            ],
            "P_norms": [
                _to_float(norm, f"norm of P_{m}")
                for m, norm in enumerate(norms.p_matrices, start=1)
            ],
        },
        "residual_leading_order": str(fs.residual.max_leading_order()),
        "total_error_bound": norms.total,
    }


def _bound_text(bound: float, digits: int) -> str:
    """``f"{bound:.{digits}e}"`` rounded up at its last digit instead of to
    nearest, so that a text report never prints a bound below the float its
    JSON report carries."""
    up = Context(prec=digits + 1, rounding=ROUND_CEILING).plus(Decimal(bound))
    exponent = up.adjusted()
    return f"{up.scaleb(-exponent):.{digits}f}e{exponent:+03d}"


def _render_matrix(rows: list[list[str]], indent: str = "  ") -> str:
    return "\n".join(indent + "[" + ", ".join(row) + "]" for row in rows)


def _transform_text(report: dict) -> str:
    lines = [
        f"problem: {report['problem']['source']}  "
        f"(n={report['problem']['n']}, M={report['problem']['M']}, "
        f"a={report['problem']['a']}, mode={report['problem']['mode']}, "
        f"X={report['problem']['X']})",
        "Lambda_1 diagonal:",
    ]
    lines += [f"  {s}" for s in report["lambda1"]]
    lines.append("S_1:")
    lines.append(_render_matrix(report["S1"]))
    for it in report["iterations"]:
        lines.append(f"iteration m={it['m']}:")
        lines.append("  P (scaled part):")
        lines.append(_render_matrix(it["P_scaled"], "    "))
        lines.append("  P (plain part):")
        lines.append(_render_matrix(it["P_plain"], "    "))
        if "S" in it:
            lines.append(f"  S_{it['m'] + 1}:")
            lines.append(_render_matrix(it["S"], "    "))
        else:
            lines.append(f"  S_{it['m'] + 1}: 0")
        lines.append("  new diagonal:")
        lines += [f"    {s}" for s in it["lambda"]]
        lines.append(f"  expansion depths: {it['nu']}")
    lines.append("error ledger:")
    for e in report["ledger"]["entries"]:
        via = e["via_iteration"]
        via = "input remainder E1" if via is None else f"via iteration {via}"
        lines.append(
            f"  stage {e['stage']} ({via}): norm at X = {_bound_text(e['norm_at_X'], 6)}"
        )
    lines.append(f"residual leading order: {report['residual_leading_order']}")
    lines.append(f"total error bound: {_bound_text(report['total_error_bound'], 8)}")
    return "\n".join(lines)


def _cmd_solve(args) -> dict:
    from .levinson_solver import (
        FORM_INFO,
        back_transform,
        check_dichotomy,
        derive_original_system,
        growing_terms,
        require_back_transform,
        solution_bundle,
    )
    from .ode_connector import (
        DENSE_POINTS,
        METHOD_INFO,
        MIN_RTOL,
        integrate,
        linear_system,
        write_dense,
    )

    rtol = _tolerance_flag(args.rtol, "--rtol")
    atol = _tolerance_flag(args.atol, "--atol")
    if rtol < MIN_RTOL:
        # integrate refuses it as well, but only after the reduction ran
        raise InvalidInput(
            f"--rtol must be at least {MIN_RTOL!r} (100 machine epsilons), got {args.rtol!r}"
        )
    if args.dense_csv is not None and args.target is None:
        raise InvalidInput("--dense-csv needs --target: it samples the continuation")
    spec = _load_spec(args)
    if not 1 <= args.k <= spec.n:
        raise InvalidInput(f"k must be in 1..{spec.n}, got {args.k}")
    target = None if args.target is None else _rational_flag(args.target, "--target")
    if target is not None:
        require_back_transform(spec)
        _float_range(target, f"--target {args.target}")
        _float_range(spec.X, "the evaluation point X")
    fs = run(spec)
    dichotomy = check_dichotomy(spec, fs.diag)
    if not dichotomy.ok_for(args.k):
        # F_kj = -F_jk: each unordered pair is decided once
        bad = [
            f"({p.j},{p.k})" for p in dichotomy.pairs
            if p.j < p.k and args.k in (p.j, p.k) and not p.ok
        ]
        raise DichotomyFailure(
            f"dichotomy fails for pairs {', '.join(bad)}; the deviation bound "
            "for this solution is not certified"
        )

    bundle = solution_bundle(args.k, fs, eta_bound(fs.residual, spec))
    data = bundle.exponent

    report = {
        "problem": _problem_summary(spec, args),
        "k": args.k,
        "C": bundle.C,
        "Z_at_X": list(bundle.Z_at_X),
        "eta_bound": bundle.eta_bound,
        "total_error_bound": total_error_bound(fs.ledger),
        "exponent": {
            "log_coefficient": str(data.log_coefficient),
            "terms": [[str(c), e] for c, e in data.laurent_terms],
            "tail_budget": bundle.tail_budget,
        },
        "dichotomy_ok": dichotomy.ok,
    }
    if bundle.Y_at_X is not None:
        report["Y_at_X"] = list(bundle.Y_at_X)

    if target is not None and target >= spec.X:
        # Levinson's form holds on [X, inf): Y is evaluated there as at X
        xs = [target]
        if args.dense_csv and target > spec.X:
            step = (target - spec.X) / (DENSE_POINTS - 1)
            xs = [spec.X + i * step for i in range(DENSE_POINTS)]
        rows = [
            back_transform(data.solution_at(x, spec.n), fs.history, spec, x)
            for x in xs
        ]
        if args.dense_csv:
            write_dense(args.dense_csv, xs, rows)
        report["continuation"] = {
            "target": args.target,
            "Y": list(rows[-1]),
            "integrator": FORM_INFO,
        }
    elif target is not None:
        growing = [f"{c}*x^{e + 1}/{e + 1}" for c, e in growing_terms(data)]
        if growing:
            raise ContinuationRefused(
                f"solution k={args.k} grows exponentially toward infinity "
                f"(exponent term {', '.join(growing)}); continuing it backward "
                "from X would amplify the uncertified dominant part, refusing"
            )
        A = derive_original_system(spec)
        y_target = integrate(
            linear_system(A, target, spec.X),
            report["Y_at_X"],
            spec.X,
            target,
            rtol=rtol,
            atol=atol,
            dense_path=args.dense_csv,
        )
        report["continuation"] = {
            "target": args.target,
            "Y": list(y_target),
            "rtol": rtol,
            "atol": atol,
            "integrator": METHOD_INFO,
        }
    return report


def _solve_text(report: dict) -> str:
    lines = [
        f"problem: {report['problem']['source']}  (X={report['problem']['X']})",
        f"solution k={report['k']}",
        f"normalization C = {report['C']!r}",
        f"Z(X) = {report['Z_at_X']!r}",
        f"eta bound = {_bound_text(report['eta_bound'], 6)}",
        f"total error bound = {_bound_text(report['total_error_bound'], 6)}",
    ]
    exp = report["exponent"]
    lines.append(
        f"exponent: log coefficient {exp['log_coefficient']}, "
        f"power terms {exp['terms']!r}, tail budget {_bound_text(exp['tail_budget'], 3)}"
    )
    if "Y_at_X" in report:
        lines.append(f"Y(X) = {report['Y_at_X']!r}")
    if "continuation" in report:
        cont = report["continuation"]
        how = cont["integrator"]["method"]
        if "rtol" in cont:
            how += f", rtol={cont['rtol']:g}"
        lines.append(f"Y({cont['target']}) = {cont['Y']!r}  [{how}]")
    return "\n".join(lines)


def _parse_tolerances(pairs: list[str]) -> dict[str, str]:
    """The NAME=VALUE pairs as a dict of texts; ``run_checks`` judges the
    values."""
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvalidInput(
                f"tolerance override must be NAME=VALUE, got {pair!r}"
            )
        out[name] = value
    return out


def _cmd_verify(args) -> dict:
    from .verify import run_checks

    overrides = _parse_tolerances(args.tolerance)
    rows = run_checks(only=args.only, tolerance_overrides=overrides)
    return {
        "rows": [dataclasses.asdict(r) for r in rows],
        "passed": all(r.passed for r in rows),
    }


def _verify_text(report: dict) -> str:
    lines = []
    for r in report["rows"]:
        mark = "PASS" if r["passed"] else "FAIL"
        tol = "exact" if r["tolerance"] is None else f"{r['tolerance']:g}"
        lines.append(f"{mark}  {r['name']:<28} [{r['group']}]  tolerance={tol}")
        lines.append(f"      computed:  {r['computed']}")
        lines.append(f"      reference: {r['reference']}")
    passed = sum(r["passed"] for r in report["rows"])
    lines.append(f"{passed}/{len(report['rows'])} checks passed")
    return "\n".join(lines)


# command -> (report builder, text renderer); only verify's report has "passed"
_COMMANDS = {
    "transform": (_cmd_transform, _transform_text),
    "solve": (_cmd_solve, _solve_text),
    "verify": (_cmd_verify, _verify_text),
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_target_values_attached(argv))
        build, render = _COMMANDS[args.command]
        report = build(args)
        _emit(args, report, render)
        return 0 if report.get("passed", True) else 1
    except LevodeError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return InvalidInput.exit_code


def program() -> int:
    """The program's entry point, ``levode`` and ``python -m levode.cli``:
    ``main`` on ``sys.argv``, then ``gc.freeze()`` before the interpreter
    finalises.  Finalisation still flushes the streams, runs the atexit
    handlers and frees by reference count, but its collections no longer
    traverse the objects of numpy, levode and the standard library that a
    command leaves and they would free none of.  No output waits for a
    finaliser: every file the CLI writes is closed by its ``with`` block.
    ``main`` leaves the collector alone, so a test or a library call of it
    finds it as it was."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(program())
