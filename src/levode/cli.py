"""Command-line interface: transform, solve, verify.

Exit codes: 0 success; 1 verification failure, refused continuation, or a
failed computation (an uncertified or divergent bound, a reduction step
that breaks down, a bound or solution value beyond the float range);
2 invalid input (schema, invariant, file, flags) or an output that cannot
be written; 3 resonance in the small diagonal block; 4 dichotomy failure.
Every failure but the last kind is a ``LevodeError``: ``main`` prints its
category's prefix and message as one line on stderr (a resonance, one
line per hit) and returns its category's exit code (``levode.errors``).
JSON reports never contain Infinity or NaN.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .error_ledger import bound_ledger, eta_bound, total_error_bound
from .errors import (
    ContinuationRefused,
    DichotomyFailure,
    InvalidInput,
    LevodeError,
    Resonance,
)
from .fixtures import BUILTINS, CHECK_GROUPS
from .system_model import (
    INVERSE_X,
    ProblemSpec,
    load_problem,
    validate,
    validate_resonance,
)
from .transform_engine import FinalState, run

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
    _add_common(transform, need_problem=True)

    solve = sub.add_parser(
        "solve", help="evaluate one asymptotic solution, optionally continue it"
    )
    _add_common(solve, need_problem=True)
    solve.add_argument("-k", type=int, required=True, help="solution index (1-based)")
    solve.add_argument("--target", help="continuation target point (rational)")
    solve.add_argument("--rtol", type=float, default=1e-10)
    solve.add_argument("--atol", type=float, default=1e-12)
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


def _add_common(p: argparse.ArgumentParser, need_problem: bool) -> None:
    g = p.add_mutually_exclusive_group(required=need_problem)
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
        if args.M_override < 2:
            raise InvalidInput("M override must be at least 2")
        folded = spec.E1
        kept = []
        for j, mat in spec.ladder:
            if j <= args.M_override - 1:
                kept.append((j, mat))
            else:
                folded = folded + mat
        spec = validate(
            dataclasses.replace(
                spec, M=args.M_override, ladder=tuple(kept), E1=folded
            )
        )
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


def _float_range(value: Fraction, what: str) -> None:
    try:
        float(value)
    except OverflowError:
        raise InvalidInput(f"{what} is beyond the float range") from None


def _check_resonance(spec: ProblemSpec) -> None:
    if spec.mode != INVERSE_X:
        return
    hits = validate_resonance(spec).hits
    if hits:
        raise Resonance("\n".join(
            f"resonance at iteration {h.m}: d_{h.j} - d_{h.i} = {h.m * spec.a}"
            for h in hits
        ))


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(args, text: str) -> None:
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


def _transform_report(spec: ProblemSpec, fs: FinalState, args) -> dict:
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
    report = {
        "schema": SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "command": "transform",
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
                    "norm_at_X": float(norm),
                }
                for e, norm in zip(ledger.entries, norms.entries)
            ],
            "P_norms": [float(norm) for norm in norms.p_matrices],
        },
        "residual_leading_order": str(fs.residual.max_leading_order()),
        "total_error_bound": norms.total,
    }
    return report


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
        lines.append(
            f"  stage {e['stage']} (via iteration {e['via_iteration']}): "
            f"norm at X = {e['norm_at_X']:.6e}"
        )
    lines.append(f"residual leading order: {report['residual_leading_order']}")
    lines.append(f"total error bound: {report['total_error_bound']:.8e}")
    return "\n".join(lines)


def _cmd_transform(args) -> int:
    spec = _load_spec(args)
    _check_resonance(spec)
    fs = run(spec)
    report = _transform_report(spec, fs, args)
    if args.format == "json":
        _emit(args, json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    else:
        _emit(args, _transform_text(report))
    return 0


def _cmd_solve(args) -> int:
    from .levinson_solver import (
        check_dichotomy,
        derive_original_system,
        is_safely_continuable,
        solution_bundle,
    )
    from .ode_connector import METHOD_INFO, MIN_RTOL, integrate, linear_system

    for flag, value in (("--rtol", args.rtol), ("--atol", args.atol)):
        if not 0 < value < math.inf:
            raise InvalidInput(
                f"{flag} must be a positive finite number, got {value!r}"
            )
    if args.rtol < MIN_RTOL:
        # integrate would warn and run at MIN_RTOL, and the report would
        # name a tolerance the run never used
        raise InvalidInput(
            f"--rtol must be at least {MIN_RTOL!r} (100 machine epsilons), got {args.rtol!r}"
        )
    spec = _load_spec(args)
    _check_resonance(spec)
    if not 1 <= args.k <= spec.n:
        raise InvalidInput(f"k must be in 1..{spec.n}, got {args.k}")
    target = None if args.target is None else _rational_flag(args.target, "--target")
    if target is not None:
        if spec.back_transform is None:
            raise InvalidInput(
                "continuation needs the original system, so the problem must "
                "define a back-transformation matrix T(x)"
            )
        _float_range(target, f"--target {args.target}")
        _float_range(spec.X, "the evaluation point X")
    fs = run(spec)
    dichotomy = check_dichotomy(spec, fs.diag)
    if not dichotomy.ok_for(args.k):
        bad = [
            f"({p.j},{p.k})" for p in dichotomy.pairs
            if (p.j == args.k or p.k == args.k) and not p.ok
        ]
        raise DichotomyFailure(
            f"dichotomy fails for pairs {', '.join(bad)}; the deviation bound "
            "for this solution is not certified"
        )

    bundle = solution_bundle(args.k, fs, eta_bound(fs.residual, spec))
    data = bundle.exponent

    report = {
        "schema": SCHEMA_VERSION,
        "timestamp": _timestamp(),
        "command": "solve",
        "problem": _problem_summary(spec, args),
        "k": args.k,
        "C": bundle.C,
        "Z_at_X": list(bundle.Z_at_X),
        "eta_bound": bundle.eta_bound,
        "total_error_bound": total_error_bound(fs.ledger),
        "exponent": {
            "log_coefficient": str(data.log_coefficient),
            "terms": [[str(c), e] for c, e in data.laurent_terms],
            "tail_budget": float(data.tail_budget),
        },
        "dichotomy_ok": dichotomy.ok,
    }
    if bundle.Y_at_X is not None:
        report["Y_at_X"] = list(bundle.Y_at_X)

    if target is not None:
        if not is_safely_continuable(data):
            growing = [
                f"{c}*x^{e + 1}/{e + 1}"
                for c, e in data.laurent_terms
                if e >= 0 and c > 0
            ]
            raise ContinuationRefused(
                f"solution k={args.k} grows exponentially toward infinity "
                f"(exponent term {', '.join(growing)}); continuing it backward "
                "from X would amplify the uncertified dominant part, refusing"
            )
        A = derive_original_system(spec)
        system = linear_system(A, min(target, spec.X), max(target, spec.X))
        y_target = integrate(
            system,
            report["Y_at_X"],
            spec.X,
            target,
            rtol=args.rtol,
            atol=args.atol,
            dense_path=args.dense_csv,
        )
        report["continuation"] = {
            "target": str(target),
            "Y": list(y_target),
            "rtol": args.rtol,
            "atol": args.atol,
            "integrator": METHOD_INFO,
        }

    if args.format == "json":
        _emit(args, json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    else:
        _emit(args, _solve_text(report))
    return 0


def _solve_text(report: dict) -> str:
    lines = [
        f"problem: {report['problem']['source']}  (X={report['problem']['X']})",
        f"solution k={report['k']}",
        f"normalization C = {report['C']!r}",
        f"Z(X) = {report['Z_at_X']!r}",
        f"eta bound = {report['eta_bound']:.6e}",
        f"total error bound = {report['total_error_bound']:.6e}",
    ]
    exp = report["exponent"]
    lines.append(
        f"exponent: log coefficient {exp['log_coefficient']}, "
        f"power terms {exp['terms']!r}, tail budget {exp['tail_budget']:.3e}"
    )
    if "Y_at_X" in report:
        lines.append(f"Y(X) = {report['Y_at_X']!r}")
    if "continuation" in report:
        cont = report["continuation"]
        lines.append(
            f"Y({cont['target']}) = {cont['Y']!r}  "
            f"[{cont['integrator']['method']}, rtol={cont['rtol']:g}]"
        )
    return "\n".join(lines)


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvalidInput(
                f"tolerance override must be NAME=VALUE, got {pair!r}"
            )
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not math.isfinite(tol):
            raise InvalidInput(
                f"tolerance value for {name!r} is not a finite number: {value!r}"
            )
        out[name] = tol
    return out


def _cmd_verify(args) -> int:
    from .verify import run_checks

    overrides = _parse_tolerances(args.tolerance)
    rows = run_checks(only=args.only, tolerance_overrides=overrides)
    all_pass = all(r.passed for r in rows)
    if args.format == "json":
        report = {
            "schema": SCHEMA_VERSION,
            "timestamp": _timestamp(),
            "command": "verify",
            "rows": [dataclasses.asdict(r) for r in rows],
            "passed": all_pass,
        }
        _emit(args, json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    else:
        lines = []
        for r in rows:
            mark = "PASS" if r.passed else "FAIL"
            tol = "exact" if r.tolerance is None else f"{r.tolerance:g}"
            lines.append(f"{mark}  {r.name:<28} [{r.group}]  tolerance={tol}")
            lines.append(f"      computed:  {r.computed}")
            lines.append(f"      reference: {r.reference}")
        lines.append(
            f"{sum(r.passed for r in rows)}/{len(rows)} checks passed"
        )
        _emit(args, "\n".join(lines))
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_target_values_attached(argv))
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_verify(args)
    except LevodeError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return InvalidInput.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
