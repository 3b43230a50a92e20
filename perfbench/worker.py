"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE MODE

MODE is "run", or "iterate" for random-reduce's traced per-iteration
replay.

run.py starts this with the checkout's ``src`` on PYTHONPATH.  The worker
imports levode, builds its inputs, prints ``ready`` and reads one line
holding the measuring budget in seconds.  A budget of 0 makes it a set-up
probe that exits at once; otherwise it runs the workload and prints one
JSON line with raw samples, check outcomes and, when TRACE is 1, spans.

Every repetition gets its own interpreter because transform_engine keeps
process-global caches keyed by whole states and specs: a second reduction
of an equal problem in the same process would be served from them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import levode.cli  # noqa: E402,F401  (the whole package, as the CLI loads it)

IMPORT_S = time.perf_counter() - _T0

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402

from levode import poly  # noqa: E402
from levode.error_ledger import eta_bound, matrix_norm_bound, total_error_bound  # noqa: E402
from levode.fixtures import builtin_hypergeometric  # noqa: E402
from levode.levinson_solver import (  # noqa: E402
    asymptotic_value,
    back_transform,
    check_dichotomy,
    derive_original_system,
    exponent_data,
)
from levode.ode_connector import LinearSystem, integrate, linear_system  # noqa: E402
from levode.sampling import random_problem  # noqa: E402
from levode.symexpr import RationalFn, SymMatrix, sup_bound  # noqa: E402
from levode.system_model import INVERSE_X, validate, validate_resonance  # noqa: E402
from levode.transform_engine import (  # noqa: E402
    CommittedError,
    IterationState,
    _p_and_leftover,
    commutator_terms,
    compute_P,
    elimination_defect,
    initial_state,
    iterate,
    run,
)

import reference  # noqa: E402
from speed import SpeedLog  # noqa: E402
from tracing import Tracer  # noqa: E402

# The acceptance sweep's problem stream (tests/test_acceptance.py).  Its
# per-problem cost spans three orders of magnitude, so a stream drawn from
# the benchmark seed changes the sweep total by up to 2x between seeds;
# the seed orders this fixed set instead.
REDUCE_STREAM_SEED = 2024
REDUCE_PROBLEMS = 200

CONTINUATION_TARGETS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
CONTINUATION_RTOLS = (1e-8, 1e-10, 1e-12)
# the CLI's `solve --target 0` integration, whose RHS count is reported
REFERENCE_RUN = (Fraction(0), 1e-10)

POLY_REPLAY_PAIRS = 300

# kernel bursts (speed.py) between operations: about 20 % of a run
SPEED = {"burst_s": 0.5, "every_s": 2.5}


class _NoTrace:
    """Stands in for Tracer when tracing is off."""

    op = ""

    def span(self, name):
        return _NULL


_NULL = nullcontext()


class CountingMatrix:
    """Coefficient-matrix proxy that counts and times RHS evaluations.

    ``integrate`` reads ``entries`` for its pole screen and calls
    ``eval_float`` once per right-hand-side evaluation.
    """

    def __init__(self, inner: SymMatrix):
        self.inner = inner
        self.calls = 0
        self.ns = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def eval_float(self, x):
        self.calls += 1
        start = time.perf_counter_ns()
        value = self.inner.eval_float(x)
        self.ns += time.perf_counter_ns() - start
        return value


# -- shared helpers ----------------------------------------------------


def clear_engine_caches() -> None:
    """Empty transform_engine's process-global caches.

    They are keyed by whole states and specs, so a call on a state seen
    before in this process would be served from them.
    """
    for cached in (_p_and_leftover, commutator_terms, elimination_defect):
        cached.cache_clear()


def _final_fns(fs) -> list[RationalFn]:
    """Every nonzero rational entry of a reduction's P history and ledger."""
    mats = [ps.combined for ps in fs.history]
    mats += [e.matrix for e in fs.ledger.entries]
    mats += [fs.residual, *fs.dominant_terms]
    out = [f for m in mats for row in m.entries for f in row if not f.is_zero]
    out += [f for f in fs.diag if not f.is_zero]
    return out


def _size_stats(fns) -> dict:
    degree = max((max(poly.degree(f.num), poly.degree(f.den)) for f in fns), default=0)
    bits = max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for f in fns
            for c in f.num + f.den
        ),
        default=0,
    )
    return {"max_degree": degree, "max_coeff_bits": bits}


def _poly_replay(tracer, fns, X) -> None:
    """Replay the kernel calls a rational sum makes, on harvested operands."""
    unique = list(dict.fromkeys((f.num, f.den) for f in fns))
    stride = max(1, len(unique) // POLY_REPLAY_PAIRS)
    picked = unique[::stride][: POLY_REPLAY_PAIRS + 1]
    X = Fraction(X)
    for (n1, d1), (n2, d2) in zip(picked, picked[1:]):
        with tracer.span("poly.mul"):
            a = poly.mul(n1, d2)
        with tracer.span("poly.mul"):
            b = poly.mul(n2, d1)
        with tracer.span("poly.mul"):
            den = poly.mul(d1, d2)
        num = poly.add(a, b)
        with tracer.span("poly.gcd"):
            g = poly.gcd(num, den)
        if num:
            with tracer.span("poly.divmod"):
                poly.divmod_exact(num, g)
        if poly.degree(den) >= 1:
            with tracer.span("poly.count_roots"):
                poly.count_roots_above(den, X)


def _digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def _canonical_strings(fs) -> list[str]:
    out = [f.to_string() for f in fs.diag]
    for m in (fs.residual, *fs.dominant_terms, *(e.matrix for e in fs.ledger.entries)):
        out += [s for row in m.to_strings() for s in row]
    return out


def _times(log: SpeedLog, wall_ms: list[float]) -> dict:
    """Scaled and wall operation times, in ms, and the kernel bursts."""
    scale = log.scale()
    return {"times_ms": [scale * t for t in wall_ms], "wall_ms": wall_ms, "speed": log.ms}


# -- random-reduce -----------------------------------------------------


def setup_reduce(seed, tracer):
    rng = random.Random(REDUCE_STREAM_SEED)
    specs = [random_problem(rng) for _ in range(REDUCE_PROBLEMS)]
    order = list(range(len(specs)))
    random.Random(seed).shuffle(order)
    return {"specs": specs, "order": order}


def check_reduction(spec, fs) -> str | None:
    """Re-check the elimination identity of every iteration to literal zero.

    Each iteration's state is rebuilt from the transcript (diagonal and
    first ladder rung are all the three step functions read), and the
    engine's caches are emptied first, so the check recomputes P, the
    commutator terms and the defect afresh.  For iteration 1 the rebuilt
    state can equal the one run() used, which the caches would serve.
    """
    clear_engine_caches()
    diag = spec.lambda1_diagonal()
    v1 = spec.ladder_rung(1)
    empty = CommittedError(SymMatrix.zeros(spec.n), ())
    for rec in fs.iterations:
        ladder = () if v1 is None else ((1, v1),)
        state = IterationState(m=rec.m, diag=diag, ladder=ladder, committed=empty, history=())
        psplit = compute_P(state, spec)
        if psplit != rec.psplit:
            return f"iteration {rec.m}: recomputed P differs from the transcript"
        terms = commutator_terms(state, psplit, spec)
        if not elimination_defect(state, psplit, terms, spec).is_zero:
            return f"iteration {rec.m}: elimination defect is not zero"
        for k, lo in rec.bucket_orders:
            if -lo < (rec.m + k) * spec.a:
                return f"iteration {rec.m}: rung {k} decays like x^{lo}, too slowly"
        diag = rec.lambda_next
        off = rec.s_next.off_diagonal_part()
        v1 = None if off.is_zero else off
    return None


def run_reduce(inputs, budget, tracer, mode):
    specs, order = inputs["specs"], inputs["order"]
    if mode == "iterate":
        # traced only: per-iteration cost, in its own cold process
        for idx in order:
            spec = specs[idx]
            tracer.op = "replay"
            state = initial_state(spec)
            for _ in range(spec.M - 1):
                with tracer.span("transform_engine.iterate"):
                    state = iterate(state, spec)
        return {"iterations": sum(s.M - 1 for s in specs)}

    log = SpeedLog(**SPEED)
    wall_ms, errors = [], []
    digests = [""] * len(specs)
    finals = []
    for idx in order:
        spec = specs[idx]
        tracer.op = f"problem-{idx}"
        clear_engine_caches()
        if log.due():
            log.sample()
        try:
            start = time.perf_counter()
            with tracer.span("transform_engine.run"):
                fs = run(spec)
            wall_ms.append(1000 * (time.perf_counter() - start))
            problem = check_reduction(spec, fs)
        except Exception as exc:  # every failure is counted, none stops the sweep
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            errors.append(f"problem {idx}: {problem}")
            continue
        digests[idx] = _digest(_canonical_strings(fs))
        finals.append(fs)
    log.sample()
    out = {
        "attempted": len(order),
        **_times(log, wall_ms),
        "errors": errors,
        "digest": _digest(digests),
    }
    if isinstance(tracer, Tracer):
        tracer.op = "probe"
        for spec in specs:
            with tracer.span("system_model.validate"):
                validate(spec)
            if spec.mode == INVERSE_X:
                with tracer.span("system_model.validate_resonance"):
                    validate_resonance(spec)
        fns = [f for fs in finals for f in _final_fns(fs)]
        _poly_replay(tracer, fns, specs[0].X)
        out["sizes"] = _size_stats(fns)
        out["iterations"] = sum(len(fs.iterations) for fs in finals)
    return out


# -- continuation ------------------------------------------------------


def setup_continuation(seed, tracer):
    tracer.op = "setup"
    with tracer.span("system_model.load"):
        spec = builtin_hypergeometric()
    with tracer.span("transform_engine.run"):
        fs = run(spec)
    with tracer.span("levinson_solver.asymptotic_value"):
        vec, _ = asymptotic_value(3, fs.diag, spec, spec.X)
    with tracer.span("levinson_solver.back_transform"):
        y_at_X = back_transform(vec, fs.history, spec, spec.X)
    with tracer.span("levinson_solver.derive_original_system"):
        A = derive_original_system(spec)
    # first solve_ivp call pays one-off lazy set-up; keep it out of the ops
    integrate(linear_system(A, 9, spec.X), y_at_X, spec.X, 9, rtol=1e-6, atol=1e-8)
    grid = [(t, r) for t in CONTINUATION_TARGETS for r in CONTINUATION_RTOLS]
    return {
        "spec": spec,
        "fs": fs,
        "A": A,
        "y_at_X": y_at_X,
        "grid": grid,
        "rng": random.Random(seed),
    }


def _continuation_op(inputs, t, rtol, tracer, counters):
    spec, A = inputs["spec"], inputs["A"]
    X = spec.X
    with tracer.span("ode_connector.linear_system"):
        system = linear_system(A, min(t, X), max(t, X))
    proxies = []
    if counters is not None:
        proxies = [CountingMatrix(A), CountingMatrix(A)]
        systems = [LinearSystem(A=p, domain=system.domain) for p in proxies]
    else:
        systems = [system, system]
    with tracer.span("ode_connector.integrate"):
        y = integrate(systems[0], inputs["y_at_X"], X, t, rtol=rtol, atol=rtol / 100)
    with tracer.span("ode_connector.integrate"):
        exact = integrate(systems[1], reference.exact_solution(X), X, t, rtol=rtol, atol=rtol / 100)
    if counters is not None:
        counters["rhs"][f"{t}@{rtol:g}"] = proxies[0].calls
        counters["proxy_calls"] += sum(p.calls for p in proxies)
        counters["proxy_ns"] += sum(p.ns for p in proxies)
    return y, exact


def _continuation_errors(t, rtol, y, exact):
    """Largest deviation from the closed forms, and a message if out of tolerance."""
    want = reference.exact_solution(t)
    err = max(abs(a - b) for a, b in zip(exact, want))
    if err > reference.exact_solution_tol(rtol):
        return err, f"exact solution to {t} at rtol {rtol:g}: error {err:.3e}"
    if t == 0:
        closed_err = abs(y[0] - reference.y0_closed_form())
        err = max(err, closed_err)
        if closed_err > reference.Y0_CLOSED_FORM_TOL:
            return err, f"Y(0) first component off the closed form by {closed_err:.3e}"
        if not all(lo <= c <= hi for c, (lo, hi) in zip(y, reference.Y0_ENCLOSURE)):
            return err, f"Y(0) = {y} outside the pinned enclosure at rtol {rtol:g}"
    return err, None


def run_continuation(inputs, budget, tracer, mode):
    """Whole passes over the 15 grid points; one pass is one operation.

    A pass's time is the sum of its points' times, so kernel bursts taken
    between points are not part of it.
    """
    traced = isinstance(tracer, Tracer)
    counters = {"rhs": {}, "proxy_calls": 0, "proxy_ns": 0} if traced else None
    log = SpeedLog(**SPEED)
    passes, errors = [], []
    failed_passes = 0
    max_err = 0.0
    start_all = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        grid = list(inputs["grid"])
        inputs["rng"].shuffle(grid)
        point_ms, pass_errors = [], []
        for t, rtol in grid:
            tracer.op = f"{t}@{rtol:g}"
            if log.due():
                log.sample()
            try:
                start = time.perf_counter()
                y, exact = _continuation_op(inputs, t, rtol, tracer, counters)
                point_ms.append(1000 * (time.perf_counter() - start))
                err, problem = _continuation_errors(t, rtol, y, exact)
                max_err = max(max_err, err)
            except Exception as exc:  # counted as a failed operation
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                pass_errors.append(problem)
        now = time.perf_counter()
        passes.append(point_ms)
        failed_passes += bool(pass_errors)
        errors += pass_errors
        # start another pass only if it should end within the budget
        if now - start_all + (now - pass_start) > budget:
            break
    log.sample()
    scale = log.scale()
    out = {
        "attempted": len(passes),
        "failed": failed_passes,
        **_times(log, [sum(points) for points in passes]),
        "point_ms": [scale * t for points in passes for t in points],
        "errors": errors,
        "max_abs_err": max_err,
    }
    if traced:
        t, rtol = REFERENCE_RUN
        out["rhs_evals"] = counters["rhs"][f"{t}@{rtol:g}"]
        out.update(_traced_extras(tracer, [inputs["fs"]], inputs["spec"], inputs["A"], counters))
    return out


# -- hypergeom-cli (in-process replica) --------------------------------


def setup_cli(seed, tracer):
    return {"spec": builtin_hypergeometric()}


def run_cli(inputs, budget, tracer, mode):
    """The library calls `transform` and `solve -k 3 --target 0` make, in process.

    This workload's measured operations are CLI processes started by
    run.py.  The replica attributes their time to the modules when traced;
    untraced, it is the reference for the tracing overhead.
    """
    traced = isinstance(tracer, Tracer)
    log = SpeedLog(**SPEED)
    log.sample()
    start = time.perf_counter()
    tracer.op = "transform"
    with tracer.span("cli.transform"):
        with tracer.span("system_model.load"):
            spec = builtin_hypergeometric()
        with tracer.span("system_model.validate_resonance"):
            validate_resonance(spec)
        with tracer.span("transform_engine.run"):
            fs_t = run(spec)
        ledger = fs_t.ledger
        for mat in [e.matrix for e in ledger.entries] + list(ledger.p_matrices):
            with tracer.span("error_ledger.matrix_norm_bound"):
                matrix_norm_bound(mat, spec.X)
        with tracer.span("error_ledger.total_error_bound"):
            total_t = total_error_bound(ledger)

    # each CLI command runs in a fresh process, with cold caches
    clear_engine_caches()
    tracer.op = "solve"
    with tracer.span("cli.solve"):
        with tracer.span("system_model.load"):
            spec = builtin_hypergeometric()
        with tracer.span("system_model.validate_resonance"):
            validate_resonance(spec)
        with tracer.span("transform_engine.run"):
            fs = run(spec)
        with tracer.span("levinson_solver.check_dichotomy"):
            dichotomy = check_dichotomy(spec, fs.diag)
        with tracer.span("levinson_solver.exponent_data"):
            data = exponent_data(3, fs.diag, spec)
        with tracer.span("levinson_solver.asymptotic_value"):
            vec, _ = asymptotic_value(3, fs.diag, spec, spec.X)
        with tracer.span("error_ledger.eta_bound"):
            eta = eta_bound(fs.residual, spec)
        tail = float(data.tail_budget)
        if tail:
            eta = eta + math.expm1(tail) * (1.0 + eta)
        with tracer.span("error_ledger.total_error_bound"):
            total = total_error_bound(fs.ledger)
        with tracer.span("levinson_solver.back_transform"):
            y_at_X = back_transform(vec, fs.history, spec, spec.X)
        with tracer.span("levinson_solver.derive_original_system"):
            A = derive_original_system(spec)
        with tracer.span("ode_connector.linear_system"):
            system = linear_system(A, 0, spec.X)
        proxy = CountingMatrix(A) if traced else None
        with tracer.span("ode_connector.integrate"):
            y0 = integrate(
                LinearSystem(A=proxy, domain=system.domain) if traced else system,
                y_at_X,
                spec.X,
                Fraction(0),
                rtol=1e-10,
                atol=1e-12,
            )
    op_ms = 1000 * (time.perf_counter() - start)
    log.sample()
    errors = reference.check_transform(
        [f.to_string() for f in spec.lambda1_diagonal()],
        fs_t.dominant_terms[0].to_strings(),
        fs_t.iterations[0].s_next.to_strings(),
        total_t,
    )
    solve_errors = reference.check_solve(total, eta, vec, y_at_X, y0, dichotomy.ok)
    out = {
        "attempted": 2,
        "failed": bool(errors) + bool(solve_errors),
        "errors": errors + solve_errors,
        **_times(log, [op_ms]),
    }
    if traced:
        counters = {"proxy_calls": proxy.calls, "proxy_ns": proxy.ns}
        out["rhs_evals"] = proxy.calls
        out["sup_bound_rows"] = _sup_bound_probe(tracer, spec, fs)
        out.update(_traced_extras(tracer, [fs], spec, A, counters))
    return out


def _sup_bound_probe(tracer, spec, fs) -> list[dict]:
    """One sup_bound call per nonzero entry the two commands bound.

    Covers the ledger entries and P matrices (the transform report and
    total_error_bound) and the weighted residual entries of eta_bound.
    """
    tracer.op = "probe"
    X = spec.X
    labelled = [(f"ledger stage {e.stage}", e.matrix) for e in fs.ledger.entries]
    labelled += [(f"P_{m}", P) for m, P in enumerate(fs.ledger.p_matrices, 1)]
    weighted = spec.rho_fn * fs.residual
    lo = weighted.max_leading_order()
    if lo is not None:
        labelled.append(("eta rho*R_M*x^w", weighted * RationalFn.x_power(-lo)))
    rows = []
    for label, mat in labelled:
        for i, row in enumerate(mat.entries):
            for j, f in enumerate(row):
                if f.is_zero:
                    continue
                start = time.perf_counter_ns()
                with tracer.span("symexpr.sup_bound"):
                    bound = sup_bound(f, X)
                rows.append(
                    {
                        "stage": f"{label} ({i + 1},{j + 1})",
                        "entry": f.to_string(),
                        "num_degree": poly.degree(f.num),
                        "den_degree": poly.degree(f.den),
                        "coeff_bits": _size_stats([f])["max_coeff_bits"],
                        "ms": (time.perf_counter_ns() - start) / 1e6,
                        "bound": float(bound),
                    }
                )
    return sorted(rows, key=lambda r: -r["ms"])


# -- traced-run extras -------------------------------------------------


def _traced_extras(tracer, finals, spec, A, counters) -> dict:
    """Probes every traced workload shares."""
    tracer.op = "probe"
    for _ in range(5):
        with tracer.span("system_model.validate"):
            validate(spec)
    fns = [f for fs in finals for f in _final_fns(fs)]
    fns += [f for row in A.entries for f in row if not f.is_zero]
    _poly_replay(tracer, fns, spec.X)
    return {
        "sizes": _size_stats(fns),
        "iterations": sum(len(fs.iterations) for fs in finals),
        "rhs_total": counters["proxy_calls"],
        "eval_float_us": counters["proxy_ns"] / counters["proxy_calls"] / 1e3
        if counters["proxy_calls"]
        else 0.0,
    }


# -- entry point -------------------------------------------------------

WORKLOADS = {
    "hypergeom-cli": (setup_cli, run_cli),
    "random-reduce": (setup_reduce, run_reduce),
    "continuation": (setup_continuation, run_continuation),
}


def main(argv) -> int:
    workload, seed, trace, mode = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    setup, body = WORKLOADS[workload]
    tracer = Tracer() if trace else _NoTrace()
    inputs = setup(seed, tracer)
    print("ready", flush=True)
    budget = float(sys.stdin.readline())
    if budget <= 0:
        return 0
    result = body(inputs, budget, tracer, mode)
    result["import_s"] = IMPORT_S
    if trace:
        result["spans"] = tracer.to_json()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
