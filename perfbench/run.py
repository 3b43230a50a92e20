"""levode benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a levode checkout; it uses the sources under
``src`` as they are, with no install.  Every repetition runs in a fresh
interpreter (worker.py, or the CLI itself).  Detail lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  A full record (metadata, samples, spans) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import threading
import time
from importlib import metadata as importlib_metadata
from pathlib import Path

import reference
import stats
from speed import REFERENCE_MS, SpeedLog
from tracing import Span, self_time_by_module

HERE = Path(__file__).resolve().parent

# Every run must end within 180 s; leave room to stop and report.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 3
# kernel bursts (speed.py): between set-up samples, and after every CLI
# command, which lasts 4-9 s
SETUP_SPEED = {"burst_s": 0.5, "every_s": 2.0}
CLI_SPEED = {"burst_s": 1.0, "every_s": 0.0}
# spans of these operation ids re-measure calls for per-call figures; they
# are kept out of the self-time attribution
REPLAYS = {"probe", "replay"}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

MODULES = (
    "cli",
    "system_model",
    "transform_engine",
    "symexpr",
    "poly",
    "error_ledger",
    "levinson_solver",
    "ode_connector",
)

PER_LAYER = {
    "cli.import_s": "s",
    "cli.extra_s": "s",
    "system_model.validate_ms": "ms",
    "system_model.resonance_ms": "ms",
    "transform_engine.run_ms": "ms",
    "transform_engine.iterate_ms": "ms",
    "transform_engine.iterations": "count",
    "symexpr.sup_bound_calls": "count",
    "symexpr.sup_bound_p50_ms": "ms",
    "symexpr.sup_bound_max_ms": "ms",
    "symexpr.eval_float_us": "us",
    "symexpr.max_degree": "count",
    "symexpr.max_coeff_bits": "bits",
    "poly.mul_us": "us",
    "poly.gcd_us": "us",
    "poly.divmod_us": "us",
    "poly.count_roots_us": "us",
    "error_ledger.total_error_bound_s": "s",
    "error_ledger.eta_bound_s": "s",
    "error_ledger.matrix_norm_bound_ms": "ms",
    "levinson_solver.check_dichotomy_ms": "ms",
    "levinson_solver.exponent_data_ms": "ms",
    "levinson_solver.asymptotic_value_ms": "ms",
    "levinson_solver.back_transform_ms": "ms",
    "levinson_solver.derive_original_system_ms": "ms",
    "ode_connector.linear_system_ms": "ms",
    "ode_connector.integrate_ms": "ms",
    "ode_connector.us_per_rhs": "us",
    "ode_connector.rhs_evals": "count",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

TRANSFORM_ARGS = ("transform", "--builtin", "hypergeom", "--format", "json")
SOLVE_ARGS = ("solve", "--builtin", "hypergeom", "-k", "3", "--target", "0", "--format", "json")


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        paths = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


class Worker:
    """A worker interpreter that has finished its set-up (see worker.py)."""

    def __init__(self, bench: Bench, trace: bool = False, mode: str = "run"):
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            bench.workload,
            str(bench.seed),
            "1" if trace else "0",
            mode,
        ]
        timeout = bench.remaining()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=bench.env,
            cwd=bench.root,
        )
        self.watchdog = threading.Timer(timeout, self.proc.kill)
        self.watchdog.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            self.close()
            raise BenchError(f"{bench.workload} worker failed during set-up")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def finish(self, budget: float) -> dict | None:
        """Send the budget; return the worker's result (None for a probe)."""
        try:
            self.proc.stdin.write(f"{budget}\n")
            self.proc.stdin.close()
            out = self.proc.stdout.read()
        except OSError as exc:
            raise BenchError(f"worker pipe failed: {exc}") from exc
        self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        if budget <= 0:
            return None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def close(self) -> None:
        self.watchdog.cancel()
        if not self.proc.stdin.closed:  # never got its budget
            self.proc.kill()
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(bench: Bench, trace: bool = False, mode: str = "run") -> dict:
    """Run one repetition in a fresh worker, measuring for bench.seconds."""
    with Worker(bench, trace=trace, mode=mode) as w:
        return w.finish(bench.seconds)


def setup_samples(bench: Bench, count: int = SETUP_SAMPLES) -> dict:
    """Interpreter start to inputs built, in fresh set-up-only workers.

    Returns the scaled times (speed.py) and the wall times, in seconds.
    """
    log = SpeedLog(**SETUP_SPEED)
    wall = []
    for _ in range(count):
        if log.due():
            log.sample()
        with Worker(bench) as w:
            wall.append(w.setup_s)
            w.finish(0)
    log.sample()
    return {"scaled_s": [s * log.scale() for s in wall], "wall_s": wall, "speed": log.ms}


def peak_rss_mb() -> float:
    """Largest resident set of any child process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def op_metrics(setup: dict, times_ms: list[float]) -> dict:
    """The end-to-end metrics, from set-up samples and scaled operation times."""
    if not times_ms:
        raise BenchError("no operation completed")
    return {
        "setup_s": stats.median(setup["scaled_s"]),
        "op_p50_ms": stats.median(times_ms),
        "ops_per_s": 1000 * len(times_ms) / sum(times_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def speed_lines(setup: dict, burst_ms: list[float]) -> list[str]:
    """Wall set-up time and the kernel bursts behind the scaled times."""
    return [
        f"setup_wall_s       {stats.median(setup['wall_s']):.4f} s  (median of {len(setup['wall_s'])})",
        f"kernel_burst_ms    median {stats.median(burst_ms):.3f}, range {min(burst_ms):.3f}-"
        f"{max(burst_ms):.3f}  ({len(burst_ms)} bursts, reference {REFERENCE_MS} ms)",
    ]


def loop_until(seconds: float, body) -> None:
    """Call body() at least once, and again while the next call should end in time."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


# -- hypergeom-cli -----------------------------------------------------


def run_cli(bench: Bench, args) -> tuple[dict | None, str | None]:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "levode.cli", *args],
            capture_output=True,
            text=True,
            env=bench.env,
            cwd=bench.root,
            timeout=bench.remaining(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"levode {args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return None, f"exit code {proc.returncode}: {last}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def check_cli(command: str, report: dict) -> list[str]:
    try:
        if command == "transform":
            return reference.check_transform(
                report["lambda1"],
                report["S1"],
                report["iterations"][0]["S"],
                report["total_error_bound"],
            )
        return reference.check_solve(
            report["total_error_bound"],
            report["eta_bound"],
            report["Z_at_X"],
            report["Y_at_X"],
            report["continuation"]["Y"],
            report["dichotomy_ok"],
        )
    except (KeyError, IndexError, TypeError) as exc:
        return [f"report lacks {exc!r}"]


def cli_op(bench: Bench, rng: random.Random, log: SpeedLog) -> dict:
    """One `transform` and one `solve`, in an order drawn from the seed.

    A kernel burst follows each command; ``log`` must hold one taken
    before the first.  Each command's wall time is kept under its name.
    """
    commands = [("transform", TRANSFORM_ARGS), ("solve", SOLVE_ARGS)]
    if rng.random() < 0.5:
        commands.reverse()
    out = {"errors": [], "failed": 0}
    for name, args in commands:
        start = time.perf_counter()
        report, err = run_cli(bench, args)
        out[name] = time.perf_counter() - start
        log.sample()
        problems = [err] if err else check_cli(name, report)
        out["errors"] += [f"{name}: {p}" for p in problems]
        out["failed"] += bool(problems)
        if report is not None:
            report.pop("timestamp", None)
            out[f"{name}_digest"] = hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()
            ).hexdigest()
            out[f"{name}_bound"] = report.get(
                "total_error_bound" if name == "transform" else "eta_bound"
            )
    return out


def hypergeom_cli(bench: Bench) -> dict:
    rng = random.Random(bench.seed)
    log = SpeedLog(**CLI_SPEED)
    log.sample()
    if bench.trace:
        op = cli_op(bench, rng, log)
        plain = run_worker(bench)
        traced = run_worker(bench, trace=True)
        spans = spans_from(traced["spans"])
        extra = cli_extra_s(op["transform"], traced["import_s"], spans)
        return traced_result(bench, [traced, plain], spans, cli_extra=extra, cli_op=op)

    setup = setup_samples(bench)
    ops: list[dict] = []
    loop_until(bench.seconds, lambda: ops.append(cli_op(bench, rng, log)))
    errors = [e for op in ops for e in op["errors"]]
    outputs = {(op.get("transform_digest"), op.get("solve_digest")) for op in ops}
    if len(outputs) != 1:
        errors.append("repeated commands printed different results")
    scale = log.scale()
    transform = stats.median([o["transform"] for o in ops])
    solve = stats.median([o["solve"] for o in ops])
    details = [
        f"transform_s        {scale * transform:.4f} s  (median of {len(ops)}; wall {transform:.4f} s)",
        f"solve_s            {scale * solve:.4f} s  (median of {len(ops)}; wall {solve:.4f} s)",
        f"total_error_bound  {ops[0].get('transform_bound')!r}  (pinned maximum {reference.TOTAL_ERROR_BOUND_MAX!r})",
        f"eta_bound          {ops[0].get('solve_bound')!r}  (pinned maximum {reference.ETA_BOUND_MAX!r})",
    ]
    return finish(
        bench,
        attempted=2 * len(ops),
        failed=sum(op["failed"] for op in ops),
        errors=errors,
        metrics=op_metrics(setup, [1000 * scale * (op["transform"] + op["solve"]) for op in ops]),
        details=details + speed_lines(setup, log.ms),
        record={"setup_samples": setup, "ops": ops, "speed": log.ms},
    )


def cli_extra_s(transform_s: float, import_s: float, spans: list[Span]) -> float:
    """CLI wall time beyond its import and the library calls the result needs.

    What remains is interpreter start-up and exit, the report's second pass
    over every ledger norm (``matrix_norm_bound`` per entry, on top of the
    same norms inside ``total_error_bound``) and JSON output.
    """
    root = next(i for i, s in enumerate(spans) if s.name == "cli.transform")
    needed = sum(
        s.duration_ns
        for s in spans
        if s.parent == root and s.name != "error_ledger.matrix_norm_bound"
    )
    return transform_s - import_s - needed / 1e9


# -- random-reduce -----------------------------------------------------


def random_reduce(bench: Bench) -> dict:
    if bench.trace:
        plain = run_worker(bench)
        sweep = run_worker(bench, trace=True)
        replay = run_worker(bench, trace=True, mode="iterate")
        spans = spans_from(sweep["spans"]) + spans_from(replay["spans"], offset=len(sweep["spans"]))
        return traced_result(bench, [sweep, replay, plain], spans)

    setup = setup_samples(bench)
    passes: list[dict] = []

    loop_until(bench.seconds, lambda: passes.append(run_worker(bench)))
    times = [t for p in passes for t in p["times_ms"]]
    wall = [t for p in passes for t in p["wall_ms"]]
    errors = [e for p in passes for e in p["errors"]]
    digests = {p["digest"] for p in passes}
    if digests != {reference.REDUCE_DIGEST}:
        errors.append(f"canonical-string digests {sorted(digests)} != {reference.REDUCE_DIGEST}")
    metrics = op_metrics(setup, times)
    details = [
        f"reduce_problems_per_s  {metrics['ops_per_s']:.4f} 1/s  ({len(times)} run() calls, {len(passes)} pass(es))",
        f"reduce_p50_ms          {metrics['op_p50_ms']:.4f} ms  (wall {stats.median(wall):.4f} ms)",
        tail_line("reduce", times),
        f"reduce_sweep_wall_s    {sum(wall) / 1000 / len(passes):.4f} s  (mean over passes)",
        f"canonical-string digest {sorted(digests)[0]}",
        *speed_lines(setup, [ms for p in passes for ms in p["speed"]]),
    ]
    return finish(
        bench,
        attempted=sum(p["attempted"] for p in passes),
        failed=sum(len(p["errors"]) for p in passes),
        errors=errors,
        metrics=metrics,
        details=details,
        record={"setup_samples": setup, "passes": passes},
    )


def tail_line(prefix: str, times_ms: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    tail = stats.tail_percentile(times_ms)
    if tail is None:
        return f"{prefix}_tail_ms  n/a  (too few samples to leave 10 above a percentile)"
    q, value = tail
    return f"{prefix}_p{q}_ms  {value:.4f} ms  ({len(times_ms)} samples, >= 10 above it)"


# -- continuation ------------------------------------------------------


def continuation(bench: Bench) -> dict:
    if bench.trace:
        plain = run_worker(bench)
        traced = run_worker(bench, trace=True)
        return traced_result(bench, [traced, plain], spans_from(traced["spans"]))

    setup = setup_samples(bench)
    res = run_worker(bench)
    metrics = op_metrics(setup, res["times_ms"])
    points = res["point_ms"]
    details = [
        f"continue_pass_ms      {metrics['op_p50_ms']:.4f} ms  (median of {len(res['times_ms'])} passes;"
        f" wall {stats.median(res['wall_ms']):.4f} ms)",
        f"continue_p50_ms       {stats.median(points):.4f} ms  ({len(points)} single continuations)",
        tail_line("continue", points),
        f"continue_max_abs_err  {res['max_abs_err']!r}",
        *speed_lines(setup, res["speed"]),
    ]
    return finish(
        bench,
        attempted=res["attempted"],
        failed=res["failed"],
        errors=res["errors"],
        metrics=metrics,
        details=details,
        record={"setup_samples": setup, "result": res},
    )


# -- traced runs -------------------------------------------------------


def spans_from(raw: list[dict], offset: int = 0) -> list[Span]:
    return [
        Span(
            r["name"],
            r["start_ns"],
            r["end_ns"],
            None if r["parent"] is None else r["parent"] + offset,
            r["op"],
        )
        for r in raw
    ]


def overhead_pct(traced: dict, plain: dict) -> float:
    """Mean operation time of a traced worker against an untraced one, in per cent."""

    def mean(result):
        return sum(result["times_ms"]) / len(result["times_ms"])

    return 100 * (mean(traced) / mean(plain) - 1)


def layer_metrics(results: list[dict], spans: list[Span], cli_extra: float) -> dict:
    def ms(name):
        return [s.duration_ns / 1e6 for s in spans if s.name == name]

    def med(name, scale=1.0):
        xs = ms(name)
        return scale * stats.median(xs) if xs else 0.0

    def merged(key, default=0.0, pick=max):
        values = [r[key] for r in results if key in r]
        return pick(values) if values else default

    sizes = merged("sizes", {}, pick=lambda v: v[0])
    sup = ms("symexpr.sup_bound")
    integrate_ms = sum(ms("ode_connector.integrate"))
    rhs_total = merged("rhs_total", 0)
    self_ns = self_time_by_module(spans, skip_ops=REPLAYS)
    out = {
        "cli.import_s": merged("import_s", pick=lambda v: v[0]),
        "cli.extra_s": cli_extra,
        "system_model.validate_ms": med("system_model.validate"),
        "system_model.resonance_ms": med("system_model.validate_resonance"),
        "transform_engine.run_ms": med("transform_engine.run"),
        "transform_engine.iterate_ms": med("transform_engine.iterate"),
        "transform_engine.iterations": merged("iterations", 0),
        "symexpr.sup_bound_calls": len(sup),
        "symexpr.sup_bound_p50_ms": stats.median(sup) if sup else 0.0,
        "symexpr.sup_bound_max_ms": max(sup, default=0.0),
        "symexpr.eval_float_us": merged("eval_float_us"),
        "symexpr.max_degree": sizes.get("max_degree", 0),
        "symexpr.max_coeff_bits": sizes.get("max_coeff_bits", 0),
        "poly.mul_us": med("poly.mul", 1e3),
        "poly.gcd_us": med("poly.gcd", 1e3),
        "poly.divmod_us": med("poly.divmod", 1e3),
        "poly.count_roots_us": med("poly.count_roots", 1e3),
        "error_ledger.total_error_bound_s": med("error_ledger.total_error_bound", 1e-3),
        "error_ledger.eta_bound_s": med("error_ledger.eta_bound", 1e-3),
        "error_ledger.matrix_norm_bound_ms": med("error_ledger.matrix_norm_bound"),
        "levinson_solver.check_dichotomy_ms": med("levinson_solver.check_dichotomy"),
        "levinson_solver.exponent_data_ms": med("levinson_solver.exponent_data"),
        "levinson_solver.asymptotic_value_ms": med("levinson_solver.asymptotic_value"),
        "levinson_solver.back_transform_ms": med("levinson_solver.back_transform"),
        "levinson_solver.derive_original_system_ms": med("levinson_solver.derive_original_system"),
        "ode_connector.linear_system_ms": med("ode_connector.linear_system"),
        "ode_connector.integrate_ms": med("ode_connector.integrate"),
        "ode_connector.us_per_rhs": 1e3 * integrate_ms / rhs_total if rhs_total else 0.0,
        "ode_connector.rhs_evals": merged("rhs_evals", 0),
        **{f"{m}.self_s": self_ns.get(m, 0) / 1e9 for m in MODULES},
        "trace.overhead_pct": overhead_pct(results[0], results[-1]),
        "trace.spans": len(spans),
    }
    return out


def traced_result(bench: Bench, results, spans, cli_extra=0.0, cli_op=None) -> dict:
    """Per-layer metrics from traced workers and, last, one untraced worker.

    The untraced worker runs the same operations as results[0], so the
    two give the tracing overhead; its checks count like the others.
    """
    metrics = layer_metrics(results, spans, cli_extra)
    errors = [e for r in results for e in r.get("errors", [])]
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", len(r.get("errors", []))) for r in results)
    if cli_op is not None:
        errors += cli_op["errors"]
        attempted += 2
        failed += cli_op["failed"]
    self_ns = self_time_by_module(spans, skip_ops=REPLAYS)
    total = sum(self_ns.values()) or 1
    details = ["self time by module (traced operations):"]
    for module, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        details.append(f"  {module:<18} {ns / 1e9:9.4f} s  {100 * ns / total:5.1f} %")
    rows = [row for r in results for row in r.get("sup_bound_rows", [])]
    if rows:
        details.append("costliest sup_bound calls:")
        for row in rows[:5]:
            details.append(
                f"  {row['ms']:9.1f} ms  {row['stage']:<26} deg {row['num_degree']}/{row['den_degree']}"
                f"  {row['coeff_bits']:3d} bits  bound {row['bound']:.6e}  {row['entry'][:60]}"
            )
    return finish(
        bench,
        attempted=attempted,
        failed=failed,
        errors=errors,
        metrics=metrics,
        details=details,
        record={
            "results": [{k: v for k, v in r.items() if k != "spans"} for r in results],
            "spans": [vars(s) for s in spans],
        },
    )


# -- output ------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib_metadata.version(pkg)
        except importlib_metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions}


def finish(bench, attempted, failed, errors, metrics, details, record) -> dict:
    units = PER_LAYER if bench.trace else END_TO_END
    meta = {
        "workload": bench.workload,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": int(bench.trace),
        "commit": git_commit(bench.root),
        "machine": machine(),
    }
    summary = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}.json"
    path.write_text(json.dumps({"meta": meta, **summary, "details": details, "errors": errors, "record": record}))
    lines = [f"# {json.dumps(meta)}"]
    lines += [f"# {line}" for line in details]
    lines += [f"# error: {e}" for e in errors[:10]]
    lines += [f"# {k} = {v['value']!r} {v['unit']}" for k, v in summary["metrics"].items()]
    print("\n".join(lines))
    return summary


WORKLOADS = {
    "hypergeom-cli": hypergeom_cli,
    "random-reduce": random_reduce,
    "continuation": continuation,
}


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    Other tenants slow each CPU in their own spells, uncorrelated between
    CPUs, so kernel bursts (speed.py) measure the speed the operations
    ran at only when both ran on the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "levode" / "__init__.py").is_file():
        print("perfbench: run from the root of a levode checkout (no src/levode here)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        summary = WORKLOADS[args.workload](bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
