"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Run from the root of a levode checkout.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, self_time_by_module, self_times_ns  # noqa: E402


@pytest.mark.parametrize("n", [20, 21, 50, 99, 100, 101, 150, 200, 201, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    q, value = stats.tail_percentile(xs)
    assert sum(1 for x in xs if x > value) >= 10
    if q < 99:
        above_next = sum(1 for x in xs if x > stats.percentile(xs, q + 1))
        assert above_next < 10


def test_tail_percentile_known_cases():
    assert stats.tail_percentile(range(1, 201)) == (95, 190)
    assert stats.tail_percentile(range(1, 101)) == (90, 90)
    # below 20 samples only sub-median percentiles leave ten beyond
    assert stats.tail_percentile(range(19)) is None


def test_tail_percentile_counts_ties_as_not_beyond():
    xs = [1.0] * 95 + [2.0] * 5
    assert stats.tail_percentile(xs) is None
    xs = [1.0] * 90 + [2.0] * 10
    assert stats.tail_percentile(xs) == (90, 1.0)


def test_quartile_spread_matches_statistics():
    assert stats.quartile_spread([10, 10, 10, 10]) == 0
    assert stats.quartile_spread([9, 10, 10, 11]) == pytest.approx(
        (10.75 - 9.25) / 10
    )


def test_speed_scale_is_reference_over_mean_burst():
    log = speed.SpeedLog(burst_s=0.0, every_s=1.0)
    with pytest.raises(ValueError):
        log.scale()
    log.ms += [speed.REFERENCE_MS, 3 * speed.REFERENCE_MS]
    assert log.scale() == pytest.approx(0.5)


def test_speed_sample_times_the_kernel():
    log = speed.SpeedLog(burst_s=0.01, every_s=60.0)
    assert log.due()
    start = time.perf_counter()
    log.sample()
    assert not log.due()
    (ms,) = log.ms
    assert 3 * ms <= 1000 * (time.perf_counter() - start)


def _span(name, start, end, parent=None, op="x"):
    return Span(name, start, end, parent, op)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("cli.root", 0, 100),
        _span("error_ledger.a", 10, 40, parent=0),
        _span("symexpr.b", 20, 30, parent=1),
        _span("poly.c", 50, 70, parent=0),
    ]
    assert self_times_ns(spans) == [50, 20, 10, 20]
    assert self_time_by_module(spans) == {
        "cli": 50,
        "error_ledger": 20,
        "symexpr": 10,
        "poly": 20,
    }


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("cli.root", 0, 100),
        _span("poly.a", 10, 50, parent=0),
        _span("poly.b", 30, 60, parent=0),
        _span("poly.c", 90, 120, parent=0),
    ]
    assert self_times_ns(spans)[0] == 100 - 50 - 10


def test_self_time_skips_probe_operations():
    spans = [_span("cli.root", 0, 10, op="probe"), _span("poly.a", 0, 5)]
    assert self_time_by_module(spans, skip_ops={"probe"}) == {"poly": 5}


def test_tracer_self_times_sum_to_root_duration():
    tracer = Tracer()
    tracer.op = "op-1"
    with tracer.span("cli.outer"):
        with tracer.span("transform_engine.mid"):
            with tracer.span("poly.inner"):
                sum(range(1000))
        with tracer.span("symexpr.other"):
            sum(range(1000))
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert all(s.op == "op-1" for s in spans)
    assert sum(self_times_ns(spans)) == spans[0].duration_ns
    assert all(t >= 0 for t in self_times_ns(spans))


def test_counting_proxy_counts_every_rhs_evaluation_and_repeats():
    import worker
    from levode import LinearSystem, integrate, linear_system
    from levode.fixtures import hypergeometric_companion

    A = hypergeometric_companion()
    system = linear_system(A, 0, 10)
    plain = integrate(system, (10.0, 1.0, 0.0), 10, 2, rtol=1e-8, atol=1e-10)
    counts = []
    for _ in range(2):
        proxy = worker.CountingMatrix(A)
        counted = integrate(
            LinearSystem(A=proxy, domain=system.domain),
            (10.0, 1.0, 0.0),
            10,
            2,
            rtol=1e-8,
            atol=1e-10,
        )
        assert counted == plain
        assert proxy.ns > 0
        counts.append(proxy.calls)
    assert counts[0] == counts[1] > 0


def test_counting_proxy_counts_direct_calls():
    import worker
    from levode.fixtures import hypergeometric_companion

    A = hypergeometric_companion()
    proxy = worker.CountingMatrix(A)
    for x in (0.5, 1.0, Fraction(3, 2)):
        assert proxy.eval_float(x) == A.eval_float(x)
    assert proxy.calls == 3
    assert proxy.entries is A.entries


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def _reduced_two_step_problem():
    """The first M=2 problem of the acceptance sweep, reduced in this process."""
    import random

    import worker
    from levode.sampling import random_problem
    from levode.transform_engine import run as reduce

    rng = random.Random(worker.REDUCE_STREAM_SEED)
    spec = next(s for s in (random_problem(rng) for _ in range(200)) if s.M == 2)
    return spec, reduce(spec)


def test_check_reduction_recomputes_instead_of_reading_the_caches():
    import worker
    from levode.transform_engine import commutator_terms

    spec, fs = _reduced_two_step_problem()
    assert worker.check_reduction(spec, fs) is None
    # run() has just cached the very state the check rebuilds for iteration
    # 1; a cache hit would hand back run()'s own result unchecked
    assert commutator_terms.cache_info().hits == 0


def test_check_reduction_reports_a_tampered_transcript():
    import dataclasses

    import worker
    from levode.symexpr import RationalFn, SymMatrix

    spec, fs = _reduced_two_step_problem()
    rec = fs.iterations[0]
    bump = SymMatrix.zeros(spec.n).with_entry(0, 1, RationalFn.x_power(-1))
    bad = dataclasses.replace(rec, psplit=dataclasses.replace(rec.psplit, plain=rec.psplit.plain + bump))
    tampered = dataclasses.replace(fs, iterations=(bad, *fs.iterations[1:]))
    assert "recomputed P differs" in worker.check_reduction(spec, tampered)


def test_overhead_compares_mean_operation_times():
    assert run.overhead_pct({"times_ms": [11.0, 13.0]}, {"times_ms": [12.0]}) == 0
    assert run.overhead_pct({"times_ms": [15.0]}, {"times_ms": [10.0, 10.0]}) == pytest.approx(50)


GOOD_SOLVE = dict(
    total=reference.TOTAL_ERROR_BOUND_MAX,
    eta=reference.ETA_BOUND_MAX,
    z_at_x=(0.0, 0.0, 0.09990009993337498),
    y_at_x=(0.09996009933218178, -0.009984069933576718, 0.001992013986677493),
    y0=(1.8777858808658072, -1.7630399065703817, 2.0000000007168395),
    dichotomy_ok=True,
)


def test_reference_checks_accept_the_pinned_outputs():
    assert reference.check_transform(
        reference.LAMBDA1, reference.S1, reference.S2, reference.TOTAL_ERROR_BOUND_MAX
    ) == []
    assert reference.check_solve(**GOOD_SOLVE) == []


@pytest.mark.parametrize(
    "change",
    [
        {"total": reference.TOTAL_ERROR_BOUND_MAX * 1.001},
        {"eta": reference.ETA_BOUND_MAX * 1.001},
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"y0": (1.87779, -1.7630399065703817, 2.0000000007168395)},
        {"y_at_x": (0.0999, -0.009984069933576718, 0.001992013986677493)},
        {"dichotomy_ok": False},
    ],
)
def test_reference_checks_reject_loosened_bounds_and_wrong_values(change):
    assert len(reference.check_solve(**(GOOD_SOLVE | change))) == 1


def test_reference_checks_reject_a_changed_canonical_string():
    s2 = [row[:] for row in reference.S2]
    s2[1][0] = "(252*x^3 + 73)/(x^9)"
    assert len(reference.check_transform(
        reference.LAMBDA1, reference.S1, s2, reference.TOTAL_ERROR_BOUND_MAX
    )) == 1
