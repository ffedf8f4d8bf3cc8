import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import hybridprec.simulate
from hybridprec.precoder import HybridFactors
from tracer import LAYER_METRICS, PATCHES, Span, Tracer, covered, distinct_ratio, layer_metrics, self_times


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),
        Span(3, 1, "b", 2.0, 5.0),  # overlaps a, as threaded children do
        Span(4, 1, "c", 8.0, 9.0),
        Span(5, 2, "a.inner", 1.5, 2.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (4.0 + 1.0)
    assert selfs[2] == 2.0 - 0.5
    assert selfs[3] == 3.0
    assert selfs[5] == 0.5


def test_covered_merges_touching_and_nested_intervals():
    assert covered([]) == 0.0
    assert covered([(0, 2), (2, 3), (1, 1.5), (5, 6)]) == 4.0


def test_distinct_ratio_counts_repeated_keys():
    assert distinct_ratio([("d", 100, 1, 0), ("d", 100, 1, 1), ("d", 100, 1, 0), ("d", 100, 1, 0)]) == 0.5
    assert distinct_ratio(["k"] * 3) == 1 / 3
    assert distinct_ratio([]) == 0.0


def test_wrapped_calls_nest_and_worker_threads_attach_to_main_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(leaf) for _ in range(4)]:
                f.result()

    outer = tracer.wrap("outer", tracer.wrap("middle", fan_out))
    assert threading.current_thread() is threading.main_thread()
    outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (o,), (m,) = by_name["outer"], by_name["middle"]
    assert o.parent is None and m.parent == o.id
    assert len(by_name["leaf"]) == 4 and all(s.parent == m.id for s in by_name["leaf"])
    metrics = layer_metrics(tracer.spans)
    assert set(metrics) == {name for name, _, _ in LAYER_METRICS} - {"trace.overhead_s"}


def test_installed_patches_are_undone():
    original = hybridprec.simulate.draw_ensemble
    with Tracer().installed():
        assert hybridprec.simulate.draw_ensemble is not original
    assert hybridprec.simulate.draw_ensemble is original
    assert all(mod.startswith("hybridprec.") for mod, _, _ in PATCHES)


def test_factorization_check_counts_constraint_violations():
    nt, nt_rf, ns = 16, 4, 2
    good = HybridFactors(analog=np.full((nt, nt_rf), 1 / np.sqrt(nt), dtype=complex),
                         digital=np.full((nt_rf, ns), 0.1, dtype=complex))
    bad_modulus = HybridFactors(analog=good.analog * (1 + 1e-9), digital=good.digital)
    bad_power = HybridFactors(analog=good.analog, digital=good.digital * 10)
    tracer = Tracer()
    stats = tracer._factorization_stats((), {}, ([good, bad_modulus, bad_power], np.zeros((7, 3)), None))
    assert stats == {"iters": 6, "instances": 3}
    assert tracer.constraint_violations == 2


def test_factorization_time_is_split_by_the_curve_that_asked_for_it():
    fac = "precoder.factorize_sgd_batch"
    spans = [
        Span(1, None, "simulate.ber_curve", 0.0, 10.0),
        Span(2, 1, "simulate.build_scheme_factors", 1.0, 9.0),
        Span(3, 2, fac, 1.0, 5.0, {"iters": 100, "instances": 400}),
        Span(4, None, "simulate.mse_vs_iterations", 20.0, 22.0),
        Span(5, 4, fac, 20.0, 21.0, {"iters": 1000, "instances": 20}),
    ]
    metrics = layer_metrics(spans)
    assert metrics[f"{fac}.ber.us_per_instance_iter"] == 4.0 * 1e6 / 40000
    assert metrics[f"{fac}.mse.us_per_instance_iter"] == 1.0 * 1e6 / 20000
    assert metrics[f"{fac}.us_per_instance_iter"] == 5.0 * 1e6 / 60000
