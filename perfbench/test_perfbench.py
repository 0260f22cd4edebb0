"""Self-tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import types

import pytest

from perfbench.layers import span_metrics
from perfbench.spans import Span, Tracer, self_times
from perfbench.timing import TAIL_BEYOND, open_loop_figures, run_open_loop, tail


# ------------------------------------------------------------------ tail rule
@pytest.mark.parametrize("n, percentile, value", [
    (30, 50.0, 14),      # p90 would leave 3 beyond
    (240, 90.0, 215),    # p99 would leave 3 beyond
    (1200, 90.0, 1079),  # p99 would leave 12 beyond
    (1600, 99.0, 1583),
    (20000, 99.9, 19979),
])
def test_tail_is_the_highest_percentile_with_enough_samples_beyond(n, percentile, value):
    values = list(range(n))
    assert tail(values) == (value, percentile, n)
    assert sum(v > value for v in values) >= TAIL_BEYOND


def test_tail_is_order_independent_and_needs_enough_samples():
    shuffled = [7, 3, 19, 0, 12, 5, 16, 1, 9, 14, 2, 18, 6, 11, 4, 17, 8, 13, 10, 15,
                27, 23, 29, 20, 22, 25, 21, 28, 24, 26]
    assert tail(shuffled) == (14, 50.0, 30)
    with pytest.raises(ValueError):
        tail(list(range(2 * TAIL_BEYOND - 1)))


# ---------------------------------------------------------------- open loop
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_latency_from_the_due_time():
    clock = FakeClock()

    def send(i):
        clock.now += 0.3  # every request takes 0.3 s; they are due 0.1 s apart
        return i

    records = run_open_loop([0.0, 0.1, 0.2], send, connections=1,
                            clock=clock, sleep=clock.sleep, start_delay=0.0)
    figures = open_loop_figures(records)
    # Request 1 waits 0.2 s for the busy connection, request 2 waits 0.4 s;
    # both waits are part of the latency the user sees.
    assert figures["latency_s"] == pytest.approx([0.3, 0.5, 0.7])
    assert figures["late_s"] == pytest.approx([0.0, 0.2, 0.4])
    assert figures["failed"] == 0
    assert [r[4] for r in records] == [0, 1, 2]


def test_open_loop_waits_for_due_time_and_counts_failures():
    clock = FakeClock()

    def send(i):
        clock.now += 0.01
        if i == 1:
            raise RuntimeError("refused")
        return i

    records = run_open_loop([0.0, 0.5, 1.0], send, connections=1,
                            clock=clock, sleep=clock.sleep, start_delay=0.0)
    figures = open_loop_figures(records)
    assert [r[1] - r[0] for r in records] == pytest.approx([0.0, 0.0, 0.0])
    assert figures["failed"] == 1
    assert figures["latency_s"] == pytest.approx([0.01, 0.01])
    assert not records[1][3] and isinstance(records[1][4], RuntimeError)


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, "parent", 0.0, 10.0, -1),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),    # overlaps a: [1, 5] is covered once
        Span(3, "c", 9.0, 12.0, 0),   # overhangs the parent: only [9, 10]
        Span(4, "grandchild", 1.5, 2.5, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_span_metrics_count_outermost_predict_and_fold_evals():
    spans = [
        Span(0, "classifiers.knn.predict", 0.0, 2.0, -1),
        Span(1, "classifiers.knn.predict", 0.5, 1.5, 0),  # predict -> predict_proba
        Span(2, "hpo.smac.optimize", 0.0, 4.0, -1,
             {"configs": 4, "fold_evals": 6, "failed": 1, "folds": 3}),
        Span(3, "hpo.objective.evaluate_fold", 1.0, 2.0, 2),
        Span(4, "classifiers.knn.fit", 1.0, 1.5, 3),
        Span(5, "hpo.objective.evaluate_fold", 2.5, 2.6, 2),  # cache hit: no fit
    ]
    metrics = span_metrics(spans)
    assert metrics["classifiers.knn.predict_s"] == pytest.approx(2.0)
    assert metrics["classifiers.knn.fits"] == 1
    assert metrics["hpo.objective.fold_evals"] == 6
    assert metrics["hpo.racing.fold_ratio"] == pytest.approx(6 / 12)
    assert metrics["hpo.failed_trial_ratio"] == pytest.approx(0.25)
    assert metrics["hpo.objective.fold_eval_ms"] == pytest.approx(1000.0)
    assert metrics["hpo.smac.self_s"] == pytest.approx(4.0 - 1.0 - 0.1)
    assert metrics["classifiers.svm.fit_s"] == 0.0


# ---------------------------------------------------------------- wrappers
def _modules():
    defining = types.ModuleType("defining")
    defining.work = lambda x: x + 1
    caller = types.ModuleType("caller")
    caller.work = defining.work  # what ``from defining import work`` does
    caller.use = lambda x: caller.work(x)
    return defining, caller


def test_wrapper_patches_the_name_callers_look_up():
    defining, caller = _modules()
    original = defining.work
    tracer = Tracer()
    tracer.install(caller, "work", "layer.work")
    assert caller.use(1) == 2
    assert defining.work(1) == 2          # the defining module is untouched
    assert [s.name for s in tracer.spans] == ["layer.work"]
    tracer.uninstall()
    assert caller.work is original
    caller.use(1)
    assert len(tracer.spans) == 1


def test_wrapper_on_an_inherited_method_shadows_only_the_subclass():
    class Base:
        def fit(self):
            return "fitted"

        @staticmethod
        def make():
            return "made"

    class Family(Base):
        pass

    tracer = Tracer()
    tracer.install(Family, "fit", "classifiers.family.fit")
    tracer.install(Family, "make", "classifiers.family.make")
    assert Family().fit() == "fitted" and Family.make() == "made"
    assert Base().fit() == "fitted"
    assert [s.name for s in tracer.spans] == ["classifiers.family.fit", "classifiers.family.make"]
    tracer.uninstall()
    assert "fit" not in Family.__dict__ and "make" not in Family.__dict__


def test_nested_spans_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == -1


def test_install_all_patches_repro_where_callers_look_and_restores_it():
    import repro.core.smartml as smartml
    import repro.metafeatures as metafeatures
    from perfbench.layers import install_all
    from repro.kb import KnowledgeBase

    original = smartml.extract_metafeatures
    nominate = KnowledgeBase.nominate
    tracer = Tracer()
    install_all(tracer)
    try:
        assert smartml.extract_metafeatures is not original
        assert metafeatures.extract_metafeatures is original
        assert KnowledgeBase.nominate is not nominate
    finally:
        tracer.uninstall()
    assert smartml.extract_metafeatures is original
    assert KnowledgeBase.nominate is nominate
