"""Micro-batching correctness under adversarial concurrency.

Three properties, in rising order of subtlety:

1. *row ownership* — N threads firing rows at the same model each get
   exactly their own predictions back, order preserved, no matter how the
   scheduler interleaves their arrivals;
2. *error isolation* — a request that poisons a coalesced pass fails
   alone; its batch-mates still get answers;
3. *bit-identity* — for row-local families, a row predicted inside a
   coalesced batch carries exactly the same bits as the same row predicted
   solo (the pad-to-gemm trick in the executor is what makes this hold for
   single-row requests too).

Batches are made deterministically, not by timing: a gate holds the
batcher's first pass in flight until every other request has queued, and
natural batching must then take the queued requests together.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.classifiers import CLASSIFIER_REGISTRY
from repro.core.result import SmartMLResult
from repro.data import SyntheticSpec, make_dataset
from repro.preprocess import Imputer, Pipeline
from repro.serving import ModelRegistry, PredictionBatcher
from repro.serving.batcher import BatchRequestError
from repro.serving.registry import RegistryError

#: Families whose predict path treats every row independently — for these
#: the batched == unbatched guarantee is *bitwise*.  LMT is deliberately
#: absent: it regroups rows by leaf and fits nothing per row, so its
#: outputs are deterministic per batch but not stable across batch
#: compositions (see docs/serving.md).
ROW_LOCAL = {
    "random_forest": {"ntree": 5},
    "knn": {"k": 3},
    "svm": {},
    "naive_bayes": {},
    "lda": {},
}


@pytest.fixture(scope="module")
def served():
    train = make_dataset(
        SyntheticSpec(name="batch-train", n_instances=90, n_features=6,
                      n_classes=3, class_sep=2.0, seed=43)
    )
    fresh = make_dataset(
        SyntheticSpec(name="batch-fresh", n_instances=64, n_features=6,
                      n_classes=3, class_sep=2.0, seed=47)
    )
    pipeline = Pipeline([Imputer()])
    prepared = pipeline.fit_transform(train)
    registry = ModelRegistry()
    for name, params in ROW_LOCAL.items():
        model = CLASSIFIER_REGISTRY[name](**params)
        model.fit(prepared.X, prepared.y, n_classes=train.n_classes)
        result = SmartMLResult(
            dataset_name=train.name, best_algorithm=name, best_config=dict(params),
            validation_accuracy=0.0, model=model, pipeline=pipeline,
        )
        registry.register(name, result, dataset=train)
    return registry, fresh


GATE_TIMEOUT_S = 30.0


def _behind_first_pass(batcher, blocker, jobs, queued=None):
    """Run ``blocker`` and hold its pass in flight until ``jobs`` queue.

    ``blocker`` runs on its own thread; once its pass is inside
    ``_run_pass``, every job starts on its own thread, and the pass is
    released only after ``queued`` more requests (default: all jobs) have
    been counted at enqueue.  Returns the outcomes of ``[blocker, *jobs]``
    as ``("ok", value)`` / ``("err", exc)`` pairs.
    """
    queued = len(jobs) if queued is None else queued
    entered, release = threading.Event(), threading.Event()
    run_pass = batcher._run_pass

    def gated(entry, X, proba, use_ensemble):
        if not entered.is_set():  # only the worker thread runs passes here
            entered.set()
            assert release.wait(GATE_TIMEOUT_S), "gate never released"
        return run_pass(entry, X, proba, use_ensemble)

    batcher._run_pass = gated
    outcomes: list = [None] * (len(jobs) + 1)

    def run(i, fn):
        try:
            outcomes[i] = ("ok", fn())
        except Exception as exc:
            outcomes[i] = ("err", exc)

    first = threading.Thread(target=run, args=(0, blocker))
    threads: list[threading.Thread] = []
    first.start()
    try:
        assert entered.wait(GATE_TIMEOUT_S), "first pass never started"
        before = batcher.stats().requests
        threads = [
            threading.Thread(target=run, args=(i + 1, fn)) for i, fn in enumerate(jobs)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + GATE_TIMEOUT_S
        while batcher.stats().requests < before + queued:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.001)
    finally:
        release.set()
    for t in [first, *threads]:
        t.join(GATE_TIMEOUT_S)
        assert not t.is_alive()
    return outcomes


def test_each_thread_gets_exactly_its_rows(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    try:
        # ~20 requests with uneven slice sizes, all against one model.
        slices, cursor, size = [], 0, 1
        while cursor < fresh.n_instances:
            slices.append((cursor, min(cursor + size, fresh.n_instances)))
            cursor += size
            size = size % 5 + 1
        expected = registry.load("knn").predict_rows(fresh.X, proba=True)
        jobs = [
            (lambda lo=lo, hi=hi: batcher.predict("knn", fresh.X[lo:hi], proba=True))
            for lo, hi in slices
        ]
        outcomes = _behind_first_pass(batcher, jobs[0], jobs[1:])
        for (lo, hi), (status, value) in zip(slices, outcomes):
            assert status == "ok"
            assert value.shape == (hi - lo, 3)
            assert np.array_equal(value, expected[lo:hi]), (
                f"rows [{lo}:{hi}] came back wrong under concurrency"
            )
        stats = batcher.stats()
        assert stats.requests == len(slices)
        assert stats.rows == fresh.n_instances
        assert stats.max_batch_requests == len(slices) - 1
    finally:
        batcher.shutdown()


def test_row_ownership_under_free_interleaving(served):
    """No gate: the scheduler decides which requests share a pass."""
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    expected = registry.load("lda").predict_rows(fresh.X, proba=True)
    spans = [(lo, lo + 1 + lo % 3) for lo in range(0, 60, 2)]
    outcomes: list = [None] * len(spans)
    barrier = threading.Barrier(len(spans))

    def run(i, lo, hi):
        barrier.wait()
        for _ in range(5):
            value = batcher.predict("lda", fresh.X[lo:hi], proba=True)
            if not np.array_equal(value, expected[lo:hi]):
                outcomes[i] = f"rows [{lo}:{hi}] came back wrong"
                return
        outcomes[i] = "ok"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=run, args=(i, lo, hi))
            for i, (lo, hi) in enumerate(spans)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(GATE_TIMEOUT_S)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
        batcher.shutdown()
    assert outcomes == ["ok"] * len(spans)
    stats = batcher.stats()
    assert stats.requests == 5 * len(spans)
    assert stats.rows == 5 * sum(hi - lo for lo, hi in spans)
    assert stats.failed_requests == 0


@pytest.mark.parametrize("family", sorted(ROW_LOCAL))
def test_batched_equals_unbatched_bit_for_bit(served, family):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    try:
        chunks = [fresh.X[i : i + 3] for i in range(0, 24, 3)] + [fresh.X[30:31]]
        # Solo reference: each chunk through its own pass, no coalescing.
        solo = [batcher.predict(family, c, proba=True, coalesce=False) for c in chunks]
        jobs = [(lambda c=c: batcher.predict(family, c, proba=True)) for c in chunks]
        outcomes = _behind_first_pass(batcher, jobs[0], jobs[1:])
        for reference, (status, value) in zip(solo, outcomes):
            assert status == "ok"
            assert np.array_equal(reference, value), (
                f"{family}: batched proba differs from solo proba"
            )
        assert batcher.stats().coalesced_requests > 0, (
            "test never actually coalesced"
        )
    finally:
        batcher.shutdown()


def test_malformed_request_rejected_before_joining_a_batch(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    try:
        jobs = [lambda: batcher.predict("lda", fresh.X[:4])] * 2
        jobs.insert(0, lambda: batcher.predict("lda", fresh.X[:4, :2]))  # wrong width
        jobs.insert(2, lambda: batcher.predict("lda", [["a", "b"]]))  # not numeric
        outcomes = _behind_first_pass(
            batcher, lambda: batcher.predict("lda", fresh.X[:4]), jobs, queued=2
        )
        statuses = [status for status, _ in outcomes]
        assert statuses.count("ok") == 3
        assert statuses.count("err") == 2
        for status, value in outcomes:
            if status == "err":
                assert isinstance(value, BatchRequestError)
        assert batcher.stats().failed_requests == 0  # rejected at the door
    finally:
        batcher.shutdown()


def test_poison_row_in_coalesced_batch_fails_alone(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    try:
        # inf passes the batcher's shape checks and survives imputation
        # (which only fills NaN), then detonates at the model's check_X.
        poison = fresh.X[:2].copy()
        poison[0, 0] = np.inf
        healthy = [fresh.X[4:8], fresh.X[8:10], fresh.X[10:15]]
        expected = [
            batcher.predict("naive_bayes", rows, coalesce=False) for rows in healthy
        ]
        jobs = [(lambda r=r: batcher.predict("naive_bayes", r)) for r in healthy]
        jobs.insert(1, lambda: batcher.predict("naive_bayes", poison))
        outcomes = _behind_first_pass(batcher, jobs[0], jobs[1:])
        errors = [value for status, value in outcomes if status == "err"]
        oks = [value for status, value in outcomes if status == "ok"]
        assert len(errors) == 1, "exactly the poisoned request must fail"
        assert len(oks) == 3
        for reference, value in zip(expected, oks):
            assert np.array_equal(reference, value)
        stats = batcher.stats()
        assert stats.isolation_reruns >= 1
        assert stats.failed_requests == 1
    finally:
        batcher.shutdown()


def test_backlog_queued_behind_a_pass_forms_the_next_pass(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    try:
        n = 19
        jobs = [
            (lambda i=i: batcher.predict("lda", fresh.X[i : i + 2]))
            for i in range(2, 2 * n + 2, 2)
        ]
        outcomes = _behind_first_pass(
            batcher, lambda: batcher.predict("lda", fresh.X[0:2]), jobs
        )
        assert all(status == "ok" for status, _ in outcomes)
        stats = batcher.stats()
        assert stats.requests == n + 1
        assert stats.batches == 2
        assert stats.max_batch_requests == n
        assert stats.coalesced_requests == n
    finally:
        batcher.shutdown()


def test_max_batch_rows_respected(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, max_batch_rows=8)
    try:
        jobs = [(lambda i=i: batcher.predict("knn", fresh.X[i : i + 5])) for i in range(6)]
        outcomes = _behind_first_pass(batcher, jobs[0], jobs[1:])
        assert all(status == "ok" for status, _ in outcomes)
        stats = batcher.stats()
        assert stats.max_batch_rows <= 8
        assert stats.batches == 6  # no two 5-row requests fit in 8 rows
    finally:
        batcher.shutdown()


def test_different_models_never_share_a_batch(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    try:
        names = ("knn", "lda", "naive_bayes")
        expected = {
            name: registry.load(name).predict_rows(fresh.X[:6], proba=True)
            for name in names
        }
        jobs = [
            (lambda n=name: (n, batcher.predict(n, fresh.X[:6], proba=True)))
            for name in names * 3
        ]
        outcomes = _behind_first_pass(batcher, jobs[0], jobs[1:])
        for status, value in outcomes:
            assert status == "ok"
            name, proba = value
            assert np.array_equal(proba, expected[name])
        # The held knn pass, then one pass per model for the queued backlog.
        stats = batcher.stats()
        assert stats.batches == 1 + len(names)
        assert stats.max_batch_requests == 3
    finally:
        batcher.shutdown()


def test_worker_runs_the_model_resolved_at_enqueue(served, monkeypatch):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    loads = []
    load = registry.load
    monkeypatch.setattr(
        registry, "load", lambda *a, **kw: loads.append(a) or load(*a, **kw)
    )
    try:
        poison = fresh.X[:2].copy()
        poison[0, 0] = np.inf
        jobs = [
            lambda: batcher.predict("naive_bayes", fresh.X[4:8]),
            lambda: batcher.predict("naive_bayes", poison),
        ]
        outcomes = _behind_first_pass(
            batcher, lambda: batcher.predict("naive_bayes", fresh.X[:4]), jobs
        )
        assert [status for status, _ in outcomes] == ["ok", "ok", "err"]
        assert batcher.stats().isolation_reruns == 1
        # One lookup per request, at enqueue: neither the combined pass nor
        # the isolation re-run goes back to the registry.
        assert len(loads) == 3
    finally:
        batcher.shutdown()


def test_shutdown_fails_pending_and_rejects_new(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry)
    batcher.shutdown()
    with pytest.raises(RegistryError, match="shut down"):
        batcher.predict("knn", fresh.X[:2])
    batcher.shutdown()  # idempotent
