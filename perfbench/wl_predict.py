"""``predict.lo`` / ``predict.hi``: open-loop ``POST /models/<id>/predict``.

Setup registers :data:`FAMILIES` models, more than the registry's LRU
capacity of 8, then one process sends Poisson arrivals at a fixed rate
over at most two connections.  Each request carries 1-8 held-out rows for
one model, in fixed, skewed proportions shuffled by the seed, so a small,
steady share of requests forces a cold registry load.  Latency runs from the
moment a request was due, so a stalled generator shows in the latency it
causes, and lateness is reported on its own.

``lo`` (20/s) rarely overlaps requests: a lone request pays the batcher's
pairing window.  ``hi`` (100/s) overlaps them regularly but stays well
under the server's capacity.  No capacity search is made: on two shared
cores it would measure the neighbours.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.serverproc import ServerProcess, cold_starts, setup_outcome
from perfbench.spans import load_spans
from perfbench.timing import median, open_loop_figures, poisson_offsets, run_open_loop, tail

RATES = {"predict.lo": 20.0, "predict.hi": 100.0}
#: Served families, most popular first; popularity of rank r is
#: 1/(r+1)**2, so the two models beyond the LRU capacity get about 1.4% of
#: requests.  A steeper share of cold loads made ``predict.hi`` unsteady:
#: each holds the registry lock while it decodes.
FAMILIES = (
    "knn", "lda", "naive_bayes", "rpart", "random_forest",
    "svm", "j48", "c50", "lmt", "bagging",
)
POPULARITY = np.array([1.0 / (r + 1) ** 2 for r in range(len(FAMILIES))])
POPULARITY /= POPULARITY.sum()
CONNECTIONS = 2
COLD_STARTS = 3
TRAIN_ROWS = 200
HELD_OUT_ROWS = 200
FEATURES = 6
CLASSES = 3
SEPARATION = 2.5


def model_id(family: str) -> str:
    return f"model-{family}"


def model_mix(n: int) -> list[str]:
    """``n`` model choices in exact :data:`POPULARITY` proportions
    (largest remainders), so every run of a workload sends the same mix."""
    quotas = POPULARITY * n
    counts = np.floor(quotas).astype(int)
    for i in np.argsort(counts - quotas)[: n - counts.sum()]:
        counts[i] += 1
    return [family for family, count in zip(FAMILIES, counts) for _ in range(count)]


def make_dataset(rng: np.random.Generator, name: str):
    """Three Gaussian classes in six features; returns (train Dataset,
    held-out X, held-out y).  The class geometry is fixed, so model
    quality, and with it ``accuracy``, does not swing between seeds."""
    from repro.data import Dataset

    n = TRAIN_ROWS + HELD_OUT_ROWS
    y = rng.permutation(np.arange(n) % CLASSES)
    X = rng.normal(size=(n, FEATURES))
    X[np.arange(n), y] += SEPARATION
    train = Dataset(X=X[:TRAIN_ROWS], y=y[:TRAIN_ROWS], name=name)
    return train, X[TRAIN_ROWS:], y[TRAIN_ROWS:]


class Predict:
    def __init__(self, ctx, name: str):
        self.ctx = ctx
        self.rate = RATES[name]

    def prepare(self):
        """Train and register the models, then draw the request stream and
        the outputs every response must equal."""
        from repro import KnowledgeBase, SmartML, SmartMLConfig
        from repro.serving import ModelRegistry

        ctx = self.ctx
        rng = np.random.default_rng([ctx.seed, 1])
        self.registry_dir = ctx.work / "models"
        smartml = SmartML(KnowledgeBase(), model_registry=ModelRegistry(self.registry_dir))
        held_out = {}
        self.warm_rows = {}
        for i, family in enumerate(FAMILIES):
            train, X, y = make_dataset(rng, family)
            config = SmartMLConfig(
                time_budget_s=None, max_evals_per_algorithm=1, n_folds=2,
                n_algorithms=1, fallback_portfolio=[family], update_kb=False, seed=i,
            )
            smartml.run(train, config, register_as=model_id(family))
            held_out[family] = (X, y)
            self.warm_rows[family] = X[:1].tolist()

        fresh = ModelRegistry(self.registry_dir, cache_size=len(FAMILIES))
        self.offsets = poisson_offsets(self.rate, ctx.seconds, rng)
        self.requests = []
        for family in rng.permutation(model_mix(len(self.offsets))):
            X, y = held_out[family]
            rows = rng.choice(len(X), size=int(rng.integers(1, 9)), replace=False)
            expected = fresh.load(model_id(family)).predict_rows(X[rows])
            self.requests.append((
                model_id(family), X[rows].tolist(),
                np.asarray(expected).astype(int).tolist(), y[rows].tolist(),
            ))

    def measure(self, tracer=None) -> dict:
        ctx = self.ctx

        def make(i):
            spans = ctx.work / f"spans-{i}.json" if tracer else None
            return ServerProcess(ctx.root, ctx.work / "server.log",
                                 ["--registry", str(self.registry_dir)], spans)

        starts, server = cold_starts(make, COLD_STARTS)
        try:
            outcome = self._traffic(server)
            outcome["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
        outcome.update(setup_outcome(starts))
        outcome["errors"] += outcome.pop("setup_errors")
        if tracer:
            outcome["server_spans"] = load_spans(ctx.work / f"spans-{COLD_STARTS - 1}.json")
        return outcome

    def _traffic(self, server) -> dict:
        client = server.client
        # Warm-up, least popular first, so the LRU starts out holding the
        # most popular models, as it does in steady state.
        for family in reversed(FAMILIES):
            client.predict(model_id(family), self.warm_rows[family])
        stats_before = client.serving_stats()

        def send(i):
            model, rows, expected, _ = self.requests[i]
            sent = time.perf_counter()
            predictions = client.predict(model, rows)["predictions"]
            took = time.perf_counter() - sent
            if predictions != expected:
                raise AssertionError(f"request {i} to {model}: {predictions} != {expected}")
            return took

        records = run_open_loop(self.offsets, send, connections=CONNECTIONS)
        stats_after = client.serving_stats()
        figures = open_loop_figures(records)
        start = min(r[0] for r in records)
        end = max(r[2] for r in records)
        ok = [i for i, r in enumerate(records) if r[3]]
        correct = sum(
            p == t
            for i in ok
            for p, t in zip(self.requests[i][2], self.requests[i][3])
        )
        rows = sum(len(self.requests[i][3]) for i in ok)
        errors = [f"request {i}: {r[4]}" for i, r in enumerate(records) if not r[3]]
        tail_s, tail_pct, n = tail(figures["latency_s"])
        late_tail, _, _ = tail(figures["late_s"])
        late_p50 = 1e3 * median(figures["late_s"])
        registry = {k: stats_after["registry"][k] - stats_before["registry"][k]
                    for k in ("hits", "misses")}
        batcher = {k: stats_after["batcher"][k] - stats_before["batcher"][k]
                   for k in ("requests", "batches")}
        lookups = registry["hits"] + registry["misses"]
        return {
            "p50_ms": 1e3 * median(figures["latency_s"]),
            "p50_note": f"from due time; generator late by {late_p50:.3f} ms at p50",
            "tail_ms": 1e3 * tail_s,
            "tail_pct": tail_pct,
            "samples": n,
            "tail_note": f"{registry['misses']} cold registry loads",
            "ops_per_s": len(ok) / (end - start),
            "accuracy": correct / rows if rows else 0.0,
            "attempted": len(records),
            "failed": figures["failed"],
            "errors": errors,
            "window": (start, end),
            "client_ms": 1e3 * median(records[i][4] for i in ok),
            "layers": {
                "generator.late_ms": 1e3 * late_tail,
                "serving.registry.hit_ratio": registry["hits"] / lookups if lookups else 0.0,
                "serving.registry.misses": registry["misses"],
                "serving.batcher.requests_per_batch": (
                    batcher["requests"] / batcher["batches"] if batcher["batches"] else 0.0
                ),
            },
        }

