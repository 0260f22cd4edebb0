"""Prediction-serving throughput: micro-batched vs per-request execution.

Drives a registered model through the :class:`~repro.serving.batcher.
PredictionBatcher` with N concurrent client threads, twice:

* ``per_request`` — every request runs its own pipeline+model pass
  (``coalesce=False``), the naive serving loop;
* ``batched`` — natural batching: a request that finds the batcher idle
  runs at once, and requests that queue while a pass runs share the next
  pass and get their slices back.

For each mode and client count it reports request throughput (req/s) and
p50/p99 latency.  Before any number is recorded, every batched response is
asserted **bit-identical** to its per-request twin — the speedup must come
from coalescing, not from answering a different question.  Families here
are row-local (see ``docs/serving.md``), so bitwise equality is the
contract, not an aspiration.

Writes ``BENCH_serving.json`` at the repo root.

Run: ``PYTHONPATH=src python benchmarks/bench_serving.py``
(``--requests/--clients/--families`` shrink it for CI smoke runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

from repro.classifiers import CLASSIFIER_REGISTRY
from repro.core.result import SmartMLResult
from repro.data import SyntheticSpec, make_dataset
from repro.preprocess import Imputer, Pipeline
from repro.serving import ModelRegistry, PredictionBatcher

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Row-local families (batched == per-request bit-for-bit) with enough
#: per-pass fixed cost for coalescing to pay.
FAMILIES = {
    "random_forest": {"ntree": 30},
    "knn": {"k": 5},
    "svm": {},
}


def _registry(rows: int, features: int, classes: int, seed: int, families):
    train = make_dataset(
        SyntheticSpec(
            name="serving-bench", n_instances=rows, n_features=features,
            n_classes=classes, n_informative=max(2, features // 2),
            class_sep=1.6, seed=seed,
        )
    )
    pipeline = Pipeline([Imputer()])
    prepared = pipeline.fit_transform(train)
    registry = ModelRegistry()
    for name in families:
        model = CLASSIFIER_REGISTRY[name](**FAMILIES[name])
        model.fit(prepared.X, prepared.y, n_classes=train.n_classes)
        registry.register(
            name,
            SmartMLResult(
                dataset_name=train.name, best_algorithm=name,
                best_config=dict(FAMILIES[name]), validation_accuracy=0.0,
                model=model, pipeline=pipeline,
            ),
            dataset=train,
        )
    rng = np.random.default_rng(seed + 1)
    fresh = rng.normal(size=(512, features))
    return registry, fresh


def _drive(batcher, family, fresh, clients: int, requests: int,
           rows_per_request: int, coalesce: bool):
    """N client threads issuing ``requests`` each; returns latencies + outputs."""
    latencies = [[] for _ in range(clients)]
    outputs = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(c: int) -> None:
        rng = np.random.default_rng(1000 + c)
        barrier.wait()
        for _ in range(requests):
            lo = int(rng.integers(0, fresh.shape[0] - rows_per_request))
            rows = fresh[lo : lo + rows_per_request]
            started = time.perf_counter()
            proba = batcher.predict(family, rows, proba=True, coalesce=coalesce)
            latencies[c].append(time.perf_counter() - started)
            outputs[c].append((lo, proba))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    flat = sorted(lat for per_client in latencies for lat in per_client)
    return {
        "wall_seconds": wall,
        "requests_per_second": (clients * requests) / wall,
        "p50_ms": 1e3 * flat[len(flat) // 2],
        "p99_ms": 1e3 * flat[min(len(flat) - 1, int(len(flat) * 0.99))],
    }, outputs


def _assert_identical(per_request, batched) -> None:
    for solo_client, batch_client in zip(per_request, batched):
        for (lo_a, proba_a), (lo_b, proba_b) in zip(solo_client, batch_client):
            assert lo_a == lo_b
            if not np.array_equal(proba_a, proba_b):
                raise SystemExit(
                    "batched prediction diverged from per-request prediction "
                    "— bit-identity contract broken"
                )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=600)
    parser.add_argument("--features", type=int, default=12)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--clients", type=int, nargs="*", default=[1, 2, 8, 16])
    parser.add_argument("--requests", type=int, default=40,
                        help="requests per client per cell")
    parser.add_argument("--rows-per-request", type=int, default=4,
                        dest="rows_per_request")
    parser.add_argument("--families", type=int, default=len(FAMILIES),
                        help="how many families to serve (CI smoke: 1)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    families = list(FAMILIES)[: max(1, args.families)]
    registry, fresh = _registry(
        args.rows, args.features, args.classes, args.seed, families
    )
    print(f"{len(families)} served model(s), {args.requests} req/client, "
          f"{args.rows_per_request} row(s)/req ({os.cpu_count()} cpu(s)) ...")

    cells = {}
    for family in families:
        for clients in args.clients:
            batcher = PredictionBatcher(registry)
            try:
                solo_stats, solo_out = _drive(
                    batcher, family, fresh, clients, args.requests,
                    args.rows_per_request, coalesce=False,
                )
                # Per-request passes count as one-request batches too, so
                # coalescing is read from the batched drive alone.
                before = batcher.stats()
                batch_stats, batch_out = _drive(
                    batcher, family, fresh, clients, args.requests,
                    args.rows_per_request, coalesce=True,
                )
                after = batcher.stats()
            finally:
                batcher.shutdown()
            _assert_identical(solo_out, batch_out)
            speedup = (
                batch_stats["requests_per_second"]
                / solo_stats["requests_per_second"]
            )
            cells[f"{family}_{clients}"] = {
                "family": family,
                "clients": clients,
                "per_request": {k: round(v, 4) for k, v in solo_stats.items()},
                "batched": {k: round(v, 4) for k, v in batch_stats.items()},
                "batched_speedup": round(speedup, 2),
                "mean_requests_per_batch": round(
                    (after.requests - before.requests)
                    / (after.batches - before.batches), 2
                ),
                "identical_predictions": True,
            }
            print(
                f"{family}@{clients} clients: "
                f"{solo_stats['requests_per_second']:.0f} -> "
                f"{batch_stats['requests_per_second']:.0f} req/s "
                f"({speedup:.2f}x), p99 {solo_stats['p99_ms']:.1f} -> "
                f"{batch_stats['p99_ms']:.1f} ms"
            )

    payload = {
        "benchmark": "serving_microbatch",
        "families": families,
        "clients": args.clients,
        "requests_per_client": args.requests,
        "rows_per_request": args.rows_per_request,
        "rows": args.rows, "features": args.features, "classes": args.classes,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
