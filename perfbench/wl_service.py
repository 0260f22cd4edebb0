"""``service``: closed-loop sessions against the REST job service.

One client runs sessions back to back against ``repro serve`` (journal,
on-disk registry, sharded KB, one experiment worker).  A session uploads a
fresh small CSV, reads its meta-features, asks ``/nominate``, submits a
small experiment with ``register_as`` and polls the job every
:data:`JOB_POLL_S` seconds until it is done.  The KB is pre-populated with
:data:`KB_DATASETS` generated datasets whose runs name cheap families, so
jobs are short and HTTP, journal, KB and registry writes, validation and
meta-features stay a visible share of each job.
"""

from __future__ import annotations

import time
import numpy as np

from perfbench.layers import CLIENT_TARGETS, install, phase_totals
from perfbench.serverproc import ServerProcess, cold_starts, setup_outcome
from perfbench.spans import load_spans
from perfbench.timing import median, tail

KB_DATASETS = 4000
KB_SHARDS = 4
CHEAP_FAMILIES = ("knn", "naive_bayes", "lda", "rpart")
#: Job-completion poll interval; it bounds ``p50_ms`` from below by at
#: most this much, so a run is rejected when it is a large share of it.
JOB_POLL_S = 0.002
COLD_STARTS = 3
TERMINAL = ("done", "failed", "cancelled")


def job_config(index: int) -> dict:
    # Nominating every cheap family keeps each job's candidate mix the
    # same whichever KB rows a seed draws.
    return {
        "time_budget_s": None,
        "max_evals_per_algorithm": 2,
        "n_folds": 2,
        "n_algorithms": len(CHEAP_FAMILIES),
        "seed": index,
    }


def session_csv(rng: np.random.Generator) -> str:
    """A small numeric CSV with a ``label`` column; every class present."""
    n = int(rng.integers(60, 121))
    d = int(rng.integers(3, 7))
    k = int(rng.integers(2, 4))
    y = rng.permutation(np.arange(n) % k)
    X = rng.normal(size=(n, d))
    X[:, 0] += 1.5 * y
    lines = [",".join([f"f{j}" for j in range(d)] + ["label"])]
    lines += [
        ",".join(f"{v:.5f}" for v in row) + f",c{label}" for row, label in zip(X, y)
    ]
    return "\n".join(lines) + "\n"


def populate_kb(root, rng: np.random.Generator) -> None:
    """Fill a fresh sharded KB with generated datasets and cheap-family runs."""
    from repro.kb import KnowledgeBase
    from repro.metafeatures import META_FEATURE_NAMES, MetaFeatures

    kb = KnowledgeBase(root, shards=KB_SHARDS)
    try:
        for i in range(KB_DATASETS):
            values = np.abs(rng.normal(1.0, 1.0, size=len(META_FEATURE_NAMES)))
            metafeatures = MetaFeatures(**dict(zip(META_FEATURE_NAMES, map(float, values))))
            runs = [
                {"algorithm": family, "config": {}, "n_folds": 2,
                 "accuracy": float(rng.uniform(0.4, 0.95))}
                for family in CHEAP_FAMILIES
            ]
            kb.add_result_batch(f"generated-{i}", metafeatures, runs)
    finally:
        kb.close()


class Service:
    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self):
        started = time.perf_counter()
        populate_kb(self.ctx.work / "kb", np.random.default_rng([self.ctx.seed, 1]))
        self.populate_s = time.perf_counter() - started

    def measure(self, tracer=None) -> dict:
        ctx = self.ctx
        state = ctx.work
        serve_args = [
            "--kb", str(state / "kb"),
            "--journal", str(state / "jobs.wal"),
            "--registry", str(state / "models"),
        ]

        def make(i):
            spans = state / f"spans-{i}.json" if tracer else None
            return ServerProcess(ctx.root, ctx.work / "server.log", serve_args, spans)

        starts, server = cold_starts(make, COLD_STARTS)
        if tracer:
            install(tracer, CLIENT_TARGETS)
        try:
            outcome = self._sessions(server)
            outcome["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
            if tracer:
                tracer.uninstall()
        outcome.update(setup_outcome(starts))
        outcome["errors"] += outcome.pop("setup_errors")
        if tracer:
            outcome["server_spans"] = load_spans(state / f"spans-{COLD_STARTS - 1}.json")
        return outcome

    def _sessions(self, server) -> dict:
        client = server.client
        rng = np.random.default_rng([self.ctx.seed, 0])
        kb_before = client.kb_stats()["datasets"]
        job_s, polls, accuracies, phases, queue_s, run_s = [], [], [], [], [], []
        errors = []
        attempted = 0
        start = time.perf_counter()
        while time.perf_counter() - start < self.ctx.seconds:
            csv_text = session_csv(rng)
            index = attempted
            attempted += 1
            model_id = f"session-{index}"
            try:
                upload = client.upload_csv(csv_text, target="label", name=model_id)
                features = client.metafeatures(upload["dataset_id"])["metafeatures"]
                nominations = client.nominate(
                    features, n_algorithms=len(CHEAP_FAMILIES)
                )["nominations"]
                if {n["algorithm"] for n in nominations} != set(CHEAP_FAMILIES):
                    raise AssertionError(f"unexpected nominations {nominations!r}")
                submitted = time.perf_counter()
                job = client.submit_experiment(
                    upload["dataset_id"], job_config(index), register_as=model_id
                )
                n_polls = 0
                while True:
                    n_polls += 1
                    job = client.get_experiment(job["job_id"])
                    if job["status"] in TERMINAL:
                        break
                    time.sleep(JOB_POLL_S)
                finished = time.perf_counter()
                result = job.get("result") or {}
                registration = result.get("registration") or {}
                if job["status"] != "done" or result.get("degraded"):
                    raise AssertionError(f"job {job['job_id']} {job['status']}: {job.get('error')}")
                if registration.get("model_id") != model_id:
                    raise AssertionError(f"job {job['job_id']} registered {registration!r}")
            except Exception as exc:  # a failed session counts against attempted
                errors.append(f"session {index}: {type(exc).__name__}: {exc}")
                continue
            job_s.append(finished - submitted)
            polls.append(n_polls)
            accuracies.append(result["validation_accuracy"])
            phases.append(result["phase_seconds"])
            queue_s.append(job["queue_seconds"])
            run_s.append(job["run_seconds"])
        elapsed = time.perf_counter() - start
        kb_growth = client.kb_stats()["datasets"] - kb_before
        if kb_growth != len(job_s):
            errors.append(f"KB grew by {kb_growth} datasets for {len(job_s)} finished jobs")

        job_p50 = median(job_s)
        if JOB_POLL_S > 0.1 * job_p50:
            errors.append(
                f"job poll interval {JOB_POLL_S * 1e3:.1f} ms is over a tenth of "
                f"the job median {job_p50 * 1e3:.1f} ms"
            )
        tail_s, tail_pct, n = tail(job_s)
        layers = phase_totals(phases)
        layers.update({
            "kb.populate_s": self.populate_s,
            "api.polls_per_job": float(np.mean(polls)) if polls else 0.0,
            "api.jobs.queue_ms": 1e3 * median(queue_s),
            "api.jobs.run_ms": 1e3 * median(run_s),
        })
        return {
            "p50_ms": 1e3 * job_p50,
            "p50_note": f"completion polled every {JOB_POLL_S * 1e3:g} ms",
            "tail_ms": 1e3 * tail_s,
            "tail_pct": tail_pct,
            "samples": n,
            "ops_per_s": len(job_s) / elapsed,
            "accuracy": float(np.mean(accuracies)),
            "attempted": attempted,
            "failed": attempted - len(job_s),
            "errors": errors,
            "window": (start, start + elapsed),
            "layers": layers,
        }
