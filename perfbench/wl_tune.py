"""``tune``: in-process ``SmartML.run``, one caller in a closed loop.

The caller runs the 10 Table-4 stand-ins in registry order, with
``time_budget_s=None`` and :data:`EVALS` evaluations per algorithm, against
a fresh on-disk KB with ``update_kb`` on, and repeats whole rotations until
``--seconds`` have passed.  The KB starts empty, so the first experiment
runs the fallback portfolio (random_forest, svm, knn) and every later one
is nominated from, and warm-started by, the experiments before it: the
classifiers and ``hpo`` do nearly all the work.

The inputs are the same for every workload seed.  How long a rotation
takes depends mostly on which configurations SMAC draws (a forest's
``ntree`` x ``mtry`` varies the cost of a trial by more than 10x), and a
rotation holds only ten experiments, so per-seed config seeds or row
orders moved the rotation time by up to 2x between seeds.  Fixed inputs
make every run do the same search, so the spread between runs is the
machine's, and parent and change are compared on identical work.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from perfbench.layers import install_all, phase_totals
from perfbench.machine import own_peak_rss_mb
from perfbench.serverproc import child_env
from perfbench.timing import median

#: Evaluations per algorithm: above SMAC's ``min_history_for_model`` (4),
#: so every candidate's last configuration is a surrogate proposal.
EVALS = 5
COLD_STARTS = 3

#: What a user pays at every start of a script: the interpreter, importing
#: ``repro``, opening the KB and loading the stand-ins.
COLD_START = (
    "import sys\n"
    "from repro import KnowledgeBase, SmartML\n"
    "from repro.data import eval_dataset_names, load_eval_dataset\n"
    "kb = KnowledgeBase(sys.argv[1])\n"
    "datasets = [load_eval_dataset(name) for name in eval_dataset_names()]\n"
    "SmartML(kb)\n"
    "kb.close()\n"
)


def experiment_config(index: int):
    from repro import SmartMLConfig

    return SmartMLConfig(time_budget_s=None, max_evals_per_algorithm=EVALS, seed=index)


class Tune:
    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self):
        from repro.data import eval_dataset_names, load_eval_dataset

        self.rotation = [
            (load_eval_dataset(name), experiment_config(i))
            for i, name in enumerate(eval_dataset_names())
        ]
        kb_path = self.ctx.work / "tune-cold-start-kb.jsonl"
        self.starts = []
        for _ in range(COLD_STARTS):
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", COLD_START, str(kb_path)],
                cwd=self.ctx.root, env=child_env(self.ctx.root), check=True,
            )
            self.starts.append(time.perf_counter() - started)

    def measure(self, tracer=None) -> dict:
        from repro import KnowledgeBase, SmartML

        opened = time.perf_counter()
        kb = KnowledgeBase(self.ctx.work / "tune-kb.jsonl")
        open_s = time.perf_counter() - opened
        smartml = SmartML(kb)
        if tracer:
            install_all(tracer)
        exp_s, accuracies, phases, errors = [], [], [], []
        evals = attempted = 0
        first = None
        start = time.perf_counter()
        try:
            while time.perf_counter() - start < self.ctx.seconds:
                for dataset, config in self.rotation:
                    attempted += 1
                    began = time.perf_counter()
                    try:
                        result = smartml.run(dataset, config)
                    except Exception as exc:  # counted against attempted
                        errors.append(f"{dataset.name}: {type(exc).__name__}: {exc}")
                        continue
                    took = time.perf_counter() - began
                    if result.degraded:
                        errors.append(f"{dataset.name}: degraded ({len(result.failures)} failures)")
                        continue
                    first = first or (dataset, config, result)
                    exp_s.append(took)
                    evals += sum(c.n_config_evals for c in result.candidates)
                    accuracies.append(result.validation_accuracy)
                    phases.append(result.phase_seconds)
        finally:
            if tracer:
                tracer.uninstall()
            kb.close()
        elapsed = time.perf_counter() - start
        if first is not None:
            errors += self._replay(*first)
        return {
            "p50_ms": 1e3 * median(exp_s),
            "p50_note": f"of {len(exp_s)} experiments",
            # Ten experiments are too few for a percentile with fifteen beyond
            # it, and the median of the 30 candidates jumps between the
            # svm and forest clusters; the slowest experiment is steady.
            "tail_ms": 1e3 * max(exp_s),
            "tail_pct": 100,
            "samples": len(exp_s),
            "ops_per_s": evals / elapsed,
            "accuracy": float(np.mean(accuracies)),
            "setup_s": median(self.starts),
            "setup_samples": self.starts,
            "setup_how": "spawn to exit of a script that imports repro, opens the KB "
                         "and loads the stand-ins",
            "peak_rss_mb": own_peak_rss_mb(),
            "attempted": attempted,
            "failed": attempted - len(exp_s),
            "errors": errors,
            "window": (start, start + elapsed),
            "layers": {**phase_totals(phases), "kb.open_s": open_s},
        }

    @staticmethod
    def _replay(dataset, config, expected) -> list[str]:
        """Re-run the first experiment on a fresh, empty KB: same seed and
        same KB state must give the same model and the same accuracy."""
        from repro import KnowledgeBase, SmartML

        again = SmartML(KnowledgeBase()).run(dataset, config)
        if (again.validation_accuracy, again.best_algorithm, again.best_config) != (
            expected.validation_accuracy, expected.best_algorithm, expected.best_config
        ):
            return [
                f"{dataset.name}: replay gave {again.best_algorithm} "
                f"{again.validation_accuracy!r}, first run gave "
                f"{expected.best_algorithm} {expected.validation_accuracy!r}"
            ]
        return []
