"""Which ``repro`` entry points are traced, and the per-layer metrics.

Each target is patched where its callers look it up (see ``spans``).  A
layer is a ``repro`` module; a span's name starts with its layer.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.spans import Span, resolve, self_times
from perfbench.timing import median

#: Classifier families with per-family metrics: the cold-start portfolio
#: (tune), the cheap families the service KB nominates, and the families
#: the predict workloads serve.
FAMILIES = (
    "random_forest", "svm", "knn", "naive_bayes", "lda", "rpart",
    "lmt", "j48", "bagging", "c50",
)

#: Job phases, in pipeline order (keys of ``SmartMLResult.phase_seconds``).
PHASES = (
    "validation", "preprocessing", "metafeatures", "algorithm_selection",
    "hyperparameter_tuning", "computing_output", "kb_update",
    "model_registration",
)


def _smac_note(result, args, kwargs):
    if result is None:
        return None
    return {
        "configs": result.n_config_evals,
        "fold_evals": result.n_fold_evals,
        "failed": result.n_failed_trials,
        "folds": args[1].n_folds,
    }


#: (span name, module, attribute looked up by callers, note)
TARGETS = [
    ("data.validation.validate", "repro.core.smartml", "ensure_valid_dataset", None),
    ("data.validation.validate", "repro.api.jobs", "ensure_valid_dataset", None),
    ("metafeatures.extract", "repro.core.smartml", "extract_metafeatures", None),
    ("metafeatures.extract", "repro.api.server", "extract_metafeatures", None),
    ("data.io.parse", "repro.api.server", "parse_csv_text", None),
    ("kb.open", "repro.cli", "KnowledgeBase", None),
    ("kb.nominate", "repro.kb.knowledge_base", "KnowledgeBase.nominate", None),
    ("kb.add_result_batch", "repro.kb.knowledge_base", "KnowledgeBase.add_result_batch", None),
    ("parallel.execute_candidates", "repro.parallel.dispatch", "execute_candidates", None),
    ("parallel.tune_candidate", "repro.parallel.dispatch", "tune_candidate", None),
    ("hpo.smac.optimize", "repro.hpo.smac", "SMAC.optimize", _smac_note),
    ("hpo.surrogate.fit", "repro.hpo.surrogate", "RandomForestSurrogate.fit", None),
    ("hpo.surrogate.predict", "repro.hpo.surrogate", "RandomForestSurrogate.predict", None),
    ("hpo.objective.evaluate_fold", "repro.hpo.objective", "CrossValObjective.evaluate_fold", None),
    ("api.journal.append", "repro.api.journal", "JobJournal.append", None),
    ("serving.registry.register", "repro.serving.registry", "ModelRegistry.register", None),
    ("serving.registry.load", "repro.serving.registry", "ModelRegistry.load", None),
    ("serving.codec.encode", "repro.serving.registry", "encode_state", None),
    ("serving.codec.decode", "repro.serving.registry", "decode_state", None),
    ("serving.batcher.predict", "repro.serving.batcher", "PredictionBatcher.predict", None),
    ("serving.model.predict_rows", "repro.serving.registry", "RegisteredModel.predict_rows", None),
]


#: The REST client calls a ``service`` session makes, timed in the client.
CLIENT_TARGETS = [
    ("api.http.upload", "repro.api.client", "SmartMLClient.upload_csv", None),
    ("api.http.nominate", "repro.api.client", "SmartMLClient.nominate", None),
    ("api.http.submit", "repro.api.client", "SmartMLClient.submit_experiment", None),
]


def install(tracer, targets) -> None:
    for name, module, attr, note in targets:
        owner, leaf = resolve(module, attr)
        tracer.install(owner, leaf, name, note)


def install_all(tracer) -> None:
    """Patch every target and every family's fit/predict on ``tracer``."""
    from repro.classifiers import CLASSIFIER_REGISTRY

    install(tracer, TARGETS)
    for family in FAMILIES:
        cls = CLASSIFIER_REGISTRY[family]
        tracer.install(cls, "fit", f"classifiers.{family}.fit")
        tracer.install(cls, "predict", f"classifiers.{family}.predict")
        tracer.install(cls, "predict_proba", f"classifiers.{family}.predict")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for family in FAMILIES:
        names += [
            (f"classifiers.{family}.fit_s", "s"),
            (f"classifiers.{family}.fits", "count"),
            (f"classifiers.{family}.predict_s", "s"),
        ]
    names += [
        ("hpo.smac.self_s", "s"),
        ("hpo.surrogate.fit_ms", "ms"),
        ("hpo.surrogate.predict_ms", "ms"),
        ("hpo.objective.fold_evals", "count"),
        ("hpo.objective.fold_eval_ms", "ms"),
        ("hpo.racing.fold_ratio", "ratio"),
        ("hpo.failed_trial_ratio", "ratio"),
        ("parallel.dispatch_overhead_ms", "ms"),
    ]
    names += [(f"core.phase.{phase}_s", "s") for phase in PHASES]
    names += [
        ("metafeatures.extract_ms", "ms"),
        ("data.validation.validate_ms", "ms"),
        ("data.io.parse_ms", "ms"),
        ("kb.open_s", "s"),
        ("kb.populate_s", "s"),
        ("kb.nominate_ms", "ms"),
        ("kb.add_result_batch_ms", "ms"),
        ("api.http.upload_ms", "ms"),
        ("api.http.nominate_ms", "ms"),
        ("api.http.submit_ms", "ms"),
        ("api.polls_per_job", "count"),
        ("api.jobs.queue_ms", "ms"),
        ("api.jobs.run_ms", "ms"),
        ("api.journal.append_ms", "ms"),
        ("api.journal.appends", "count"),
        ("serving.registry.register_ms", "ms"),
        ("serving.codec.encode_ms", "ms"),
        ("serving.batcher.predict_ms", "ms"),
        ("serving.batcher.requests_per_batch", "ratio"),
        ("serving.model.predict_rows_ms", "ms"),
        ("api.http.overhead_ms", "ms"),
        ("serving.registry.load_ms", "ms"),
        ("serving.registry.hit_ratio", "ratio"),
        ("serving.registry.misses", "count"),
        ("serving.codec.decode_ms", "ms"),
        ("generator.late_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def _outermost(spans: list[Span], by_id: dict[int, Span], name: str) -> list[Span]:
    """Spans called ``name`` not nested directly in another ``name`` span
    (``predict`` calling ``predict_proba`` counts once)."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        if parent is not None and parent.name == name:
            continue
        out.append(span)
    return out


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics that come from spans.

    ``*_s`` metrics are totals over the spans given, ``*_ms`` metrics are
    medians per call; a layer the workload never calls reports 0.
    """
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent in by_id:
            children[span.parent].append(span)
    selfs = self_times(spans)

    def med_ms(spans_):
        return 1e3 * median(s.duration for s in spans_)

    out: dict[str, float] = {}
    for family in FAMILIES:
        fits = _outermost(spans, by_id, f"classifiers.{family}.fit")
        predicts = _outermost(spans, by_id, f"classifiers.{family}.predict")
        out[f"classifiers.{family}.fit_s"] = sum(s.duration for s in fits)
        out[f"classifiers.{family}.fits"] = len(fits)
        out[f"classifiers.{family}.predict_s"] = sum(s.duration for s in predicts)

    smac = by_name["hpo.smac.optimize"]
    notes = [s.attrs for s in smac if s.attrs]
    configs = sum(n["configs"] for n in notes)
    fold_evals = sum(n["fold_evals"] for n in notes)
    slots = sum(n["configs"] * n["folds"] for n in notes)
    out["hpo.smac.self_s"] = sum(selfs[s.id] for s in smac)
    out["hpo.surrogate.fit_ms"] = med_ms(by_name["hpo.surrogate.fit"])
    out["hpo.surrogate.predict_ms"] = med_ms(by_name["hpo.surrogate.predict"])
    out["hpo.objective.fold_evals"] = fold_evals
    # A cached fold returns without fitting: only calls that fit count.
    out["hpo.objective.fold_eval_ms"] = med_ms(
        s for s in by_name["hpo.objective.evaluate_fold"] if children.get(s.id)
    )
    out["hpo.racing.fold_ratio"] = fold_evals / slots if slots else 0.0
    out["hpo.failed_trial_ratio"] = (
        sum(n["failed"] for n in notes) / configs if configs else 0.0
    )
    out["parallel.dispatch_overhead_ms"] = 1e3 * median(
        selfs[s.id] for s in by_name["parallel.execute_candidates"]
    )

    out["metafeatures.extract_ms"] = med_ms(by_name["metafeatures.extract"])
    out["data.validation.validate_ms"] = med_ms(by_name["data.validation.validate"])
    out["data.io.parse_ms"] = med_ms(by_name["data.io.parse"])
    out["kb.nominate_ms"] = med_ms(by_name["kb.nominate"])
    out["kb.add_result_batch_ms"] = med_ms(by_name["kb.add_result_batch"])
    out["api.http.upload_ms"] = med_ms(by_name["api.http.upload"])
    out["api.http.nominate_ms"] = med_ms(by_name["api.http.nominate"])
    out["api.http.submit_ms"] = med_ms(by_name["api.http.submit"])
    out["api.journal.append_ms"] = med_ms(by_name["api.journal.append"])
    out["api.journal.appends"] = len(by_name["api.journal.append"])
    out["serving.registry.register_ms"] = med_ms(by_name["serving.registry.register"])
    out["serving.codec.encode_ms"] = med_ms(by_name["serving.codec.encode"])
    out["serving.batcher.predict_ms"] = med_ms(by_name["serving.batcher.predict"])
    out["serving.model.predict_rows_ms"] = med_ms(by_name["serving.model.predict_rows"])
    # Cold loads are the ones that decode a snapshot; cache hits return at once.
    out["serving.registry.load_ms"] = med_ms(
        s for s in by_name["serving.registry.load"]
        if any(c.name == "serving.codec.decode" for c in children.get(s.id, ()))
    )
    out["serving.codec.decode_ms"] = med_ms(by_name["serving.codec.decode"])
    return out


def phase_totals(phase_seconds: list[dict]) -> dict[str, float]:
    """``core.phase.<phase>_s``: each phase's total over the experiments."""
    return {
        f"core.phase.{phase}_s": sum(p.get(phase, 0.0) for p in phase_seconds)
        for phase in PHASES
    }


def in_window(spans: list[Span], start: float, end: float) -> list[Span]:
    return [s for s in spans if s.start >= start and s.end <= end]

