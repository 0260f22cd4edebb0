"""SmartML end-to-end benchmark: one workload, one run.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 12 --trace 0

Run from the repository root.  Workloads: ``tune`` (in-process
``SmartML.run``), ``service`` (REST job sessions), ``predict.lo`` and
``predict.hi`` (open-loop predict traffic at 20/s and 100/s); see
``perfbench/README.md``.

With ``--trace 0`` the run measures with no wrappers installed and reports
the end-to-end metrics.  With ``--trace 1`` it first runs itself with
``--trace 0`` in a child process as the untraced baseline, then measures
the workload traced, and reports the per-layer metrics plus
``trace.overhead_ratio``, the traced over the untraced ``p50_ms``.

The report goes to stdout; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, whether or not its correctness checks passed, and
non-zero when it could not run at all (no ``src/repro`` next to this
directory, for example).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune", "service", "predict.lo", "predict.hi")

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("accuracy", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: How each workload's end-to-end metrics read, under the names a user of
#: that workload would use: (metric, label, unit, scale).
LABELS = {
    "tune": (
        ("p50_ms", "exp_p50_s", "s", 1e-3),
        ("tail_ms", "exp_max_s", "s", 1e-3),
        ("ops_per_s", "trials_per_s", "1/s", 1.0),
        ("accuracy", "val_accuracy", "fraction", 1.0),
    ),
    "service": (
        ("p50_ms", "job_p50_ms", "ms", 1.0),
        ("tail_ms", "job_tail_ms", "ms", 1.0),
        ("ops_per_s", "jobs_per_s", "1/s", 1.0),
        ("accuracy", "job_val_accuracy", "fraction", 1.0),
    ),
    "predict.lo": (
        ("p50_ms", "lo.p50_ms", "ms", 1.0),
        ("tail_ms", "lo.tail_ms", "ms", 1.0),
        ("ops_per_s", "lo.requests_per_s", "1/s", 1.0),
        ("accuracy", "lo.label_accuracy", "fraction", 1.0),
    ),
    "predict.hi": (
        ("p50_ms", "hi.p50_ms", "ms", 1.0),
        ("tail_ms", "hi.tail_ms", "ms", 1.0),
        ("ops_per_s", "hi.requests_per_s", "1/s", 1.0),
        ("accuracy", "hi.label_accuracy", "fraction", 1.0),
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(ctx):
    if ctx.workload == "tune":
        from perfbench.wl_tune import Tune

        return Tune(ctx)
    if ctx.workload == "service":
        from perfbench.wl_service import Service

        return Service(ctx)
    from perfbench.wl_predict import Predict

    return Predict(ctx, ctx.workload)


def report(workload: str, outcome: dict, out) -> None:
    print(f"  {'setup_s':<22} {outcome['setup_s']:.4f} s  "
          f"(median of {len(outcome['setup_samples'])} cold starts: "
          + ", ".join(f"{s:.3f}" for s in outcome["setup_samples"])
          + f"; {outcome['setup_how']})", file=out)
    for metric, label, unit, scale in LABELS[workload]:
        note = ""
        if metric == "tail_ms":
            note = f"  (p{outcome['tail_pct']:g} of {outcome['samples']}"
            note += f"; {outcome['tail_note']})" if "tail_note" in outcome else ")"
        elif metric == "p50_ms":
            note = f"  ({outcome['p50_note']})"
        print(f"  {label:<22} {outcome[metric] * scale:.4f} {unit}{note}", file=out)
    print(f"  {'peak_rss_mb':<22} {outcome['peak_rss_mb']:.1f} MB", file=out)
    succeeded = outcome["attempted"] - outcome["failed"]
    print(f"  attempted {outcome['attempted']}  succeeded {succeeded}  "
          f"failed {outcome['failed']}", file=out)
    for error in outcome["errors"][:20]:
        print(f"  ERROR {error}", file=out)


def layer_metrics(traced: dict, tracer, baseline_p50_ms: float) -> dict:
    from perfbench.layers import in_window, per_layer_names, span_metrics

    start, end = traced["window"]
    server = traced.get("server_spans", [])
    spans = in_window(tracer.spans + server, start, end)
    values = dict.fromkeys((name for name, _ in per_layer_names()), 0.0)
    values.update(span_metrics(spans))
    values.update(traced["layers"])
    # The server opens its KB at start-up, before the measured window.
    values.update({"kb.open_s": s.duration for s in server if s.name == "kb.open"})
    if "client_ms" in traced:
        values["api.http.overhead_ms"] = traced["client_ms"] - values["serving.batcher.predict_ms"]
    values["trace.overhead_ratio"] = traced["p50_ms"] / baseline_p50_ms
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in per_layer_names()}


def untraced_baseline(args, out) -> dict:
    """The same run with tracing off, in a fresh process, so that neither
    pass inherits the other's warm caches.  Returns its result line."""
    from perfbench.serverproc import child_env

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(f"| {line}", file=out)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # One vCPU for the run and every process it starts (children inherit
    # the affinity): on a shared 2-vCPU host, keeping the second vCPU busy
    # too raised the hypervisor's steal from about 1% to 5-19% and the
    # server workloads' latencies with it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an error, so the servers started so far are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from perfbench import machine
    from perfbench.spans import Tracer

    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = SimpleNamespace(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                          workload=args.workload)
    out = sys.stdout
    load_before = machine.loadavg()
    ticks_before = machine.cpu_ticks()
    try:
        baseline = untraced_baseline(args, out) if args.trace else None
        workload = make_workload(ctx)
        workload.prepare()
        tracer = Tracer() if args.trace else None
        outcome = workload.measure(tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = machine.stamp()
    stamp["loadavg_before"] = load_before
    stamp["loadavg_after"] = machine.loadavg()
    stamp["cpu_steal_share"] = machine.steal_share(ticks_before, machine.cpu_ticks())

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"{'traced' if args.trace else 'untraced'}", file=out)
    report(args.workload, outcome, out)
    print("machine " + json.dumps(stamp, sort_keys=True), file=out)

    attempted, failed = outcome["attempted"], outcome["failed"]
    correct = failed == 0 and not outcome["errors"]
    if args.trace:
        metrics = layer_metrics(outcome, tracer, baseline["metrics"]["p50_ms"]["value"])
        attempted += baseline["attempted"]
        failed += baseline["failed"]
        correct = correct and baseline["correct"]
    else:
        metrics = {
            name: {"value": float(outcome[name]), "unit": unit} for name, unit in END_TO_END
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
