"""One benchmark workload in its own process; ``run.py`` starts it.

Prints one JSON line. Untraced runs time whole passes; traced runs alternate
an untraced and a traced pass, so the tracing overhead is measured in the
same process, and report per-layer metrics from the traced passes. Every
pass is checked against the oracles (and, at seed 0, the references) after
its timing ends.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from before crossfuzzy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

MIN_PASSES = 3  # untraced passes per run, however short --seconds is
MIN_TRACE_PAIRS = 2  # (untraced, traced) pass pairs per traced run
MAX_MESSAGES = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout holding src/crossfuzzy")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--tmp", required=True, help="scratch directory for experiment outputs")
    p.add_argument("--spans", help="CSV file for the recorded spans (traced runs)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Outcome:
    """Ops attempted and failed over a run, with the first failure messages."""

    def __init__(self, messages):
        self.attempted = 0
        self.failed = 0
        self.messages = list(messages)

    def add(self, checked) -> None:
        attempted, failed, messages = checked
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


def timed_passes(wl, seconds: float, outcome: Outcome) -> list[float]:
    durations = []
    start = time.perf_counter()
    while len(durations) < MIN_PASSES or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        out = wl.run_pass()
        durations.append(time.perf_counter() - t)
        outcome.add(wl.check(out))
    return durations


def traced_passes(wl, tracer, seconds: float, outcome: Outcome):
    """Alternate untraced and traced passes; returns per-pass snapshots."""
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        tracer.uninstall()
        t = time.perf_counter()
        out = wl.run_pass()
        untraced.append(time.perf_counter() - t)
        outcome.add(wl.check(out))

        tracer.install()
        tracer.reset()
        root = tracer.open("pass")
        out = wl.run_pass()
        duration = tracer.close(root, failed=False)
        tracer.stats.pop("pass")
        tracer.recording = False  # keep the spans of the set-up and the first traced pass
        traced.append({"duration": duration, "stats": tracer.stats,
                       "counters": tracer.counters, "experiment_s": tracer.experiment_s})
        tracer.uninstall()
        outcome.add(wl.check(out))
    return untraced, traced


def layer_metrics(entry_points, experiments, untraced, traced, setup) -> dict:
    """Per-layer metrics from the traced passes."""
    m = {}
    zero = (0, 0.0, 0.0, 0)

    def stat(p, name):
        return p["stats"].get(name, zero)

    def med(fn):
        return median(fn(p) for p in traced)

    first = traced[0]
    for name, *_ in entry_points:
        calls, _, _, errors = stat(first, name)
        m[f"{name}.calls"] = metric(calls, "count")
        m[f"{name}.self_s"] = metric(med(lambda p: stat(p, name)[2]), "s")
        m[f"{name}.total_s"] = metric(med(lambda p: stat(p, name)[1]), "s")
        m[f"{name}.errors"] = metric(errors, "count")
    c = first["counters"]
    live_frac = c["crossbar.live_cells"] / c["crossbar.cells_written"] if c["crossbar.cells_written"] else 0.0
    m["crossbar.cells_written"] = metric(c["crossbar.cells_written"], "count")
    m["crossbar.live_cell_frac"] = metric(live_frac, "ratio")
    for key in ("crossbar.saturation_events", "harness.probes", "harness.flagged_probes"):
        m[key] = metric(c[key], "count")
    m["persist.bytes_written"] = metric(c["persist.bytes_written"], "B")

    def total(p, *names):
        return sum(stat(p, n)[1] for n in names)

    m["phase.dataset_s"] = metric(med(lambda p: total(p, "harness.generate_dataset")), "s")
    m["phase.train_s"] = metric(
        med(lambda p: total(p, "harness.train_block", "crossbar.inject_faults")), "s")
    m["phase.eval_s"] = metric(
        med(lambda p: total(p, "harness.eval_points", "harness.evaluate_mse")), "s")
    # run_experiment's own time is mostly encoding and writing model.json/result.json.
    m["phase.persist_s"] = metric(med(lambda p: total(p, "crossbar.save_delta_csv", "system.model_to_json")
                                      + stat(p, "harness.run_experiment")[2]), "s")
    for name in experiments:
        m[f"harness.run_experiment.{name}.total_s"] = metric(
            med(lambda p: p["experiment_s"].get(name, 0.0)), "s")
    m["setup.traced_s"] = metric(setup["duration"], "s")
    from_json = setup["stats"].get("system.model_from_json", zero)
    m["setup.system.model_from_json.calls"] = metric(from_json[0], "count")
    m["setup.system.model_from_json.total_s"] = metric(from_json[1], "s")
    traced_s, untraced_s = med(lambda p: p["duration"]), median(untraced)
    m["trace.traced_pass_s"] = metric(traced_s, "s")
    m["trace.untraced_pass_s"] = metric(untraced_s, "s")
    m["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = metric((traced_s - untraced_s) / untraced_s, "ratio")
    m["trace.spans_per_pass"] = metric(sum(s[0] for s in first["stats"].values()), "count")
    return m


def repeat_errors(traced) -> list[str]:
    """Every call, error and counter total must repeat exactly from pass to pass."""
    errors = []

    def counts(p):
        return ({n: (s[0], s[3]) for n, s in p["stats"].items()}, p["counters"])

    for i, p in enumerate(traced[1:], start=2):
        if counts(p) != counts(traced[0]):
            errors.append(f"traced pass {i} counts differ from traced pass 1")
    return errors


def expected_count_errors(expected: dict, m: dict) -> list[str]:
    got = {
        "writes": m["crossbar.write_pulse.calls"]["value"],
        "accumulates": m["relation.accumulate.calls"]["value"],
        "reads": m["crossbar.read_exact.calls"]["value"] + m["crossbar.read_ideal.calls"]["value"],
        "fuzzifications": m["fuzzy.fuzzify_gaussian.calls"]["value"],
        "probes": m["harness.probes"]["value"],
    }
    return [f"{k}: traced {got[k]} per pass, expected {v}" for k, v in expected.items() if got[k] != v]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import crossfuzzy

    if Path(crossfuzzy.__file__).resolve().parent != root / "src" / "crossfuzzy":
        print(f"crossfuzzy imported from {crossfuzzy.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    refs = None
    if args.seed == 0:
        refs = json.loads(Path(args.references).read_text())[args.size]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.recording = True
        tracer.install()
        setup_span = tracer.open("setup")
    wl = workloads.build(args.workload, args.size, args.seed, Path(args.tmp), refs)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outcome = Outcome(wl.setup_errors())
    report = {"env": environment(), "sizes": workloads.SIZES[args.size],
              "expected_counts": wl.expected_counts()}
    if tracer is None:
        durations = timed_passes(wl, args.seconds, outcome)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pass_s": metric(median(durations), "s"),
            "probes_per_s": metric(wl.probes() / median(durations), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["pass_s_all"] = durations
    else:
        setup = {"duration": tracer.close(setup_span, failed=False), "stats": tracer.stats}
        tracer.stats.pop("setup")
        tracer.uninstall()
        untraced, traced = traced_passes(wl, tracer, args.seconds, outcome)
        metrics = layer_metrics(tracing.ENTRY_POINTS, crossfuzzy.EXPERIMENT_NAMES,
                                untraced, traced, setup)
        errors = repeat_errors(traced) + expected_count_errors(wl.expected_counts(), metrics)
        outcome.messages += errors
        report["counts_ok"] = not errors
        tracer.write_spans(Path(args.spans), STARTED)
    report.update(
        correct=outcome.failed == 0 and not outcome.messages,
        attempted=outcome.attempted,
        failed=outcome.failed,
        messages=outcome.messages[:MAX_MESSAGES],
        metrics=metrics,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
