"""Span tracer that wraps crossfuzzy's entry points from outside the package.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` wherever
callers look it up: module-level functions in every ``crossfuzzy`` module
that holds a reference to them (so ``harness`` calling its imported
``fuzzify_gaussian`` is traced), and methods on their class. ``uninstall``
puts the originals back, so untraced passes run the package unmodified.

Each call records a span: name, start, end and the enclosing span. Spans are
aggregated per pass into calls, total time, self time (duration minus the
time covered by child spans) and errors (calls that raised). Counters are
updated by hooks that run outside the span they describe, so entry-point
self times exclude the counting; the hook cost lands in the caller's self
time and in the measured tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# (metric prefix, defining module, attribute; "Class.method" for methods)
ENTRY_POINTS = (
    ("device.apply_flux", "crossfuzzy.device", "apply_flux"),
    ("device.beta", "crossfuzzy.device", "beta"),
    ("crossbar.write_pulse", "crossfuzzy.crossbar", "Crossbar.write_pulse"),
    ("crossbar.read_exact", "crossfuzzy.crossbar", "Crossbar.read_exact"),
    ("crossbar.read_ideal", "crossfuzzy.crossbar", "Crossbar.read_ideal"),
    ("crossbar.inject_faults", "crossfuzzy.crossbar", "Crossbar.inject_faults"),
    ("crossbar.save_delta_csv", "crossfuzzy.crossbar", "save_delta_csv"),
    ("relation.accumulate", "crossfuzzy.relation", "Relation.accumulate"),
    ("relation.infer", "crossfuzzy.relation", "Relation.infer"),
    ("fuzzy.fuzzify_gaussian", "crossfuzzy.fuzzy", "fuzzify_gaussian"),
    ("fuzzy.FuzzyNumber", "crossfuzzy.fuzzy", "FuzzyNumber.__init__"),
    ("fuzzy.defuzzify_centroid", "crossfuzzy.fuzzy", "defuzzify_centroid"),
    ("fuzzy.normalize_peak", "crossfuzzy.fuzzy", "normalize_peak"),
    ("fuzzy.regrid", "crossfuzzy.fuzzy", "regrid"),
    ("system.block_train", "crossfuzzy.system", "block_train"),
    ("system.block_infer", "crossfuzzy.system", "block_infer"),
    ("system.pipeline_infer", "crossfuzzy.system", "pipeline_infer"),
    ("system.model_to_json", "crossfuzzy.system", "model_to_json"),
    ("system.model_from_json", "crossfuzzy.system", "model_from_json"),
    ("harness.generate_dataset", "crossfuzzy.harness", "generate_dataset"),
    ("harness.train_block", "crossfuzzy.harness", "train_block"),
    ("harness.eval_points", "crossfuzzy.harness", "eval_points"),
    ("harness.evaluate_mse", "crossfuzzy.harness", "evaluate_mse"),
    ("harness.run_experiment", "crossfuzzy.harness", "run_experiment"),
)

# Integer counters; each repeats exactly from pass to pass.
COUNTERS = (
    "crossbar.cells_written",  # cell updates computed, rows x cols per pulse
    "crossbar.live_cells",  # of those, cells not stuck (useful updates)
    "crossbar.saturation_events",
    "harness.probes",
    "harness.flagged_probes",
    "persist.bytes_written",
)


def _before_write(args):
    xbar = args[0]
    return xbar.saturation_count


def _after_write(tracer, args, result, sat_before, duration):
    xbar = args[0]
    cells = xbar.rows * xbar.cols
    counters = tracer.counters
    counters["crossbar.cells_written"] += cells
    counters["crossbar.live_cells"] += cells - int(xbar.fault_mask.sum())
    counters["crossbar.saturation_events"] += xbar.saturation_count - sat_before


def _after_evaluate(tracer, args, result, _, duration):
    tracer.counters["harness.probes"] += len(args[2])
    tracer.counters["harness.flagged_probes"] += len(result[2])


def _after_run_experiment(tracer, args, result, _, duration):
    # result.json is left out: it holds the run time, whose printed length varies.
    written = [*result.surface_paths, result.model_path]
    tracer.counters["persist.bytes_written"] += sum(Path(p).stat().st_size for p in written)
    tracer.experiment_s[result.name] = tracer.experiment_s.get(result.name, 0.0) + duration


HOOKS = {
    "crossbar.write_pulse": (_before_write, _after_write),
    "harness.evaluate_mse": (None, _after_evaluate),
    "harness.run_experiment": (None, _after_run_experiment),
}


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, span id, parent id, start, child time]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)
        self.recording = False  # keep every span, not just the aggregates
        self.spans = []  # (span id, parent id, name, start, end)
        self.reset()

    def reset(self) -> None:
        """Start a new aggregation window (one pass, or the set-up)."""
        self.stats = {}  # name -> [calls, total_s, self_s, errors]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.experiment_s = {}  # run_experiment total time per experiment name

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name, self._next_id, parent, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def close(self, frame: list, failed: bool) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, parent, start, child = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        stat[3] += failed
        if self._stack:
            self._stack[-1][4] += duration
        if self.recording:
            self.spans.append((span_id, parent, name, start, end))
        return duration

    def _wrap(self, name: str, fn):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame, failed=True)
                raise
            duration = tracer.close(frame, failed=False)
            if after:
                after(tracer, args, result, token, duration)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point where callers look it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "crossfuzzy" or n.startswith("crossfuzzy."))]
        for name, module_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path, origin: float) -> None:
        """Write the recorded spans as CSV, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
