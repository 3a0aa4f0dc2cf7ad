"""In-memory span tracer that instruments caslab from outside the package.

The benchmark never edits ``src/caslab``.  Instead it replaces, for the length
of one traced pass, the attribute each caller looks up (for example
``caslab.runtime.interpolate_many``, which ``weighted_particle_values`` reads
from its module globals, or ``caslab.cli.read_table``, which the CLI imported
by name) with a wrapper that records a span.  A span has a name, a start, an
end and a parent; its self time is its duration minus the durations of its
direct children.  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import math
import os
import statistics
import time
from collections import defaultdict

# Spans whose self time is the estimator's own work: per-encounter glue,
# aggregation into a report, and the cross-entropy elite sort.
ESTIMATOR_SPANS = (
    "evaluation.estimate_metrics",
    "evaluation.is_estimate",
    "evaluation.run_batch",
    "evaluation.cross_entropy_adapt",
)


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Flat span store; the open-span stack gives each new span its parent."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.child_s = []
        self.notes = defaultdict(list)  # metric name -> values noted by hooks
        self.missing = []  # instrumentation points absent from this tree
        self.hook_errors = set()
        self._stack = []
        self._patches = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_s.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace owner.attr by a recording wrapper until unwrap_all()."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except Exception as err:  # a changed signature must not break the run
                    tracer.hook_errors.add(f"{name}: {err!r}")
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        out = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - self.child_s[i]
        return dict(out)

    def durations(self, name: str) -> list:
        return [self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name]

    def write(self, path) -> None:
        """Write spans as JSON (times in seconds from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            {"id": i, "name": self.names[i], "parent": self.parents[i],
             "start": round(self.starts[i] - t0, 7), "end": round(self.ends[i] - t0, 7)}
            for i in range(len(self.names))
        ]
        with open(path, "w") as f:
            json.dump({"spans": spans, "missing": self.missing,
                       "hook_errors": sorted(self.hook_errors)}, f)


def _note_queries(tracer, args, result):
    table = args[0]
    tracer.notes["runtime.interpolate_many.queries"].append(len(args[1]))
    if not tracer.notes["runtime.gather_bytes_per_query"]:
        # 16 enclosing vertices, each a row of action values.
        per_query = 16 * result.shape[1] * table.values.itemsize
        tracer.notes["runtime.gather_bytes_per_query"].append(per_query)


def _note_encounter_key(tracer, args, result):
    # run_indexed_encounter seeds each encounter as default_rng([seed, stream, index]).
    entropy = args[1].bit_generator.seed_seq.entropy
    key = tuple(entropy) if isinstance(entropy, (list, tuple)) else (entropy,)
    tracer.notes["encounters.keys"].append(key)


def _note_table(tracer, args, result):
    tracer.notes["optimizer.table_bytes"].append(result.values.nbytes)


def _note_read(tracer, args, result):
    tracer.notes["tablefile.file_bytes"].append(os.path.getsize(args[0]))
    _note_table(tracer, args, result)


def _note_write(tracer, args, result):
    tracer.notes["tablefile.file_bytes"].append(os.path.getsize(args[1]))


# (module, class or None, attribute, span name, hook).  Each attribute is the
# one the caller looks up: the CLI and the evaluation module imported most
# layer functions by name, so those names are patched in the importer.
INSTRUMENTS = (
    ("caslab.runtime", None, "interpolate_many", "runtime.interpolate_many", _note_queries),
    ("caslab.evaluation", None, "build_encounter", "encounters.build_encounter", _note_encounter_key),
    ("caslab.evaluation", None, "trace_log_likelihood", "encounters.trace_log_likelihood", None),
    ("caslab.evaluation", None, "simulate_encounter", "evaluation.simulate_encounter", None),
    ("caslab.evaluation", None, "fit_cpts", "bayesnet.fit_cpts", None),
    ("caslab.evaluation", None, "_run_batch", "evaluation.run_batch", None),
    ("caslab.evaluation", None, "cross_entropy_adapt", "evaluation.cross_entropy_adapt", None),
    ("caslab.tcas", "TcasTracker", "step", "tcas.tracker_step", None),
    ("caslab.cli", None, "backward_induction", "optimizer.backward_induction", _note_table),
    ("caslab.cli", None, "policy_slice", "optimizer.policy_slice", None),
    ("caslab.cli", None, "write_table", "tablefile.write", _note_write),
    ("caslab.cli", None, "read_table", "tablefile.read", _note_read),
    ("caslab.cli", None, "estimate_metrics", "evaluation.estimate_metrics", None),
    ("caslab.cli", None, "is_estimate", "evaluation.is_estimate", None),
    ("caslab.cli", None, "_run_batch", "evaluation.run_batch", None),
)


def instrument(tracer: Tracer) -> None:
    for module_name, cls, attr, name, hook in INSTRUMENTS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.append(module_name)
            continue
        if cls is not None:
            owner = getattr(owner, cls, None)
            if owner is None:
                tracer.missing.append(f"{module_name}.{cls}")
                continue
        tracer.wrap(owner, attr, name, hook)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    self_s = tracer.self_times()
    calls = defaultdict(int)
    for name in tracer.names:
        calls[name] += 1
    notes = tracer.notes
    interp = tracer.durations("runtime.interpolate_many")
    builds = tracer.durations("encounters.build_encounter")
    sims = tracer.durations("evaluation.simulate_encounter")
    keys = notes["encounters.keys"]
    return {
        "optimizer.backward_induction_s": self_s.get("optimizer.backward_induction", 0.0),
        "optimizer.policy_slice_s": self_s.get("optimizer.policy_slice", 0.0),
        "optimizer.table_bytes": max(notes["optimizer.table_bytes"], default=0),
        "tablefile.write_s": self_s.get("tablefile.write", 0.0),
        "tablefile.read_s": self_s.get("tablefile.read", 0.0),
        "tablefile.file_bytes": max(notes["tablefile.file_bytes"], default=0),
        "runtime.interpolate_many.calls": calls["runtime.interpolate_many"],
        "runtime.interpolate_many.queries": sum(notes["runtime.interpolate_many.queries"]),
        "runtime.interpolate_many.self_s": self_s.get("runtime.interpolate_many", 0.0),
        "runtime.interpolate_many.call_us_p50": percentile(interp, 50) * 1e6,
        "runtime.interpolate_many.call_us_p99": percentile(interp, 99) * 1e6,
        "runtime.gather_bytes_per_query": max(notes["runtime.gather_bytes_per_query"], default=0),
        "encounters.build_encounter.calls": calls["encounters.build_encounter"],
        "encounters.build_encounter.self_s": self_s.get("encounters.build_encounter", 0.0),
        "encounters.build_encounter.ms_p50": percentile(builds, 50) * 1e3,
        "encounters.unique_per_build": len(set(keys)) / len(keys) if keys else 0.0,
        "encounters.trace_log_likelihood.calls": calls["encounters.trace_log_likelihood"],
        "encounters.trace_log_likelihood.self_s": self_s.get("encounters.trace_log_likelihood", 0.0),
        "bayesnet.fit_cpts.calls": calls["bayesnet.fit_cpts"],
        "bayesnet.fit_cpts.self_s": self_s.get("bayesnet.fit_cpts", 0.0),
        "tcas.tracker_step.calls": calls["tcas.tracker_step"],
        "tcas.tracker_step.self_s": self_s.get("tcas.tracker_step", 0.0),
        "evaluation.simulate_encounter.calls": calls["evaluation.simulate_encounter"],
        "evaluation.simulate_encounter.self_s": self_s.get("evaluation.simulate_encounter", 0.0),
        "evaluation.simulate_encounter.ms_p50": percentile(sims, 50) * 1e3,
        "evaluation.simulate_encounter.ms_p99": percentile(sims, 99) * 1e3,
        "evaluation.batch_self_s": sum(self_s.get(n, 0.0) for n in ESTIMATOR_SPANS),
    }


def largest_self_time(tracer: Tracer) -> list:
    """Span names ordered by total self time, largest first (top five)."""
    ranked = sorted(tracer.self_times().items(), key=lambda kv: kv[1], reverse=True)
    return [[name, round(t, 6)] for name, t in ranked[:5]]


def _median_call_s(fn, budget_s: float, min_calls: int) -> float:
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_probes(caslab, seed: int, smoke: bool) -> dict:
    """Per-call costs of single layers at the sizes the roadmap names.

    Runs unwrapped, on a default-grid table solved here so that every
    workload reports the same probes.
    """
    import numpy as np

    budget = 0.05 if smoke else 0.4
    grid = caslab.Grid()
    table = caslab.backward_induction(
        grid, caslab.PilotModel(), caslab.IntruderModel(), caslab.RewardParams()
    )
    rng = np.random.default_rng([seed, 901])
    out = {}
    for batch in (1, 20, 10_000):
        h = rng.uniform(-1200.0, 1200.0, batch)
        r0 = rng.uniform(-40.0, 40.0, batch)
        r1 = rng.uniform(-40.0, 40.0, batch)
        tau = rng.uniform(0.0, grid.tau_max, batch)
        ia = rng.integers(0, len(grid.advisories), batch)
        call = lambda: caslab.runtime.interpolate_many(table, h, r0, r1, tau, ia)
        out[f"probe.interpolate_many_us.b{batch}"] = _median_call_s(call, budget, 5) * 1e6

    n_enc = 3 if smoke else 12
    correlated = caslab.default_correlated_model()
    uncorrelated = caslab.default_uncorrelated_model()
    for label, model in (("correlated", correlated), ("uncorrelated", uncorrelated)):
        counter = itertools.count()
        call = lambda: caslab.build_encounter(model, np.random.default_rng([seed, 902, next(counter)]))
        out[f"probe.build_encounter_ms.{label}"] = _median_call_s(call, budget, n_enc) * 1e3

    encounters = [
        caslab.build_encounter(correlated, np.random.default_rng([seed, 903, i]))
        for i in range(n_enc)
    ]
    pilot = caslab.PilotModel(response_probability=1.0)
    equipages = {
        "none": ("none", "none"),
        "tcas": ("tcas", "none"),
        "table": ("table", "none"),
        "table_table": ("table", "table"),
    }
    for label, (own, intruder) in equipages.items():
        eq = caslab.Equipage(own=own, intruder=intruder, pilot=pilot, table=table)
        samples = []
        for i, enc in enumerate(encounters):
            sim_rng = np.random.default_rng([seed, 904, i])
            t0 = time.perf_counter()
            caslab.simulate_encounter(enc, eq, sim_rng)
            samples.append(time.perf_counter() - t0)
        out[f"probe.simulate_encounter_ms.{label}"] = statistics.median(samples) * 1e3
    return out
