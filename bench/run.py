#!/usr/bin/env python3
"""caslab benchmark: three closed-loop workloads, end to end and per layer.

Usage, from the root of a caslab checkout (no install needed; the package is
imported from ``src/``)::

    python3 bench/run.py --workload eval_table --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload eval_table --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload solve_sweep --seed 1 --seconds 1 --trace 0 --smoke

``--trace 0`` runs each caslab command in a fresh interpreter, as a user
would, and reports the end-to-end metrics.  ``--trace 1`` runs the same
commands in-process through ``caslab.cli.main``, once plain and once with
the layer wrappers of ``tracing.py``, and reports the per-layer metrics.
The last line of standard output is one JSON object; the full result, with
provenance, checks and digests, is written under ``bench/_out/results``.
The exit code is 0 only when every command succeeded and every output check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
STEP_TIMEOUT_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "optimizer.backward_induction_s": "s",
    "optimizer.policy_slice_s": "s",
    "optimizer.table_bytes": "bytes",
    "tablefile.write_s": "s",
    "tablefile.read_s": "s",
    "tablefile.file_bytes": "bytes",
    "runtime.interpolate_many.calls": "count",
    "runtime.interpolate_many.queries": "count",
    "runtime.interpolate_many.self_s": "s",
    "runtime.interpolate_many.call_us_p50": "us",
    "runtime.interpolate_many.call_us_p99": "us",
    "runtime.gather_bytes_per_query": "bytes_computed",
    "encounters.build_encounter.calls": "count",
    "encounters.build_encounter.self_s": "s",
    "encounters.build_encounter.ms_p50": "ms",
    "encounters.unique_per_build": "ratio",
    "encounters.trace_log_likelihood.calls": "count",
    "encounters.trace_log_likelihood.self_s": "s",
    "bayesnet.fit_cpts.calls": "count",
    "bayesnet.fit_cpts.self_s": "s",
    "tcas.tracker_step.calls": "count",
    "tcas.tracker_step.self_s": "s",
    "evaluation.simulate_encounter.calls": "count",
    "evaluation.simulate_encounter.self_s": "s",
    "evaluation.simulate_encounter.ms_p50": "ms",
    "evaluation.simulate_encounter.ms_p99": "ms",
    "evaluation.batch_self_s": "s",
    "evaluation.is_ess_frac": "ratio",
    "cli.import_s": "s",
    "cli.input_load_s": "s",
    "tracing.overhead_s": "s",
    "probe.interpolate_many_us.b1": "us",
    "probe.interpolate_many_us.b20": "us",
    "probe.interpolate_many_us.b10000": "us",
    "probe.simulate_encounter_ms.none": "ms",
    "probe.simulate_encounter_ms.tcas": "ms",
    "probe.simulate_encounter_ms.table": "ms",
    "probe.simulate_encounter_ms.table_table": "ms",
    "probe.build_encounter_ms.correlated": "ms",
    "probe.build_encounter_ms.uncorrelated": "ms",
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class StepResult:
    ok: bool
    wall: float
    info: dict = field(default_factory=dict)
    rss_kb: int = 0
    error: str = ""


class SubprocessRunner:
    """Runs each step in a fresh interpreter and reaps it with its rusage."""

    def __init__(self, logs: Path):
        self.logs = logs
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self._count = 0

    def spawn(self, argv):
        """Run argv to completion; return (exit code, wall s, peak RSS KiB, stdout)."""
        self._count += 1
        out_path = self.logs / f"{self._count:04d}.out"
        err_path = self.logs / f"{self._count:04d}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.daemon = True
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        if proc.returncode != 0:
            stdout += err_path.read_text()
        return proc.returncode, wall, usage.ru_maxrss, stdout

    def run(self, step) -> StepResult:
        if step.kind == "caslab":
            argv = ["-m", "caslab", *step.argv]
        else:
            argv = [str(BENCH / "child.py"), step.kind, *step.argv]
        code, wall, rss_kb, stdout = self.spawn(argv)
        if code != 0:
            return StepResult(False, wall, rss_kb=rss_kb, error=stdout.strip()[-2000:])
        info = json.loads(stdout.strip().splitlines()[-1]) if step.kind == "ce" else {}
        return StepResult(True, wall, info, rss_kb)


class InProcessRunner:
    """Runs each step in this interpreter: caslab.cli.main or child.ce_main."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def run(self, step) -> StepResult:
        import caslab.cli
        import child

        name = f"cli.{step.argv[0]}" if step.kind == "caslab" else "bench.cross_entropy"
        span = self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                if step.kind == "caslab":
                    ok, info = caslab.cli.main(list(step.argv)) == 0, {}
                else:
                    ok, info = True, child.ce_main(list(step.argv))
        except Exception:
            return StepResult(False, time.perf_counter() - t0, error=traceback.format_exc()[-2000:])
        return StepResult(ok, time.perf_counter() - t0, info)


class Ledger:
    """Counts attempted and failed operations and keeps every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.reference = {}  # step label -> output digests of its first run
        self.errors = []

    def record(self, step, result: StepResult, pass_label: str):
        self.attempted += 1
        checks = []
        if result.ok:
            missing = [p for p in step.outputs if not p.is_file()]
            if missing:
                checks.append(("outputs exist", False, ", ".join(p.name for p in missing)))
            else:
                digests = {p.name: sha256(p) for p in step.outputs}
                if step.label not in self.reference:
                    self.reference[step.label] = digests
                    try:
                        checks += [(c.name, c.ok, c.detail) for c in step.check()]
                    except Exception as err:
                        checks.append(("output check raised", False, repr(err)))
                else:
                    same = digests == self.reference[step.label]
                    checks.append(("outputs byte-identical to the first run at this seed", same, ""))
        else:
            self.errors.append({"pass": pass_label, "step": step.label, "error": result.error})
        for name, ok, detail in checks:
            self.checks.append({"pass": pass_label, "step": step.label, "check": name,
                                "ok": bool(ok), "detail": detail})
        if not result.ok or not all(ok for _, ok, _ in checks):
            self.failed += 1


def run_pass(runner, steps, ledger: Ledger, pass_label: str):
    """Run one pass; return (sum of step walls, walls by label, infos, max RSS KiB)."""
    walls, infos, rss = {}, {}, 0
    for step in steps:
        result = runner.run(step)
        ledger.record(step, result, pass_label)
        walls[step.label] = result.wall
        infos[step.label] = result.info
        rss = max(rss, result.rss_kb)
    return sum(walls.values()), walls, infos, rss


def measure_setup(runner: SubprocessRunner, workload, repeats: int):
    walls, imports, loads = [], [], []
    for _ in range(repeats):
        code, wall, _, stdout = runner.spawn([str(BENCH / "child.py"), "setup", *workload.setup_argv()])
        if code != 0:
            raise RuntimeError(f"setup probe failed: {stdout.strip()[-500:]}")
        phases = json.loads(stdout.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(phases["import_s"])
        loads.append(phases["input_load_s"])
    return statistics.median(walls), statistics.median(imports), statistics.median(loads)


def ess_fraction(steps) -> float:
    """ESS / n of the last metrics.json a pass wrote (1.0 for plain Monte Carlo)."""
    for step in reversed(steps):
        for path in step.outputs:
            if path.name == "metrics.json" and path.is_file():
                m = json.loads(path.read_text())
                return m["effective_sample_size"] / m["n"]
    return 0.0


def timed_loop(run_one, seconds: float, min_runs: int, max_runs: int = 200):
    """Call run_one() until the next call would overrun the window."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run_one()
        durations.append(time.perf_counter() - t0)
        n = len(durations)
        if n >= max_runs:
            break
        if n >= min_runs and time.perf_counter() - start + statistics.median(durations) > seconds:
            break


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_tree_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, facts: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    table = facts.get("input_table")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": src_tree_sha256(),
        "seeds": {"benchmark": args.seed, "caslab": workload.seed},
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workload_params": workload.params(),
        "input_table_sha256": sha256(table) if table else None,
        "table_prepare_s": facts.get("table_prepare_s"),
    }


def run_untraced(args, workload, steps, ledger, runner, min_passes):
    sums, rss, extra = [], [], []

    def one():
        total, walls, infos, peak = run_pass(runner, steps, ledger, f"pass{len(sums)}")
        sums.append(total)
        rss.append(peak)
        extra.append(workload.report(walls, infos))

    timed_loop(one, args.seconds, min_passes)
    report = {}
    for name in extra[0]:
        report[name] = (statistics.median(e[name][0] for e in extra), extra[0][name][1])
    # This host runs a pass in one of two speed regimes, about 1.5x apart,
    # that last from seconds to minutes.  Every run meets the slow regime but
    # not every run meets the fast one, so the slowest pass is the figure that
    # repeats from run to run; the median is kept in the report.
    report["wall_s_median"] = (statistics.median(sums), "s")
    return {
        "metrics": {"wall_s": max(sums), "peak_rss_mb": max(rss) / 1024.0},
        "report": report,
        "passes": [{"wall_s": s, "peak_rss_mb": r / 1024.0} for s, r in zip(sums, rss)],
    }


def run_traced(args, workload, steps, ledger, spans_path: Path):
    import caslab
    import tracing

    plain, traced, layers, ranking = [], [], [], []
    last = {}

    def one():
        total, *_ = run_pass(InProcessRunner(), steps, ledger, f"plain{len(plain)}")
        plain.append(total)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            total, *_ = run_pass(InProcessRunner(tracer), steps, ledger, f"traced{len(traced)}")
        finally:
            tracer.unwrap_all()
        traced.append(total)
        layers.append(tracing.layer_metrics(tracer))
        ranking.append(tracing.largest_self_time(tracer))
        last["tracer"] = tracer

    timed_loop(one, args.seconds, 1)
    last["tracer"].write(spans_path)
    metrics = {name: statistics.median_low(l[name] for l in layers) for name in layers[0]}
    metrics["evaluation.is_ess_frac"] = ess_fraction(steps)
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics.update(tracing.layer_probes(caslab, args.seed, args.smoke))
    return {
        "metrics": metrics,
        "largest_self_time": ranking[-1],
        "uninstrumented": last["tracer"].missing + sorted(last["tracer"].hook_errors),
        "passes": [{"plain_wall_s": p, "traced_wall_s": t} for p, t in zip(plain, traced)],
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description="caslab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one setup probe")
    args = parser.parse_args(argv)

    if not (SRC / "caslab" / "__init__.py").is_file():
        print(f"error: no caslab sources at {SRC}; run from a caslab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    results = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
        runner = SubprocessRunner(work / "logs")
        facts = workload.prepare(runner)
        setup_s, import_s, load_s = measure_setup(
            runner, workload, 1 if args.smoke else (3 if args.trace else 5))
        steps = workload.steps()
        ledger = Ledger()
        if args.trace:
            out = run_traced(args, workload, steps, ledger, results / f"{tag}.spans.json")
            out["metrics"]["cli.import_s"] = import_s
            out["metrics"]["cli.input_load_s"] = load_s
            units = PER_LAYER
        else:
            out = run_untraced(args, workload, steps, ledger, runner, 2)
            out["metrics"]["setup_s"] = setup_s
            units = END_TO_END
        digests = {f"{label}/{name}": d for label, ds in ledger.reference.items()
                   for name, d in ds.items()}
        prov = provenance(args, workload, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ledger.failed == 0 and all(c["ok"] for c in ledger.checks)
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    report = {name: {"value": v, "unit": u} for name, (v, u) in out.get("report", {}).items()}
    report["failed_frac"] = {"value": ledger.failed / ledger.attempted, "unit": "ratio"}
    result = {
        "workload": args.workload,
        "why": workload.why,
        "trace": args.trace,
        "provenance": prov,
        "metrics": metrics,
        "report": report,
        "passes": out["passes"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "checks": ledger.checks,
        "errors": ledger.errors,
        "digests_sha256": digests,
    }
    for key in ("largest_self_time", "uninstrumented"):
        if key in out:
            result[key] = out[key]
    result_path = results / f"{tag}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  passes {len(out['passes'])}")
    for name, m in {**metrics, **report}.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    bad = [c for c in ledger.checks if not c["ok"]]
    print(f"checks: {len(ledger.checks) - len(bad)} of {len(ledger.checks)} passed; "
          f"{ledger.failed} of {ledger.attempted} operations failed")
    for c in bad:
        print(f"  FAILED {c['pass']} {c['step']}: {c['check']} {c['detail']}")
    for e in ledger.errors:
        print(f"  ERROR {e['pass']} {e['step']}: {e['error']}")
    print(f"result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
