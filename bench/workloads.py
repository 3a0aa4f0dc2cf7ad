"""The benchmark's three workloads: generated inputs, command sequences, checks.

Every workload is a closed loop from one client: each command starts only
after the previous one has finished, always with ``--workers 1``.  caslab
receives only the configs and files generated here from the seed.

- ``solve_sweep`` designs tables: ``caslab optimize`` over reward and pilot
  variants of the default grid, then ``caslab slice`` on each table.  It
  flies no encounter, so closed-loop changes should not move it.
- ``eval_table`` is the README's ``caslab evaluate`` of a solved table
  against the unequipped baseline on the correlated model, with the
  per-encounter CSV on.  The lookup and the per-step loop dominate.
- ``rare_event_tcas`` adapts an importance-sampling proposal by cross
  entropy (TCAS ownship, unequipped intruder, uncorrelated model) and then
  runs ``caslab evaluate`` with that proposal.  It touches no table.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

WORKERS = "1"

# A coarse grid that keeps smoke runs to seconds; 0 is a rate cut so the
# slice at level flight exists.
SMOKE_GRID = {
    "h_cuts": [-1000.0, -400.0, -100.0, 0.0, 100.0, 400.0, 1000.0],
    "hdot_cuts": [-2500.0 / 60, -500.0 / 60, 0.0, 500.0 / 60, 2500.0 / 60],
    "tau_max": 10,
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Step:
    """One command of a pass.

    kind is "caslab" (argv after the program name) or "ce" (argv of
    ``child.py ce``).  outputs are compared byte for byte across passes of
    one run; check() validates them the first time they are produced.
    """

    label: str
    kind: str
    argv: List[str]
    outputs: List[Path] = field(default_factory=list)
    check: Callable[[], List[Check]] = lambda: []


def _write_config(path: Path, doc: dict) -> Path:
    doc = {"schema_version": 1, **doc}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.rng = random.Random(seed)

    def params(self) -> dict:
        raise NotImplementedError

    def prepare(self, runner) -> dict:
        """Untimed preparation; returns facts for the provenance block."""
        return {}

    def setup_argv(self) -> List[str]:
        """Arguments of ``child.py setup`` for this workload."""
        raise NotImplementedError

    def steps(self) -> List[Step]:
        raise NotImplementedError

    def report(self, step_walls: dict, infos: dict) -> dict:
        """Workload-specific end-to-end figures from one pass."""
        return {}


class SolveSweep(Workload):
    name = "solve_sweep"
    why = "DP solve, ACXT write/read and policy slices over reward and pilot variants; flies no encounter"

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        caslab = _load_caslab()
        # Slice points must be grid cut points, so they come from the grid in use.
        rates = SMOKE_GRID["hdot_cuts"] if smoke else caslab.config.load_config()["grid"]["hdot_cuts"]
        advisories = [a.value for a in caslab.ADVISORIES]
        jitter = {k: round(base * self.rng.uniform(0.5, 2.0), 6) for k, base in
                  (("alert_cost", -0.01), ("strengthen_cost", -0.005), ("reversal_cost", -0.02))}
        # p < 1 gives the DP operator two pilot branches, p = 1 one.
        self.variants = [
            {"pilot": {"response_probability": 1.0 / 6.0}, "rewards": {}},
            {"pilot": {"response_probability": 1.0}, "rewards": {}},
            {"pilot": {"response_probability": 1.0 / 6.0}, "rewards": jitter},
        ]
        for v in self.variants:
            v["slice"] = {
                "hdot0": self.rng.choice(rates),
                "hdot1": self.rng.choice(rates),
                "a_prev": self.rng.choice(advisories),
            }

    def params(self):
        return {"grid": "smoke" if self.smoke else "default", "variants": self.variants}

    def setup_argv(self):
        return ["--config", str(self._config(0))]

    def _config(self, i: int) -> Path:
        out = self.work / f"variant{i}"
        out.mkdir(parents=True, exist_ok=True)
        v = self.variants[i]
        doc = {"paths": {"table_file": str(out / "table.acxt")}, "pilot": v["pilot"],
               "rewards": v["rewards"], "slice": v["slice"]}
        if self.smoke:
            doc["grid"] = SMOKE_GRID
        return _write_config(out / "config.json", doc)

    def steps(self):
        steps = []
        for i in range(len(self.variants)):
            cfg = self._config(i)
            out = cfg.parent
            table = out / "table.acxt"
            slice_csv = out / "slice.csv"
            steps.append(Step(f"optimize[{i}]", "caslab",
                              ["optimize", "--config", str(cfg), "--workers", WORKERS, "--out", str(out)],
                              [table], lambda t=table: check_table(t)))
            steps.append(Step(f"slice[{i}]", "caslab",
                              ["slice", "--config", str(cfg), "--workers", WORKERS, "--out", str(out)],
                              [slice_csv], lambda c=slice_csv, t=table: check_slice(c, t)))
        return steps

    def report(self, step_walls, infos):
        solves = [w for label, w in step_walls.items() if label.startswith("optimize")]
        return {"table_solve_s": (statistics.median(solves), "s")}


class EvalTable(Workload):
    name = "eval_table"
    why = "closed-loop table vs unequipped evaluate with per-encounter CSV; lookup and step loop dominate"

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.n = 12 if smoke else 60
        self.table = work / "table" / "table.acxt"
        self.out = work / "eval"

    def params(self):
        return {"n": self.n, "equipage": ["table", "none"], "pilot_response_probability": 1.0,
                "belief_sigma_h": 25.0, "belief_particles": 20, "per_encounter_csv": True,
                "model": "correlated", "caslab_seed": self.seed,
                "grid": "smoke" if self.smoke else "default"}

    def prepare(self, runner):
        doc = {"grid": SMOKE_GRID} if self.smoke else {}
        cfg = _write_config(self.work / "table_config.json", doc)
        result = runner.run(Step("prepare-optimize", "caslab",
                                 ["optimize", "--config", str(cfg), "--workers", WORKERS,
                                  "--out", str(self.table.parent)]))
        if not result.ok or not self.table.exists():
            raise RuntimeError(f"could not solve the evaluation table: {result.error}")
        return {"input_table": self.table, "table_prepare_s": result.wall}

    def _config(self) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        return _write_config(self.work / "eval_config.json", {
            "paths": {"table_file": str(self.table)},
            "evaluation": {"n": self.n, "equipage": ["table", "none"],
                           "pilot_response_probability": 1.0, "per_encounter_csv": True},
        })

    def setup_argv(self):
        return ["--config", str(self._config()), "--model", "correlated", "--read-table"]

    def steps(self):
        metrics = self.out / "metrics.json"
        rows = self.out / "per_encounter.csv"
        return [Step("evaluate", "caslab",
                     ["evaluate", "--config", str(self._config()), "--seed", str(self.seed),
                      "--workers", WORKERS, "--out", str(self.out)],
                     [metrics, rows], lambda: check_eval(metrics, rows, self.n))]

    def report(self, step_walls, infos):
        return {"encounters_per_s": (self.n / step_walls["evaluate"], "1/s")}


class RareEventTcas(Workload):
    name = "rare_event_tcas"
    why = "cross-entropy proposal for TCAS vs unequipped, then IS evaluate; sampling, likelihoods, CPT refits"

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        # Two known defects shape these sizes; both are visible in the traced
        # run.  (1) fit_cpts' Laplace prior gives the proposal mass on drift
        # transitions the nominal CPT forbids, so those samples weigh 0: at
        # elite fraction 0.1 and three iterations every weight is 0.  At these
        # sizes a fifth to a third stay non-zero (evaluation.is_ess_frac).
        # (2) The weighted report rejects an unnormalized IS rate above 1, so
        # with TCAS on board (alert rate near 1) evaluate exits E_RUN_FAILED
        # on some seeds; the IS evaluate therefore flies the pair unequipped.
        self.iterations = 1 if smoke else 2
        self.n_per_iter = 40 if smoke else 150
        self.elite_fraction = 0.3
        self.n = 30 if smoke else 200
        self.proposal = work / "proposal.json"
        self.out = work / "eval"

    def params(self):
        return {"ce_iterations": self.iterations, "ce_n_per_iter": self.n_per_iter,
                "ce_elite_fraction": self.elite_fraction, "ce_equipage": ["tcas", "none"],
                "n": self.n, "equipage": ["none", "none"], "model": "uncorrelated",
                "caslab_seed": self.seed}

    def _config(self) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        return _write_config(self.work / "eval_config.json", {
            "paths": {"proposal_file": str(self.proposal)},
            "encounter": {"mode": "uncorrelated"},
            "evaluation": {"n": self.n, "equipage": ["none", "none"]},
        })

    def setup_argv(self):
        return ["--config", str(self._config()), "--model", "uncorrelated"]

    def steps(self):
        metrics = self.out / "metrics.json"
        ce_argv = ["--seed", str(self.seed), "--iterations", str(self.iterations),
                   "--n", str(self.n_per_iter), "--elite", str(self.elite_fraction),
                   "--out", str(self.proposal)]
        return [
            Step("cross_entropy", "ce", ce_argv, [self.proposal],
                 lambda: check_proposal(self.proposal)),
            Step("evaluate", "caslab",
                 ["evaluate", "--config", str(self._config()), "--seed", str(self.seed),
                  "--workers", WORKERS, "--out", str(self.out)],
                 [metrics], lambda: check_is(metrics)),
        ]

    def report(self, step_walls, infos):
        asked = self.iterations * self.n_per_iter + self.n
        wall = step_walls["cross_entropy"] + step_walls["evaluate"]
        ce_s = infos.get("cross_entropy", {}).get("ce_s", float("nan"))
        return {"encounters_per_s": (asked / wall, "1/s"),
                "ce_iter_s": (ce_s / self.iterations, "s")}


WORKLOADS = {w.name: w for w in (SolveSweep, EvalTable, RareEventTcas)}


def _load_caslab():
    import caslab
    import caslab.config
    return caslab


def check_table(path: Path) -> List[Check]:
    """Values finite; write(read(file)) reproduces the file byte for byte."""
    import numpy as np
    caslab = _load_caslab()
    table = caslab.read_table(path)
    copy = path.with_name(path.stem + ".roundtrip.acxt")
    caslab.write_table(table, copy)
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    finite = bool(np.all(np.isfinite(table.values)))
    return [Check(f"{path.parent.name}/table round trip", same),
            Check(f"{path.parent.name}/table finite", finite)]


def check_slice(path: Path, table_path: Path) -> List[Check]:
    caslab = _load_caslab()
    grid = caslab.read_table(table_path).grid
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    tau_cols = [c for c in rows[0] if c.startswith("tau_")]
    ok = (len(tau_cols) == grid.tau_max + 1 and len(rows) - 1 == len(grid.h_cuts)
          and all(len(r) == len(rows[0]) for r in rows))
    return [Check(f"{path.parent.name}/slice shape", ok,
                  f"{len(tau_cols)} tau columns, {len(rows) - 1} rows")]


RATE_KEYS = ("p_nmac", "alert_rate", "strengthen_rate", "reversal_rate", "crossing_rate")


def check_eval(metrics_path: Path, rows_path: Path, n: int) -> List[Check]:
    m = json.loads(metrics_path.read_text())
    rates = [m.get(k) for k in RATE_KEYS + ("baseline_p_nmac",)]
    with open(rows_path, newline="") as f:
        rows = list(csv.DictReader(f))
    nmac_mean = sum(int(r["nmac"]) for r in rows) / len(rows) if rows else float("nan")
    return [
        Check("metrics rates in [0, 1]", all(_finite(r) and 0.0 <= r <= 1.0 for r in rates)),
        Check("risk_ratio present and finite", _finite(m.get("risk_ratio"))),
        Check("per_encounter.csv has n rows", len(rows) == n, f"{len(rows)} rows"),
        Check("CSV NMAC mean equals p_nmac",
              math.isclose(nmac_mean, m.get("p_nmac", -1.0), rel_tol=0.0, abs_tol=1e-12),
              f"{nmac_mean} vs {m.get('p_nmac')}"),
    ]


def check_proposal(path: Path) -> List[Check]:
    import numpy as np
    caslab = _load_caslab()
    model = caslab.read_model_file(path)
    cpts = [c for net in (model.initial_net, model.transition_net) for c in net.cpt]
    return [Check("proposal CPTs finite", all(bool(np.all(np.isfinite(c))) for c in cpts))]


def check_is(metrics_path: Path) -> List[Check]:
    m = json.loads(metrics_path.read_text())
    ess = m.get("effective_sample_size")
    return [
        Check("IS estimate and weights finite",
              all(_finite(m.get(k)) for k in RATE_KEYS + ("p_nmac_se",)) and _finite(ess)),
        Check("ESS > 0", _finite(ess) and ess > 0, f"ESS {ess}"),
    ]
