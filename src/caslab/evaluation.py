"""Closed-loop encounter simulation and safety-metric estimation.

Random numbers: every uniform is core.uniforms of (root seed, stream,
encounter index, counter), with one stream for encounter generation and
one for pilot response, so paired-seed comparisons across equipages
see identical nominal encounters and an encounter's result does not depend
on its chunk or worker.  Aggregation always runs in encounter-index order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .bayesnet import fit_cpts
from .core import (
    ADVISORIES,
    COC_INDEX,
    EVENT_BIT,
    EVENT_CROSSING,
    EVENT_NMAC,
    EVENT_RA,
    EVENT_REVERSAL,
    EVENT_STRENGTHEN,
    EVENT_TA,
    NMAC_HORIZONTAL_FT,
    NMAC_VERTICAL_FT,
    SENSES,
    TARGETS_FPS,
    Trace,
    is_reversal,
    is_strengthening,
    uniforms,
)
from .dynamics import PilotModel, step_complying_many
from .encounters import (
    HEADINGS,
    OWN_POS0,
    SEPARATION_THRESHOLD_FT,
    EncounterBatch,
    EncounterModel,
    build_encounters,
    trace_log_likelihoods,
)
from .optimizer import LogicTable, select_advisories
from .runtime import (
    DEFAULT_BELIEF_SIGMA_H_FT,
    DEFAULT_BELIEF_SIGMA_RATE_FPS,
    DEFAULT_INHIBIT_ALTITUDE_FT,
    SIGMA_POINTS,
    SIGMA_WEIGHTS,
    apply_online_costs_many,
    weighted_particle_values,
)
from .tcas import TcasConfig, assess_threat_many, closest_approach_many, tracker_step_many

LOGIC_NONE = "none"
LOGIC_TCAS = "tcas"
LOGIC_TABLE = "table"
LOGIC_KINDS = (LOGIC_NONE, LOGIC_TCAS, LOGIC_TABLE)

# Stream numbers under the root seed: plain runs and CE adaptation each
# have an encounter stream and a simulation (pilot response) stream.
STREAM_ENCOUNTER = 0
STREAM_SIMULATE = 1
STREAM_CE_ENCOUNTER = 2
STREAM_CE_SIMULATE = 3
PLAIN_STREAMS = (STREAM_ENCOUNTER, STREAM_SIMULATE)
CE_STREAMS = (STREAM_CE_ENCOUNTER, STREAM_CE_SIMULATE)


def check_logic_kinds(kinds: list) -> None:
    """Refuse anything but a list of two LOGIC_KINDS: the ownship's, then the intruder's."""
    if len(kinds) != 2 or not all(kind in LOGIC_KINDS for kind in kinds):
        raise ValueError(f"equipage must list two of {', '.join(LOGIC_KINDS)}, got {kinds!r}")


@dataclass(frozen=True)
class Equipage:
    """Per-aircraft logic selection plus the shared response/runtime models.

    A table side below inhibit_altitude adds runtime.ONLINE_COST to its
    down-sense advisories; a table follower adds it to its leader's sense.
    """

    own: str = LOGIC_NONE
    intruder: str = LOGIC_NONE
    pilot: PilotModel = field(default_factory=PilotModel)
    table: Optional[LogicTable] = None
    tcas: TcasConfig = field(default_factory=TcasConfig)
    inhibit_altitude: float = DEFAULT_INHIBIT_ALTITUDE_FT
    belief_sigma_h: float = DEFAULT_BELIEF_SIGMA_H_FT
    belief_sigma_rate: float = DEFAULT_BELIEF_SIGMA_RATE_FPS

    def __post_init__(self) -> None:
        check_logic_kinds([self.own, self.intruder])
        if LOGIC_TABLE in (self.own, self.intruder) and self.table is None:
            raise ValueError("table equipage requires a LogicTable")
        if math.isnan(self.inhibit_altitude):
            raise ValueError("inhibit_altitude must not be NaN")
        for name in ("belief_sigma_h", "belief_sigma_rate"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class MetricsReport:
    """Estimated event probabilities with standard errors.

    A plain report also bounds P(NMAC): p_nmac_upper95 is its one-sided
    95 % Clopper-Pearson upper bound.  With no NMAC in the sample the
    binomial standard error would read 0, a certainty no finite sample
    gives, so p_nmac_se is None there and the bound alone describes the
    uncertainty.  A weighted report holds unnormalized importance-sampling
    estimates (sum of w * flag over n): unbiased, but on a finite sample a
    rate can exceed 1, so only finiteness and sign are checked for it; it
    carries no bound.
    """

    n: int
    p_nmac: float
    p_nmac_se: Optional[float]
    alert_rate: float
    strengthen_rate: float
    reversal_rate: float
    crossing_rate: float
    effective_sample_size: float
    p_nmac_upper95: Optional[float] = None
    weighted: bool = False

    def __post_init__(self) -> None:
        for name in ("p_nmac", "alert_rate", "strengthen_rate", "reversal_rate", "crossing_rate"):
            v = getattr(self, name)
            if self.weighted:
                if not (math.isfinite(v) and v >= 0.0):
                    raise ValueError(f"{name} must be finite and >= 0, got {v}")
            elif not (-1e-9 <= v <= 1.0 + 1e-9):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if (self.p_nmac_se is not None and self.p_nmac_se < 0) or self.effective_sample_size < 0:
            raise ValueError("standard error and ESS must be >= 0")


@dataclass(frozen=True)
class RiskRatio:
    """Equipped-to-unequipped NMAC ratio; se is None when the equipped side has none."""

    value: float
    se: Optional[float]


# One encounter's outcome under one equipage, the one record every report
# and per_encounter.csv read: each event indicator (0/1) over its steps, its
# severity (minimum NMAC-scaled separation, < 1 exactly when nmac) and its
# IS log-weight (0 without a nominal model), which every equipage shares.
OUTCOME = np.dtype([
    ("nmac", np.uint8), ("alert", np.uint8), ("strengthen", np.uint8), ("reversal", np.uint8),
    ("crossing", np.uint8), ("severity", np.float64), ("log_weight", np.float64),
])

# Encounters advanced together in one lockstep chunk.  A table lookup then
# gathers chunk x 7 sigma points x 8 corners x 7 advisories x 8 bytes: 0.8 MB.
CHUNK_ENCOUNTERS = 256

# Lockstep state holds advisories as int8 indices into ADVISORIES, and
# EVENT_BIT flags as uint8.
# Event bits a side scores when its advisory goes from index p to index q;
# 0 on the diagonal, so a held advisory scores nothing.
_CHANGE_BITS = np.array([
    [(EVENT_BIT[EVENT_RA] if p == COC_INDEX != q else 0)
     | (EVENT_BIT[EVENT_STRENGTHEN] if is_strengthening(a, b) else 0)
     | (EVENT_BIT[EVENT_REVERSAL] if is_reversal(a, b) else 0)
     for q, b in enumerate(ADVISORIES)]
    for p, a in enumerate(ADVISORIES)
], dtype=np.uint8)

# Velocity components per unit speed of (ownship, intruder) in the encounter frame.
_HEADING_COS = np.array([math.cos(heading) for heading in HEADINGS])
_HEADING_SIN = np.array([math.sin(heading) for heading in HEADINGS])


def _quantized_tau(px, py, vx, vy, tau_max: int) -> np.ndarray:
    """Time to loss of horizontal separation, rounded to whole seconds, capped at tau_max.

    horizontal_tau_xy over arrays, in its order of operations, at the
    separation threshold.  A never-converging geometry maps to tau_max: a
    beyond-horizon threat is the least urgent grid state.  np.rint rounds
    half to even, like round().
    """
    rr = px * px + py * py
    thr2 = SEPARATION_THRESHOLD_FT * SEPARATION_THRESHOLD_FT
    vv = vx * vx + vy * vy
    pv = px * vx + py * vy
    disc = pv * pv - vv * (rr - thr2)
    # Masked below: no relative velocity (0 / 0) and a miss (sqrt of < 0).
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (-pv - np.sqrt(disc)) / vv
    tau = np.where(rr <= thr2, 0.0, np.where((vv == 0.0) | (disc < 0.0) | (t < 0.0), np.inf, t))
    return np.minimum(np.rint(tau), float(tau_max))


def _fly(
    enc: EncounterBatch,
    eq: Equipage,
    u_delay: np.ndarray,
) -> Trace:
    """Fly B encounters together, one step at a time, under one equipage.

    Returns their Trace: the B encounters' OUTCOME records, log_weight
    left 0, and the per-step arrays of both aircraft.

    u_delay (B, 2, n) holds the pilot-response uniforms.  Each step does
    three things: the equipped sides decide, the sample is recorded, and
    both aircraft move.  A side switches at most once per step.  After the
    sides decide at step k, the pilot of side i of encounter b, if not yet
    complying, begins where u_delay[b, i, k] < p (the response
    probability) and keeps complying from then on.  A switch to an
    advisory other than COC first stops the pilot complying, so each such
    switch, one while a delay runs included, starts a geometric delay
    with mass p at 0.  A side that holds an advisory other than COC and
    complies moves toward that advisory's band; every other side flies
    its nominal command, so unequipped aircraft replay the nominal
    commands exactly.
    Each table-equipped side makes one lookup per step over the sigma
    points of all B beliefs, and each TCAS side one tracker_step_many.
    Every event is scored once, from the record, after the last step.
    """
    n_enc, n, dt = len(enc), enc.n_steps, enc.dt
    logics = (eq.own, eq.intruder)
    equipped = [i for i in (0, 1) if logics[i] != LOGIC_NONE]
    if u_delay.shape != (n_enc, 2, n):
        raise ValueError(f"pilot responses need a ({n_enc}, 2, {n}) block of simulation-stream uniforms")
    table_sides = [i for i in (0, 1) if logics[i] == LOGIC_TABLE]
    if table_sides and dt != 1.0:
        raise ValueError("table logic assumes a 1 s step; encounter dt mismatch")

    # Open-loop horizontal tracks, (B, aircraft, n+1), as the trace records
    # them: pos0 + v * (k * dt).  The TCAS threat, the table tau and the
    # NMAC test all read their relative geometry off these arrays.
    vel = np.stack([enc.speed * _HEADING_COS, enc.speed * _HEADING_SIN], axis=2)
    pos0 = np.empty((n_enc, 2, 2))
    pos0[:, 0] = OWN_POS0
    pos0[:, 1] = enc.int_pos0
    t = np.arange(n + 1) * dt
    x = pos0[:, :, 0, None] + vel[:, :, 0, None] * t
    y = pos0[:, :, 1, None] + vel[:, :, 1, None] * t
    dx, dy = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
    dvx, dvy = vel[:, 1, 0] - vel[:, 0, 0], vel[:, 1, 1] - vel[:, 0, 1]

    z = enc.alt0
    cmds = enc.vrate
    vz = cmds[:, :, 0].copy()
    adv = np.full((n_enc, 2), COC_INDEX, dtype=np.int8)
    complying = np.zeros((n_enc, 2), dtype=bool)

    zs = np.empty((n_enc, 2, n + 1))
    vzs = np.empty((n_enc, 2, n + 1))
    adv_hist = np.empty((n_enc, n + 1, 2), dtype=np.int8)
    events = np.zeros((n_enc, n + 1), dtype=np.uint8)

    if LOGIC_TCAS in logics:
        # Horizontal tracks are open-loop, so every step's threat is known up
        # front.  Both sides see the same one: each term of closest_approach
        # is invariant under swapping own and intruder.
        t_cpa, miss = closest_approach_many(dx[:, :n], dy[:, :n], dvx[:, None], dvy[:, None])
        ta, ra = assess_threat_many(t_cpa, miss, eq.tcas)
        events[:, :n][ta] |= EVENT_BIT[EVENT_TA]
        streak = np.zeros((n_enc, 2), dtype=int)

    table = eq.table
    if table_sides:
        grid = table.grid
        # Relative geometry is antisymmetric between the sides, so both see
        # the same tau (every term of horizontal_tau_xy is sign-invariant).
        tau_q = _quantized_tau(dx[:, :n], dy[:, :n], dvx[:, None], dvy[:, None], grid.tau_max)
        # synthesize_belief's offsets of (h, hdot0, hdot1), one row per point.
        offsets = SIGMA_POINTS * (eq.belief_sigma_h, eq.belief_sigma_rate, eq.belief_sigma_rate)
        n_p = len(SIGMA_WEIGHTS)
        both_table = len(table_sides) == 2

    for k in range(n):
        for i in equipped:
            o = 1 - i
            if logics[i] == LOGIC_TCAS:
                selected, streak[:, i] = tracker_step_many(
                    adv[:, i], streak[:, i], ra[:, k], t_cpa[:, k],
                    (z[:, i], vz[:, i]), (z[:, o], vz[:, o]), eq.tcas,
                )
            else:
                # Array form of synthesize_belief followed by
                # belief_action_values (same points, same weights).
                values = weighted_particle_values(
                    table,
                    (z[:, o] - z[:, i])[:, None] + offsets[:, 0],
                    vz[:, i, None] + offsets[:, 1],
                    vz[:, o, None] + offsets[:, 2],
                    np.repeat(tau_q[:, k, None], n_p, axis=1),
                    np.repeat(adv[:, i, None], n_p, axis=1),
                    SIGMA_WEIGHTS,
                )
                if both_table and i == 1:
                    no_climb, no_descend = leader_sense > 0, leader_sense < 0
                else:
                    no_climb = no_descend = np.zeros(n_enc, dtype=bool)
                values = apply_online_costs_many(values, z[:, i] < eq.inhibit_altitude,
                                                 no_climb, no_descend)
                if not np.all(np.isfinite(values)):
                    raise ValueError("action values must be finite")
                selected = select_advisories(values, adv[:, i])
                if both_table and i == 0:
                    # coordinate(): the leader's sense forbids the same sense.
                    leader_sense = SENSES[selected]

            complying[(selected != adv[:, i]) & (selected != COC_INDEX), i] = False
            adv[:, i] = selected
        complying |= u_delay[:, :, k] < eq.pilot.response_probability

        # Record sample k, then advance kinematics over [k, k+1).
        active = (adv != COC_INDEX) & complying
        cmd = cmds[:, :, k]
        zs[:, :, k] = z
        vzs[:, :, k] = np.where(active, vz, cmd)
        adv_hist[:, k] = adv
        z_comply, vz_comply = step_complying_many(z, vz, TARGETS_FPS[adv], SENSES[adv], eq.pilot, dt)
        z = np.where(active, z_comply, z + cmd * dt)
        vz = np.where(active, vz_comply, cmd)

    # Terminal sample.
    zs[:, :, n] = z
    vzs[:, :, n] = vz
    adv_hist[:, n] = adv

    # Advisory events from the recorded advisories: a side's advisory
    # before sample k is COC at k = 0 and adv_hist[:, k-1] after that.
    before = np.concatenate([np.full((n_enc, 1, 2), COC_INDEX, np.int8), adv_hist[:, :n]], axis=1)
    events |= np.bitwise_or.reduce(_CHANGE_BITS[before, adv_hist], axis=2)
    # Separation events from the recorded altitudes: NMAC at any sample,
    # and a crossing over step k while an advisory is active.  sep is the
    # NMAC-scaled separation, so NMAC holds exactly where sep < 1 (for
    # c > 0, d < c exactly when fl(d / c) < 1) and severity is its minimum.
    h = zs[:, 1] - zs[:, 0]
    sep = np.maximum(np.abs(h) / NMAC_VERTICAL_FT, np.hypot(dx, dy) / NMAC_HORIZONTAL_FT)
    events[sep < 1.0] |= EVENT_BIT[EVENT_NMAC]
    ra_active = (adv_hist[:, :n] != COC_INDEX).any(axis=2)
    events[:, :n][ra_active & (h[:, :n] * h[:, 1:] < 0)] |= EVENT_BIT[EVENT_CROSSING]
    flags = np.bitwise_or.reduce(events, axis=1)
    outcome = np.zeros(n_enc, OUTCOME)
    for name, event in (("nmac", EVENT_NMAC), ("alert", EVENT_RA), ("strengthen", EVENT_STRENGTHEN),
                        ("reversal", EVENT_REVERSAL), ("crossing", EVENT_CROSSING)):
        outcome[name] = (flags & EVENT_BIT[event]) != 0
    outcome["severity"] = sep.min(axis=1)
    return Trace(outcome, x, y, zs, vzs, vel, adv_hist, events, dt)


def simulate_encounter(
    enc: EncounterBatch, eq: Equipage, rng: np.random.Generator
) -> Trace:
    """Run both aircraft of a one-encounter batch under their equipped logic.

    This is the lockstep simulator at B=1, its pilot-response uniforms drawn from rng.
    """
    if len(enc) != 1:
        raise ValueError("simulate_encounter takes a batch of one; its simulation stream is rng")
    return _fly(enc, eq, rng.random((1, 2, enc.n_steps)))


def _delay_uniforms(seed: int, stream: int, indices: Sequence[int], n_steps: int) -> np.ndarray:
    """_fly's (B, 2, n_steps) pilot-response block.

    Side i's response at step k reads counter 2k + i of the encounter's
    simulation stream, so it does not depend on the run's length.
    """
    return uniforms(seed, stream, indices, 2 * n_steps).reshape(-1, n_steps, 2).transpose(0, 2, 1)


def _indexed_encounters(model: EncounterModel, seed: int, stream: int, indices) -> EncounterBatch:
    """The indexed encounters of one encounter stream, built as one chunk, in the order of indices."""
    return build_encounters(model, uniforms(seed, stream, indices, model.uniforms_per_encounter))


def run_indexed_traces(
    model: EncounterModel,
    eq: Equipage,
    seed: int,
    indices: Sequence[int],
) -> Trace:
    """The Trace of the indexed encounters, built and flown as one chunk.

    Each encounter's row is the same in any chunk, a chunk of one included.
    """
    enc = _indexed_encounters(model, seed, STREAM_ENCOUNTER, indices)
    return _fly(enc, eq, _delay_uniforms(seed, STREAM_SIMULATE, indices, enc.n_steps))


def _run_chunk(
    model: EncounterModel,
    equipages: Sequence[Equipage],
    seed: int,
    indices: Sequence[int],
    nominal: Optional[EncounterModel] = None,
    streams: Tuple[int, int] = PLAIN_STREAMS,
) -> np.ndarray:
    """Build each indexed encounter once and fly every equipage over it.

    Returns their OUTCOME records, of shape (equipages, encounters), from
    the (encounter, simulation) stream pair streams.  Without a nominal
    model every log_weight is 0; with one, it is the IS log-weight of the
    nominal model against model.
    """
    enc = _indexed_encounters(model, seed, streams[0], indices)
    log_weight = 0.0
    if nominal is not None:
        sampled = trace_log_likelihoods(model, enc)
        if not np.all(np.isfinite(sampled)):
            raise ValueError("sample log-probability must be finite")
        log_weight = trace_log_likelihoods(nominal, enc) - sampled
    u_delay = _delay_uniforms(seed, streams[1], indices, enc.n_steps)
    outcome = np.stack([_fly(enc, eq, u_delay).outcome for eq in equipages])
    outcome["log_weight"] = log_weight
    return outcome


_POOL_CONTEXT: dict = {}


def _pool_init(model, equipages, seed, nominal, streams):
    _POOL_CONTEXT["args"] = (model, equipages, seed, nominal, streams)


def _pool_run(indices: range) -> np.ndarray:
    model, equipages, seed, nominal, streams = _POOL_CONTEXT["args"]
    return _run_chunk(model, equipages, seed, indices, nominal, streams)


def _run_batch(
    model: EncounterModel,
    equipages: Sequence[Equipage],
    indices: range,
    seed: int,
    workers: int,
    nominal: Optional[EncounterModel],
    streams: Tuple[int, int] = PLAIN_STREAMS,
) -> np.ndarray:
    """OUTCOME records of the indexed encounters, of shape (equipages, len(indices)).

    Records as for _run_chunk, in index order.  Each encounter is built
    once and all equipages fly over it; with a nominal model, sampling runs
    under ``model`` as the IS proposal.  Workers take whole chunks, and the
    result is the same for any count.  A pool starts all its processes at
    once, so it gets no more than there are chunks or CPUs.
    """
    if not indices:
        raise ValueError("n must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if nominal is not None:
        _check_shared_structure(nominal, model)
    workers = min(workers, os.cpu_count() or 1)
    size = min(CHUNK_ENCOUNTERS, -(-len(indices) // workers))
    chunks = [indices[i:i + size] for i in range(0, len(indices), size)]
    workers = min(workers, len(chunks))
    if workers == 1:
        results = [_run_chunk(model, equipages, seed, c, nominal, streams) for c in chunks]
    else:
        # Imported here: the pool machinery costs every serial process import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init,
            initargs=(model, equipages, seed, nominal, streams),
        ) as pool:
            results = list(pool.map(_pool_run, chunks))
    return np.concatenate(results, axis=1)


def _weights(log_weight: np.ndarray) -> np.ndarray:
    """exp of each log-weight, by math.exp: np.exp may differ in the last bit."""
    return np.array([math.exp(lw) for lw in log_weight.tolist()])


def _report(outcome: np.ndarray, weighted: bool) -> MetricsReport:
    """Rates over one equipage's OUTCOME records, weighted by exp(log_weight) if weighted."""
    n = len(outcome)
    w = _weights(outcome["log_weight"]) if weighted else None

    def rate(name: str) -> float:
        # A weighted rate is the unnormalized IS estimator (divide by n, not sum w).
        return float(np.sum(w * outcome[name]) / n) if weighted else float(np.mean(outcome[name]))

    if weighted:
        se = float(np.std(w * outcome["nmac"], ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        sw2 = float(np.sum(w * w))
        ess = float(np.sum(w) ** 2 / sw2) if sw2 > 0 else 0.0
    else:
        events = int(outcome["nmac"].sum())
        p = events / n
        se = math.sqrt(p * (1.0 - p) / n) if events else None
        ess = float(n)
    return MetricsReport(
        n=n,
        p_nmac=rate("nmac"),
        p_nmac_se=se,
        alert_rate=rate("alert"),
        strengthen_rate=rate("strengthen"),
        reversal_rate=rate("reversal"),
        crossing_rate=rate("crossing"),
        effective_sample_size=ess,
        p_nmac_upper95=None if weighted else binomial_upper_bound(events, n),
        weighted=weighted,
    )


def binomial_upper_bound(k: int, n: int) -> float:
    """One-sided 95 % Clopper-Pearson upper bound on a rate seen k times in n.

    The bound is the p at which P(X <= k | n, p) = 0.05: 1 - 0.05^(1/n) at
    k = 0, found by bisection on the binomial CDF otherwise, and 1 at k = n.
    The CDF is summed in Python (math.lgamma, math.exp, math.fsum), not by
    numpy, whose vectorized exp may differ in the last bit between machines.
    """
    alpha = 0.05
    if k >= n:
        return 1.0
    if k == 0:
        return 1.0 - alpha ** (1.0 / n)
    log_choose = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                  for i in range(k + 1)]

    def cdf(p: float) -> float:
        log_p, log_q = math.log(p), math.log1p(-p)
        return math.fsum(math.exp(c + i * log_p + (n - i) * log_q) for i, c in enumerate(log_choose))

    lo, hi = k / n, 1.0  # cdf(lo) > alpha > cdf(hi): the median of Bin(n, k/n) is at least k
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def estimate_metrics(
    model: EncounterModel, eq: Equipage, n: int, seed: int, workers: int = 1
) -> MetricsReport:
    """Plain Monte Carlo estimate over n independent encounters."""
    return _report(_run_batch(model, [eq], range(n), seed, workers, None)[0], weighted=False)


def risk_ratio(equipped: MetricsReport, unequipped: MetricsReport) -> RiskRatio:
    """Equipped-to-unequipped NMAC probability ratio with delta-method SE.

    The SE is None when the equipped report has none, as a plain report
    with no NMAC does.
    """
    if unequipped.p_nmac <= 0.0:
        raise ValueError(
            "risk ratio undefined: unequipped run produced no NMACs "
            "(insufficient unequipped NMAC count)"
        )
    r = equipped.p_nmac / unequipped.p_nmac
    if equipped.p_nmac_se is None:
        se = None
    elif equipped.p_nmac > 0.0:
        se = r * math.sqrt(
            (equipped.p_nmac_se / equipped.p_nmac) ** 2
            + (unequipped.p_nmac_se / unequipped.p_nmac) ** 2
        )
    else:
        se = equipped.p_nmac_se / unequipped.p_nmac
    return RiskRatio(value=r, se=se)


def is_estimate(
    nominal: EncounterModel,
    proposal: EncounterModel,
    eq: Equipage,
    n: int,
    seed: int,
    workers: int = 1,
) -> MetricsReport:
    """Importance-sampled estimate: sample the proposal, reweight to nominal.

    Requires the proposal to share bins and structure with the nominal model
    so bin-level likelihood ratios are exact.
    """
    return _report(_run_batch(proposal, [eq], range(n), seed, workers, nominal)[0], weighted=True)


def _check_shared_structure(nominal: EncounterModel, proposal: EncounterModel) -> None:
    for a, b in ((nominal.initial_net, proposal.initial_net),
                 (nominal.transition_net, proposal.transition_net)):
        if a.nodes != b.nodes or a.parents != b.parents:
            raise ValueError("proposal must share the nominal model structure")
        for ea, eb in zip(a.bins, b.bins):
            if not np.array_equal(ea, eb):
                raise ValueError("proposal must share the nominal model bins")
    if (nominal.mode, nominal.duration, nominal.dt) != (
        proposal.mode, proposal.duration, proposal.dt,
    ):
        raise ValueError("proposal must share the nominal mode and run geometry")


def cross_entropy_adapt(
    nominal: EncounterModel,
    proposal: EncounterModel,
    eq: Equipage,
    iterations: int,
    n_per_iter: int,
    elite_fraction: float,
    seed: int,
) -> EncounterModel:
    """Adapt the proposal toward failure-heavy regions by elite refitting.

    Each iteration flies the current proposal on the CE streams, keeping
    only the outcome records, ranks encounters by severity (NMACs first,
    ordered by nominal weight, then nearest misses), builds the elite again
    from their stream rows, and refits every CPT on their draws with the
    Laplace prior.  So an iteration never holds more than one chunk of
    encounters.
    """
    _check_shared_structure(nominal, proposal)
    if not (0.0 < elite_fraction <= 1.0):
        raise ValueError("elite_fraction must be in (0, 1]")
    n_elite = int(math.floor(elite_fraction * n_per_iter))
    if n_elite < 1:
        raise ValueError("elite set is empty; raise elite_fraction or n_per_iter")
    current = proposal
    for it in range(iterations):
        indices = range(it * n_per_iter, (it + 1) * n_per_iter)
        outcome = _run_batch(current, [eq], indices, seed, 1, nominal, CE_STREAMS)[0]
        nmac = outcome["nmac"] != 0
        # NMACs first, the heaviest nominal weight first, then the nearest
        # misses; lexsort is stable, so ties keep index order.
        key = np.where(nmac, -_weights(outcome["log_weight"]), outcome["severity"])
        elite = indices[0] + np.lexsort((key, ~nmac))[:n_elite]
        # One data row per draw: elite encounter by encounter, records in order.
        rows = ([], [])
        for start in range(0, n_elite, CHUNK_ENCOUNTERS):
            enc = _indexed_encounters(
                current, seed, STREAM_CE_ENCOUNTER, elite[start:start + CHUNK_ENCOUNTERS])
            for data, draws in zip(rows, (enc.initial_bins, enc.transition_rows)):
                data.append(draws.swapaxes(0, 1).reshape(-1, draws.shape[-1]))
        current = replace(
            current,
            initial_net=fit_cpts(current.initial_net, np.concatenate(rows[0]), prior_count=1.0),
            transition_net=fit_cpts(current.transition_net, np.concatenate(rows[1]), prior_count=1.0),
        )
    return current
