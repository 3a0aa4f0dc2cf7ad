"""Closed-loop encounter simulation and safety-metric estimation.

RNG discipline: a root seed derives independent streams for encounter
generation and for pilot response sampling, each advanced per encounter
index, so paired-seed comparisons across equipages see identical nominal
encounters.  Aggregation always runs in encounter-index order to keep
results bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bayesnet import fit_cpts
from .core import (
    ADVISORIES,
    COC_INDEX,
    EVENT_CROSSING,
    EVENT_NMAC,
    EVENT_RA,
    EVENT_REVERSAL,
    EVENT_STRENGTHEN,
    EVENT_TA,
    NMAC_HORIZONTAL_FT,
    NMAC_VERTICAL_FT,
    AircraftTrack,
    EncounterTrace,
    is_reversal,
    is_strengthening,
)
from .dynamics import PilotModel, sample_response_delay, step_complying_many
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

# Stream tags under the root seed.
STREAM_ENCOUNTER = 0
STREAM_SIMULATE = 1
STREAM_CE_ENCOUNTER = 2
STREAM_CE_SIMULATE = 3


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
        for side in (self.own, self.intruder):
            if side not in LOGIC_KINDS:
                raise ValueError(f"unknown logic kind {side!r}")
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


# Per-step event bits of the lockstep simulator, in EncounterTrace label terms.
_EVENT_FLAGS = (EVENT_TA, EVENT_RA, EVENT_STRENGTHEN, EVENT_REVERSAL, EVENT_CROSSING, EVENT_NMAC)
_BIT = {flag: 1 << j for j, flag in enumerate(_EVENT_FLAGS)}

# Encounters advanced together in one lockstep chunk.  A table lookup then
# gathers chunk x 7 sigma points x 8 corners x 7 advisories x 8 bytes: 0.8 MB.
CHUNK_ENCOUNTERS = 256

# Lockstep state holds advisories as int8 indices into ADVISORIES, and
# event bits as uint8.
_SENSE = np.array([a.sense for a in ADVISORIES])
_TARGET_FPS = np.array([a.target_rate_fps or 0.0 for a in ADVISORIES])
# Event bits a side scores when its advisory goes from index p to index q;
# 0 on the diagonal, so a held advisory scores nothing.
_CHANGE_BITS = np.array([
    [(_BIT[EVENT_RA] if p == COC_INDEX != q else 0)
     | (_BIT[EVENT_STRENGTHEN] if is_strengthening(a, b) else 0)
     | (_BIT[EVENT_REVERSAL] if is_reversal(a, b) else 0)
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
    rngs: Sequence[Optional[np.random.Generator]],
) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """Fly B encounters together, one step at a time, under one equipage.

    Returns each encounter's event bits ORed over its steps, its severity
    (minimum NMAC-scaled separation over its steps) and the per-step
    record an EncounterTrace is built from: x, y, z and vz of shape
    (B, 2, n+1), horizontal velocities (B, 2, 2), advisory indices
    (B, n+1, 2) and event bits (B, n+1).

    rngs[b] is encounter b's simulation stream, or None for an unequipped
    pair, which draws nothing.  Its first spawned child draws the pilot
    delays exactly as for a lone encounter, so every encounter's result is
    the same in any chunk; the child is spawned when the encounter first
    draws.  Each step does three things: the equipped sides decide, the
    sample is recorded, and both aircraft move.  A side that switches at
    step k to an advisory other than COC draws a geometric pilot delay d
    and complies from step k + d for as long as it holds that advisory; a
    switch while a delay runs draws a new one.  A complying side moves
    toward its advisory's band, and every other side flies its nominal
    command, so unequipped aircraft replay the nominal commands exactly.
    Each table-equipped side makes one lookup per step over the sigma
    points of all B beliefs, and each TCAS side one tracker_step_many.
    Every event is scored once, from the record, after the last step.
    """
    n_enc, n, dt = len(enc), enc.n_steps, enc.dt
    if len(rngs) != n_enc:
        raise ValueError("each encounter needs its own simulation stream")
    logics = (eq.own, eq.intruder)
    equipped = [i for i in (0, 1) if logics[i] != LOGIC_NONE]
    table_sides = [i for i in (0, 1) if logics[i] == LOGIC_TABLE]
    if table_sides and dt != 1.0:
        raise ValueError("table logic assumes a 1 s step; encounter dt mismatch")
    # Spawned when the encounter first draws a delay; p = 1 draws none.
    pilot_rngs = [None] * n_enc

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
    # The first step at which each side complies with its advisory.
    comply_at = np.zeros((n_enc, 2), dtype=int)

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
        events[:, :n][ta] |= _BIT[EVENT_TA]
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
                    leader_sense = _SENSE[selected]

            for b in np.flatnonzero((selected != adv[:, i]) & (selected != COC_INDEX)).tolist():
                if pilot_rngs[b] is None and eq.pilot.response_probability < 1.0:
                    pilot_rngs[b] = rngs[b].spawn(1)[0]
                comply_at[b, i] = k + sample_response_delay(eq.pilot, pilot_rngs[b])
            adv[:, i] = selected

        # Record sample k, then advance kinematics over [k, k+1).
        active = (adv != COC_INDEX) & (comply_at <= k)
        cmd = cmds[:, :, k]
        zs[:, :, k] = z
        vzs[:, :, k] = np.where(active, vz, cmd)
        adv_hist[:, k] = adv
        z_comply, vz_comply = step_complying_many(z, vz, _TARGET_FPS[adv], _SENSE[adv], eq.pilot, dt)
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
    events[sep < 1.0] |= _BIT[EVENT_NMAC]
    ra_active = (adv_hist[:, :n] != COC_INDEX).any(axis=2)
    events[:, :n][ra_active & (h[:, :n] * h[:, 1:] < 0)] |= _BIT[EVENT_CROSSING]
    flags = np.bitwise_or.reduce(events, axis=1)
    return flags, sep.min(axis=1), (x, y, vel, zs, vzs, adv_hist, events)


def simulate_encounters(
    enc: EncounterBatch, eq: Equipage, rngs: Sequence[np.random.Generator]
) -> List[EncounterTrace]:
    """Run a chunk of encounters in lockstep and build each one's trace.

    rngs[b] is encounter b's simulation stream; each trace equals the one
    simulate_encounter gives for encounter b built alone, under rngs[b].
    """
    _, _, (x, y, vel, z, vz, adv, events) = _fly(enc, eq, rngs)
    n = enc.n_steps + 1
    traces = []
    for b in range(len(enc)):
        tracks = [
            AircraftTrack(dt=enc.dt, x=x[b, i], y=y[b, i], z=z[b, i],
                          vx=np.full(n, vel[b, i, 0]), vy=np.full(n, vel[b, i, 1]), vz=vz[b, i])
            for i in (0, 1)
        ]
        traces.append(EncounterTrace(
            ownship=tracks[0],
            intruder=tracks[1],
            advisories=tuple((ADVISORIES[a0], ADVISORIES[a1]) for a0, a1 in adv[b].tolist()),
            events=tuple(
                frozenset(f for f in _EVENT_FLAGS if bits & _BIT[f]) for bits in events[b].tolist()
            ),
        ))
    return traces


def simulate_encounter(
    enc: EncounterBatch, eq: Equipage, rng: np.random.Generator
) -> EncounterTrace:
    """Run both aircraft of a one-encounter batch under their equipped logic.

    This is the lockstep simulator at B=1.
    """
    return simulate_encounters(enc, eq, [rng])[0]


def trace_severity(trace: EncounterTrace) -> float:
    """Minimum 3-D separation scaled by the NMAC thresholds (< 1 iff NMAC)."""
    dz = np.abs(trace.intruder.z - trace.ownship.z) / NMAC_VERTICAL_FT
    dxy = (
        np.hypot(
            trace.intruder.x - trace.ownship.x,
            trace.intruder.y - trace.ownship.y,
        )
        / NMAC_HORIZONTAL_FT
    )
    return float(np.min(np.maximum(dz, dxy)))


def _rngs(seed: int, stream: int, indices: Sequence[int]) -> List[np.random.Generator]:
    """One generator per encounter index: default_rng([seed, stream, index])."""
    return [np.random.default_rng([seed, stream, i]) for i in indices]


def run_indexed_traces(
    model: EncounterModel,
    eq: Equipage,
    seed: int,
    indices: Sequence[int],
) -> List[EncounterTrace]:
    """Traces of the indexed encounters, built and flown as one chunk.

    Each trace is the same in any chunk, a chunk of one included.
    """
    enc = build_encounters(model, _rngs(seed, STREAM_ENCOUNTER, indices))
    return simulate_encounters(enc, eq, _rngs(seed, STREAM_SIMULATE, indices))


def _run_chunk(
    model: EncounterModel,
    equipages: Sequence[Equipage],
    seed: int,
    indices: Sequence[int],
    nominal: Optional[EncounterModel] = None,
    enc_stream: int = STREAM_ENCOUNTER,
    sim_stream: int = STREAM_SIMULATE,
) -> Tuple[EncounterBatch, np.ndarray, np.ndarray, np.ndarray]:
    """Build each indexed encounter once and fly every equipage over it.

    Returns the encounters, their event bits and severities of shape
    (equipages, encounters), and their log-weights of shape (encounters,):
    zeros without a nominal model, else the IS log-weight of the nominal
    model against model, which every equipage shares.
    """
    enc = build_encounters(model, _rngs(seed, enc_stream, indices))
    if nominal is None:
        log_weight = np.zeros(len(enc))
    else:
        sampled = trace_log_likelihoods(model, enc)
        if not np.all(np.isfinite(sampled)):
            raise ValueError("sample log-probability must be finite")
        log_weight = trace_log_likelihoods(nominal, enc) - sampled
    flown = []
    for eq in equipages:
        # An unequipped pair draws no pilot delay, so it is given no streams.
        equipped = eq.own != LOGIC_NONE or eq.intruder != LOGIC_NONE
        rngs = _rngs(seed, sim_stream, indices) if equipped else [None] * len(enc)
        flown.append(_fly(enc, eq, rngs)[:2])
    flags, severity = (np.array(a) for a in zip(*flown))
    return enc, flags, severity, log_weight


def _chunks(start: int, stop: int, size: int) -> List[range]:
    return [range(i, min(i + size, stop)) for i in range(start, stop, size)]


_POOL_CONTEXT: dict = {}


def _pool_init(model, equipages, seed, nominal):
    _POOL_CONTEXT["args"] = (model, equipages, seed, nominal)


def _pool_run(indices: range) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    model, equipages, seed, nominal = _POOL_CONTEXT["args"]
    return _run_chunk(model, equipages, seed, indices, nominal)[1:]


def _run_batch(
    model: EncounterModel,
    equipages: Sequence[Equipage],
    n: int,
    seed: int,
    workers: int,
    nominal: Optional[EncounterModel],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Event bits, severities and log-weights of encounters 0..n-1.

    Shapes as for _run_chunk, in index order.  Each encounter is built
    once and all equipages fly over it; with a nominal model, sampling runs
    under ``model`` as the IS proposal.  Workers take whole chunks, and the
    result is the same for any count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if nominal is not None:
        _check_shared_structure(nominal, model)
    size = min(CHUNK_ENCOUNTERS, -(-n // max(workers, 1)))
    chunks = _chunks(0, n, size)
    if workers <= 1:
        results = [_run_chunk(model, equipages, seed, c, nominal)[1:] for c in chunks]
    else:
        # Imported here: the pool machinery costs every serial process import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init,
            initargs=(model, equipages, seed, nominal),
        ) as pool:
            results = list(pool.map(_pool_run, chunks))
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*results))


# Outcomes a report rates and per_encounter.csv lists, with the event each counts.
_OUTCOME_EVENTS = {
    "nmac": EVENT_NMAC,
    "alert": EVENT_RA,
    "strengthen": EVENT_STRENGTHEN,
    "reversal": EVENT_REVERSAL,
    "crossing": EVENT_CROSSING,
}


def outcome_columns(flags: np.ndarray) -> dict:
    """Each outcome's 0/1 indicator over one equipage's event bits."""
    return {name: ((flags & _BIT[event]) != 0).astype(int) for name, event in _OUTCOME_EVENTS.items()}


def _weights(log_weight: np.ndarray) -> np.ndarray:
    """exp of each log-weight, by math.exp: np.exp may differ in the last bit."""
    return np.array([math.exp(lw) for lw in log_weight.tolist()])


def _report(flags: np.ndarray, log_weight: np.ndarray, weighted: bool) -> MetricsReport:
    """Rates over one equipage's event bits, weighted by exp(log_weight) if weighted."""
    n = len(flags)
    columns = {k: v.astype(float) for k, v in outcome_columns(flags).items()}
    if weighted:
        w = _weights(log_weight)
        # Unnormalized importance-sampling estimator (divide by n, not sum w).
        est = {k: float(np.sum(w * v) / n) for k, v in columns.items()}
        wi = w * columns["nmac"]
        se = float(np.std(wi, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        sw2 = float(np.sum(w * w))
        ess = float(np.sum(w) ** 2 / sw2) if sw2 > 0 else 0.0
    else:
        est = {k: float(np.mean(v)) for k, v in columns.items()}
        p = est["nmac"]
        events = int(columns["nmac"].sum())
        se = math.sqrt(p * (1.0 - p) / n) if events else None
        ess = float(n)
    return MetricsReport(
        n=n,
        p_nmac=est["nmac"],
        p_nmac_se=se,
        alert_rate=est["alert"],
        strengthen_rate=est["strengthen"],
        reversal_rate=est["reversal"],
        crossing_rate=est["crossing"],
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
    flags, _, log_weight = _run_batch(model, [eq], n, seed, workers, nominal=None)
    return _report(flags[0], log_weight, weighted=False)


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
    flags, _, log_weight = _run_batch(proposal, [eq], n, seed, workers, nominal=nominal)
    return _report(flags[0], log_weight, weighted=True)


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

    Each iteration samples the current proposal, ranks encounters by
    severity (NMACs first, ordered by nominal weight, then nearest misses),
    and refits every CPT on the elite set with the Laplace prior.
    """
    _check_shared_structure(nominal, proposal)
    if not (0.0 < elite_fraction <= 1.0):
        raise ValueError("elite_fraction must be in (0, 1]")
    n_elite = int(math.floor(elite_fraction * n_per_iter))
    if n_elite < 1:
        raise ValueError("elite set is empty; raise elite_fraction or n_per_iter")
    current = proposal
    for it in range(iterations):
        encs, flags, severity, log_weight = zip(*[
            _run_chunk(
                current, [eq], seed, indices, nominal=nominal,
                enc_stream=STREAM_CE_ENCOUNTER, sim_stream=STREAM_CE_SIMULATE,
            )
            for indices in _chunks(it * n_per_iter, (it + 1) * n_per_iter, CHUNK_ENCOUNTERS)
        ])
        nmac = (np.concatenate(flags, axis=1)[0] & _BIT[EVENT_NMAC]) != 0
        # NMACs first, the heaviest nominal weight first, then the nearest
        # misses; lexsort is stable, so ties keep index order.
        key = np.where(nmac, -_weights(np.concatenate(log_weight)), np.concatenate(severity, axis=1)[0])
        elite = np.lexsort((key, ~nmac))[:n_elite]
        # One data row per draw: elite encounter by encounter, records in order.
        initial_data, transition_data = (
            np.concatenate([d.swapaxes(0, 1) for d in draws])[elite].reshape(-1, draws[0].shape[-1])
            for draws in ([e.initial_bins for e in encs], [e.transition_rows for e in encs])
        )
        # Free this iteration's chunks before the next one samples its own.
        del encs
        current = EncounterModel(
            initial_net=fit_cpts(current.initial_net, initial_data, prior_count=1.0),
            transition_net=fit_cpts(current.transition_net, transition_data, prior_count=1.0),
            mode=current.mode,
            duration=current.duration,
            dt=current.dt,
        )
    return current
