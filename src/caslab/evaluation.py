"""Closed-loop encounter simulation and safety-metric estimation.

RNG discipline: a root seed derives independent streams for encounter
generation and for logic/pilot/belief sampling, each advanced per encounter
index, so paired-seed comparisons across equipages see identical nominal
encounters.  Aggregation always runs in encounter-index order to keep
results bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bayesnet import fit_cpts
from .core import (
    ADVISORIES,
    EVENT_CROSSING,
    EVENT_NMAC,
    EVENT_RA,
    EVENT_REVERSAL,
    EVENT_STRENGTHEN,
    EVENT_TA,
    NMAC_HORIZONTAL_FT,
    NMAC_VERTICAL_FT,
    Advisory,
    AircraftState,
    AircraftTrack,
    EncounterTrace,
    horizontal_tau_xy,
    is_reversal,
    is_strengthening,
)
from .dynamics import PilotModel, sample_response_delay, step_complying_many
from .encounters import (
    SEPARATION_THRESHOLD_FT,
    EncounterModel,
    SampledEncounter,
    build_encounter,
    build_encounters,
    trace_log_likelihoods,
)
from .optimizer import LogicTable
from .runtime import (
    DEFAULT_BELIEF_PARTICLES,
    DEFAULT_BELIEF_SIGMA_H_FT,
    DEFAULT_BELIEF_SIGMA_RATE_FPS,
    CoordinationConstraint,
    OnlineContext,
    apply_online_costs_many,
    weighted_particle_values,
)
from .tcas import TcasConfig, TcasTracker, Threat

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
    """Per-aircraft logic selection plus the shared response/runtime models."""

    own: str = LOGIC_NONE
    intruder: str = LOGIC_NONE
    pilot: PilotModel = field(default_factory=PilotModel)
    table: Optional[LogicTable] = None
    tcas: TcasConfig = field(default_factory=TcasConfig)
    context: OnlineContext = field(default_factory=OnlineContext)
    belief_sigma_h: float = DEFAULT_BELIEF_SIGMA_H_FT
    belief_sigma_rate: float = DEFAULT_BELIEF_SIGMA_RATE_FPS
    belief_particles: int = DEFAULT_BELIEF_PARTICLES

    def __post_init__(self) -> None:
        for side in (self.own, self.intruder):
            if side not in LOGIC_KINDS:
                raise ValueError(f"unknown logic kind {side!r}")
        if LOGIC_TABLE in (self.own, self.intruder) and self.table is None:
            raise ValueError("table equipage requires a LogicTable")


@dataclass(frozen=True)
class MetricsReport:
    """Estimated event probabilities with standard errors.

    A weighted report holds unnormalized importance-sampling estimates
    (sum of w * flag over n): unbiased, but on a finite sample a rate can
    exceed 1, so only finiteness and sign are checked for it.
    """

    n: int
    p_nmac: float
    p_nmac_se: float
    alert_rate: float
    strengthen_rate: float
    reversal_rate: float
    crossing_rate: float
    effective_sample_size: float
    weighted: bool = False

    def __post_init__(self) -> None:
        for name in ("p_nmac", "alert_rate", "strengthen_rate", "reversal_rate", "crossing_rate"):
            v = getattr(self, name)
            if self.weighted:
                if not (math.isfinite(v) and v >= 0.0):
                    raise ValueError(f"{name} must be finite and >= 0, got {v}")
            elif not (-1e-9 <= v <= 1.0 + 1e-9):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.p_nmac_se < 0 or self.effective_sample_size < 0:
            raise ValueError("standard error and ESS must be >= 0")


@dataclass(frozen=True)
class RiskRatio:
    value: float
    se: float


# Per-step event bits of the lockstep simulator, in EncounterTrace label terms.
_EVENT_FLAGS = (EVENT_TA, EVENT_RA, EVENT_STRENGTHEN, EVENT_REVERSAL, EVENT_CROSSING, EVENT_NMAC)
_BIT = {flag: 1 << j for j, flag in enumerate(_EVENT_FLAGS)}

# Encounters advanced together in one lockstep chunk.  A table lookup then
# gathers chunk x particles x 16 corners x 7 advisories x 8 bytes: 1.1 MB
# at the default 20 particles.
CHUNK_ENCOUNTERS = 64

# Lockstep state holds advisories as indices into ADVISORIES.
_COC = ADVISORIES.index(Advisory.COC)
_ADV_INDEX = {a: i for i, a in enumerate(ADVISORIES)}
_SENSE = np.array([a.sense for a in ADVISORIES])
_TARGET_FPS = np.array([a.target_rate_fps or 0.0 for a in ADVISORIES])
_STRENGTHENS = np.array([[is_strengthening(p, q) for q in ADVISORIES] for p in ADVISORIES])
_REVERSES = np.array([[is_reversal(p, q) for q in ADVISORIES] for p in ADVISORIES])


def _quantized_tau(rel_pos, rel_vel, tau_max: int) -> float:
    tau = horizontal_tau_xy(rel_pos, rel_vel, SEPARATION_THRESHOLD_FT)
    return float(tau_max) if tau is None else float(min(round(tau), tau_max))


def _fly(
    encs: Sequence[SampledEncounter],
    eq: Equipage,
    rngs: Sequence[np.random.Generator],
) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """Fly B encounters together, one step at a time, under one equipage.

    Returns each encounter's event bits ORed over its steps, its severity
    (minimum NMAC-scaled separation over its steps) and the per-step
    record an EncounterTrace is built from: x, y, z and vz of shape
    (B, 2, n+1), horizontal velocities (B, 2, 2), advisory indices
    (B, n+1, 2) and event bits (B, n+1).

    rngs[b] is encounter b's simulation stream, split into pilot and belief
    streams exactly as for a lone encounter, so every encounter's result is
    the same in any chunk.  Equipped aircraft re-evaluate their logic every
    step; advisories override the nominal vertical command once the
    (geometric) pilot delay elapses.  Unequipped aircraft replay the nominal
    commands exactly.  Each table-equipped side makes one lookup per step
    over all B beliefs.
    """
    n_enc = len(encs)
    n, dt = encs[0].n_steps, encs[0].dt
    if any(e.n_steps != n or e.dt != dt for e in encs):
        raise ValueError("a lockstep chunk must share n_steps and dt")
    logics = (eq.own, eq.intruder)
    equipped = [i for i in (0, 1) if logics[i] != LOGIC_NONE]
    table_sides = [i for i in (0, 1) if logics[i] == LOGIC_TABLE]
    if table_sides and dt != 1.0:
        raise ValueError("table logic assumes a 1 s step; encounter dt mismatch")
    streams = [rng.spawn(2) for rng in rngs]
    pilot_rngs = [pilot for pilot, _ in streams]

    # Open-loop horizontal tracks, (B, aircraft, n+1), evaluated as
    # pos0 + v * k * dt like the per-step states.
    vel = np.array([
        [(e.own_speed * math.cos(e.own_heading), e.own_speed * math.sin(e.own_heading)),
         (e.int_speed * math.cos(e.int_heading), e.int_speed * math.sin(e.int_heading))]
        for e in encs
    ])
    pos0 = np.array([[e.own_pos0, e.int_pos0] for e in encs])
    ks = np.arange(n + 1)
    x = pos0[:, :, 0, None] + vel[:, :, 0, None] * ks * dt
    y = pos0[:, :, 1, None] + vel[:, :, 1, None] * ks * dt
    dx, dy = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
    # The NMAC test uses math.hypot, which np.hypot does not always match.
    near = np.array(
        [math.hypot(a, b) for a, b in zip(dx.ravel().tolist(), dy.ravel().tolist())]
    ).reshape(n_enc, n + 1) < NMAC_HORIZONTAL_FT
    # Severity is measured like trace_severity: np.hypot on the trace's
    # track arrays, pos0 + v * (k * dt).
    t = ks * dt
    x_trace = pos0[:, :, 0, None] + vel[:, :, 0, None] * t
    y_trace = pos0[:, :, 1, None] + vel[:, :, 1, None] * t
    sep_xy = np.hypot(
        x_trace[:, 1] - x_trace[:, 0], y_trace[:, 1] - y_trace[:, 0]
    ) / NMAC_HORIZONTAL_FT

    z = np.array([[e.own_alt0, e.int_alt0] for e in encs], dtype=float)
    cmds = np.array([[e.own_vrate, e.int_vrate] for e in encs], dtype=float)
    vz = cmds[:, :, 0].copy()
    adv = np.full((n_enc, 2), _COC)
    complying = np.zeros((n_enc, 2), dtype=bool)
    delay = np.zeros((n_enc, 2), dtype=int)

    trackers = {
        i: [TcasTracker(eq.tcas) for _ in encs] for i in (0, 1) if logics[i] == LOGIC_TCAS
    }
    vl = vel.tolist()

    table = eq.table
    if table_sides:
        grid = table.grid
        n_p = eq.belief_particles
        weights = np.full(n_p, 1.0 / n_p)
        to_table = np.array([
            grid.advisory_index(a) if a in grid.advisories else -1 for a in ADVISORIES
        ])
        from_table = np.array([_ADV_INDEX[a] for a in grid.advisories])
        # Relative geometry is antisymmetric between the sides, so both see
        # the same tau (every term of horizontal_tau_xy is sign-invariant).
        dvx, dvy = (vel[:, 1, 0] - vel[:, 0, 0]).tolist(), (vel[:, 1, 1] - vel[:, 0, 1]).tolist()
        tau_q = np.array([
            [_quantized_tau((px, py), (dvx[b], dvy[b]), grid.tau_max)
             for px, py in zip(dx[b, :n].tolist(), dy[b, :n].tolist())]
            for b in range(n_enc)
        ])
        # Each encounter's belief noise for all steps in one block, in the
        # order the steps consume it: step, then table side, then particle.
        if eq.belief_sigma_h == 0.0 and eq.belief_sigma_rate == 0.0:
            noise = None
            zero_noise = np.zeros((n_enc, n_p, 3))
        else:
            noise = np.stack([
                belief.normal(0.0, 1.0, size=(n, len(table_sides), n_p, 3))
                for _, belief in streams
            ])
            noise[..., 0] *= eq.belief_sigma_h
            noise[..., 1] *= eq.belief_sigma_rate
            noise[..., 2] *= eq.belief_sigma_rate
        both_table = len(table_sides) == 2
        ctx = eq.context
        base_climb = ctx.coordination_constraint is CoordinationConstraint.DO_NOT_CLIMB
        base_descend = ctx.coordination_constraint is CoordinationConstraint.DO_NOT_DESCEND

    zs = np.empty((n_enc, 2, n + 1))
    vzs = np.empty((n_enc, 2, n + 1))
    adv_hist = np.empty((n_enc, n + 1, 2), dtype=int)
    events = np.zeros((n_enc, n + 1), dtype=int)

    for k in range(n):
        step_events = events[:, k]
        prev = adv.copy()
        if trackers:
            xl, yl, zl, vzl = x[:, :, k].tolist(), y[:, :, k].tolist(), z.tolist(), vz.tolist()
        for i in equipped:
            o = 1 - i
            if logics[i] == LOGIC_TCAS:
                chosen = []
                for b, tracker in enumerate(trackers[i]):
                    me = AircraftState(xl[b][i], yl[b][i], zl[b][i], vl[b][i][0], vl[b][i][1], vzl[b][i])
                    other = AircraftState(xl[b][o], yl[b][o], zl[b][o], vl[b][o][0], vl[b][o][1], vzl[b][o])
                    a, threat = tracker.step(me, other)
                    chosen.append(_ADV_INDEX[a])
                    if threat is Threat.TA:
                        step_events[b] |= _BIT[EVENT_TA]
                selected = np.array(chosen)
            else:
                # Array form of synthesize_belief followed by
                # belief_action_values (same noise stream, same weights).
                nz = zero_noise if noise is None else noise[:, k, table_sides.index(i)]
                values = weighted_particle_values(
                    table,
                    (z[:, o] - z[:, i])[:, None] + nz[..., 0],
                    vz[:, i, None] + nz[..., 1],
                    vz[:, o, None] + nz[..., 2],
                    np.repeat(tau_q[:, k, None], n_p, axis=1),
                    np.repeat(to_table[adv[:, i]][:, None], n_p, axis=1),
                    weights,
                )
                if both_table and i == 1:
                    no_climb, no_descend = leader_sense > 0, leader_sense < 0
                else:
                    no_climb = np.full(n_enc, base_climb)
                    no_descend = np.full(n_enc, base_descend)
                values = apply_online_costs_many(
                    values, z[:, i] < ctx.inhibit_altitude, no_climb, no_descend,
                    ctx.cost_magnitude, grid.advisories,
                )
                if not np.all(np.isfinite(values)):
                    raise ValueError("action values must be finite")
                # argmax keeps the first maximum: the canonical tie-break.
                selected = from_table[np.argmax(values, axis=1)]
                if both_table and i == 0:
                    # coordinate(): the leader's sense forbids the same sense.
                    leader_sense = _SENSE[selected]

            changed = selected != adv[:, i]
            if changed.any():
                adv[:, i] = selected
                for b in np.flatnonzero(changed & (selected != _COC)).tolist():
                    delay[b, i] = sample_response_delay(eq.pilot, pilot_rngs[b])
                complying[changed, i] = False
            waiting = (adv[:, i] != _COC) & ~complying[:, i]
            if waiting.any():
                ready = waiting & (delay[:, i] == 0)
                complying[ready, i] = True
                delay[waiting & ~ready, i] -= 1

        for i in equipped:
            p, q = prev[:, i], adv[:, i]
            changed = p != q
            if changed.any():
                step_events[changed & (p == _COC) & (q != _COC)] |= _BIT[EVENT_RA]
                step_events[changed & _STRENGTHENS[p, q]] |= _BIT[EVENT_STRENGTHEN]
                step_events[changed & _REVERSES[p, q]] |= _BIT[EVENT_REVERSAL]

        # Record sample k, then advance kinematics over [k, k+1).
        active = (adv != _COC) & complying
        cmd = cmds[:, :, k]
        zs[:, :, k] = z
        vzs[:, :, k] = np.where(active, vz, cmd)
        adv_hist[:, k] = adv
        if active.any():
            z_comply, vz_comply = step_complying_many(
                z, vz, _TARGET_FPS[adv], _SENSE[adv], eq.pilot, dt
            )
            z = np.where(active, z_comply, z + cmd * dt)
            vz = np.where(active, vz_comply, cmd)
        else:
            z = z + cmd * dt
            vz = cmd

    # Terminal sample.
    zs[:, :, n] = z
    vzs[:, :, n] = vz
    adv_hist[:, n] = adv

    # Separation events from the recorded altitudes: NMAC at any sample,
    # and a crossing over step k while an advisory is active.
    h = zs[:, 1] - zs[:, 0]
    dz = np.abs(h)
    events[(dz < NMAC_VERTICAL_FT) & near] |= _BIT[EVENT_NMAC]
    ra_active = (adv_hist[:, :n] != _COC).any(axis=2)
    events[:, :n][ra_active & (h[:, :n] * h[:, 1:] < 0)] |= _BIT[EVENT_CROSSING]
    severity = np.maximum(dz / NMAC_VERTICAL_FT, sep_xy).min(axis=1)
    flags = np.bitwise_or.reduce(events, axis=1)
    return flags, severity, (x_trace, y_trace, vel, zs, vzs, adv_hist, events)


def simulate_encounters(
    encs: Sequence[SampledEncounter], eq: Equipage, rngs: Sequence[np.random.Generator]
) -> List[EncounterTrace]:
    """Run a chunk of encounters in lockstep and build each one's trace.

    rngs[b] is encounter b's simulation stream; each trace equals
    simulate_encounter(encs[b], eq, rngs[b]).
    """
    _, _, (x, y, vel, z, vz, adv, events) = _fly(encs, eq, rngs)
    traces = []
    for b, enc in enumerate(encs):
        n = enc.n_steps + 1
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
    enc: SampledEncounter, eq: Equipage, rng: np.random.Generator
) -> EncounterTrace:
    """Run both aircraft through the encounter under their equipped logic.

    This is the lockstep simulator at B=1.
    """
    return simulate_encounters([enc], eq, [rng])[0]


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


@dataclass(frozen=True)
class EncounterOutcome:
    nmac: bool
    alert: bool
    strengthen: bool
    reversal: bool
    crossing: bool
    severity: float
    log_weight: float


def _outcome_of(trace: EncounterTrace, log_weight: float) -> EncounterOutcome:
    return EncounterOutcome(
        nmac=trace.has_event(EVENT_NMAC),
        alert=trace.has_event(EVENT_RA),
        strengthen=trace.has_event(EVENT_STRENGTHEN),
        reversal=trace.has_event(EVENT_REVERSAL),
        crossing=trace.has_event(EVENT_CROSSING),
        severity=trace_severity(trace),
        log_weight=log_weight,
    )


def _outcome_of_flags(flags: int, severity: float, log_weight: float) -> EncounterOutcome:
    return EncounterOutcome(
        nmac=bool(flags & _BIT[EVENT_NMAC]),
        alert=bool(flags & _BIT[EVENT_RA]),
        strengthen=bool(flags & _BIT[EVENT_STRENGTHEN]),
        reversal=bool(flags & _BIT[EVENT_REVERSAL]),
        crossing=bool(flags & _BIT[EVENT_CROSSING]),
        severity=severity,
        log_weight=log_weight,
    )


def run_indexed_encounter(
    model: EncounterModel,
    eq: Equipage,
    seed: int,
    index: int,
    enc_stream: int = STREAM_ENCOUNTER,
    sim_stream: int = STREAM_SIMULATE,
) -> Tuple[SampledEncounter, EncounterTrace, EncounterOutcome]:
    """Build and simulate the index-th encounter under the seed discipline."""
    enc_rng = np.random.default_rng([seed, enc_stream, index])
    enc = build_encounter(model, enc_rng)
    sim_rng = np.random.default_rng([seed, sim_stream, index])
    trace = simulate_encounter(enc, eq, sim_rng)
    return enc, trace, _outcome_of(trace, 0.0)


def run_indexed_traces(
    model: EncounterModel,
    eq: Equipage,
    seed: int,
    indices: Sequence[int],
    enc_stream: int = STREAM_ENCOUNTER,
    sim_stream: int = STREAM_SIMULATE,
) -> List[EncounterTrace]:
    """Traces of the indexed encounters, built and flown as one chunk.

    Each equals run_indexed_encounter's trace for the same index.
    """
    encs = build_encounters(model, [np.random.default_rng([seed, enc_stream, i]) for i in indices])
    rngs = [np.random.default_rng([seed, sim_stream, i]) for i in indices]
    return simulate_encounters(encs, eq, rngs)


def _run_chunk(
    model: EncounterModel,
    equipages: Sequence[Equipage],
    seed: int,
    indices: Sequence[int],
    nominal: Optional[EncounterModel] = None,
    enc_stream: int = STREAM_ENCOUNTER,
    sim_stream: int = STREAM_SIMULATE,
) -> Tuple[List[SampledEncounter], List[List[EncounterOutcome]]]:
    """Build each indexed encounter once and fly every equipage over it.

    Returns the encounters and, per equipage, their outcomes in index order;
    each equals run_indexed_encounter's outcome for the same index, except
    that a nominal model gives it the IS log-weight of the nominal model
    against model.
    """
    encs = build_encounters(model, [np.random.default_rng([seed, enc_stream, i]) for i in indices])
    if nominal is None:
        log_weights = [0.0] * len(encs)
    else:
        # trace_log_likelihood(model, enc) is enc.log_probability bit for bit.
        log_weights = (
            trace_log_likelihoods(nominal, encs) - np.array([e.log_probability for e in encs])
        ).tolist()
    outcomes = []
    for eq in equipages:
        rngs = [np.random.default_rng([seed, sim_stream, i]) for i in indices]
        flags, severity, _ = _fly(encs, eq, rngs)
        outcomes.append([
            _outcome_of_flags(f, s, w)
            for f, s, w in zip(flags.tolist(), severity.tolist(), log_weights)
        ])
    return encs, outcomes


def _chunks(start: int, stop: int, size: int) -> List[range]:
    return [range(i, min(i + size, stop)) for i in range(start, stop, size)]


_POOL_CONTEXT: dict = {}


def _pool_init(model, equipages, seed, nominal):
    _POOL_CONTEXT["args"] = (model, equipages, seed, nominal)


def _pool_run(indices: range) -> List[List[EncounterOutcome]]:
    model, equipages, seed, nominal = _POOL_CONTEXT["args"]
    return _run_chunk(model, equipages, seed, indices, nominal)[1]


def _run_batch(
    model: EncounterModel,
    equipages: Sequence[Equipage],
    n: int,
    seed: int,
    workers: int,
    nominal: Optional[EncounterModel],
) -> List[List[EncounterOutcome]]:
    """Outcomes of encounters 0..n-1 for every equipage, in index order.

    Each encounter is built once and all equipages fly over it; with a
    nominal model, sampling runs under ``model`` as the IS proposal.
    Workers take whole chunks, and the result is the same for any count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if nominal is not None:
        _check_shared_structure(nominal, model)
    size = min(CHUNK_ENCOUNTERS, -(-n // max(workers, 1)))
    chunks = _chunks(0, n, size)
    if workers <= 1:
        results = [_run_chunk(model, equipages, seed, c, nominal)[1] for c in chunks]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init,
            initargs=(model, equipages, seed, nominal),
        ) as pool:
            results = list(pool.map(_pool_run, chunks))
    return [[o for chunk in results for o in chunk[j]] for j in range(len(equipages))]


def _report(outcomes: Sequence[EncounterOutcome], weighted: bool) -> MetricsReport:
    n = len(outcomes)
    w = np.array([math.exp(o.log_weight) for o in outcomes])
    flags = {
        "nmac": np.array([o.nmac for o in outcomes], dtype=float),
        "alert": np.array([o.alert for o in outcomes], dtype=float),
        "strengthen": np.array([o.strengthen for o in outcomes], dtype=float),
        "reversal": np.array([o.reversal for o in outcomes], dtype=float),
        "crossing": np.array([o.crossing for o in outcomes], dtype=float),
    }
    if weighted:
        # Unnormalized importance-sampling estimator (divide by n, not sum w).
        est = {k: float(np.sum(w * v) / n) for k, v in flags.items()}
        wi = w * flags["nmac"]
        se = float(np.std(wi, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        sw2 = float(np.sum(w * w))
        ess = float(np.sum(w) ** 2 / sw2) if sw2 > 0 else 0.0
    else:
        est = {k: float(np.mean(v)) for k, v in flags.items()}
        p = est["nmac"]
        se = math.sqrt(p * (1.0 - p) / n)
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
        weighted=weighted,
    )


def estimate_metrics(
    model: EncounterModel, eq: Equipage, n: int, seed: int, workers: int = 1
) -> MetricsReport:
    """Plain Monte Carlo estimate over n independent encounters."""
    return _report(_run_batch(model, [eq], n, seed, workers, nominal=None)[0], weighted=False)


def risk_ratio(equipped: MetricsReport, unequipped: MetricsReport) -> RiskRatio:
    """Equipped-to-unequipped NMAC probability ratio with delta-method SE."""
    if unequipped.p_nmac <= 0.0:
        raise ValueError(
            "risk ratio undefined: unequipped run produced no NMACs "
            "(insufficient unequipped NMAC count)"
        )
    r = equipped.p_nmac / unequipped.p_nmac
    if equipped.p_nmac > 0.0:
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
    outcomes = _run_batch(proposal, [eq], n, seed, workers, nominal=nominal)[0]
    return _report(outcomes, weighted=True)


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
        encs: List[SampledEncounter] = []
        outcomes: List[EncounterOutcome] = []
        for indices in _chunks(it * n_per_iter, (it + 1) * n_per_iter, CHUNK_ENCOUNTERS):
            chunk_encs, (chunk_outcomes,) = _run_chunk(
                current, [eq], seed, indices, nominal=nominal,
                enc_stream=STREAM_CE_ENCOUNTER, sim_stream=STREAM_CE_SIMULATE,
            )
            encs += chunk_encs
            outcomes += chunk_outcomes
        keys = [
            (0.0, -math.exp(o.log_weight)) if o.nmac else (1.0, o.severity)
            for o in outcomes
        ]
        order = sorted(range(n_per_iter), key=lambda j: keys[j])
        elite = [encs[j] for j in order[:n_elite]]
        initial_data = np.vstack(
            [rec.initial_bins for enc in elite for rec in enc.draws]
        )
        transition_data = np.vstack(
            [rec.transition_rows for enc in elite for rec in enc.draws]
        )
        current = EncounterModel(
            initial_net=fit_cpts(current.initial_net, initial_data, prior_count=1.0),
            transition_net=fit_cpts(current.transition_net, transition_data, prior_count=1.0),
            mode=current.mode,
            duration=current.duration,
            dt=current.dt,
        )
    return current
