"""Continuous-space frog process: killed heat flow feeding a moving pile.

The awake density diffuses against an absorbing edge at the leftmost dormant
pile; absorbed mass joins that pile (``y``).  A pile wakes the instant its
absorbed feed reaches its threshold (exact >=), at which point the pile with
all it absorbed re-enters the awake density as a point mass at the pile
position and the edge advances to the next pile.  A pile whose threshold is
at least the awake mass available to it can never wake: the cascade stalls
there.  A threshold just below the available mass can still be out of reach
of the floating-point feed; such a pile is woken once the grid holds less
than the feed can register, and counted in ``FrogResult.forced_wakes``.

There is one wake rule and two ways to supply the thresholds:

* ``simulate_space_driven`` takes them up front, one per pile;
* ``simulate_hazard_driven`` wakes pile i at rate (absorption rate) / y,
  whose integral is log(y / x_i), via an Exp(1) clock E; it rings when the
  feed reaches ``x_i * expm1(E)``, and that threshold is drawn when the
  front reaches pile i.

Both give P[W > r] = x / (x + r), the wake-threshold law; the acceptance
battery checks that the two samplers agree in law through the solver.

Bookkeeping is exact where the acceptance checks need it to be: the running
available-mass accumulator uses the same floating-point operations as
``compute_ustar``, so a simulated stall and the predicted stall agree
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heat import KilledHeatFlow
from .measures import AtomicMeasure, GridDensity, PointPattern

__all__ = [
    "SolverConfig",
    "EventRecord",
    "SnapshotRow",
    "FrogState",
    "FrogResult",
    "simulate_space_driven",
    "simulate_hazard_driven",
    "extract_L",
    "compute_ustar",
    "wake_threshold",
]

EVENT_TIME_TOL = 1e-10  # event bisection: fraction of the current step length


@dataclass(frozen=True)
class SolverConfig:
    """Resolution and run-control knobs for the frog simulators."""

    dx: float = 1e-3
    dt: float = 1e-4
    n_snapshots: int = 64
    pad_left: float = 4.0
    pad_right: float = 2.0
    grow_dt: bool = False       # double dt between events (coarse ensemble runs)
    dt_max_factor: float = 4096.0
    run_to_horizon: bool = True  # False: return at stall or once every pile woke


@dataclass(frozen=True)
class EventRecord:
    """One wake-up: the pile at ``site`` became awake mass ``jump_size``."""

    time: float
    site: float
    jump_size: float
    v: float          # wake threshold: the absorbed feed, up to the event tolerance
    index: int


@dataclass(frozen=True)
class SnapshotRow:
    time: float
    ell: float
    y: float
    x1_mass: float
    pile_mass: float
    total_mass: float


@dataclass
class FrogState:
    """Live state: awake density, untouched piles, and the current pile."""

    heat: KilledHeatFlow
    piles: AtomicMeasure
    y: float
    pile_index: int
    time: float
    ell: float


@dataclass(frozen=True)
class FrogResult:
    events: tuple
    snapshots: tuple
    final: FrogState
    stall_position: float | None  # pile that can never wake, if one was hit
    woke_all: bool
    ustar: float | None           # stall position, or rightmost pile if all woke
    initial_mass: float
    forced_wakes: int             # piles woken because the grid could not feed them


def wake_threshold(ws, xs) -> float:
    """Minimal initial awake mass that wakes every pile in sequence.

    Waking pile i needs W_i out of the mass accumulated so far, and waking
    it adds x_i; the binding constraint is max_i (W_i - sum_{j<i} x_j).
    """
    ws = np.asarray(ws, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if ws.shape != xs.shape or ws.ndim != 1 or ws.size == 0:
        raise ValueError("ws and xs must be equal-length nonempty sequences")
    if np.any(ws <= 0) or np.any(xs < 0):
        raise ValueError("thresholds must be positive and masses nonnegative")
    prefix = np.concatenate([[0.0], np.cumsum(xs)[:-1]])
    return float(np.max(ws - prefix))


def compute_ustar(thresholds, piles: AtomicMeasure, initial_x1_mass: float) -> float:
    """Position of the first pile the wake cascade can never reach.

    Walking the piles left to right, pile i is unreachable when
    W_i >= (initial awake mass) + (masses of all piles before it); the
    comparison is exact (>=) and the accumulator matches the simulator's, so
    the two agree to the bit.  Returns the rightmost pile position when every
    pile is reachable.
    """
    ws = [float(w) for w in thresholds]
    if len(ws) != len(piles.positions):
        raise ValueError("one threshold per pile is required")
    avail = float(initial_x1_mass)
    for w, z, x in zip(ws, piles.positions, piles.masses):
        if w >= avail:
            return float(z)
        avail += float(x)
    return float(piles.positions[-1])


def extract_L(events, piles: AtomicMeasure) -> PointPattern:
    """Space-indexed jump pattern: one point (site, absorbed feed) per event."""
    for ev in events:
        if ev.site != piles.positions[ev.index]:
            raise ValueError("event log does not match the pile configuration")
    zs = [ev.site for ev in events]
    rs = [ev.v for ev in events]
    return PointPattern(zs, rs)


def simulate_space_driven(x1_0: GridDensity, piles: AtomicMeasure, thresholds,
                          horizon: float, cfg: SolverConfig = SolverConfig()) -> FrogResult:
    """Deterministic run with one preset wake threshold per pile."""
    ws = [float(w) for w in thresholds]
    if len(ws) != len(piles.positions):
        raise ValueError("one threshold per pile is required")
    if any(w <= 0 for w in ws):
        raise ValueError("thresholds must be positive")
    return _simulate(x1_0, piles, horizon, cfg, ws.__getitem__)


def simulate_hazard_driven(x1_0: GridDensity, piles: AtomicMeasure, rng,
                           horizon: float, cfg: SolverConfig = SolverConfig()) -> FrogResult:
    """Wake at rate (absorption rate) / y, with one Exp(1) clock E per pile.

    The hazard integrates to log(y / x_i), so the clock rings when the
    absorbed feed reaches ``x_i * expm1(E)``; that threshold is drawn when
    the front reaches pile i, one draw per reached pile, in pile order.
    """
    masses = [float(x) for x in piles.masses]
    return _simulate(x1_0, piles, horizon, cfg,
                     lambda i: masses[i] * math.expm1(float(rng.exponential())))


def _build_heat(x1_0: GridDensity, piles: AtomicMeasure, cfg: SolverConfig) -> KilledHeatFlow:
    z0 = float(piles.positions[0])
    dx = cfg.dx
    if x1_0.left >= z0:
        raise ValueError("awake density must start left of the first pile")
    span_left = (z0 - x1_0.left) + cfg.pad_left
    left = z0 - math.ceil(span_left / dx - 1e-9) * dx
    span_right = (float(piles.positions[-1]) - z0) + cfg.pad_right
    right = z0 + math.ceil(span_right / dx - 1e-9) * dx
    heat = KilledHeatFlow(left, right, dx, barrier=z0)
    for z in piles.positions:
        heat.edge_index(float(z))  # every pile must sit on a cell edge
    heat.set_density(x1_0)
    return heat


def _simulate(x1_0, piles, horizon, cfg, threshold) -> FrogResult:
    """Run the barrier process; ``threshold(i)`` is pile i's wake threshold.

    ``threshold`` is called once per pile, when the front reaches it.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if math.isinf(horizon) and cfg.run_to_horizon:
        raise ValueError("an infinite horizon requires run_to_horizon=False")
    if len(piles.positions) == 0:
        raise ValueError("at least one pile is required")
    heat = _build_heat(x1_0, piles, cfg)
    # the same float the caller would pass to compute_ustar
    initial_x1 = float(x1_0.total_mass())
    positions = [float(z) for z in piles.positions]
    masses = [float(x) for x in piles.masses]
    n_piles = len(positions)
    total_0 = initial_x1 + float(np.sum(piles.masses))

    events: list[EventRecord] = []
    snaps: list[SnapshotRow] = []
    snap_times = list(np.linspace(0.0, horizon, cfg.n_snapshots)) \
        if (cfg.n_snapshots > 0 and not math.isinf(horizon)) else []
    snap_pos = 0

    i = 0
    y = masses[0]
    ell = positions[0]
    avail = initial_x1          # exact accumulator shared with compute_ustar
    killed_at_pile = 0.0
    w = math.nan                # threshold of pile i
    forced_wakes = 0
    stall_position = None
    woke_all = False

    def untouched() -> float:
        return float(math.fsum(masses[i + 1:])) if i < n_piles else 0.0

    def snapshot() -> None:
        x1m = heat.dx * float(np.sum(heat.values))
        pm = untouched()
        snaps.append(SnapshotRow(heat.time, ell, y, x1m, pm, x1m + y + pm))

    def emit_due_snapshots() -> None:
        nonlocal snap_pos
        while snap_pos < len(snap_times) and snap_times[snap_pos] <= heat.time + 1e-12:
            snapshot()
            snap_pos += 1

    def reach() -> bool:
        """Draw pile i's threshold; True when the pile can never wake."""
        nonlocal w, stall_position
        w = threshold(i)
        if not w > 0:
            raise ValueError("thresholds must be positive")
        if w >= avail:
            stall_position = positions[i]
            return True
        return False

    emit_due_snapshots()  # t = 0
    if reach() and not cfg.run_to_horizon:
        return _finish(heat, piles, y, i, ell, events, snaps, stall_position,
                       woke_all, positions, total_0, forced_wakes)

    dt_cur = cfg.dt
    while heat.time < horizon - 1e-12:
        dt_step = min(dt_cur, horizon - heat.time)
        armed = i < n_piles and stall_position is None
        if armed:
            saved_vals = heat.values.copy()
            saved_killed = heat.killed_cum
            saved_time = heat.time
        heat.step(dt_step)
        if i < n_piles:
            y = masses[i] + (heat.killed_cum - killed_at_pile)
        wake = armed and heat.killed_cum - killed_at_pile >= w
        if wake:
            # rewind and localize the wake instant inside the step
            heat.values[:] = saved_vals
            heat.killed_cum = saved_killed
            heat.time = saved_time
            fed_base = saved_killed - killed_at_pile
            lo, hi = 0.0, dt_step
            while hi - lo > EVENT_TIME_TOL * dt_step:
                mid = 0.5 * (lo + hi)
                if fed_base + heat.peek(mid) >= w:
                    hi = mid
                else:
                    lo = mid
            heat.step(hi)
            y = masses[i] + (heat.killed_cum - killed_at_pile)  # at the wake instant
        elif armed and heat.killed_cum == saved_killed \
                and heat.killed_cum + heat.total_mass() == heat.killed_cum:
            # a step that fed nothing, on a grid holding less than the feed
            # accumulator can register: the feed is final and below w, so
            # wake the pile rather than spin
            wake = True
            forced_wakes += 1
        if wake:
            emit_due_snapshots()
            events.append(EventRecord(heat.time, positions[i], masses[i] + w, w, i))
            heat.inject_atom(positions[i], y, single_cell=True)
            heat.flush_pending()
            avail += masses[i]
            i += 1
            if i < n_piles:
                heat.set_barrier(positions[i])
                ell = positions[i]
                y = masses[i]
                killed_at_pile = heat.killed_cum
                if reach() and not cfg.run_to_horizon:
                    break
            else:
                woke_all = True
                heat.clear_barrier()
                y = 0.0
                if not cfg.run_to_horizon:
                    break
            snapshot()  # one snapshot per event, post-wake
            dt_cur = cfg.dt
            continue
        emit_due_snapshots()
        if cfg.grow_dt:
            dt_cur = min(dt_cur * 2.0, cfg.dt * cfg.dt_max_factor)
    return _finish(heat, piles, y, i, ell, events, snaps, stall_position,
                   woke_all, positions, total_0, forced_wakes)


def _finish(heat, piles, y, i, ell, events, snaps, stall_position, woke_all,
            positions, total_0, forced_wakes) -> FrogResult:
    remaining = AtomicMeasure(piles.positions[i + 1:], piles.masses[i + 1:]) \
        if i < len(positions) else AtomicMeasure([], [])
    final = FrogState(heat, remaining, y, i, heat.time, ell)
    if stall_position is not None:
        ustar = stall_position
    elif woke_all:
        ustar = positions[-1]
    else:
        ustar = None  # run was cut by the horizon before the cascade resolved
    return FrogResult(tuple(events), tuple(snaps), final, stall_position,
                      woke_all, ustar, total_0, forced_wakes)
