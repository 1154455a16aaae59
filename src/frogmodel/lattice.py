"""Finite-site model: closed-form flow between wake-ups, log-hazard jump times.

State splits into awake mass ``x1`` and dormant piles ``x2`` with
``x1(k) * x2(k) = 0`` at every site.  Between jumps the dormant set is
frozen: the awake mass flows by the adjoint generator, and each dormant pile
absorbs its incoming flux, so the state at any time is one matrix
exponential applied to the state at the last jump.

Site k wakes at rate (A* x1)(k) / x2(k), which is d/dt log x2(k) because the
pile grows by exactly that flux.  The total hazard since the last jump at t0
is therefore

    H_t = sum over dormant k of  log(x2_t(k) / x2_t0(k)),

the lattice form of the wake-threshold law P[W > r] = x / (x + r), and the
next wake-up is at the root of H_t = E for an Exp(1) draw E.  A wake-up
converts the whole grown pile to awake mass at that site.

Every state, snapshots included, is evaluated in closed form at its own
time, so requesting snapshots never changes the event sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "SiteSystem",
    "MPSState",
    "JumpEvent",
    "MPSResult",
    "flow_between_jumps",
    "apply_jump",
    "simulate_mps",
]

PILE_FLOOR = 1e-14  # below this a fed pile is woken outright


@dataclass(frozen=True, eq=False)
class SiteSystem:
    """Site labels plus the Markov generator the flow transposes."""

    sites: tuple
    q: np.ndarray

    def __init__(self, sites, q):
        sites = tuple(sites)
        q = np.array(q, dtype=float)
        n = len(sites)
        if q.shape != (n, n):
            raise ValueError("q matrix shape must match the number of sites")
        off = q - np.diag(np.diag(q))
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.max(np.abs(q.sum(axis=1))) > 1e-12 * max(1.0, np.max(np.abs(q))):
            raise ValueError("generator rows must sum to zero")
        q.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "q", q)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @classmethod
    def nearest_neighbor_chain(cls, labels, rate: float = 1.0) -> "SiteSystem":
        """Reflecting rate-``rate`` walk on a path graph."""
        labels = tuple(labels)
        n = len(labels)
        q = np.zeros((n, n))
        for k in range(n):
            if k > 0:
                q[k, k - 1] = rate
            if k < n - 1:
                q[k, k + 1] = rate
            q[k, k] = -q[k].sum()
        return cls(labels, q)


@dataclass(frozen=True, eq=False)
class MPSState:
    """Awake vector, dormant vector, and the clock."""

    x1: np.ndarray
    x2: np.ndarray
    time: float = 0.0

    def __init__(self, x1, x2, time: float = 0.0):
        x1 = np.array(x1, dtype=float)
        x2 = np.array(x2, dtype=float)
        if x1.shape != x2.shape or x1.ndim != 1:
            raise ValueError("x1 and x2 must be vectors of equal length")
        if np.any(x1 < 0) or np.any(x2 < 0):
            raise ValueError("site masses must be nonnegative")
        if np.any((x1 > 0) & (x2 > 0)):
            raise ValueError("a site cannot hold awake and dormant mass at once")
        x1.setflags(write=False)
        x2.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "time", float(time))

    def total_mass(self) -> float:
        return float(np.sum(self.x1) + np.sum(self.x2))

    def dormant_mask(self) -> np.ndarray:
        return self.x2 > 0


@dataclass(frozen=True)
class JumpEvent:
    time: float
    site: object
    pile: float


@dataclass(frozen=True)
class MPSResult:
    events: tuple
    snapshots: tuple
    final: MPSState


def apply_jump(state: MPSState, k_star: int) -> MPSState:
    """Wake site ``k_star``: its grown pile becomes awake mass."""
    if state.x2[k_star] <= 0:
        raise ValueError("cannot wake a site with no dormant pile")
    x1 = state.x1.copy()
    x2 = state.x2.copy()
    x1[k_star] = x2[k_star]
    x2[k_star] = 0.0
    return MPSState(x1, x2, state.time)


class _FrozenFlow:
    """Closed-form flow from ``state`` while its dormant set stays frozen.

    With awake sites ``a`` and dormant sites ``d``, the awake mass ``u_a`` and
    the feed ``g`` the dormant piles absorbed since ``state.time`` solve a
    linear system with matrix ``M = [[qT_aa, 0], [qT_da, 0]]``, so at time
    ``t0 + s`` ``(u_a, g) = expm(M s) @ (u_a(t0), 0)`` and the piles are
    ``x2_d(t0) + g``.  The feed is tracked apart from the piles, and the
    elapsed time ``s`` apart from ``t0``, so that the hazard
    ``sum log1p(g / x2_d(t0))`` keeps full relative precision.
    """

    def __init__(self, sys: SiteSystem, state: MPSState):
        mask = state.dormant_mask()
        self.t0 = state.time
        self.awake = np.flatnonzero(~mask)
        self.dormant = np.flatnonzero(mask)
        self.n_awake = self.awake.size
        order = np.concatenate([self.awake, self.dormant])
        self.m = np.zeros((mask.size, mask.size))
        self.m[:, :self.n_awake] = sys.q.T[np.ix_(order, self.awake)]
        self.inflow = self.m[self.n_awake:, :self.n_awake]
        self.u0 = state.x1[self.awake]
        self.v0 = state.x2[self.dormant]

    def at(self, s: float):
        """Awake mass on the awake sites and absorbed feed ``s`` after ``t0``."""
        ug = expm(self.m * s)[:, :self.n_awake] @ self.u0
        return ug[:self.n_awake], ug[self.n_awake:]

    def hazard(self, u, g):
        """Total hazard since ``t0`` and its rate: sum log(v / v0), sum flux / v."""
        return (float(np.sum(np.log1p(g / self.v0))),
                float(np.sum((self.inflow @ u) / (self.v0 + g))))

    def state(self, t: float, u, g) -> MPSState:
        x1 = np.zeros(self.m.shape[0])
        x1[self.awake] = np.maximum(u, 0.0)  # expm rounding can leave -1e-17
        x2 = np.zeros_like(x1)
        x2[self.dormant] = self.v0 + g
        return MPSState(x1, x2, t)

    def state_at(self, t: float) -> MPSState:
        return self.state(t, *self.at(t - self.t0))

    def advance(self, e: float, horizon: float):
        """``(state, jumped)``: the state where the hazard reaches ``e``, else at ``horizon``.

        The hazard only grows, so one evaluation at the horizon decides
        whether it reaches ``e``; the crossing is then found by Newton steps
        from ``t0``, replaced by bisection whenever a step leaves the bracket.
        """
        lo, hi = 0.0, horizon - self.t0
        u, g = self.at(hi)
        if not self.hazard(u, g)[0] >= e:
            return self.state(horizon, u, g), False
        s, u, g = 0.0, self.u0, np.zeros(self.v0.size)
        h, rate = self.hazard(u, g)
        for _ in range(100):
            step = (h - e) / rate if rate > 0 else math.inf
            if abs(step) <= 4 * math.ulp(s):
                break
            s_new = s - step
            if not lo < s_new < hi:
                s_new = 0.5 * (lo + hi)
                if s_new in (lo, hi):  # the bracket holds no float inside
                    break
            s = s_new
            u, g = self.at(s)
            h, rate = self.hazard(u, g)
            if h < e:
                lo = s
            else:
                hi = s
        return self.state(min(self.t0 + s, horizon), u, g), True


def _jump_site(sys: SiteSystem, state: MPSState, rng) -> int:
    """Dormant site to wake, drawn with probability proportional to flux / pile."""
    mask = state.dormant_mask()
    flux = sys.q.T @ state.x1
    rates = np.where(mask, flux / np.where(mask, state.x2, 1.0), 0.0)
    total = float(np.sum(rates))
    if total <= 0:
        return int(np.argmax(state.x2))
    k = int(np.searchsorted(np.cumsum(rates) / total, rng.random(), side="right"))
    return min(k, rates.size - 1)


def flow_between_jumps(state: MPSState, sys: SiteSystem, dt: float) -> MPSState:
    """Pure flow for the current dormant set; no wake-ups occur."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    return _FrozenFlow(sys, state).state_at(state.time + dt)


def simulate_mps(sys: SiteSystem, initial: MPSState, horizon: float, rng,
                 record_times=()) -> MPSResult:
    """Run the event loop to ``horizon``; snapshots at ``record_times``.

    Each jump attempt consumes one Exp(1) draw, and each jump the hazard
    triggers one uniform to choose its site.
    """
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon <= initial.time:
        raise ValueError("horizon must exceed the initial time")
    record_times = sorted(float(t) for t in record_times)
    snaps = [initial for t in record_times if t == initial.time]
    pending = [t for t in reversed(record_times) if initial.time < t <= horizon]
    state = initial
    events: list[JumpEvent] = []
    while True:
        flow = _FrozenFlow(sys, state)
        e, k_star = math.inf, None
        if flow.dormant.size and float(np.sum(state.x1)) > 0.0:
            e = float(rng.exponential())
            starved = (flow.v0 < PILE_FLOOR) & (flow.inflow @ flow.u0 > 0)
            if starved.any():
                k_star = int(flow.dormant[np.argmax(starved)])
        if k_star is None:
            state, jumped = flow.advance(e, horizon)
            while pending and pending[-1] <= state.time:
                snaps.append(flow.state_at(pending.pop()))
            if not jumped:
                break
            k_star = _jump_site(sys, state, rng)
        events.append(JumpEvent(state.time, sys.sites[k_star], float(state.x2[k_star])))
        state = apply_jump(state, k_star)
    return MPSResult(tuple(events), tuple(snaps), state)
