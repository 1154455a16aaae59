"""Finite-site model: ODE flow between wake-ups, hazard-driven jump times.

State splits into awake mass ``x1`` and dormant piles ``x2`` with
``x1(k) * x2(k) = 0`` at every site.  Between jumps the awake mass flows by
the adjoint generator, dormant piles absorb their incoming flux, and the next
wake-up happens at the first time the accumulated total hazard

    H_t = sum over dormant k of  (A* x1)_t(k) / x2_t(k)

exceeds an Exp(1) draw.  A wake-up converts the whole grown pile to awake
mass at that site.  The dormant set is constant between jumps: piles only
grow, and a site's classification changes only at its own wake-up.

All integration runs on a fixed step grid anchored at the last jump time, so
requesting trajectory snapshots never changes the event sequence (snapshots
are dense sub-step evaluations off the main grid).
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
    "next_jump",
    "apply_jump",
    "simulate_mps",
]

PILE_FLOOR = 1e-14  # below this a fed pile is woken outright
HAZARD_TOL = 1e-10  # bisection target on the accumulated hazard


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

    def norm(self) -> float:
        return float(np.max(np.sum(np.abs(self.q), axis=1)))

    def step_size(self) -> float:
        nrm = self.norm()
        return 0.01 if nrm == 0 else min(0.01, 0.1 / nrm)

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


class _Stepper:
    """Fixed-mask integrator used by the public operations.

    The dormant mask is frozen at construction; the linear field is
      du = (A* u) off the mask,   dv = (A* u) on the mask,
    advanced by classical RK4.  ``dense(s)`` evaluates a partial step without
    committing it, which serves both snapshotting and jump bisection.
    """

    def __init__(self, sys: SiteSystem, state: MPSState):
        self.qT = np.ascontiguousarray(sys.q.T)
        self.mask = state.dormant_mask()
        self._aw = (~self.mask).astype(float)
        self._dm = self.mask.astype(float)
        self._dormant_idx = [int(k) for k in np.nonzero(self.mask)[0]]
        self.u = state.x1.astype(float).copy()
        self.v = state.x2.astype(float).copy()
        self.t = state.time
        self.h = sys.step_size()
        # piles only grow under the flow, so starvation can only be present
        # at construction time
        self.starve_possible = any(self.v[k] < PILE_FLOOR for k in self._dormant_idx)

    def _rk4(self, u, v, h):
        qT, aw = self.qT, self._aw
        k1 = qT @ u
        k2 = qT @ (u + (0.5 * h) * (k1 * aw))
        k3 = qT @ (u + (0.5 * h) * (k2 * aw))
        k4 = qT @ (u + h * (k3 * aw))
        comb = (k1 + 2.0 * (k2 + k3) + k4) * (h / 6.0)
        return u + comb * aw, v + comb * self._dm

    def hazard_parts(self, u, v):
        flux = np.maximum(self.qT @ u, 0.0)
        return np.where(self.mask & (v > 0), flux / np.where(v > 0, v, 1.0), 0.0)

    def total_hazard(self, u, v) -> float:
        flux = self.qT @ u
        total = 0.0
        for k in self._dormant_idx:
            f = flux[k]
            if f > 0.0 and v[k] > 0.0:
                total += f / v[k]
        return total

    def dense(self, s: float):
        """State s into the current step (not committed)."""
        if s == 0.0:
            return self.u.copy(), self.v.copy()
        return self._rk4(self.u, self.v, s)

    def commit(self, s: float) -> None:
        self.u, self.v = self._rk4(self.u, self.v, s)
        self.t += s

    def starved_pile(self):
        """Index of a fed pile that numerically vanished, if any."""
        flux = self.qT @ self.u
        bad = self.mask & (self.v < PILE_FLOOR) & (flux > 0)
        idx = np.nonzero(bad)[0]
        return int(idx[0]) if idx.size else None

    def state(self) -> MPSState:
        u = np.where(np.abs(self.u) < 1e-300, 0.0, self.u)
        return MPSState(np.maximum(u, 0.0), self.v, self.t)


def _advance(sys, state, t_end, e_target, record_times, snap_sink):
    """Integrate the fixed-mask flow from ``state`` until ``t_end``.

    If ``e_target`` is not None, stop early at the time the accumulated
    hazard reaches it and return ``(state_at_jump, k_star)``; otherwise
    return ``(state_at_t_end, None)``.  ``record_times`` inside the window
    are evaluated densely and appended to ``snap_sink``.
    """
    st = _Stepper(sys, state)
    records = iter(record_times)
    next_rec = next(records, None)
    while next_rec is not None and next_rec <= st.t:
        next_rec = next(records, None)
    if e_target is None and (not st.mask.any() or not st.u.any()):
        # no hazard to track: either pure awake flow (exact propagator) or a
        # standstill with only dormant piles
        t, u = st.t, st.u.copy()
        flows = bool(st.u.any())
        while next_rec is not None and next_rec <= t_end:
            if flows:
                u = expm(st.qT * (next_rec - t)) @ u
            snap_sink.append(MPSState(np.maximum(u, 0.0), st.v, next_rec))
            t = next_rec
            next_rec = next(records, None)
        if flows and t_end > t:
            u = expm(st.qT * (t_end - t)) @ u
        return MPSState(np.maximum(u, 0.0), st.v, max(t_end, t)), None
    acc = 0.0
    h_rate0 = st.total_hazard(st.u, st.v)
    while st.t < t_end - 1e-15:
        if e_target is not None and st.starve_possible:
            k_forced = st.starved_pile()
            if k_forced is not None:
                return st.state(), k_forced
        h = min(st.h, t_end - st.t)
        nu, nv = st.dense(h)
        h_rate1 = st.total_hazard(nu, nv)
        gain = 0.5 * h * (h_rate0 + h_rate1)
        if e_target is not None and acc + gain >= e_target:
            # locate the crossing inside this step
            lo, hi = 0.0, h
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                mu, mv = st.dense(mid)
                g = acc + 0.5 * mid * (h_rate0 + st.total_hazard(mu, mv)) - e_target
                if abs(g) <= HAZARD_TOL or hi - lo < 1e-16 * max(1.0, h):
                    break
                if g < 0:
                    lo = mid
                else:
                    hi = mid
            while next_rec is not None and next_rec <= st.t + mid:
                su, sv = st.dense(next_rec - st.t)
                snap_sink.append(MPSState(np.maximum(su, 0.0), sv, next_rec))
                next_rec = next(records, None)
            ju, jv = st.dense(mid)
            rates = st.hazard_parts(ju, jv)
            total = float(np.sum(rates))
            if total <= 0:
                k_star = int(np.argmax(jv))
            else:
                k_star = None  # chosen by the caller's rng
            st.commit(mid)
            return st.state(), (k_star, rates)
        while next_rec is not None and next_rec <= st.t + h:
            su, sv = st.dense(next_rec - st.t)
            snap_sink.append(MPSState(np.maximum(su, 0.0), sv, next_rec))
            next_rec = next(records, None)
        st.u, st.v = nu, nv
        st.t += h
        acc += gain
        h_rate0 = h_rate1
    return st.state(), None


def _pick_site(hit, rng) -> int:
    if isinstance(hit, tuple):
        k_star, rates = hit
        if k_star is not None:
            return k_star
        total = float(np.sum(rates))
        k = int(np.searchsorted(np.cumsum(rates) / total, rng.random(), side="right"))
        return min(k, rates.size - 1)
    return hit


def flow_between_jumps(state: MPSState, sys: SiteSystem, dt: float) -> MPSState:
    """Pure ODE flow for the current dormant set; no wake-ups occur."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0:
        return state
    out, _ = _advance(sys, state, state.time + dt, None, (), [])
    return out


def next_jump(state: MPSState, sys: SiteSystem, rng, horizon: float):
    """Sample the next wake-up before ``horizon``; ``(inf, None)`` if none.

    Returns absolute time.  Consumes one Exp(1) draw, plus one uniform for
    the site choice when a jump happens.
    """
    if not np.any(state.dormant_mask()):
        return math.inf, None
    if float(np.sum(state.x1)) == 0.0:
        return math.inf, None
    e = float(rng.exponential())
    end, hit = _advance(sys, state, horizon, e, (), [])
    if hit is None:
        return math.inf, None
    return end.time, _pick_site(hit, rng)


def simulate_mps(sys: SiteSystem, initial: MPSState, horizon: float, rng,
                 record_times=()) -> MPSResult:
    """Run the event loop to ``horizon``; snapshots at ``record_times``."""
    if horizon <= initial.time:
        raise ValueError("horizon must exceed the initial time")
    state = initial
    events: list[JumpEvent] = []
    snaps: list[MPSState] = []
    record_times = tuple(sorted(float(t) for t in record_times))
    for t in record_times:
        if t == initial.time:
            snaps.append(initial)
    while True:
        remaining = [t for t in record_times if t > state.time]
        if not np.any(state.dormant_mask()) or float(np.sum(state.x1)) == 0.0:
            state, _ = _advance(sys, state, horizon, None, remaining, snaps)
            break
        e = float(rng.exponential())
        state, hit = _advance(sys, state, horizon, e, remaining, snaps)
        if hit is None:
            break
        k_star = _pick_site(hit, rng)
        pile = float(state.x2[k_star])
        events.append(JumpEvent(state.time, sys.sites[k_star], pile))
        state = apply_jump(state, k_star)
    return MPSResult(tuple(events), tuple(snaps), state)
