"""Tests for the continuous-space frog simulators."""

import contextlib
import math
import signal

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from frogmodel.colony import sample_wake_threshold, threshold_cdf
from frogmodel.frog import (SolverConfig, compute_ustar, extract_L,
                            simulate_hazard_driven, simulate_space_driven,
                            wake_threshold)
from frogmodel.heat import survival_mass_analytic
from frogmodel.measures import AtomicMeasure, GridDensity, discretize_density
from frogmodel.runio import replica_rng
from frogmodel.stats import ks_one_sample, ks_two_sample


def test_wake_threshold_examples():
    # waking the first pile adds its mass to the budget for the second
    assert wake_threshold([2.0, 5.0], [1.0, 1.0]) == 4.0
    assert wake_threshold([1.0, 1.0, 10.0], [2.0, 3.0, 4.0]) == 5.0
    assert wake_threshold([3.0], [7.0]) == 3.0
    with pytest.raises(ValueError):
        wake_threshold([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        wake_threshold([0.0], [1.0])


def test_wake_threshold_is_minimal_completing_mass():
    """Bisection on the cascade bookkeeping recovers the closed form."""
    rng = np.random.default_rng(2024)

    def completes(ws, xs, s):
        avail = s
        for w, x in zip(ws, xs):
            if w >= avail:
                return False
            avail += x
        return True

    for _ in range(1000):
        n = int(rng.integers(1, 9))
        xs = rng.uniform(0.0, 3.0, size=n)
        ws = rng.uniform(0.05, 8.0, size=n)
        wt = wake_threshold(ws, xs)
        lo, hi = 0.0, float(np.max(ws)) + 1.0
        assert completes(ws, xs, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if completes(ws, xs, mid):
                hi = mid
            else:
                lo = mid
        assert abs(hi - wt) < 1e-9 * max(1.0, wt)
        # strictly below the infimum the cascade stalls (margin clears the
        # one-ulp gap between the closed form and sequential accumulation)
        assert not completes(ws, xs, wt * (1.0 - 1e-9) - 1e-12)


def test_compute_ustar_walkthrough():
    piles = AtomicMeasure((0.0, 0.2), (1.0, 1.0))
    ws = [2.0, 5.0]
    assert compute_ustar(ws, piles, 2.0) == 0.0    # tie stalls immediately
    assert compute_ustar(ws, piles, 2.5) == 0.2    # 3.5 < 5 blocks the second
    assert compute_ustar(ws, piles, 4.5) == 0.2    # 5.5 > 5: everything wakes
    with pytest.raises(ValueError):
        compute_ustar([1.0], piles, 1.0)


def test_space_wake_time_matches_continuum():
    """First wake instant against a quadrature + root-find oracle."""
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.01)
    piles = AtomicMeasure((0.0,), (1.0,))
    cfg = SolverConfig(dx=0.01, dt=1e-4, pad_left=2.5, pad_right=0.25,
                       run_to_horizon=False)
    res = simulate_space_driven(x1, piles, [0.3], 1.5, cfg)

    def killed_cont(t):
        val, _ = quad(lambda a: 2.0 * (1.0 - survival_mass_analytic(a, 0.0, t)),
                      -0.5, 0.0)
        return val

    t_star = brentq(lambda t: killed_cont(t) - 0.3, 1e-8, 1.5, xtol=1e-10)
    assert len(res.events) == 1
    ev = res.events[0]
    assert abs(ev.time - t_star) < 2e-4
    assert ev.v == 0.3 and ev.site == 0.0 and ev.index == 0
    assert ev.jump_size == 1.3
    # absorbed feed re-enters as part of the woken pile: nothing is lost
    assert abs(res.final.heat.total_mass() - 2.0) < 1e-9
    assert res.woke_all and res.ustar == 0.0 and res.stall_position is None


def test_two_pile_cascade_bookkeeping():
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0, 0.2), (0.5, 0.5))
    cfg = SolverConfig(dx=0.02, dt=5e-4, pad_left=2.0, pad_right=0.3,
                       grow_dt=True, run_to_horizon=False)
    res = simulate_space_driven(x1, piles, [0.2, 0.9], math.inf, cfg)
    assert [ev.index for ev in res.events] == [0, 1]
    t1, t2 = res.events[0].time, res.events[1].time
    assert 0.0 < t1 < t2
    assert res.events[0].jump_size == 0.7
    assert res.events[1].v == 0.9
    assert res.woke_all and res.ustar == 0.2 and res.stall_position is None
    assert abs(res.final.heat.total_mass() - 2.0) < 1e-9


def test_stall_detected_without_feeding():
    # threshold ties the whole available budget: the pile can never wake
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0,), (1.0,))
    cfg = SolverConfig(dx=0.02, dt=1e-3, pad_left=1.0, pad_right=0.1,
                       run_to_horizon=False)
    res = simulate_space_driven(x1, piles, [1.0], 5.0, cfg)
    assert res.events == ()
    assert res.stall_position == 0.0 and res.ustar == 0.0
    assert not res.woke_all
    assert res.final.time == 0.0


def test_stall_prediction_agrees_with_simulation_bitwise():
    rng = np.random.default_rng(99)
    cfg = SolverConfig(dx=0.05, dt=2e-3, pad_left=1.5, pad_right=0.2,
                       grow_dt=True, run_to_horizon=False, n_snapshots=0)
    for _ in range(12):
        k = int(rng.integers(1, 4))
        zs = [round(0.1 * (j + 1), 10) for j in range(k)]
        xs = rng.uniform(0.2, 1.0, size=k)
        piles = AtomicMeasure(zs, xs)
        x1 = GridDensity.uniform(-1.0, 0.0, float(rng.uniform(0.3, 1.8)), 0.05)
        ws = [sample_wake_threshold(float(x), float(rng.uniform())) for x in xs]
        res = simulate_space_driven(x1, piles, ws, math.inf, cfg)
        predicted = compute_ustar(ws, piles, float(x1.total_mass()))
        assert res.ustar == predicted
        if res.woke_all:
            assert res.stall_position is None
        else:
            assert res.stall_position == predicted


def test_hazard_conditional_feed_law():
    """Absorbed feed at a hazard wake follows the truncated threshold law."""
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.01)
    piles = AtomicMeasure((0.0,), (1.0,))
    cfg = SolverConfig(dx=0.01, dt=1e-3, pad_left=2.5, pad_right=0.25,
                       n_snapshots=0)
    horizon = 1.0
    # deterministic feed ceiling: an unreachable threshold never wakes, so
    # the run just integrates the absorbed mass to the horizon
    base = simulate_space_driven(x1, piles, [math.inf], horizon, cfg)
    vmax = base.final.heat.killed_cum
    assert 0.3 < vmax < 1.0

    rng = np.random.default_rng(1234)
    n_rep = 350
    vs = []
    for _ in range(n_rep):
        r = simulate_hazard_driven(x1, piles, rng, horizon, cfg)
        if r.events:
            vs.append(r.events[0].v)
    vs = np.asarray(vs)
    p_wake = threshold_cdf(1.0, vmax)
    sd = math.sqrt(n_rep * p_wake * (1.0 - p_wake))
    assert abs(vs.size - n_rep * p_wake) < 4.0 * sd
    assert np.all(vs > 0) and np.all(vs <= vmax + 1e-12)
    rep = ks_one_sample(
        vs,
        lambda v: threshold_cdf(1.0, np.minimum(v, vmax)) / threshold_cdf(1.0, vmax),
        alpha=1e-3, name="conditional feed law")
    assert rep.passed, rep


def test_samplers_agree_on_wake_time_law():
    """Space-driven and hazard-driven runs give the same censored wake times."""
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0, 0.3), (0.6, 0.8))
    cfg = SolverConfig(dx=0.02, dt=2e-3, pad_left=2.0, pad_right=0.3,
                       n_snapshots=0)
    horizon = 1.5
    n_rep = 250
    rng_w = np.random.default_rng(311)
    rng_h = np.random.default_rng(322)

    def taus(res):
        out = [math.inf, math.inf]
        for ev in res.events:
            out[ev.index] = ev.time
        return out

    t_space, t_haz = [], []
    for _ in range(n_rep):
        ws = [sample_wake_threshold(x, rng_w.uniform()) for x in (0.6, 0.8)]
        t_space.append(taus(simulate_space_driven(x1, piles, ws, horizon, cfg)))
        t_haz.append(taus(simulate_hazard_driven(x1, piles, rng_h, horizon, cfg)))
    t_space = np.asarray(t_space)
    t_haz = np.asarray(t_haz)
    for j, label in ((0, "first wake"), (1, "second wake")):
        rep = ks_two_sample(t_space[:, j], t_haz[:, j], alpha=1e-3, name=label)
        assert rep.passed, rep


def test_hazard_run_is_space_run_with_expm1_thresholds():
    """The Exp(1) clock is the threshold x*expm1(E): identical event records."""
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0, 0.1, 0.3), (0.4, 0.3, 0.5))
    cfg = SolverConfig(dx=0.02, dt=2e-3, pad_left=2.0, pad_right=0.3,
                       n_snapshots=8)
    outcomes = set()
    for s in range(16):
        hazard = simulate_hazard_driven(x1, piles, np.random.default_rng(s), 1.5, cfg)
        rng = np.random.default_rng(s)
        ws = [float(x) * math.expm1(float(rng.exponential())) for x in piles.masses]
        space = simulate_space_driven(x1, piles, ws, 1.5, cfg)
        assert hazard.events == space.events
        assert hazard.snapshots == space.snapshots
        assert (hazard.ustar, hazard.stall_position, hazard.woke_all) == \
               (space.ustar, space.stall_position, space.woke_all)
        outcomes.add(len(hazard.events))
    assert len(outcomes) >= 3  # stalls at several piles and full cascades


def test_hazard_run_stops_at_stall_on_unbounded_horizon():
    """A clock that can never ring is a stall, so an unbounded run returns."""
    x1 = GridDensity.uniform(-0.5, 0.0, 0.01, 0.05)
    piles = AtomicMeasure((0.05,), (1.0,))
    cfg = SolverConfig(dx=0.05, dt=2e-3, grow_dt=True, run_to_horizon=False)
    res = simulate_hazard_driven(x1, piles, replica_rng(1, 0), math.inf, cfg)
    assert res.events == ()
    assert res.stall_position == 0.05 and res.ustar == 0.05
    assert not res.woke_all and res.final.time == 0.0


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_unbounded_run_wakes_a_pile_the_grid_cannot_feed():
    """A threshold one ulp below the available mass: the grid can never
    deliver it in floating point, so the pile is woken once the grid holds
    less than the feed can register, instead of the run spinning forever."""
    x1 = GridDensity.uniform(-0.5, 0.0, 0.3, 0.05)
    piles = AtomicMeasure((0.05,), (0.4,))
    w = math.nextafter(x1.total_mass(), 0.0)
    for grow in (True, False):
        cfg = SolverConfig(dx=0.05, dt=2e-3, n_snapshots=0, pad_left=0.5,
                           pad_right=0.1, grow_dt=grow, run_to_horizon=False)
        with _time_limit(30):
            res = simulate_space_driven(x1, piles, [w], math.inf, cfg)
        assert res.woke_all and res.forced_wakes == 1
        assert res.events[0].v == w and res.events[0].jump_size == 0.4 + w
    # two piles, the second threshold within 1e-12 of its available mass:
    # it wakes by its feed once the wake re-injects everything absorbed
    x1 = GridDensity.uniform(-0.5, 0.0, 0.6, 0.05)
    piles = AtomicMeasure((0.1, 0.2), (0.3, 0.4))
    cfg = SolverConfig(dx=0.05, dt=2e-3, n_snapshots=0, pad_left=0.5,
                       pad_right=0.1, grow_dt=True, run_to_horizon=False)
    with _time_limit(30):
        res = simulate_space_driven(x1, piles, [0.2, 0.9 * (1 - 1e-12)], math.inf, cfg)
    assert res.woke_all and res.forced_wakes == 0


def test_wakes_conserve_mass_to_rounding():
    """A wake re-injects the pile with all it absorbed, not with its threshold."""
    x1 = GridDensity.uniform(-0.5, 0.0, 2.0, 0.01)
    piles = discretize_density(GridDensity.uniform(0.0, 1.0, 1.0, 0.005), 0.05)
    for grow in (False, True):
        # run_to_horizon=False: free flow after the last wake, on grown steps,
        # drifts by about 4e-12 through the backward-Euler solves
        cfg = SolverConfig(dx=0.01, dt=2e-3, pad_left=0.6, pad_right=0.1,
                           n_snapshots=8, grow_dt=grow, run_to_horizon=False)
        n_events = 0
        for s in range(10):
            u = np.random.default_rng(s).random(len(piles.masses))
            res = simulate_space_driven(x1, piles, sample_wake_threshold(piles.masses, u),
                                        5.0, cfg)
            n_events += len(res.events)
            for row in res.snapshots:
                assert abs(row.total_mass - res.initial_mass) <= 1e-13, (s, row)
        assert n_events >= 100


def test_forced_wake_never_fires_on_reachable_thresholds():
    cfg = SolverConfig(dx=0.02, dt=4e-3, n_snapshots=0, pad_left=0.6,
                       pad_right=0.1, grow_dt=True, run_to_horizon=False)
    x1 = GridDensity.uniform(-0.5, 0.0, 0.5, cfg.dx)
    piles = discretize_density(GridDensity.uniform(0.0, 1.0, 1.0, 0.005), 0.02)
    n_events = 0
    for k in range(6):
        u = replica_rng(7001, k).random(len(piles.masses))
        res = simulate_space_driven(x1, piles, sample_wake_threshold(piles.masses, u),
                                    math.inf, cfg)
        assert res.forced_wakes == 0
        n_events += len(res.events)
    assert n_events >= 20


def test_conservation_and_path_shape():
    x1 = GridDensity.uniform(-0.6, 0.0, 1.2, 0.02)
    piles = AtomicMeasure((0.0, 0.1, 0.2), (0.4, 0.3, 0.5))
    cfg = SolverConfig(dx=0.02, dt=1e-3, pad_left=2.0, pad_right=0.3,
                       n_snapshots=24)
    res = simulate_hazard_driven(x1, piles, np.random.default_rng(5), 2.0, cfg)

    assert res.initial_mass == pytest.approx(2.4, abs=1e-12)
    times = [row.time for row in res.snapshots]
    assert times == sorted(times) and times[0] == 0.0
    for row in res.snapshots:
        assert abs(row.total_mass - res.initial_mass) < 1e-9
        assert row.y >= 0.0

    # the active front only moves right, and feed grows between wakes
    ells = [row.ell for row in res.snapshots]
    assert ells == sorted(ells)
    for a, b in zip(res.snapshots, res.snapshots[1:]):
        if a.ell == b.ell and b.time > a.time:
            assert b.y >= a.y - 1e-12

    last_t = 0.0
    for ev in res.events:
        assert ev.time > last_t or (ev.time == last_t == 0.0)
        last_t = ev.time
        assert ev.jump_size == piles.masses[ev.index] + ev.v
        assert ev.site == piles.positions[ev.index]


def test_extract_L_matches_event_log():
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0, 0.1), (0.5, 0.5))
    cfg = SolverConfig(dx=0.02, dt=1e-3, pad_left=1.5, pad_right=0.2,
                       grow_dt=True, run_to_horizon=False, n_snapshots=0)
    res = simulate_space_driven(x1, piles, [0.25, 0.4], math.inf, cfg)
    assert len(res.events) == 2
    patt = extract_L(res.events, piles)
    assert list(patt) == [(0.0, 0.25), (0.1, 0.4)]

    assert len(extract_L((), piles)) == 0
    with pytest.raises(ValueError):
        extract_L(res.events, AtomicMeasure((0.05, 0.1), (0.5, 0.5)))


def test_snapshot_cadence_does_not_perturb_events():
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0, 0.2), (0.5, 0.5))
    cfg_a = SolverConfig(dx=0.02, dt=2e-3, pad_left=1.5, pad_right=0.3,
                         n_snapshots=40)
    cfg_b = SolverConfig(dx=0.02, dt=2e-3, pad_left=1.5, pad_right=0.3,
                         n_snapshots=3)
    ws = [0.15, 0.3]
    res_a = simulate_space_driven(x1, piles, ws, 1.0, cfg_a)
    res_b = simulate_space_driven(x1, piles, ws, 1.0, cfg_b)
    assert len(res_a.events) >= 1
    assert [(e.time, e.v, e.jump_size) for e in res_a.events] == \
           [(e.time, e.v, e.jump_size) for e in res_b.events]
    assert len(res_a.snapshots) > len(res_b.snapshots)


def test_simulation_input_validation():
    x1 = GridDensity.uniform(-0.5, 0.0, 1.0, 0.02)
    piles = AtomicMeasure((0.0,), (1.0,))
    cfg = SolverConfig(dx=0.02, dt=1e-3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_space_driven(x1, piles, [0.5, 0.5], 1.0, cfg)
    with pytest.raises(ValueError):
        simulate_space_driven(x1, piles, [0.5], 0.0, cfg)
    with pytest.raises(ValueError):
        simulate_space_driven(x1, piles, [-1.0], 1.0, cfg)
    with pytest.raises(ValueError):
        # unbounded run must be allowed to stop at the cascade's end
        simulate_space_driven(x1, piles, [0.5], math.inf, cfg)
    with pytest.raises(ValueError):
        simulate_hazard_driven(x1, AtomicMeasure((0.0, 0.013), (1.0, 1.0)),
                               rng, 1.0, cfg)
    with pytest.raises(ValueError):
        simulate_space_driven(GridDensity.uniform(0.0, 0.5, 1.0, 0.02),
                              piles, [0.5], 1.0, cfg)
    with pytest.raises(ValueError):
        simulate_space_driven(x1, AtomicMeasure([], []), [], 1.0, cfg)
