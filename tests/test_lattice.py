"""Finite-site simulator: exact laws, conservation, site-selection checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from frogmodel.colony import threshold_cdf
from frogmodel.lattice import (
    MPSState,
    SiteSystem,
    apply_jump,
    flow_between_jumps,
    simulate_mps,
)
from frogmodel.stats import ks_one_sample


CHAIN3 = SiteSystem.nearest_neighbor_chain((0, 1, 2))


def test_system_validation():
    with pytest.raises(ValueError):
        SiteSystem((0, 1), [[-1.0, 0.5], [1.0, -1.0]])  # rows do not sum to 0
    with pytest.raises(ValueError):
        SiteSystem((0, 1), [[1.0, -1.0], [-1.0, 1.0]])  # negative off-diagonal
    with pytest.raises(ValueError):
        SiteSystem((0, 1, 2), np.zeros((2, 2)))
    q = CHAIN3.q
    assert np.all(q.sum(axis=1) == 0)


def test_state_validation():
    with pytest.raises(ValueError):
        MPSState([1.0, 0.0], [0.5, 0.0])  # coexisting types at site 0
    with pytest.raises(ValueError):
        MPSState([-1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        MPSState([1.0], [0.0, 0.0])
    st = MPSState([1.0, 0.0], [0.0, 2.0], time=0.5)
    assert st.total_mass() == 3.0
    assert st.dormant_mask().tolist() == [False, True]


def test_flow_trivial_examples():
    sys2 = SiteSystem.nearest_neighbor_chain((0, 1))
    still = MPSState([0.0, 0.0], [0.0, 1.0])
    out = flow_between_jumps(still, sys2, 1.0)
    assert np.array_equal(out.x1, still.x1) and np.array_equal(out.x2, still.x2)

    st = MPSState([1.0, 0.0], [0.0, 1.0])
    f = flow_between_jumps(st, sys2, 1e-3)
    # pile absorbs incoming flux at unit rate initially
    assert (f.x2[1] - 1.0) / 1e-3 == pytest.approx(1.0, rel=2e-3)
    assert f.x1[1] == 0.0  # awake mass pinned at the dormant site

    long = flow_between_jumps(st, sys2, 1.0)
    assert abs(long.total_mass() - 2.0) <= 1e-8 * 2.0


def test_apply_jump_examples():
    st = MPSState([1.0, 0.0], [0.0, 3.0])
    woken = apply_jump(st, 1)
    assert woken.x1[1] == 3.0 and woken.x2[1] == 0.0
    assert woken.total_mass() == st.total_mass()
    assert np.all(woken.x1 * woken.x2 == 0.0)
    with pytest.raises(ValueError):
        apply_jump(woken, 1)


def test_next_jump_trivial_cases():
    sys2 = SiteSystem.nearest_neighbor_chain((0, 1))
    # no awake mass anywhere (nothing flows), or no dormant site (nothing to
    # wake): no jump, and no draw is spent on one
    for init in (MPSState([0.0, 0.0], [0.0, 1.0]), MPSState([1.0, 0.0], [0.0, 0.0])):
        rng = np.random.default_rng(0)
        res = simulate_mps(sys2, init, 5.0, rng)
        assert res.events == () and res.final.time == 5.0
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_single_dormant_site_only_jump():
    # one dormant pile: exactly one jump ever, at that site
    rng = np.random.default_rng(8)
    init = MPSState([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    res = simulate_mps(CHAIN3, init, 50.0, rng)
    assert len(res.events) == 1
    assert res.events[0].site == 2
    assert np.all(res.final.x2 == 0.0)
    assert abs(res.final.total_mass() - 2.0) <= 1e-8 * 2.0


def test_single_dormant_jump_time_is_exact():
    # one dormant pile: it wakes when its feed reaches expm1(E), where E is
    # the run's first Exp(1) draw; the feed is the awake walk killed at site 2
    gen = np.array(CHAIN3.q)
    gen[2, :] = 0.0
    init = MPSState([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    horizon = 50.0
    jumped = 0
    for s in range(40):
        res = simulate_mps(CHAIN3, init, horizon, np.random.default_rng(s))
        e = np.random.default_rng(s).exponential()
        target = math.expm1(e)
        if target >= (init.x1 @ expm(gen * horizon))[2]:
            assert res.events == ()
            continue
        tau = brentq(lambda t: (init.x1 @ expm(gen * t))[2] - target, 0.0, horizon,
                     xtol=1e-14, rtol=1e-15)
        ev = res.events[0]
        assert abs(ev.time - tau) <= 1e-9, (s, ev.time, tau)
        assert abs(ev.pile - math.exp(e)) <= 1e-12 * math.exp(e), (s, ev.pile)
        jumped += 1
    assert jumped >= 10


def test_single_dormant_jump_law_matches_threshold_law():
    # pile growth at the jump, conditioned on jumping before the horizon,
    # follows the wake-threshold law truncated at the deterministic max feed
    rng = np.random.default_rng(42)
    x2_0, horizon = 1.0, 4.0
    init = MPSState([1.0, 0.0, 0.0], [0.0, 0.0, x2_0])
    frozen = flow_between_jumps(init, CHAIN3, horizon)
    r_max = frozen.x2[2] - x2_0
    vals = []
    for _ in range(3000):
        res = simulate_mps(CHAIN3, init, horizon, rng)
        if res.events:
            assert res.events[0].site == 2
            vals.append(res.events[0].pile - x2_0)
    assert len(vals) > 1000
    f_max = threshold_cdf(x2_0, r_max)
    rep = ks_one_sample(
        np.array(vals),
        lambda r: np.clip(threshold_cdf(x2_0, np.maximum(r, 0.0)) / f_max, 0.0, 1.0),
    )
    assert rep.passed, str(rep)


def test_no_jump_probability_exact_product():
    # P[no jump by t] equals the product of initial/fed pile ratios along the
    # deterministic frozen flow; Monte Carlo must agree within 3 sigma
    rng = np.random.default_rng(314)
    init = MPSState([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])
    t = 1.0
    frozen = flow_between_jumps(init, CHAIN3, t)
    p_exact = (1.0 / frozen.x2[1]) * (1.0 / frozen.x2[2])
    n = 2000
    none = sum(not simulate_mps(CHAIN3, init, t, rng).events for _ in range(n))
    phat = none / n
    z = (phat - p_exact) / math.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(z) <= 3.0, (phat, p_exact, z)


def test_every_jump_at_leftmost_dormant_site():
    rng = np.random.default_rng(99)
    sys5 = SiteSystem.nearest_neighbor_chain((0, 1, 2, 3, 4))
    init = MPSState([1.0, 0, 0, 0, 0], [0.0, 1, 1, 1, 1])
    for _ in range(150):
        res = simulate_mps(sys5, init, 12.0, rng)
        dormant = [1, 2, 3, 4]
        for ev in res.events:
            assert ev.site == dormant[0]
            dormant.pop(0)


def test_symmetric_dormant_sites_chosen_uniformly():
    # half the awake mass feeds each pile; among paths that do jump, the
    # first woken site is uniform over the two piles by symmetry
    rng = np.random.default_rng(1234)
    init = MPSState([0.0, 1.0, 0.0], [1.0, 0.0, 1.0])
    left = jumped = 0
    for _ in range(2000):
        res = simulate_mps(CHAIN3, init, 6.0, rng)
        if res.events:
            jumped += 1
            left += res.events[0].site == 0
    assert jumped > 800  # total feed is 1/2 per side: P[any jump] = 5/9
    z = (left / jumped - 0.5) * 2 * math.sqrt(jumped)
    assert abs(z) <= 3.5, (left, jumped, z)


def test_per_site_pile_martingale():
    rng = np.random.default_rng(7)
    init = MPSState([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])
    t, n = 1.5, 1500
    finals = np.empty((n, 3))
    for i in range(n):
        res = simulate_mps(CHAIN3, init, t, rng, record_times=(t,))
        finals[i] = res.snapshots[-1].x2
    for k in range(3):
        se = finals[:, k].std(ddof=1) / math.sqrt(n)
        if se == 0.0:
            assert finals[:, k].mean() == init.x2[k]
        else:
            z = (finals[:, k].mean() - init.x2[k]) / se
            assert abs(z) <= 3.5, (k, z)


def test_snapshots_do_not_perturb_events():
    init = MPSState([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])
    res_a = simulate_mps(CHAIN3, init, 5.0, np.random.default_rng(2024), record_times=())
    res_b = simulate_mps(CHAIN3, init, 5.0, np.random.default_rng(2024),
                         record_times=(0.0, 0.3, 1.7, 2.9, 4.999))
    assert [(e.time, e.site, e.pile) for e in res_a.events] == \
           [(e.time, e.site, e.pile) for e in res_b.events]
    assert len(res_b.snapshots) == 5
    assert [s.time for s in res_b.snapshots] == [0.0, 0.3, 1.7, 2.9, 4.999]
    for s in res_b.snapshots:
        assert abs(s.total_mass() - 3.0) <= 1e-8 * 3.0
        assert np.all(s.x1 * s.x2 == 0.0)


def test_starved_pile_jumps_immediately():
    sys2 = SiteSystem.nearest_neighbor_chain((0, 1))
    res = simulate_mps(sys2, MPSState([1.0, 0.0], [0.0, 1e-16]), 10.0,
                       np.random.default_rng(5))
    assert res.events[0].time == 0.0 and res.events[0].site == 1


def test_simulate_horizon_validation():
    with pytest.raises(ValueError):
        simulate_mps(CHAIN3, MPSState([1.0, 0, 0], [0, 1.0, 0], time=2.0), 1.0,
                     np.random.default_rng(0))
    # the first draw, E = 1.073, exceeds the total hazard log 2 of all time
    with pytest.raises(ValueError):
        simulate_mps(CHAIN3, MPSState([1.0, 0, 0], [0, 0, 1.0]), math.inf,
                     np.random.default_rng(1))
