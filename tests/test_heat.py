"""Killed heat flow: analytic oracles, mass accounting, positivity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from frogmodel.heat import KilledHeatFlow, normal_cdf, survival_mass_analytic
from frogmodel.measures import GridDensity


def test_survival_formula_against_image_quadrature():
    # independent oracle: integrate the image-method density
    #   p(x) = phi_t(x - x0) - phi_t(x - (2z - x0))    (x < z)
    # by quadrature; no erf involved on the oracle side.
    for x0, z, t in [(-1.0, 0.0, 1.0), (0.3, 1.0, 0.25), (-2.0, 0.5, 4.0), (0.0, 3.0, 0.5)]:
        def dens(x):
            phi = lambda y: math.exp(-y * y / (2 * t)) / math.sqrt(2 * math.pi * t)
            return phi(x - x0) - phi(x - (2 * z - x0))

        oracle, err = quad(dens, z - 14 * math.sqrt(t), z, limit=200)
        assert err < 1e-8
        assert survival_mass_analytic(x0, z, t) == pytest.approx(oracle, abs=1e-8)
    assert survival_mass_analytic(0.0, 0.0, 5.0) == 0.0
    assert survival_mass_analytic(-1.0, 0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        survival_mass_analytic(1.0, 0.0, 1.0)


def test_solver_survival_matches_analytic():
    # production resolution; the 1e-4 agreement is the calibrated target
    f = KilledHeatFlow(left=-8.0, right=0.0, dx=1e-3, barrier=0.0)
    f.inject_atom(-1.0, 1.0)
    dt = 1e-4
    t = 0.0
    for t_end in (0.01, 0.1, 1.0):
        while t < t_end - dt / 2:
            f.step(dt)
            t += dt
        surv = f.dx * float(np.sum(f.values))
        assert abs(surv - survival_mass_analytic(-1.0, 0.0, t_end)) <= 1e-4


def test_killed_against_brownian_bridge_mc():
    # Monte Carlo oracle: random walk with bridge-crossing correction.
    gap, t_end = 0.5, 0.25
    rng = np.random.default_rng(20240817)
    n_paths, n_sub = 1_000_000, 16
    dt_mc = t_end / n_sub
    pos = np.full(n_paths, -gap)
    alive = np.ones(n_paths, dtype=bool)
    for _ in range(n_sub):
        nxt = pos + rng.normal(0.0, math.sqrt(dt_mc), n_paths)
        crossed = nxt >= 0.0
        # bridge: P[max over step >= 0 | endpoints below 0]
        p_bridge = np.exp(-2.0 * np.maximum(-pos, 0) * np.maximum(-nxt, 0) / dt_mc)
        crossed |= rng.random(n_paths) < p_bridge
        alive &= ~crossed
        pos = nxt
    mc_killed = 1.0 - alive.mean()

    f = KilledHeatFlow(left=-6.0, right=0.0, dx=1e-3, barrier=0.0)
    f.inject_atom(-gap, 1.0)
    for _ in range(int(round(t_end / 2e-4))):
        f.step(2e-4)
    sigma = math.sqrt(mc_killed * (1 - mc_killed) / n_paths)
    assert abs(f.killed_cum - mc_killed) <= 4 * sigma + 2e-4
    # both routes also near the closed form
    assert abs(f.killed_cum - (1 - survival_mass_analytic(-gap, 0.0, t_end))) < 1e-4


def test_mass_balance_machine_exact():
    f = KilledHeatFlow(left=-4.0, right=0.0, dx=0.01, barrier=0.0)
    f.inject_atom(-1.0, 1.0)
    for k in range(400):
        f.step(5e-4)
        if k == 150:
            f.inject_atom(-0.5, 0.7)
        if k == 300:
            f.inject_atom(-2.0, 0.25, single_cell=True)
    total_in = 1.0 + 0.7 + 0.25
    assert abs(f.total_mass() + f.killed_cum - total_in) < 1e-12
    assert np.all(f.values >= 0.0)


def test_free_flow_conserves_mass_and_variance():
    f = KilledHeatFlow(left=-16.0, right=16.0, dx=0.02)
    s0 = 1.0
    f.set_density(GridDensity.from_function(
        lambda x: np.exp(-x * x / (2 * s0**2)) / math.sqrt(2 * math.pi * s0**2),
        -16.0, 16.0, 0.02))
    centers = f.left + f.dx * (np.arange(f.n) + 0.5)
    mass0 = f.total_mass()
    var0 = f.dx * float(np.sum(centers**2 * f.values)) / mass0
    dt, steps = 1e-3, 500
    for _ in range(steps):
        f.step(dt)
    assert abs(f.total_mass() - mass0) < 1e-10
    # each implicit step adds exactly dt to the variance (away from the walls)
    var1 = f.dx * float(np.sum(centers**2 * f.values)) / mass0
    assert var1 - var0 == pytest.approx(steps * dt, rel=1e-9)
    assert f.killed_cum == 0.0


def test_positivity_under_large_steps():
    f = KilledHeatFlow(left=-2.0, right=0.0, dx=0.01, barrier=0.0)
    f.inject_atom(-1.0, 1.0, single_cell=True)
    f.step(0.5)  # r = dt/(2 dx^2) = 2500: wildly stiff on purpose
    assert np.all(f.values >= 0.0)
    f.step(1.0)
    assert np.all(f.values >= 0.0)


def test_boundary_flux_on_linear_profile():
    # u(x) = -x on [-1, 0]: slope 1 at the edge, so absorption rate 1/2
    dx = 1.0 / 128
    f = KilledHeatFlow(left=-1.0, right=0.0, dx=dx, barrier=0.0)
    f.set_density(GridDensity.from_function(lambda x: -x, -1.0, 0.0, dx))
    assert f.boundary_flux() == pytest.approx(0.5, abs=1e-12)
    # the mass-balance ledger agrees with the flux over a short step
    killed = f.step(1e-6)
    assert killed / 1e-6 == pytest.approx(0.5, rel=1e-3)


def test_free_flow_has_zero_flux():
    f = KilledHeatFlow(left=-1.0, right=1.0, dx=0.1)
    f.inject_atom(0.0, 1.0)
    f.step(0.01)
    assert f.boundary_flux() == 0.0
    assert f.barrier is None


def test_atom_deposit_geometry():
    f = KilledHeatFlow(left=0.0, right=1.0, dx=0.1, barrier=1.0)
    f.inject_atom(0.33, 2.0)
    f.flush_pending()
    centers = f.left + f.dx * (np.arange(f.n) + 0.5)
    assert f.dx * float(np.sum(f.values)) == pytest.approx(2.0, abs=1e-12)
    com = f.dx * float(np.sum(centers * f.values)) / 2.0
    assert com == pytest.approx(0.33, abs=1e-9)
    # only the two cells around 0.33 are occupied
    assert np.count_nonzero(f.values) == 2
    assert set(np.nonzero(f.values)[0]) == {2, 3}

    g = KilledHeatFlow(left=0.0, right=1.0, dx=0.1, barrier=0.5)
    g.inject_atom(0.5, 1.0, single_cell=True)
    g.flush_pending()
    assert np.nonzero(g.values)[0].tolist() == [4]
    assert g.values[4] == pytest.approx(1.0 / 0.1)


def test_peek_matches_committed_step():
    f = KilledHeatFlow(left=-2.0, right=0.0, dx=0.05, barrier=0.0)
    f.inject_atom(-0.4, 1.0)
    f.step(0.01)
    before = f.values.copy()
    peek = f.peek(0.037)
    assert np.array_equal(f.values, before)
    assert f.step(0.037) == peek


def test_barrier_moves_and_validation():
    f = KilledHeatFlow(left=0.0, right=1.0, dx=0.1, barrier=0.5)
    f.inject_atom(0.2, 1.0)
    f.step(0.01)
    f.set_barrier(0.8)  # advance: newly active cells are empty
    f.step(0.01)
    assert f.barrier == pytest.approx(0.8)
    assert np.all(f.values[8:] == 0.0)
    with pytest.raises(ValueError):
        f.set_barrier(0.1)  # would strand mass to its right
    with pytest.raises(ValueError):
        f.set_barrier(0.123)  # not an edge
    with pytest.raises(ValueError):
        KilledHeatFlow(left=0.0, right=1.0, dx=0.3)
    with pytest.raises(ValueError):
        f.inject_atom(0.2, -1.0)


def test_symmetry_of_free_spreading():
    f = KilledHeatFlow(left=-1.0, right=1.0, dx=0.01)
    f.inject_atom(0.0, 1.0)
    for _ in range(100):
        f.step(1e-3)
    assert np.allclose(f.values, f.values[::-1], rtol=1e-10, atol=1e-12)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.0) + normal_cdf(-1.0) == pytest.approx(1.0, abs=1e-15)
