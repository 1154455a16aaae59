"""Heat flow with diffusivity 1/2 against an absorbing barrier.

The density lives on a uniform grid of cells ``[left + k*dx, left + (k+1)*dx)``
and evolves by an implicit (backward Euler) centered scheme:

* far walls are reflecting, so free flow conserves mass to rounding;
* the barrier is a Dirichlet condition pinned to 0 at a cell EDGE, enforced
  through the half-cell stencil (the absorbed flux is ``u_last / dx``, i.e.
  half the one-sided slope of the density at the edge);
* killed mass is bookkept as the exact discrete mass balance of each step, so
  ``killed_cum + remaining == initial`` holds to machine precision.

Backward Euler keeps the density nonnegative exactly (the step matrix is an
M-matrix), which coarser trapezoidal schemes do not on atomic data.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .measures import GridDensity

__all__ = ["KilledHeatFlow", "survival_mass_analytic", "normal_cdf"]


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def survival_mass_analytic(x0: float, barrier: float, t: float) -> float:
    """Surviving mass of a unit atom at ``x0`` under the barrier at ``barrier``.

    Reflection principle: survival = 2*Phi((barrier - x0)/sqrt(t)) - 1 for
    x0 < barrier; an atom at the barrier dies immediately.
    """
    gap = barrier - x0
    if gap < 0:
        raise ValueError("atom must start left of the barrier")
    if gap == 0.0:
        return 0.0
    if t <= 0.0:
        return 1.0
    return 2.0 * normal_cdf(gap / math.sqrt(t)) - 1.0


class KilledHeatFlow:
    """Stateful solver; one instance per path (not thread-safe)."""

    def __init__(self, left: float, right: float, dx: float, barrier: float | None = None):
        n = int(round((right - left) / dx))
        if n < 1 or not math.isclose(left + n * dx, right, rel_tol=0, abs_tol=1e-9 * max(1.0, abs(right))):
            raise ValueError("dx must divide right - left")
        self.left = float(left)
        self.dx = float(dx)
        self.n = n
        self.values = np.zeros(n)
        self.time = 0.0
        self.killed_cum = 0.0
        self._pending: list[tuple[float, float, bool]] = []
        self._factors: dict[tuple[int, float], np.ndarray] = {}
        self._barrier_index: int | None = None
        if barrier is not None:
            self.set_barrier(barrier)

    # -- geometry ---------------------------------------------------------

    @property
    def right(self) -> float:
        return self.left + self.n * self.dx

    @property
    def barrier(self) -> float | None:
        if self._barrier_index is None:
            return None
        return self.left + self._barrier_index * self.dx

    def edge_index(self, z: float) -> int:
        k = int(round((z - self.left) / self.dx))
        if not math.isclose(self.left + k * self.dx, z, rel_tol=0, abs_tol=1e-9 * max(1.0, abs(z))):
            raise ValueError(f"{z} is not a grid edge (dx={self.dx})")
        if not 0 <= k <= self.n:
            raise ValueError(f"{z} outside the grid [{self.left}, {self.right}]")
        return k

    def set_barrier(self, z: float) -> None:
        """Place the absorbing edge at ``z``; cells at and right of it must be empty."""
        k = self.edge_index(z)
        if k < 1:
            raise ValueError("barrier leaves no active cell")
        if np.any(self.values[k:] != 0.0):
            raise ValueError("mass right of the requested barrier")
        self._barrier_index = k

    def clear_barrier(self) -> None:
        self._barrier_index = None

    # -- state access ------------------------------------------------------

    def total_mass(self) -> float:
        pend = sum(m for _, m, _ in self._pending)
        return self.dx * float(np.sum(self.values)) + pend

    def density(self) -> GridDensity:
        return GridDensity(self.left, self.dx, self.values)

    def boundary_flux(self) -> float:
        """Instantaneous absorption rate at the barrier (mass per unit time)."""
        if self._barrier_index is None:
            return 0.0
        return float(self.values[self._barrier_index - 1]) / self.dx

    # -- mass deposit -------------------------------------------------------

    def set_density(self, density: GridDensity) -> None:
        """Load a density whose grid is commensurate with (and inside) this one."""
        k0 = self.edge_index(density.left)
        step = density.dx / self.dx
        m = int(round(step))
        if not math.isclose(step, m, rel_tol=0, abs_tol=1e-9) or m < 1:
            raise ValueError("density dx must be a multiple of the solver dx")
        fine = np.repeat(density.values, m)
        if k0 + fine.size > self.n:
            raise ValueError("density exceeds the grid")
        self.values[k0:k0 + fine.size] = fine

    def inject_atom(self, z: float, mass: float, single_cell: bool = False) -> None:
        """Queue a point mass; it is deposited on the grid at the next step.

        ``single_cell`` drops the whole mass into the cell whose RIGHT edge is
        ``z`` (used for wake-ups created at the barrier); otherwise the mass is
        split linearly between the two cells nearest ``z`` so its center of
        mass is exact.
        """
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        if mass > 0:
            self._pending.append((float(z), float(mass), bool(single_cell)))

    def _active_cells(self) -> int:
        return self.n if self._barrier_index is None else self._barrier_index

    def _deposit_pending(self) -> None:
        if not self._pending:
            return
        m_active = self._active_cells()
        for z, mass, single in self._pending:
            if single:
                k = self.edge_index(z) - 1
                if not 0 <= k < m_active:
                    raise ValueError("atom cell outside the active region")
                self.values[k] += mass / self.dx
                continue
            g = (z - self.left) / self.dx - 0.5
            k0 = math.floor(g)
            frac = g - k0
            for k, w in ((k0, 1.0 - frac), (k0 + 1, frac)):
                if w <= 0.0:
                    continue
                k = min(max(k, 0), m_active - 1)
                self.values[k] += w * mass / self.dx
        self._pending.clear()

    # -- stepping -----------------------------------------------------------

    def _factor(self, m: int, dt: float):
        key = (m, dt)
        fct = self._factors.get(key)
        if fct is None:
            r = 0.5 * dt / self.dx**2
            ab = np.zeros((2, m))
            ab[1, :] = 1.0 + 2.0 * r
            ab[0, 1:] = -r
            ab[1, 0] -= r  # reflecting left wall
            if self._barrier_index is None:
                ab[1, m - 1] -= r  # reflecting right wall
            else:
                ab[1, m - 1] += r  # Dirichlet edge: half-cell stencil
            fct = cholesky_banded(ab, lower=False)
            if len(self._factors) > 32:
                self._factors.clear()
            self._factors[key] = fct
        return fct

    def _solve(self, dt: float) -> tuple[np.ndarray, float]:
        m = self._active_cells()
        u = self.values[:m]
        mass_before = float(np.sum(u))
        if mass_before == 0.0 and not self._pending:
            return u.copy(), 0.0
        new = cho_solve_banded((self._factor(m, dt), False), u)
        killed = self.dx * (mass_before - float(np.sum(new)))
        return new, max(killed, 0.0)

    def flush_pending(self) -> None:
        """Deposit queued atoms now instead of at the next step."""
        self._deposit_pending()

    def peek(self, dt: float) -> float:
        """Killed mass of a trial step of size ``dt``; state unchanged."""
        self._deposit_pending()
        return self._solve(dt)[1]

    def step(self, dt: float) -> float:
        """Advance by ``dt``; returns (and accumulates) the killed mass."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._deposit_pending()
        m = self._active_cells()
        new, killed = self._solve(dt)
        self.values[:m] = new
        self.killed_cum += killed
        self.time += dt
        return killed

    def profile_rows(self):
        """(time, x, density) rows at cell centers, for CSV export."""
        centers = self.left + self.dx * (np.arange(self.n) + 0.5)
        for x, v in zip(centers, self.values):
            yield (self.time, float(x), float(v))
