"""Mass distributions on the line: atomic, piecewise-constant, and hybrid.

Three value-like types cover every state that appears in the simulators:

* :class:`AtomicMeasure`   -- finitely many point masses, strictly increasing
  positions, all masses > 0 (zero atoms are dropped on construction).
* :class:`GridDensity`     -- piecewise-constant density on a uniform grid of
  cells ``[left + k*dx, left + (k+1)*dx)``.
* :class:`HybridMeasure`   -- a grid density plus an atomic part.

Intervals follow the half-open convention ``(a, b]`` by default; other
closures matter only for the atomic part and can be requested explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AtomicMeasure",
    "GridDensity",
    "HybridMeasure",
    "PointPattern",
    "total_mass",
    "interval_mass",
    "discretize_density",
    "to_json",
    "measure_from_json",
]

_CLOSURES = ("(]", "[)", "[]", "()")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite sum of point masses ``sum_i masses[i] * delta(positions[i])``.

    Construction normalizes: positions are sorted, duplicates merged by
    summing their masses, and zero-mass atoms removed.  Masses must be
    nonnegative and finite.
    """

    positions: np.ndarray
    masses: np.ndarray

    def __init__(self, positions, masses):
        pos = np.asarray(positions, dtype=float)
        mas = np.asarray(masses, dtype=float)
        if pos.shape != mas.shape or pos.ndim != 1:
            raise ValueError("positions and masses must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(mas))):
            raise ValueError("positions and masses must be finite")
        if np.any(mas < 0):
            raise ValueError("atom masses must be nonnegative")
        order = np.argsort(pos, kind="stable")
        pos, mas = pos[order], mas[order]
        if pos.size and np.any(pos[1:] == pos[:-1]):
            uniq, inverse = np.unique(pos, return_inverse=True)
            summed = np.zeros_like(uniq)
            np.add.at(summed, inverse, mas)
            pos, mas = uniq, summed
        keep = mas > 0.0
        object.__setattr__(self, "positions", _frozen_array(pos[keep]))
        object.__setattr__(self, "masses", _frozen_array(mas[keep]))

    def __len__(self) -> int:
        return self.positions.size

    def total_mass(self) -> float:
        return math.fsum(self.masses.tolist())

    def interval_mass(self, a: float, b: float, closure: str = "(]") -> float:
        """Mass carried by the interval from ``a`` to ``b`` (default ``(a, b]``)."""
        if closure not in _CLOSURES:
            raise ValueError(f"closure must be one of {_CLOSURES}")
        if b < a:
            raise ValueError("need a <= b")
        lo_side = "left" if closure[0] == "[" else "right"
        hi_side = "right" if closure[1] == "]" else "left"
        i = np.searchsorted(self.positions, a, side=lo_side)
        j = np.searchsorted(self.positions, b, side=hi_side)
        return math.fsum(self.masses[i:j].tolist())

    def to_dict(self) -> dict:
        return {"atoms": [[float(z), float(m)] for z, m in zip(self.positions, self.masses)]}

    @classmethod
    def from_dict(cls, data: dict) -> "AtomicMeasure":
        atoms = data["atoms"]
        return cls([a[0] for a in atoms], [a[1] for a in atoms])


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Piecewise-constant density: ``values[k]`` on ``[left + k*dx, left + (k+1)*dx)``.

    The cumulative mass function is piecewise linear; interval masses are
    differences of the cumulative, so they are finitely additive up to one
    rounding unit per term.
    """

    left: float
    dx: float
    values: np.ndarray
    _prefix: np.ndarray = field(repr=False, compare=False, default=None)

    def __init__(self, left: float, dx: float, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be 1-d")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density values must be finite and nonnegative")
        if not (dx > 0 and np.isfinite(dx) and np.isfinite(left)):
            raise ValueError("need finite left and dx > 0")
        object.__setattr__(self, "left", float(left))
        object.__setattr__(self, "dx", float(dx))
        object.__setattr__(self, "values", _frozen_array(vals))
        prefix = np.concatenate([[0.0], np.cumsum(vals)])
        object.__setattr__(self, "_prefix", _frozen_array(prefix))

    @property
    def right(self) -> float:
        return self.left + self.dx * self.values.size

    @classmethod
    def from_function(cls, fn, left: float, right: float, dx: float) -> "GridDensity":
        """Sample ``fn`` at cell midpoints (exact for densities linear per cell)."""
        n = int(round((right - left) / dx))
        if not math.isclose(left + n * dx, right, rel_tol=0, abs_tol=1e-9 * max(1.0, abs(right))):
            raise ValueError("dx must divide right - left")
        mids = left + dx * (np.arange(n) + 0.5)
        return cls(left, dx, np.clip(fn(mids), 0.0, None))

    @classmethod
    def uniform(cls, left: float, right: float, mass: float, dx: float) -> "GridDensity":
        n = int(round((right - left) / dx))
        if not math.isclose(left + n * dx, right, rel_tol=0, abs_tol=1e-9 * max(1.0, abs(right))):
            raise ValueError("dx must divide right - left")
        return cls(left, dx, np.full(n, mass / (right - left)))

    def total_mass(self) -> float:
        return self.dx * float(self._prefix[-1])

    def cumulative(self, x) -> np.ndarray | float:
        """Mass of ``(-inf, x]`` (equivalently ``(-inf, x)``; no atoms here)."""
        x = np.asarray(x, dtype=float)
        t = np.clip((x - self.left) / self.dx, 0.0, self.values.size)
        k = np.minimum(t.astype(int), self.values.size - 1) if self.values.size else np.zeros_like(t, int)
        vals = self.values[k] if self.values.size else 0.0
        out = self.dx * self._prefix[k] + vals * (np.clip(x, self.left, self.right) - (self.left + self.dx * k))
        return float(out) if out.ndim == 0 else out

    def interval_mass(self, a: float, b: float, closure: str = "(]") -> float:
        if closure not in _CLOSURES:
            raise ValueError(f"closure must be one of {_CLOSURES}")
        if b < a:
            raise ValueError("need a <= b")
        return float(self.cumulative(b) - self.cumulative(a))

    def to_dict(self) -> dict:
        return {"left": self.left, "dx": self.dx, "values": [float(v) for v in self.values]}

    @classmethod
    def from_dict(cls, data: dict) -> "GridDensity":
        return cls(data["left"], data["dx"], data["values"])


@dataclass(frozen=True, eq=False)
class HybridMeasure:
    """Grid density plus an atomic part."""

    density: GridDensity | None
    atoms: AtomicMeasure

    def __init__(self, density: GridDensity | None = None, atoms: AtomicMeasure | None = None):
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "atoms", atoms if atoms is not None else AtomicMeasure([], []))

    def total_mass(self) -> float:
        dens = self.density.total_mass() if self.density is not None else 0.0
        return dens + self.atoms.total_mass()

    def interval_mass(self, a: float, b: float, closure: str = "(]") -> float:
        dens = self.density.interval_mass(a, b, closure) if self.density is not None else 0.0
        return dens + self.atoms.interval_mass(a, b, closure)

    def to_dict(self) -> dict:
        return {
            "density": self.density.to_dict() if self.density is not None else None,
            "atoms": self.atoms.to_dict()["atoms"],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HybridMeasure":
        dens = GridDensity.from_dict(data["density"]) if data.get("density") is not None else None
        return cls(dens, AtomicMeasure.from_dict({"atoms": data.get("atoms", [])}))


@dataclass(frozen=True, eq=False)
class PointPattern:
    """Finite planar point set ``(z, r)`` with positive marks, sorted by z.

    ``r_min`` records the mark truncation level the pattern was sampled at,
    when there is one; it is metadata, not a constraint on the marks.
    """

    zs: np.ndarray
    rs: np.ndarray
    r_min: float | None = None

    def __init__(self, zs, rs, r_min: float | None = None):
        zs = np.asarray(zs, dtype=float)
        rs = np.asarray(rs, dtype=float)
        if zs.shape != rs.shape or zs.ndim != 1:
            raise ValueError("zs and rs must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(rs))):
            raise ValueError("points must be finite")
        if np.any(rs <= 0):
            raise ValueError("marks must be positive")
        order = np.argsort(zs, kind="stable")
        object.__setattr__(self, "zs", _frozen_array(zs[order]))
        object.__setattr__(self, "rs", _frozen_array(rs[order]))
        object.__setattr__(self, "r_min", None if r_min is None else float(r_min))

    def __len__(self) -> int:
        return int(self.zs.size)

    def __iter__(self):
        return iter(zip(self.zs.tolist(), self.rs.tolist()))


Measure = AtomicMeasure | GridDensity | HybridMeasure


def total_mass(m: Measure) -> float:
    return m.total_mass()


def interval_mass(m: Measure, a: float, b: float, closure: str = "(]") -> float:
    return m.interval_mass(a, b, closure)


def discretize_density(m: GridDensity | HybridMeasure, spacing: float) -> AtomicMeasure:
    """Bin a measure into atoms at ``i * spacing`` carrying the mass of
    ``((i-1) * spacing, i * spacing]``, for i = 1 .. ceil(right/spacing).

    The support must lie in ``[0, right]``; mass exactly at 0 is folded into
    the first block so the total is preserved.  Zero-mass blocks produce no
    atom.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if isinstance(m, GridDensity):
        m = HybridMeasure(m, None)
    right = 0.0
    if m.density is not None:
        if m.density.left < -1e-12:
            raise ValueError("support must lie in [0, inf)")
        right = max(right, m.density.right)
    if len(m.atoms):
        if m.atoms.positions[0] < 0:
            raise ValueError("support must lie in [0, inf)")
        right = max(right, float(m.atoms.positions[-1]))
    n = max(1, math.ceil(right / spacing - 1e-12))
    edges = spacing * np.arange(n + 1)
    masses = np.zeros(n)
    if m.density is not None:
        cums = m.density.cumulative(edges)
        masses += np.diff(cums)
    if len(m.atoms):
        # atom at z > 0 goes to block ceil(z/spacing); an atom at 0 to block 1
        idx = np.maximum(np.ceil(m.atoms.positions / spacing - 1e-12).astype(int), 1) - 1
        idx = np.minimum(idx, n - 1)
        np.add.at(masses, idx, m.atoms.masses)
    return AtomicMeasure(edges[1:], masses)


def to_json(m: Measure) -> str:
    return json.dumps(m.to_dict())


def measure_from_json(text: str) -> Measure:
    data = json.loads(text)
    if "values" in data:
        return GridDensity.from_dict(data)
    if "density" in data:
        return HybridMeasure.from_dict(data)
    return AtomicMeasure.from_dict(data)
