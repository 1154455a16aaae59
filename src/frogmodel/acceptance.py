"""End-to-end acceptance battery: thirteen numbered statistical criteria.

Each criterion freezes its own parameters and seeds, so the battery is
deterministic and criteria can run individually.  ``run_suite`` executes them
in order and emits one pass/fail line per criterion through the ``progress``
callback; the ``verify`` CLI subcommand and ``tests/test_acceptance.py`` both
drive this module.

Statistical criteria hold with large margin for a correct build; each KS or
chi-square check uses the significance level its criterion states, split
evenly when a criterion runs several such checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .colony import sample_wake_threshold, solve_unit_colony, threshold_cdf
from .frog import SolverConfig, compute_ustar, extract_L, simulate_hazard_driven, \
    simulate_space_driven, wake_threshold
from .heat import KilledHeatFlow, survival_mass_analytic
from .lattice import MPSState, SiteSystem, flow_between_jumps, simulate_mps
from .measures import AtomicMeasure, GridDensity, discretize_density
from .runio import replica_rng
from .spatial import build_W_from_J, count_in_rectangle, \
    coupling_report_for_pattern, sample_J, ustar_from_J
from .stats import TestReport, bonferroni, ks_one_sample, ks_two_sample, \
    martingale_drift, poisson_count_test

__all__ = ["Criterion", "CriterionResult", "CRITERIA", "run_suite"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    title: str
    passed: bool
    elapsed: float
    reports: tuple
    notes: tuple = ()

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed:
            bad = [r for r in self.reports if not r.passed]
            if bad:
                extra = f" <- {bad[0]}"
        return (f"[{tag}] {self.number:02d} {self.slug} "
                f"({self.elapsed:.1f}s, {len(self.reports)} checks){extra}")

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "slug": self.slug,
            "title": self.title,
            "passed": bool(self.passed),
            "elapsed_s": round(self.elapsed, 3),
            "reports": [r.to_dict() for r in self.reports],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class Criterion:
    number: int
    slug: str
    title: str
    fn: object = field(repr=False)

    def run(self) -> CriterionResult:
        t0 = time.time()
        reports, notes = self.fn()
        reports = tuple(reports)
        return CriterionResult(self.number, self.slug, self.title,
                               all(r.passed for r in reports),
                               time.time() - t0, reports, tuple(notes))


def _check(name: str, ok: bool, statistic: float = 0.0, threshold: float = 0.0,
           n: int = 0, **detail) -> TestReport:
    """Boolean check wrapped as a report so every criterion emits the same shape."""
    return TestReport(name, float(statistic), None, n, bool(ok), threshold,
                      kind="exact", detail=detail)


def _uniform_open(rng, size) -> np.ndarray:
    u = rng.random(size)
    return np.clip(u, 1e-15, 1.0 - 1e-15)


# ---------------------------------------------------------------------------
# 1. wake-threshold sampler law


def _crit_wake_law():
    reports = []
    alpha = bonferroni(0.01, 3)
    for j, x in enumerate((0.5, 1.0, 3.0)):
        rng = replica_rng(1001, j)
        u = _uniform_open(rng, 100_000)
        w = np.array([sample_wake_threshold(x, float(ui)) for ui in u])
        reports.append(ks_one_sample(
            w, lambda r: threshold_cdf(x, r), alpha=alpha,
            name=f"threshold law x={x}"))
        med = float(np.median(w))
        reports.append(_check(f"median x={x}", abs(med - x) <= 0.02 * x,
                              statistic=med, threshold=0.02 * x, n=w.size,
                              median=med, target=x))
    return reports, ()


# ---------------------------------------------------------------------------
# 2. one-colony martingale


def _crit_colony_martingale():
    x2_0, n = 1.0, 10_000
    checkpoints = (0.5, 1.0, 2.0, 5.0)
    vals = np.empty((n, len(checkpoints)))
    for k in range(n):
        rng = replica_rng(2001, k)
        u = float(_uniform_open(rng, 1)[0])
        path = solve_unit_colony(x2_0, sample_wake_threshold(x2_0, u))
        vals[k] = [path.x2(t) for t in checkpoints]
    reports = [martingale_drift(vals[:, j], x2_0, name=f"dormant mass drift t={t}")
               for j, t in enumerate(checkpoints)]
    return reports, ()


# ---------------------------------------------------------------------------
# 3. heat engine survival and conservation


def _crit_heat_survival():
    dx, dt = 1e-3, 1e-4
    flow = KilledHeatFlow(-9.0, 0.0, dx, barrier=0.0)
    flow.inject_atom(-1.0, 1.0)
    checkpoints = (0.01, 0.1, 1.0)
    reports = []
    steps_done = 0
    for t_target in checkpoints:
        steps = int(round(t_target / dt))
        for _ in range(steps - steps_done):
            flow.step(dt)
        steps_done = steps
        surv = flow.total_mass()
        exact = survival_mass_analytic(-1.0, 0.0, t_target)
        reports.append(_check(f"survival vs reflection t={t_target}",
                              abs(surv - exact) <= 1e-4,
                              statistic=surv - exact, threshold=1e-4,
                              numeric=surv, analytic=exact))
        defect = abs(surv + flow.killed_cum - 1.0)
        reports.append(_check(f"mass balance t={t_target}",
                              defect <= 1e-6 * t_target,
                              statistic=defect, threshold=1e-6 * t_target))
    return reports, ()


# ---------------------------------------------------------------------------
# 4. finite chain construction


def _crit_lattice_chain():
    chain = SiteSystem.nearest_neighbor_chain((0, 1, 2))
    horizon, n = 4.0, 10_000
    checkpoints = (1.0, 2.5, 4.0)
    init = MPSState([1.0, 0.0, 0.0], [0.0, 0.7, 0.5])
    x2 = np.empty((n, len(checkpoints), 2))
    order_ok = True
    for k in range(n):
        res = simulate_mps(chain, init, horizon, replica_rng(4001, k),
                           record_times=checkpoints)
        sites = [ev.site for ev in res.events]
        if sites != [1, 2][:len(sites)]:
            order_ok = False
        for j in range(len(checkpoints)):
            x2[k, j] = res.snapshots[j].x2[1:]
    reports = [_check("every jump at the leftmost dormant site", order_ok, n=n)]
    for j, t in enumerate(checkpoints):
        for col, (site, ref) in enumerate(((1, 0.7), (2, 0.5))):
            reports.append(martingale_drift(
                x2[:, j, col], ref, name=f"site {site} dormant drift t={t}"))

    # one dormant site: its fed mass at the jump follows the threshold law
    # truncated at the deterministic total feed of the horizon
    single = MPSState([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    frozen = flow_between_jumps(single, chain, horizon)
    r_max = float(frozen.x2[2]) - 1.0
    f_max = threshold_cdf(1.0, r_max)
    fed = []
    for k in range(n):
        res = simulate_mps(chain, single, horizon, replica_rng(4002, k))
        if res.events:
            fed.append(res.events[0].pile - 1.0)
    reports.append(ks_one_sample(
        np.asarray(fed),
        lambda r: np.clip(threshold_cdf(1.0, np.maximum(r, 0.0)) / f_max, 0.0, 1.0),
        alpha=0.01, name="single-dormant jump law"))
    return reports, (f"single-dormant ensemble: {len(fed)}/{n} jumped",)


# ---------------------------------------------------------------------------
# 5. the two threshold samplers agree in law, through one solver


_C5_CFG = SolverConfig(dx=0.02, dt=4e-3, n_snapshots=0, pad_left=1.0,
                       pad_right=0.1)
_C5_PILES = ((0.1, 0.3), (0.24, 0.45))


def _crit_sampler_equivalence():
    x1 = GridDensity.uniform(-0.5, 0.0, 0.5, _C5_CFG.dx)
    piles = AtomicMeasure([p for p, _ in _C5_PILES], [m for _, m in _C5_PILES])
    horizon, n = 1.2, 10_000
    taus = {}
    for label, seed in (("space", 5001), ("hazard", 5002)):
        t = np.full((n, 2), math.inf)
        for k in range(n):
            rng = replica_rng(seed, k)
            if label == "space":
                ws = [sample_wake_threshold(float(x), float(u))
                      for x, u in zip(piles.masses, _uniform_open(rng, 2))]
                res = simulate_space_driven(x1, piles, ws, horizon, _C5_CFG)
            else:
                res = simulate_hazard_driven(x1, piles, rng, horizon, _C5_CFG)
            for ev in res.events:
                t[k, ev.index] = ev.time
        taus[label] = t
    alpha = bonferroni(0.01, 2)
    reports = [ks_two_sample(taus["space"][:, j], taus["hazard"][:, j],
                             alpha=alpha, name=f"wake time marginal pile {j + 1}")
               for j in range(2)]
    notes = tuple(
        f"pile {j + 1} wake fraction: space "
        f"{np.isfinite(taus['space'][:, j]).mean():.4f} / hazard "
        f"{np.isfinite(taus['hazard'][:, j]).mean():.4f}" for j in range(2))
    return reports, notes


# ---------------------------------------------------------------------------
# 6. conservation along simulated paths


def _crit_conservation():
    cfg = SolverConfig(dx=0.01, dt=1e-3, n_snapshots=24, pad_left=1.0,
                       pad_right=0.2)
    x1 = GridDensity.uniform(-0.5, 0.0, 0.5, cfg.dx)
    piles = discretize_density(GridDensity.uniform(0.0, 1.0, 1.0, 0.0125), 0.05)
    horizon, n = 1.2, 150
    worst = 0.0
    for k in range(n):
        rng = replica_rng(6001, k)
        ws = [sample_wake_threshold(float(x), float(u))
              for x, u in zip(piles.masses, _uniform_open(rng, len(piles.positions)))]
        for res in (simulate_space_driven(x1, piles, ws, horizon, cfg),
                    simulate_hazard_driven(x1, piles, replica_rng(6002, k),
                                           horizon, cfg)):
            for row in res.snapshots:
                worst = max(worst, abs(row.total_mass - res.initial_mass)
                            / res.initial_mass)
    report = _check("total mass at every snapshot", worst <= 1e-5,
                    statistic=worst, threshold=1e-5, n=2 * n)
    return [report], (f"worst relative defect {worst:.3e} over {2 * n} paths",)


# ---------------------------------------------------------------------------
# 7. stall law and mark pattern, end to end


_C7_ETA = 0.02
_C7_S = 0.5
_C7_RECTS = ((0.53, 0.89, 0.70, 1.00), (0.61, 0.99, 0.70, 1.10),
             (0.77, 0.99, 0.85, 1.25))


def _crit_end_to_end():
    n = 10_000
    cfg = SolverConfig(dx=0.02, dt=4e-3, n_snapshots=0, pad_left=0.6,
                       pad_right=0.1, grow_dt=True, run_to_horizon=False)
    x1 = GridDensity.uniform(-0.5, 0.0, _C7_S, cfg.dx)
    mu = GridDensity.uniform(0.0, 1.0, 1.0, 0.005)
    piles = discretize_density(mu, _C7_ETA)
    n_piles = len(piles.positions)

    u_sim = np.empty(n)
    counts = np.zeros((n, len(_C7_RECTS)), dtype=int)
    full = np.zeros(n, dtype=bool)
    for k in range(n):
        rng = replica_rng(7001, k)
        ws = [sample_wake_threshold(float(x), float(u))
              for x, u in zip(piles.masses, _uniform_open(rng, n_piles))]
        res = simulate_space_driven(x1, piles, ws, math.inf, cfg)
        u_sim[k] = res.ustar
        full[k] = res.woke_all
        if res.woke_all:
            pattern = extract_L(res.events, piles)
            for r, (z_lo, z_hi, s_lo, s_hi) in enumerate(_C7_RECTS):
                counts[k, r] = count_in_rectangle(pattern, z_lo, z_hi, s_lo, s_hi)

    # independent route: continuum scan of the truncated Poisson pattern,
    # rounded up to the block lattice (the unique monotone coupling)
    u_scan = np.empty(n)
    for k in range(n):
        j = sample_J(mu, 0.01, replica_rng(7002, k))
        u = ustar_from_J(j, _C7_S, mu)
        u_scan[k] = _C7_ETA * max(1, math.ceil(u / _C7_ETA - 1e-9))
    reports = [ks_two_sample(u_sim, u_scan, alpha=0.01,
                             name="stall position: simulation vs pattern scan")]

    n_full = int(full.sum())
    alpha = bonferroni(0.01, len(_C7_RECTS))
    for r, (z_lo, z_hi, s_lo, s_hi) in enumerate(_C7_RECTS):
        mean = (z_hi - z_lo) * (1.0 / s_lo - 1.0 / s_hi)
        reports.append(poisson_count_test(
            counts[full, r], mean, alpha=alpha,
            name=f"mark counts in [{z_lo},{z_hi}]x[{s_lo},{s_hi})"))
    notes = (f"fully woken replicas: {n_full}/{n} "
             f"(expected {n / 3:.0f})",)
    return reports, notes


# ---------------------------------------------------------------------------
# 8. block pattern couples exactly to the point pattern


def _crit_coupling():
    etas = (0.05, 0.02, 0.01)
    s_levels = (0.12, 0.30)
    r_min, n = 0.05, 100
    mu = GridDensity.uniform(0.0, 1.0, 1.0, 0.002)
    fine = [e for e in etas if e <= 0.01]
    cells = admissible_cells = violations = 0
    for k in range(n):
        j = sample_J(mu, r_min, replica_rng(8001, k))
        rects = [_gap_rectangle(j, s) + (s,) for s in s_levels]
        report = coupling_report_for_pattern(j, mu, etas, rects)
        for row in report.rows:
            for ie, eta in enumerate(etas):
                if eta not in fine:
                    continue
                cells += 1
                if row.admissible[ie]:
                    admissible_cells += 1
                    if not row.exact[ie]:
                        violations += 1
    frac = admissible_cells / cells if cells else 0.0
    reports = [
        _check("admissible fine-width cells count exactly", violations == 0,
               statistic=violations, n=cells),
        _check("admissible fraction at fine widths >= 2/3", frac >= 2 / 3,
               statistic=frac, threshold=2 / 3, n=cells),
    ]
    return reports, (f"{admissible_cells}/{cells} fine cells admissible",)


def _gap_rectangle(j, s: float) -> tuple:
    """Rectangle z-edges at the two largest gaps between relevant points."""
    zs = np.sort(np.concatenate([[0.0], j.zs[j.rs >= s], [1.0]]))
    gaps = np.diff(zs)
    if gaps.size < 2:
        return (0.25, 0.75)
    order = np.argsort(gaps)[-2:]
    edges = sorted(float(zs[i] + 0.5 * gaps[i]) for i in order)
    if edges[1] - edges[0] < 1e-6:
        return (0.25, 0.75)
    return (edges[0], edges[1])


# ---------------------------------------------------------------------------
# 9. closed-form wake threshold vs sequential bookkeeping


def _crit_threshold_oracle():
    rng = replica_rng(9001, 0)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 61))
        xs = np.where(rng.random(n) < 0.15, 0.0,
                      np.exp(rng.normal(-1.0, 1.2, n)))
        u = _uniform_open(rng, n)
        ws = np.exp(rng.normal(0.0, 1.5, n)) * u / (1.0 - u)
        if n >= 3 and rng.random() < 0.3:
            ws[n // 2] = ws[0]  # exact ties must not disturb the bookkeeping
        closed = wake_threshold(ws, xs)
        need, have = -math.inf, 0.0
        for w, x in zip(ws, xs):
            short = float(w) - have
            if short > need:
                need = short
            have += float(x)
        if closed != need:
            bad += 1
    return [_check("closed form equals sequential bookkeeping", bad == 0,
                   statistic=bad, n=1000)], ()


# ---------------------------------------------------------------------------
# 10. predicted stall position vs simulated stall position


def _crit_stall_agreement():
    cfg = SolverConfig(dx=0.05, dt=2e-3, n_snapshots=0, pad_left=0.5,
                       pad_right=0.1, grow_dt=True, run_to_horizon=False)
    rng = replica_rng(10001, 0)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        slots = np.sort(rng.choice(np.arange(1, 41), size=n, replace=False))
        piles = AtomicMeasure(slots * cfg.dx, np.exp(rng.normal(-1.5, 1.0, n)))
        x1_mass = float(np.exp(rng.normal(-0.5, 0.7)))
        x1 = GridDensity.uniform(-0.5, 0.0, x1_mass, cfg.dx)
        ws = [sample_wake_threshold(float(x), float(u))
              for x, u in zip(piles.masses, _uniform_open(rng, n))]
        res = simulate_space_driven(x1, piles, ws, math.inf, cfg)
        if res.ustar != compute_ustar(ws, piles, x1_mass):
            bad += 1
    return [_check("simulated stall equals predicted stall", bad == 0,
                   statistic=bad, n=100)], ()


# ---------------------------------------------------------------------------
# 11. scarce-threshold run probability against the analytic bound


def _crit_run_probability():
    f = GridDensity.uniform(0.0, 1.0, 4.0, 0.002)
    a, n_rep = 0.095, 4000

    # delta solves delta = x2low/(12 log(12/x2low)) with x2low read off f
    delta = 0.05
    for _ in range(6):
        xs = np.linspace(a, 1.0 - a, 4001)
        masses = np.asarray(f.cumulative(xs + 0.5 * delta)) \
            - np.asarray(f.cumulative(xs))
        x2low = float(masses.min()) / delta
        delta_new = x2low / (12.0 * math.log(12.0 / x2low))
        if abs(delta_new - delta) < 1e-13:
            break
        delta = delta_new
    bound = math.exp(-x2low / (3.0 * delta))
    level = delta * delta
    r_min = 0.45 * level

    reports, notes = [], [f"delta={delta:.6f} level={level:.6f} bound={bound:.3e}"]
    for eta in (0.01, 0.005):
        j_lo = math.ceil(a / eta)
        j_hi = math.ceil((1.0 - a) / eta)
        win = math.ceil(delta / eta)
        hits = 0
        for k in range(n_rep):
            j = sample_J(f, r_min, replica_rng(11001, k))
            w, _ = build_W_from_J(j, f, eta)
            if w.size < j_hi + win:
                w = np.concatenate([w, np.zeros(j_hi + win - w.size)])
            small = np.concatenate([[0.0], np.cumsum(w < level)])
            if np.any(small[j_lo + win: j_hi + win + 1]
                      - small[j_lo: j_hi + 1] == win):
                hits += 1
        p_hat = hits / n_rep
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_rep)
        reports.append(_check(f"run probability at eta={eta}",
                              p_hat <= bound + 3.0 * se, statistic=p_hat,
                              threshold=bound, n=n_rep, hits=hits))
        notes.append(f"eta={eta}: {hits}/{n_rep} runs observed")
    return reports, tuple(notes)


# ---------------------------------------------------------------------------
# 12. pile pickups are the only upward jumps and stay below the density cap


def _crit_pickup_bound():
    x2 = GridDensity.from_function(lambda z: 2.0 * z, 0.0, 1.0, 0.002)
    sup_density = 2.0
    cfg_base = dict(dx=0.01, dt=1e-3, n_snapshots=60, pad_left=0.8,
                    pad_right=0.1)
    x1 = GridDensity.uniform(-0.5, 0.0, 0.5, 0.01)
    reports = []
    advances = 0
    for eta in (0.1, 0.05, 0.02):
        piles = discretize_density(x2, eta)
        mass_at = {float(z): float(m)
                   for z, m in zip(piles.positions, piles.masses)}
        cap = sup_density * eta
        exact_ok = True
        bound_ok = True
        for k in range(25):
            res = simulate_hazard_driven(x1, piles, replica_rng(12001, k), 1.5,
                                         SolverConfig(**cfg_base))
            prev = None
            for row in res.snapshots:
                if prev is not None and row.ell > prev.ell and row.y > 0.0:
                    advances += 1
                    if row.y != mass_at[row.ell]:
                        exact_ok = False
                    if row.y > cap:
                        bound_ok = False
                prev = row
        reports.append(_check(f"pickup equals pile mass at eta={eta}", exact_ok))
        reports.append(_check(f"pickup bounded by density cap at eta={eta}",
                              bound_ok, threshold=cap))
    reports.append(_check("barrier advances observed", advances > 0,
                          statistic=advances))
    return reports, (f"{advances} barrier advances checked",)


# ---------------------------------------------------------------------------
# 13. command line determinism across runs and worker counts


def _crit_cli_determinism():
    import json
    import tempfile
    from pathlib import Path

    from .cli import main

    flags = ["simulate", "--eta", "0.1", "--seed", "42", "--replicas", "6",
             "--horizon", "0.5", "--snapshots", "5"]
    payloads = []
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, threads in enumerate((1, 3, 1)):
            out = Path(tmp) / f"o{i}"
            code = main(flags + ["--out-dir", str(out), "--threads", str(threads)])
            if code != 0:
                return [_check("simulate exits 0", False, statistic=code)], ()
            run_dir = next(out.iterdir())
            # the manifest echoes the output destination, which differs by
            # construction here; every data artifact must match bytewise
            payloads.append({p.name: p.read_bytes()
                             for p in sorted(run_dir.iterdir())
                             if p.is_file() and p.name != "manifest.json"})
            manifest = json.loads((run_dir / "manifest.json").read_text())
            digests.append((manifest["config_sha256"], manifest["run_id"]))
    same = all(p == payloads[0] for p in payloads[1:])
    names = sorted(payloads[0])
    reports = [
        _check("event log and artifacts byte-identical", same, n=len(payloads)),
        _check("event log present", "events.jsonl" in names),
        _check("run identity stable across reruns",
               all(d == digests[0] for d in digests[1:]), n=len(digests)),
    ]
    return reports, (f"compared files: {', '.join(names)}",)


CRITERIA = (
    Criterion(1, "wake-threshold-law",
              "sampler matches the r/(x+r) distribution with correct median",
              _crit_wake_law),
    Criterion(2, "colony-martingale",
              "dormant mass of one colony is a martingale at all checkpoints",
              _crit_colony_martingale),
    Criterion(3, "heat-survival",
              "killed heat flow reproduces the reflection-principle survival",
              _crit_heat_survival),
    Criterion(4, "chain-construction",
              "finite chain jumps at the leftmost dormant site with the right laws",
              _crit_lattice_chain),
    Criterion(5, "sampler-equivalence",
              "u/(1-u) and expm1(E) threshold samplers agree on wake times",
              _crit_sampler_equivalence),
    Criterion(6, "path-conservation",
              "total mass is conserved along every simulated path",
              _crit_conservation),
    Criterion(7, "stall-and-marks",
              "stall law matches the pattern scan; mark counts are Poisson",
              _crit_end_to_end),
    Criterion(8, "block-coupling",
              "block thresholds count admissible rectangles exactly",
              _crit_coupling),
    Criterion(9, "threshold-oracle",
              "closed-form wake threshold equals sequential bookkeeping",
              _crit_threshold_oracle),
    Criterion(10, "stall-prediction",
              "simulated stall position equals the predicted one bitwise",
              _crit_stall_agreement),
    Criterion(11, "run-probability",
              "probability of a long small-threshold run obeys the bound",
              _crit_run_probability),
    Criterion(12, "pickup-bound",
              "upward jumps equal pile pickups and respect the density cap",
              _crit_pickup_bound),
    Criterion(13, "cli-determinism",
              "fixed seed reproduces artifacts bytewise at any worker count",
              _crit_cli_determinism),
)


def run_suite(only=None, progress=None) -> list:
    """Run the battery (or the criteria listed in ``only``) in order."""
    wanted = set(only) if only else None
    if wanted is not None:
        unknown = wanted - {c.number for c in CRITERIA}
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
    results = []
    for crit in CRITERIA:
        if wanted is not None and crit.number not in wanted:
            continue
        res = crit.run()
        results.append(res)
        if progress is not None:
            progress(res.line())
    return results
