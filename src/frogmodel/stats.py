"""Statistical verification helpers: KS tests, drift z-tests, Poisson counts.

Every function is deterministic given its input samples and returns a
:class:`TestReport`, so the same battery can run under pytest and behind the
``verify`` CLI subcommand.  P-values use the asymptotic Kolmogorov
distribution for the KS tests and the chi-square tail for count tests (both
from ``scipy.special``); drift checks report a z-score instead of a p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, kolmogorov

__all__ = [
    "TestReport",
    "ks_one_sample",
    "ks_two_sample",
    "martingale_drift",
    "poisson_count_test",
    "bonferroni",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check."""

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    statistic: float
    p_value: float | None
    n: int
    passed: bool
    threshold: float
    kind: str = "ks"
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n": self.n,
            "passed": bool(self.passed),
            "threshold": self.threshold,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        pv = f"p={self.p_value:.4g}" if self.p_value is not None else f"stat={self.statistic:.3f}"
        return f"[{tag}] {self.name}: {pv} (n={self.n})"


def _effective_lambda(d: float, en: float) -> float:
    # small-sample correction of the asymptotic argument (Stephens)
    return d * (math.sqrt(en) + 0.12 + 0.11 / math.sqrt(en))


def ks_one_sample(samples, cdf, alpha: float = 0.01, name: str = "ks one-sample") -> TestReport:
    """One-sample KS test of ``samples`` against a target CDF callable.

    Needs at least 10 samples.  Below n = 1000 the asymptotic p-value is
    flagged as approximate in the report detail.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    if n < 10:
        raise ValueError("need at least 10 samples")
    f = np.asarray(cdf(x), dtype=float)
    if np.any(f < -1e-12) or np.any(f > 1 + 1e-12):
        raise ValueError("cdf values must lie in [0, 1]")
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    p = float(kolmogorov(_effective_lambda(d, n)))
    detail = {} if n >= 1000 else {"p_approximate": True}
    return TestReport(name, d, p, n, p > alpha, alpha, kind="ks1", detail=detail)


def ks_two_sample(a, b, alpha: float = 0.01, name: str = "ks two-sample") -> TestReport:
    """Two-sample KS test; values of +inf are allowed (consistent censoring)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    if n < 10 or m < 10:
        raise ValueError("need at least 10 samples on each side")
    grid = np.concatenate([a[np.isfinite(a)], b[np.isfinite(b)]])
    grid = np.unique(grid)
    fa = np.searchsorted(a, grid, side="right") / n
    fb = np.searchsorted(b, grid, side="right") / m
    d = float(np.max(np.abs(fa - fb))) if grid.size else 0.0
    en = n * m / (n + m)
    p = float(kolmogorov(_effective_lambda(d, en)))
    detail = {"n1": n, "n2": m}
    if en < 1000:
        # the asymptotic law is only trusted from effective n = 1000 up
        detail["p_approximate"] = True
    return TestReport(name, d, p, n + m, p > alpha, alpha, kind="ks2", detail=detail)


def martingale_drift(values, reference: float, bound: float = 3.0, name: str = "drift") -> TestReport:
    """Z-test of the sample mean of replica values against a known reference."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise ValueError("need at least two replicas")
    sd = v.std(ddof=1)
    if sd == 0.0:
        z = 0.0 if v.mean() == reference else math.inf
    else:
        z = (v.mean() - reference) / (sd / math.sqrt(n))
    return TestReport(name, float(z), None, n, abs(z) <= bound, bound, kind="drift",
                      detail={"mean": float(v.mean()), "reference": reference})


def poisson_count_test(counts, mean: float, alpha: float = 0.01, name: str = "poisson counts") -> TestReport:
    """Chi-square goodness of fit of integer counts against Poisson(mean).

    Count values are binned at the integers and pooled from the right (and
    left) until every expected bin content is >= 5; dof = bins - 1.
    """
    c = np.asarray(counts, dtype=int)
    n = c.size
    if n == 0:
        raise ValueError("empty sample")
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if mean == 0.0:
        ok = bool(np.all(c == 0))
        return TestReport(name, 0.0 if ok else math.inf, 1.0 if ok else 0.0, n, ok, alpha, kind="chi2")
    kmax = int(max(c.max(), mean) + 10 * math.sqrt(mean) + 10)
    ks = np.arange(0, kmax + 1)
    # Poisson pmf via logs to stay stable for large means
    logpmf = ks * math.log(mean) - mean - np.array([math.lgamma(k + 1) for k in ks])
    pmf = np.exp(logpmf)
    pmf[-1] += max(0.0, 1.0 - pmf.sum())  # fold the far tail into the last cell
    expected = n * pmf
    observed = np.bincount(np.minimum(c, kmax), minlength=kmax + 1).astype(float)

    # pool adjacent cells left to right until expected >= 5; tail folds into the last bin
    def pool(exp, obs):
        e, o = [], []
        acc_e = acc_o = 0.0
        for ev, ov in zip(exp, obs):
            acc_e += ev
            acc_o += ov
            if acc_e >= 5.0:
                e.append(acc_e)
                o.append(acc_o)
                acc_e = acc_o = 0.0
        if e:
            e[-1] += acc_e
            o[-1] += acc_o
        else:
            e, o = [acc_e], [acc_o]
        return np.array(e), np.array(o)

    e, o = pool(expected, observed)
    if e.size < 2:
        # not enough resolution to test shape; fall back to a mean z-check
        z = (c.mean() - mean) / math.sqrt(mean / n)
        return TestReport(name, float(z), None, n, abs(z) <= 3.0, 3.0, kind="chi2",
                          detail={"note": "pooled to one bin; z-test on mean"})
    stat = float(np.sum((o - e) ** 2 / e))
    dof = e.size - 1
    p = float(chdtrc(dof, stat))
    return TestReport(name, stat, p, n, p > alpha, alpha, kind="chi2",
                      detail={"dof": dof, "bins": int(e.size)})


def bonferroni(alpha: float, m: int) -> float:
    """Per-test level for a family of m tests at family level alpha."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return alpha / m
