"""Calibration and power checks for the verification statistics."""

import math

import numpy as np
import pytest

from frogmodel.stats import (
    TestReport,
    bonferroni,
    ks_one_sample,
    ks_two_sample,
    martingale_drift,
    poisson_count_test,
)


def test_ks_one_sample_exact_statistic():
    # midpoints of ten equal cells vs the identity cdf: D = 1/20 on both sides
    rep = ks_one_sample(np.linspace(0.05, 0.95, 10), lambda x: x)
    assert rep.statistic == pytest.approx(0.05)
    assert rep.kind == "ks1"
    assert rep.n == 10
    assert rep.detail.get("p_approximate") is True


def test_ks_sample_size_preconditions():
    with pytest.raises(ValueError):
        ks_one_sample([], lambda x: x)
    with pytest.raises(ValueError):
        ks_one_sample([0.5] * 9, lambda x: x)
    with pytest.raises(ValueError):
        ks_two_sample(np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 50))
    big = ks_one_sample(np.linspace(0.0, 1.0, 2000), lambda x: np.clip(x, 0, 1))
    assert "p_approximate" not in big.detail


def test_ks_one_sample_null_calibration():
    rng = np.random.default_rng(11)
    passed = 0
    pvals = []
    for _ in range(200):
        rep = ks_one_sample(rng.random(2000), lambda x: np.clip(x, 0, 1))
        passed += rep.passed
        pvals.append(rep.p_value)
    assert passed >= 194  # alpha = 0.01, expect ~2 failures in 200
    # p-values should be roughly uniform under the null
    pv = np.sort(pvals)
    ecdf_dev = np.max(np.abs(pv - (np.arange(1, 201) - 0.5) / 200))
    assert ecdf_dev < 0.10


def test_ks_one_sample_power():
    rng = np.random.default_rng(7)
    u = rng.random(2000) ** 1.4
    rep = ks_one_sample(u, lambda x: np.clip(x, 0, 1))
    assert not rep.passed
    assert rep.p_value < 1e-6


def test_ks_two_sample_extreme_statistics():
    v = np.linspace(0.0, 1.0, 12)
    same = ks_two_sample(v, v)
    assert same.statistic == 0.0 and same.passed
    apart = ks_two_sample(v, v + 5.0)
    assert apart.statistic == 1.0 and not apart.passed
    assert apart.detail["n1"] == 12
    assert apart.detail["p_approximate"] is True


def test_ks_two_sample_null_calibration():
    rng = np.random.default_rng(23)
    passed = sum(
        ks_two_sample(rng.random(1500), rng.random(1500)).passed for _ in range(150)
    )
    assert passed >= 144


def test_ks_two_sample_power():
    rng = np.random.default_rng(5)
    a = rng.random(2000)
    b = rng.random(2000) ** 1.4
    assert not ks_two_sample(a, b).passed


def test_ks_two_sample_with_censored_values():
    # +inf entries model right-censored observations; consistent rates agree
    rng = np.random.default_rng(41)
    a = rng.random(3000)
    b = rng.random(3000)
    a[a > 0.7] = np.inf
    b[b > 0.7] = np.inf
    assert ks_two_sample(a, b).passed
    # mismatched censoring is a distribution difference and must be caught
    c = rng.random(3000)
    c[c > 0.55] = np.inf
    rep = ks_two_sample(a, c)
    assert rep.statistic > 0.10
    assert not rep.passed


def test_martingale_drift_basics():
    rng = np.random.default_rng(3)
    ok = martingale_drift(rng.normal(0.0, 1.0, 1000), 0.0)
    assert ok.passed and abs(ok.statistic) <= 3
    bad = martingale_drift(rng.normal(0.5, 1.0, 1000), 0.0)
    assert not bad.passed and bad.statistic > 10
    const = martingale_drift([2.0, 2.0, 2.0], 2.0)
    assert const.passed and const.statistic == 0.0
    off = martingale_drift([2.0, 2.0, 2.0], 1.0)
    assert not off.passed and math.isinf(off.statistic)
    with pytest.raises(ValueError):
        martingale_drift([1.0], 1.0)


def test_poisson_counts_null_and_power():
    rng = np.random.default_rng(17)
    good = poisson_count_test(rng.poisson(3.3, 2000), 3.3)
    assert good.passed and good.detail["bins"] >= 5
    bad = poisson_count_test(rng.poisson(3.3, 2000), 4.0)
    assert not bad.passed
    # overdispersed counts at the right mean must also fail
    mix = np.concatenate([rng.poisson(1.0, 1000), rng.poisson(5.6, 1000)])
    assert not poisson_count_test(mix, 3.3).passed


def test_poisson_counts_degenerate_cases():
    assert poisson_count_test(np.zeros(50, dtype=int), 0.0).passed
    assert not poisson_count_test([0, 0, 1], 0.0).passed
    # too little data to resolve shape: falls back to a mean check
    rep = poisson_count_test([0, 0, 1, 0], 0.2)
    assert rep.passed and "note" in rep.detail
    with pytest.raises(ValueError):
        poisson_count_test([], 1.0)
    with pytest.raises(ValueError):
        poisson_count_test([1, 2], -1.0)


def test_report_formatting():
    rep = TestReport("demo", 0.5, 0.2, 10, True, 0.01)
    assert str(rep) == "[PASS] demo: p=0.2 (n=10)"
    d = rep.to_dict()
    assert d["passed"] is True and d["name"] == "demo"
    drift = martingale_drift([0.0, 1.0, -1.0, 0.5], 0.0, name="drift demo")
    assert "stat=" in str(drift)


def test_bonferroni():
    assert bonferroni(0.05, 10) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        bonferroni(0.05, 0)
