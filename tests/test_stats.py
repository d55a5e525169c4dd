import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from grig.stats import (
    chi2_quantile,
    chi2_sf,
    mean_stderr,
    normal_quantile,
    poisson_dispersion_test,
    wilson_interval,
    zscore_verdict,
)


def test_normal_quantile_reference_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)
    assert normal_quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        normal_quantile(0.0)


def test_chi2_quantile_matches_scipy_distribution():
    for p, dof in [(0.005, 29), (0.995, 29), (0.5, 100)]:
        assert chi2_quantile(p, dof) == pytest.approx(sps.chi2.ppf(p, dof), rel=1e-10)


@pytest.mark.parametrize("dof", range(1, 13))
def test_chi2_sf_matches_the_regularized_gamma_tail(dof):
    # Q(dof / 2, q / 2) from 1e-6 into the far tail, where it reaches ~1e-64
    q = np.concatenate([[0.0], np.logspace(-6, math.log10(300.0), 240)])
    expected = special.gammaincc(dof / 2.0, q / 2.0)
    tail = chi2_sf(q, dof)
    np.testing.assert_allclose(tail, expected, rtol=1e-13, atol=0.0)
    # element-wise: an array gives the bits of scalar calls
    assert np.array_equal(tail, [chi2_sf(float(x), dof) for x in q])
    assert isinstance(chi2_sf(1.0, dof), float)
    assert chi2_sf(0.0, dof) == 1.0 and chi2_sf(math.inf, dof) == 0.0
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


# from 1e-6 to 1 - 1e-6; the lower levels are summed as the lower tail
CHI2_LEVELS = (1e-6, 1e-4, 0.005, 0.1, 0.4999, 0.5, 0.7, 0.995, 0.9999, 1.0 - 1e-6)


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 7, 10, 29, 100, 999, 1000, 10**4, 10**5 - 1, 10**5])
def test_chi2_quantile_matches_scipy_over_the_grid(dof):
    for p in CHI2_LEVELS:
        assert chi2_quantile(p, dof) == pytest.approx(sps.chi2.ppf(p, dof), rel=1e-11), p


def test_normal_quantile_matches_ndtri():
    tails = np.logspace(-12, math.log10(0.499), 400)
    for p in np.concatenate([tails, 1.0 - tails, [0.975, 0.995]]):
        assert normal_quantile(p) == pytest.approx(special.ndtri(p), rel=1e-14, abs=0.0), p


def test_wilson_interval_reference():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.404, abs=5e-4)
    assert hi == pytest.approx(0.596, abs=5e-4)


def test_wilson_interval_edge_cases():
    lo, _ = wilson_interval(0, 37, 0.99)
    assert lo == 0.0
    _, hi = wilson_interval(37, 37, 0.99)
    assert hi == 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0, 0.95)
    with pytest.raises(ValueError):
        wilson_interval(5, 3, 0.95)


def test_wilson_interval_contains_point_estimate():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 500))
        k = int(rng.integers(0, n + 1))
        lo, hi = wilson_interval(k, n, 0.95)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_coverage_calibration():
    # 99% interval should cover the truth in roughly 99% of replicates
    rng = np.random.default_rng(5)
    p, n, reps = 0.3, 200, 2000
    covered = 0
    ks = rng.binomial(n, p, size=reps)
    for k in ks:
        lo, hi = wilson_interval(int(k), n, 0.99)
        covered += lo <= p <= hi
    assert covered / reps > 0.975


def test_mean_stderr():
    res = mean_stderr([4.0, 4.0, 4.0])
    assert res.mean == 4.0
    assert res.stderr == 0.0
    res = mean_stderr([0.0, 2.0])
    assert res.mean == 1.0
    assert res.stderr == pytest.approx(1.0)  # stdev sqrt2 over sqrt2
    with pytest.raises(ValueError):
        mean_stderr([1.0])


def test_mean_stderr_clt_calibration():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(300):
        draws = rng.standard_normal(10_000)
        res = mean_stderr(draws)
        hits += abs(res.mean) <= 3.0 * res.stderr
    assert hits / 300 > 0.98


def test_dispersion_accepts_poisson():
    rng = np.random.default_rng(3)
    passes = 0
    for _ in range(200):
        verdict = poisson_dispersion_test(rng.poisson(5.0, size=1000), alpha=0.01)
        passes += verdict.passed is True
    assert passes / 200 > 0.97


def test_dispersion_rejects_constant():
    verdict = poisson_dispersion_test([4] * 50, alpha=0.01)
    assert verdict.passed is False
    assert verdict.statistic == 0.0


def test_dispersion_rejects_overdispersed_mixture():
    rng = np.random.default_rng(17)
    sample = np.concatenate([rng.poisson(1.0, 500), rng.poisson(30.0, 500)])
    verdict = poisson_dispersion_test(sample, alpha=0.01)
    assert verdict.passed is False


def test_dispersion_zero_mean_inconclusive():
    verdict = poisson_dispersion_test([0] * 100, alpha=0.01)
    assert verdict.passed is None


def test_dispersion_input_validation():
    with pytest.raises(ValueError):
        poisson_dispersion_test([1, 2, 3], alpha=0.01)  # too few samples
    with pytest.raises(ValueError):
        poisson_dispersion_test([0.5] * 40, alpha=0.01)  # not integers


def test_zscore_verdict():
    v = zscore_verdict("x", observed=1.2, expected=1.0, stderr=0.1, n=100)
    assert v.passed is True
    assert v.statistic == pytest.approx(2.0)
    v = zscore_verdict("x", observed=2.0, expected=1.0, stderr=0.1, n=100)
    assert v.passed is False
    # degenerate stderr: exact match required
    assert zscore_verdict("x", 1.0, 1.0, 0.0, 10).passed is True
    assert zscore_verdict("x", 1.1, 1.0, 0.0, 10).passed is False


def test_verdict_to_json_round_trip():
    v = zscore_verdict("demo", 1.0, 1.0, 0.5, 42)
    payload = v.to_json()
    assert payload["name"] == "demo"
    assert payload["sample_size"] == 42
    assert payload["passed"] is True
