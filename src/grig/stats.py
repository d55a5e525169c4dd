"""Small statistics kit backing the validation verdicts.

Everything here is deterministic given its inputs; randomness lives with
the callers. Quantile functions come from scipy.special (inverse normal
and chi-square CDFs), which exceeds the accuracy any of the 3-sigma or
99%-interval checks need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

# the chi-square approximation of the dispersion statistic needs this many samples
DISPERSION_MIN_SAMPLES = 30


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one statistical check.

    passed is True/False for a decided test and None when the data cannot
    decide (e.g. a dispersion test on an all-zero sample).
    """

    name: str
    statistic: float
    threshold: tuple[float, float]
    passed: bool | None
    sample_size: int
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": list(self.threshold),
            "passed": self.passed,
            "sample_size": self.sample_size,
            "detail": self.detail,
        }


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0 < p < 1:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    return float(special.ndtri(p))


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse chi-square CDF with dof degrees of freedom."""
    if not 0 < p < 1:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    # chdtri takes the upper-tail probability
    return float(special.chdtri(dof, 1.0 - p))


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Always contains the point estimate successes/trials and stays in [0, 1].
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = normal_quantile(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class MeanStderr:
    mean: float
    stderr: float
    n: int


def mean_stderr(samples) -> MeanStderr:
    """Sample mean and its standard error (ddof=1)."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 samples")
    return MeanStderr(
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)),
        n=int(arr.size),
    )


def poisson_dispersion_test(samples, alpha: float = 0.01, name: str = "poisson-dispersion") -> TestVerdict:
    """Two-sided index-of-dispersion test for Poisson samples.

    (n-1) * var / mean is approximately chi-square(n-1) under the Poisson
    null; the verdict compares it to the alpha/2 and 1-alpha/2 quantiles.
    A zero sample mean leaves the statistic undefined: passed=None.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < DISPERSION_MIN_SAMPLES:
        raise ValueError(f"need >= {DISPERSION_MIN_SAMPLES} samples, got {arr.size}")
    if np.any(arr < 0) or np.any(arr != np.round(arr)):
        raise ValueError("samples must be nonnegative integers")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = int(arr.size)
    mean = float(arr.mean())
    if mean == 0.0:
        return TestVerdict(
            name=name,
            statistic=math.nan,
            threshold=(math.nan, math.nan),
            passed=None,
            sample_size=n,
            detail={"reason": "zero mean, dispersion undefined"},
        )
    stat = (n - 1) * float(arr.var(ddof=1)) / mean
    lo = chi2_quantile(alpha / 2.0, n - 1)
    hi = chi2_quantile(1.0 - alpha / 2.0, n - 1)
    return TestVerdict(
        name=name,
        statistic=stat,
        threshold=(lo, hi),
        passed=bool(lo <= stat <= hi),
        sample_size=n,
        detail={"mean": mean, "variance": float(arr.var(ddof=1)), "alpha": alpha},
    )


def zscore_verdict(name: str, observed: float, expected: float, stderr: float, n: int, z_max: float = 3.0) -> TestVerdict:
    """Pass iff |observed - expected| <= z_max * stderr."""
    if stderr < 0:
        raise ValueError("stderr must be >= 0")
    z = math.inf if stderr == 0 and observed != expected else (
        0.0 if stderr == 0 else (observed - expected) / stderr
    )
    return TestVerdict(
        name=name,
        statistic=z,
        threshold=(-z_max, z_max),
        passed=bool(abs(z) <= z_max),
        sample_size=n,
        detail={"observed": observed, "expected": expected, "stderr": stderr},
    )
