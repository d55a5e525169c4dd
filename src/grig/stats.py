"""Small statistics kit backing the validation verdicts.

Everything here is deterministic given its inputs; randomness lives with
the callers.  Nothing here needs scipy.  The chi-square tail is a closed
form: for dof = 2k + 2h (h = 0 or 1/2) and x = q / 2,

    P(chi2_dof > q) = Q(dof / 2, x) = [h = 1/2] erfc(sqrt(x)) + sum_{i<k} w_i,
    P(chi2_dof <= q) = P(dof / 2, x) = sum_{i>=k} w_i,

with w_i = e^-x x^(i+h) / Gamma(i+h+1), a Poisson sum for even dof and a
half-integer one for odd dof.  The chi-square quantile bisects on it; the
normal quantile is the standard library's NormalDist.inv_cdf.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

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
    return NormalDist().inv_cdf(p)


def _bisect(below, lo, hi):
    """The least float in (lo, hi] where the monotone predicate below turns
    false, element-wise, for non-negative brackets with below(lo) true and
    below(hi) false.  Non-negative floats order as their int64 bit patterns,
    and 64 halvings close any gap between two patterns to one."""
    lo, hi = (np.asarray(x, dtype=float).view(np.int64) for x in (lo, hi))
    for _ in range(64):
        mid = lo + (hi - lo) // 2
        true = below(mid.view(float))
        lo, hi = np.where(true, mid, lo), np.where(true, hi, mid)
    return hi.view(float)


def _gamma_terms(x, h, lo, hi):
    """Sum of w_i = e^-x x^(i+h) / Gamma(i+h+1) over lo <= i < hi (hi may
    be inf), element-wise in finite x >= 0.

    The largest term in range, w_top, is taken in log space; the sum runs
    outward from it, up by the ratios x / (i+h) and down by (i+1+h) / x,
    so a large dof does not underflow.  Terms more than 10 sqrt(x) + 40
    steps from w_top fall below e^-50 of it and are left out.  Each side
    is summed in order, and an element's terms depend on its own x alone,
    so an array gives the bits of element-wise calls.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return np.zeros(x.shape)
    top = np.minimum(np.maximum(np.floor(x - h), lo), hi - 1.0)
    with np.errstate(divide="ignore"):
        # x^0 = 1 also at x = 0
        log_top = (top + h) * np.log(np.where(top + h > 0.0, x, 1.0)) - x
    log_top -= np.asarray(np.frompyfunc(math.lgamma, 1, 1)(top + (h + 1.0)), dtype=float)
    total = np.ones(x.shape)
    if hi - lo > 1.0:
        reach = np.ceil(10.0 * np.sqrt(x)) + 40.0
        n_up, n_down = np.minimum(reach, hi - 1.0 - top), np.minimum(reach, top - lo)
        steps = np.arange(1.0, max(n_up.max(initial=0.0), n_down.max(initial=0.0)) + 1.0)
        x_, top_ = x[..., None], top[..., None]
        # no step goes down from top = lo, where x = 0 lands
        ratios = (
            (x_ / (top_ + steps + h), n_up),
            ((top_ - steps + (1.0 + h)) / np.where(x_ > 0.0, x_, 1.0), n_down),
        )
        for ratio, count in ratios:
            ratio = np.where(steps <= count[..., None], ratio, 0.0)
            total += np.add.accumulate(np.multiply.accumulate(ratio, axis=-1), axis=-1)[..., -1]
    return np.exp(log_top) * total


def chi2_sf(q, dof: int):
    """P(chi2_dof > q) = Q(dof / 2, q / 2), element-wise in q >= 0 (inf
    included), in closed form: a float for a scalar q."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    # past the float range every term is 0; inf would make inf - inf
    x = np.minimum(0.5 * np.asarray(q, dtype=float), sys.float_info.max)
    k, odd = divmod(dof, 2)
    tail = _gamma_terms(x, 0.5 * odd, 0, k)
    if odd:
        tail += np.asarray(np.frompyfunc(math.erfc, 1, 1)(np.sqrt(x)), dtype=float)
    return float(tail) if tail.ndim == 0 else tail


@functools.lru_cache(maxsize=64)
def chi2_quantile(p: float, dof: int) -> float:
    """Inverse chi-square CDF with dof degrees of freedom: the least q whose
    lower tail reaches p, by bisection.  Below p = 1/2 the lower tail is
    summed directly (1 - Q would lose its digits to the cancellation), on
    [0, dof], since the median lies below the mean dof.  Above, the upper
    tail is compared with 1 - p, exact there; the bracket's top q has
    Q <= e^-1 (1 - p) by Laurent and Massart's bound
    P(chi2_dof >= dof + 2 sqrt(dof L) + 2 L) <= e^-L."""
    if not 0 < p < 1:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    k, odd = divmod(dof, 2)
    if p < 0.5:
        lower = _bisect(lambda q: _gamma_terms(0.5 * q, 0.5 * odd, k, math.inf) < p, 0.0, float(dof))
        return float(lower)
    level = 1.0 - p
    bound = 1.0 - math.log(level)
    top = dof + 2.0 * math.sqrt(dof * bound) + 2.0 * bound
    return float(_bisect(lambda q: chi2_sf(q, dof) > level, 0.0, top))


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
    # the interval contains phat in exact arithmetic; rounding may not
    return (max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half)))


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
