"""Closed-form and quadrature quantities of the intersection-graph model.

For two vertices at distance t, the number of groups they share is
Poisson with mean mu * f(t), so they are connected with probability
1 - exp(-mu f(t)).  The expected degree of a typical vertex follows by
integrating that probability against the vertex intensity, by one
8-node Gauss-Legendre rule over panels: the profile's own nodes for a
tabulated f, equal panels for a closed form.  It is bounded above by
lambda * mu * ||g||^2 and bracketed through the level radii of f.  A
compound-Poisson sampler dominating the true degree distribution and the
branching diagnostic lambda * mu * ||g||^2 < 1 round things out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ball_volume, sphere_surface
from .kernels import ConvolutionProfile, eval_profile, radius_level

# the one 8-node Gauss-Legendre rule of the expected-degree integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# the connection probability where the expected-degree integral is cut off
_DEGREE_CUTOFF = 1e-6
# equal panels on [0, cutoff] for closed-form profiles; at 512 the lens
# integral (r <= 2.5, mu <= 20) lies within 3e-10 of adaptive quadrature
_CLOSED_FORM_PANELS = 512


def connection_probability(profile: ConvolutionProfile, mu: float, t):
    """Probability that two vertices at distance t share at least one group."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    f_val = eval_profile(profile, t)
    return -np.expm1(-mu * f_val) if isinstance(f_val, np.ndarray) else -math.expm1(-mu * f_val)


def expected_degree(profile: ConvolutionProfile, lam: float, mu: float) -> float:
    """Expected vertex degree lambda * integral of (1 - e^{-mu f}) over R^d.

    Radial reduction: lambda * S_{d-1} * int_0^T (1 - e^{-mu f(t)}) t^{d-1} dt,
    cut off at the radius where the connection probability falls to
    _DEGREE_CUTOFF (capped at the profile's tabulated range).
    """
    if lam < 0 or mu < 0:
        raise ValueError("intensities must be >= 0")
    if lam == 0 or mu == 0:
        return 0.0
    # radius where 1 - e^{-mu f} falls to the cutoff; 0 when f(0) is already below
    cutoff = radius_level(profile, -math.log1p(-_DEGREE_CUTOFF) / mu)
    if profile.kind == "tabulated":
        # the interpolant's nodes below the cutoff, closed by the cutoff itself
        edges = np.append(profile.radii[profile.radii < cutoff], cutoff)
    else:
        edges = np.linspace(0.0, cutoff, _CLOSED_FORM_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = edges[:-1, None] + half * (1.0 + _GL_NODES)
    probability = -np.expm1(-mu * eval_profile(profile, x))
    integral = float(np.sum(half * _GL_WEIGHTS * probability * x ** (profile.d - 1)))
    return lam * sphere_surface(profile.d) * integral


@dataclass(frozen=True)
class DegreeBounds:
    """Bounds on the expected degree.

    upper_simple = lambda * mu * ||g||^2 (linearizing the exponential);
    bracket_low  = lambda * ball(r_{1/mu}) * (1 - 1/e), with r_{1/mu} the
    radius where f crosses 1/mu; bracket_high = lambda * ball(r_0) with
    r_0 the support radius of f, infinite for unbounded kernels.
    """

    upper_simple: float
    bracket_low: float
    bracket_high: float

    def contains(self, value: float) -> bool:
        return self.bracket_low <= value <= min(self.upper_simple, self.bracket_high) + 1e-12


def degree_bounds(profile: ConvolutionProfile, lam: float, mu: float) -> DegreeBounds:
    if lam < 0 or mu < 0:
        raise ValueError("intensities must be >= 0")
    d = profile.d
    upper = lam * mu * profile.norm_g**2
    r_low = radius_level(profile, 1.0 / mu) if mu > 0 else 0.0
    low = lam * ball_volume(d, r_low) * (1.0 - math.exp(-1.0))
    r_0 = 2.0 * profile.kernel_support
    high = lam * ball_volume(d, r_0) if math.isfinite(r_0) else math.inf
    return DegreeBounds(upper_simple=upper, bracket_low=low, bracket_high=high)


@dataclass(frozen=True)
class OffspringMean:
    """Branching-process bound parameter lambda * mu * ||g||^2.

    Below 1 the origin component is almost surely finite; at or above 1
    the diagnostic draws no conclusion.
    """

    value: float
    subcritical: bool


def offspring_mean(lam: float, mu: float, norm_g: float) -> OffspringMean:
    if lam < 0 or mu < 0 or norm_g < 0:
        raise ValueError("arguments must be >= 0")
    value = lam * mu * norm_g**2
    return OffspringMean(value=value, subcritical=bool(value < 1.0))


def sample_dominating_degree(lam: float, mu: float, norm_g: float, rng: np.random.Generator, size=None):
    """Compound-Poisson sample dominating the typical vertex degree.

    Draws N ~ Poisson(mu ||g||) groups, then the total of N i.i.d.
    Poisson(lambda ||g||) group sizes; the sum collapses to a single
    Poisson(N * lambda ||g||) draw.
    """
    if lam < 0 or mu < 0 or norm_g < 0:
        raise ValueError("arguments must be >= 0")
    n_groups = rng.poisson(mu * norm_g, size=size)
    total = rng.poisson(n_groups * (lam * norm_g))
    return total if size is not None else int(total)


def isolated_probability_bound(mu: float, norm_g: float) -> float:
    """P(origin joins no group) = e^{-mu ||g||}, a lower bound on P(D = 0)."""
    if mu < 0 or norm_g < 0:
        raise ValueError("arguments must be >= 0")
    return math.exp(-mu * norm_g)

