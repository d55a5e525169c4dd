"""Radial connection kernels and their self-convolution profiles.

A connection kernel g maps a separation distance to a membership
probability in [0, 1], is radially non-increasing, and has a finite,
positive L1 norm ``||g|| = integral of g over R^d``.  Four families are
supported:

==========  =============================================  ==============
Family      g(t)                                           support
==========  =============================================  ==============
boolean     1 if t < r else 0                              bounded (r)
gaussian    a * exp(-t^2 / (2 sigma^2))                    unbounded
powerlaw    a * min(1, t^(-d*alpha)),  alpha > 1           unbounded
tabulated   monotone linear interpolation of (radii, v)    bounded
==========  =============================================  ==============

Each family's radial mass (the integral of g inside a radius) has a
closed form.  The boolean and powerlaw inverses do too.  The gaussian
tail is ||g|| times a chi-square tail with d degrees of freedom, a finite
sum (stats.chi2_sf), and the tabulated mass is a polynomial on each
segment; both are inverted by bisection, the table's inside the one
segment found.

The self-convolution ``f = g * g`` drives every analytic quantity: the
number of groups shared by two vertices at distance t is Poisson with
mean ``mu * f(t)``.  Closed forms exist for the gaussian family (any d)
and the boolean family in d = 2 (disk lens area); everything else is
tabulated, with the achieved error bound recorded.  The tabulation, in
every dimension, is one panel Gauss-Legendre rule whose panels end on
every kink of the integrand, compared at n and 2n nodes per panel; for
d = 1 its theta-axis is the two points {0, pi}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import ConfigError, ConvergenceError
from .geometry import ball_volume, sphere_surface
from .serialize import write_csv
from .stats import _bisect, chi2_sf

_TAIL_SCALE = math.exp(-2.0)  # tail fraction defining the kernel's length scale
# (t, s) and (t, s, theta) nodes per quadrature tile; bounds the memory of one pass
_TILE_NODES = 1 << 15
# Gauss-Legendre nodes per panel at refinement level 0, compared with twice as many
_GAUSS_NODES = 8


@dataclass(frozen=True)
class BooleanKernel:
    """Indicator kernel: connect exactly within distance r."""

    r: float
    d: int = 2

    def __post_init__(self):
        _check_dim(self.d)
        if not self.r > 0:
            raise ValueError(f"boolean radius must be > 0, got {self.r}")


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian kernel a * exp(-t^2 / 2 sigma^2) with amplitude a in (0, 1]."""

    sigma: float
    amplitude: float = 1.0
    d: int = 2

    def __post_init__(self):
        _check_dim(self.d)
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        _check_amplitude(self.amplitude)

    @classmethod
    def with_norm(cls, sigma: float, norm: float = 1.0, d: int = 2) -> "GaussianKernel":
        """Solve for the amplitude that gives the requested L1 norm."""
        amplitude = norm / (2.0 * math.pi * sigma**2) ** (d / 2.0)
        return cls(sigma=sigma, amplitude=amplitude, d=d)


@dataclass(frozen=True)
class PowerLawKernel:
    """Polynomial-tail kernel a * min(1, t^(-d*alpha)); needs alpha > 1.

    alpha <= 1 would make the L1 norm diverge and is rejected outright.
    """

    alpha: float
    amplitude: float = 1.0
    d: int = 2

    def __post_init__(self):
        _check_dim(self.d)
        if not self.alpha > 1:
            raise ValueError(
                f"powerlaw alpha must be > 1 for a finite norm, got {self.alpha}"
            )
        _check_amplitude(self.amplitude)

    @classmethod
    def with_norm(cls, alpha: float, norm: float = 1.0, d: int = 2) -> "PowerLawKernel":
        amplitude = norm * (alpha - 1.0) / (ball_volume(d, 1.0) * alpha)
        return cls(alpha=alpha, amplitude=amplitude, d=d)


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by samples on an ascending radius grid.

    Evaluation interpolates linearly between nodes, holds the first value
    below the first radius, and is 0 beyond the last radius.  Values must
    be probabilities and non-increasing.  A leading node at radius 0 is
    prepended when missing so integrals cover the whole support.
    """

    radii: np.ndarray
    values: np.ndarray
    d: int = 2

    def __post_init__(self):
        _check_dim(self.d)
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
            raise ValueError("radii and values must be 1-D arrays of equal length >= 2")
        if radii[0] < 0 or np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be non-negative and strictly increasing")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("values must lie in [0, 1]")
        if np.any(np.diff(values) > 0):
            raise ValueError("values must be non-increasing in radius")
        if radii[0] > 0:
            radii = np.concatenate([[0.0], radii])
            values = np.concatenate([[values[0]], values])
        # an identically zero table is legal and yields empty memberships
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)


KernelSpec = Union[BooleanKernel, GaussianKernel, PowerLawKernel, TabulatedKernel]
# the JSON name of each family; its parameters are the class's fields besides d
_FAMILIES = {
    "boolean": BooleanKernel,
    "gaussian": GaussianKernel,
    "powerlaw": PowerLawKernel,
    "tabulated": TabulatedKernel,
}


def _check_dim(d):
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")


def _check_amplitude(a):
    if not 0 < a <= 1:
        raise ValueError(f"amplitude must lie in (0, 1], got {a}")


# ---------------------------------------------------------------------------
# evaluation and integral quantities


def eval_kernel(spec: KernelSpec, t):
    """Evaluate g at radial distance t (scalar or array); t must be >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("radial distance must be >= 0")
    out = _eval_kernel_array(spec, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _eval_kernel_array(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    if isinstance(spec, BooleanKernel):
        return (t < spec.r).astype(float)
    if isinstance(spec, GaussianKernel):
        # amplitude * exp(-0.5 * (t / sigma)^2), in place on one temporary
        out = np.divide(t, spec.sigma, out=np.empty(np.shape(t)))
        np.square(out, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out *= spec.amplitude
        return out
    if isinstance(spec, PowerLawKernel):
        # clamping at 1 realizes min(1, t^(-d alpha)) without a branch
        return spec.amplitude * np.maximum(t, 1.0) ** (-spec.d * spec.alpha)
    if isinstance(spec, TabulatedKernel):
        return np.interp(t, spec.radii, spec.values, right=0.0)
    raise TypeError(f"unknown kernel spec {spec!r}")


def kernel_norm(spec: KernelSpec) -> float:
    """L1 norm of the kernel over R^d."""
    if isinstance(spec, BooleanKernel):
        return ball_volume(spec.d, spec.r)
    if isinstance(spec, GaussianKernel):
        return spec.amplitude * (2.0 * math.pi * spec.sigma**2) ** (spec.d / 2.0)
    if isinstance(spec, PowerLawKernel):
        return spec.amplitude * ball_volume(spec.d, 1.0) * spec.alpha / (spec.alpha - 1.0)
    if isinstance(spec, TabulatedKernel):
        return float(_tabulated_mass(spec, spec.radii[-1]))
    raise TypeError(f"unknown kernel spec {spec!r}")


def _mass_law(spec: TabulatedKernel) -> tuple:
    """(coef, cum): the tabulated mass law, a polynomial per segment.

    On segment i, g = v_i + b_i h with h = x - lo_i, and the shell mass is a
    polynomial in h whose coefficients expand (lo_i + h)^(d-1) binomially;
    unlike r^d - lo^d, it does not cancel on a short segment far from the
    origin.  coef[i, q] multiplies h^(q+1), and cum[i] is the mass inside
    node i."""
    radii, values, d = spec.radii, spec.values, spec.d
    k = np.arange(d)
    # the integrand (lo_i + h)^(d-1) (v_i + b_i h) in powers h^0 .. h^d, integrated
    expansion = np.array([math.comb(d - 1, j) for j in k]) * radii[:-1, None] ** (d - 1 - k)
    coef = np.zeros((radii.size - 1, d + 1))
    coef[:, :d] += expansion * values[:-1, None]
    coef[:, 1:] += expansion * (np.diff(values) / np.diff(radii))[:, None]
    coef *= sphere_surface(d) / np.arange(1, d + 2)
    return coef, np.concatenate([[0.0], np.cumsum(_shells(coef, np.diff(radii)))])


def _shells(coef, h):
    """Segment masses from the lower node out to h past it, by Horner's rule;
    each row of coef (the last axis) pairs with one h."""
    acc = coef[..., -1]
    for q in range(coef.shape[-1] - 2, -1, -1):
        acc = acc * h + coef[..., q]
    return acc * h


def _tabulated_mass(spec: TabulatedKernel, r) -> np.ndarray:
    """Mass of g inside radius r (scalar or array), in closed form: each r
    sums its own segment's polynomial of _mass_law."""
    coef, cum = _mass_law(spec)
    radii = spec.radii
    r = np.minimum(np.asarray(r, dtype=float), radii[-1])
    i = np.minimum(np.searchsorted(radii, r, side="right"), radii.size - 1) - 1
    return cum[i] + _shells(coef[i], r - radii[i])


def tail_mass(spec: KernelSpec, radius: float) -> float:
    """Integral of g outside the ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    norm = kernel_norm(spec)
    if isinstance(spec, BooleanKernel):
        return norm - ball_volume(spec.d, min(radius, spec.r))
    if isinstance(spec, GaussianKernel):
        return float(_gaussian_tail(spec, radius))
    if isinstance(spec, PowerLawKernel):
        a, d, alpha = spec.amplitude, spec.d, spec.alpha
        if radius <= 1.0:
            return norm - a * ball_volume(d, radius)
        return a * ball_volume(d, 1.0) * radius ** (-d * (alpha - 1.0)) / (alpha - 1.0)
    if isinstance(spec, TabulatedKernel):
        return max(0.0, norm - float(_tabulated_mass(spec, radius)))
    raise TypeError(f"unknown kernel spec {spec!r}")


def support_radius(spec: KernelSpec, eps_tail=0.0):
    """Support radius of g, or the eps_tail truncation radius, element-wise.

    With eps_tail = 0 this is the exact supremum of the support (infinite
    for gaussian and powerlaw kernels).  With eps_tail > 0 it is the
    smallest R whose exterior carries at most eps_tail * ||g|| of mass,
    which is the truncation radius used by grid-indexed graph builds; for
    gaussian and tabulated kernels, the least float whose tail is within
    it in tail_mass's own arithmetic.  eps_tail may be an array; a scalar
    gives a float.  At uniform eps_tail the radii follow the radial law of
    the density g / ||g||: P(R > r) = tail_mass(r) / ||g||.
    """
    # [()] keeps a scalar a numpy scalar, whose ** is Python's pow; a 0-d
    # array's ** may differ from it in the last bit
    eps = np.asarray(eps_tail, dtype=float)[()]
    if not np.all((0 <= eps) & (eps < 1)):
        raise ValueError(f"eps_tail must lie in [0, 1), got {eps_tail}")
    if isinstance(spec, BooleanKernel):
        radius = spec.r * (1.0 - eps) ** (1.0 / spec.d)
    elif isinstance(spec, GaussianKernel):
        radius = _gaussian_radius(spec, eps)
    elif isinstance(spec, PowerLawKernel):
        d, alpha = spec.d, spec.alpha
        # inf at eps_tail = 0 and past the float range; from eps_tail =
        # 1 / alpha on, the radius falls inside the flat core
        with np.errstate(divide="ignore", over="ignore"):
            tail = (alpha * eps) ** (-1.0 / (d * (alpha - 1.0)))
        core = ((1.0 - eps) * alpha / (alpha - 1.0)) ** (1.0 / d)
        radius = np.where(eps >= 1.0 / alpha, core, tail)
    elif isinstance(spec, TabulatedKernel):
        radius = _tabulated_radius(spec, eps)
    else:
        raise TypeError(f"unknown kernel spec {spec!r}")
    return float(radius) if np.ndim(radius) == 0 else radius


def _gaussian_tail(spec: GaussianKernel, radius):
    """tail_mass of a gaussian, element-wise: |X| of X ~ N(0, sigma^2 I_d)
    has the radial law of g / ||g||, so the tail is ||g|| P(chi2_d > (r / sigma)^2)."""
    x = np.asarray(radius, dtype=float) / spec.sigma
    return kernel_norm(spec) * chi2_sf(x * x, spec.d)


def _gaussian_radius(spec: GaussianKernel, eps):
    """support_radius of a gaussian: inf at eps = 0, else the least R whose
    tail, in _gaussian_tail's own arithmetic, is within eps ||g||.  The
    bracket's top R^2 = sigma^2 (d + 2 sqrt(d L) + 2 L), L = 1 - log(eps),
    has a tail of at most e^-1 eps ||g|| (Laurent and Massart)."""
    positive = eps > 0
    if not np.any(positive):
        return np.full(np.shape(eps), math.inf)
    eps = np.where(positive, eps, 0.5)
    bound = 1.0 - np.log(eps)
    top = spec.sigma * np.sqrt(spec.d + 2.0 * np.sqrt(spec.d * bound) + 2.0 * bound)
    target = eps * kernel_norm(spec)
    radius = _bisect(lambda r: _gaussian_tail(spec, r) > target, 0.0, top)
    return np.where(positive, radius, math.inf)


def _tabulated_radius(spec: TabulatedKernel, eps):
    """support_radius of a table: the node that closes the last positive
    value at eps = 0, else the least R in the one segment found whose tail
    norm - mass(R), in _tabulated_mass's own arithmetic, is within eps ||g||."""
    positive = np.flatnonzero(spec.values > 0)
    s_max = spec.radii[min(positive[-1] + 1, spec.radii.size - 1)] if positive.size else 0.0
    if s_max == 0.0 or not np.any(eps):  # an all-zero table, or eps_tail = 0 throughout
        return np.full(np.shape(eps), s_max)
    coef, cum = _mass_law(spec)
    norm = kernel_norm(spec)
    target = np.ravel(eps * norm)
    # the first node whose tail is within the target closes the segment that
    # holds R, so a zero tail, which adds no mass, is never entered
    j = np.maximum(np.searchsorted(cum - norm, -target), 1)
    lo, c, inside = spec.radii[j - 1], coef[j - 1], cum[j - 1]
    radius = _bisect(lambda r: norm - (inside + _shells(c, r - lo)) > target, lo, spec.radii[j])
    return np.where(eps > 0, radius.reshape(np.shape(eps)), s_max)


def length_scale(spec: KernelSpec) -> float:
    """Characteristic radius: half the e^-2 tail radius (= sigma for a 2-d gaussian)."""
    return 0.5 * support_radius(spec, _TAIL_SCALE)


def kernel_kinks(spec: KernelSpec) -> list[float]:
    """Radii where g is continuous but not smooth (quadrature breakpoints)."""
    if isinstance(spec, BooleanKernel):
        return [spec.r]
    if isinstance(spec, PowerLawKernel):
        return [1.0]
    if isinstance(spec, TabulatedKernel):
        inner = [float(r) for r in spec.radii[1:-1]]
        return inner if len(inner) <= 32 else []
    return []


# ---------------------------------------------------------------------------
# self-convolution profiles


@dataclass(frozen=True)
class ConvolutionGrid:
    """Tabulation request: output radii count and range for self_convolve."""

    n_radii: int = 1024
    t_max: float | None = None

    def __post_init__(self):
        if self.n_radii < 2:
            raise ValueError(f"n_radii must be >= 2, got {self.n_radii}")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")


@dataclass(frozen=True)
class ConvolutionProfile:
    """The radial self-convolution f = g * g of a kernel.

    Either closed form ("gaussian" for any d, "boolean_lens" for d = 2) or
    tabulated on an equispaced radius grid with a recorded error bound and
    the refinement level of the quadrature pass it came from.  For d >= 2
    the bound covers the linear interpolation between the radii too.
    Values are non-increasing in t and bounded by ||g||; for a kernel with
    bounded support s_max, f vanishes beyond 2 * s_max.
    """

    kind: str  # "gaussian" | "boolean_lens" | "tabulated"
    d: int
    norm_g: float
    kernel_support: float  # s_max of the underlying kernel; may be inf
    sigma: float | None = None
    amplitude: float | None = None
    r: float | None = None
    radii: np.ndarray | None = None
    values: np.ndarray | None = None
    max_abs_error: float | None = None
    refinement_level: int | None = None  # quadrature level returned; None if none ran

    @property
    def f0(self) -> float:
        return float(eval_profile(self, 0.0))

    @property
    def support(self) -> float:
        """Radius beyond which f is (treated as) zero."""
        if self.kind == "gaussian":
            return math.inf
        if self.kind == "boolean_lens":
            return 2.0 * self.r
        return float(self.radii[-1])


def self_convolve(
    spec: KernelSpec,
    grid: ConvolutionGrid | None = None,
    tol: float = 1e-6,
    max_refinements: int = 6,
    method: str = "auto",
) -> ConvolutionProfile:
    """Build the profile f = g * g for a kernel.

    Gaussian kernels and 2-d boolean kernels get exact closed forms; other
    specs are tabulated on ``grid.n_radii`` equispaced radii in
    ``[0, grid.t_max]``.

    Refinement level l runs the kink-aligned panel Gauss-Legendre rule
    (_panel_convolution) at n = 8 * 2^l and at 2n nodes per panel, returns
    the 2n estimate, and bounds its error by the largest gap between the
    two plus the truncation bound; for d = 1 the rule's theta-axis is the
    two points {0, pi}.  Tabulation stops at the first level
    l <= max_refinements whose bound meets tol; otherwise it raises
    ConvergenceError carrying the finest profile.

    tol bounds the quadrature error at the tabulated radii.  For d >= 2
    the recorded max_abs_error adds the error of the linear interpolant
    between them (_interpolation_error), so it bounds what eval_profile
    returns on [0, t_max]; that part shrinks with n_radii, not with the
    level, and may exceed tol.  For d = 1 the bound covers the tabulated
    radii only.

    method: "auto" prefers closed forms, "tabulated" forces the quadrature
    path (used to cross-check closed forms against the numeric machinery).
    """
    if method not in ("auto", "tabulated"):
        raise ValueError(f"method must be 'auto' or 'tabulated', got {method!r}")
    if max_refinements < 0:
        raise ValueError(f"max_refinements must be >= 0, got {max_refinements}")
    if grid is None:
        grid = ConvolutionGrid()
    norm = kernel_norm(spec)
    s_max = support_radius(spec, 0.0)

    if norm == 0.0:
        # identically zero kernel: f is identically zero
        return ConvolutionProfile(
            kind="tabulated",
            d=spec.d,
            norm_g=0.0,
            kernel_support=0.0,
            radii=np.array([0.0, 1.0]),
            values=np.zeros(2),
            max_abs_error=0.0,
        )

    if method == "auto":
        if isinstance(spec, GaussianKernel):
            return ConvolutionProfile(
                kind="gaussian",
                d=spec.d,
                norm_g=norm,
                kernel_support=s_max,
                sigma=spec.sigma,
                amplitude=spec.amplitude,
            )
        if isinstance(spec, BooleanKernel) and spec.d == 2:
            return ConvolutionProfile(
                kind="boolean_lens",
                d=2,
                norm_g=norm,
                kernel_support=s_max,
                r=spec.r,
            )

    t_max = grid.t_max
    if t_max is None:
        if math.isfinite(s_max):
            # f vanishes beyond 2 s_max, so that is the whole story
            t_max = 2.0 * s_max
        else:
            # cover the 1e-4 tail radius, capped for very heavy tails where
            # that radius explodes and would starve the grid near zero
            t_max = min(2.0 * support_radius(spec, 1e-4), 16.0 * length_scale(spec))
    radii = np.linspace(0.0, t_max, grid.n_radii)
    values, err, level = _tabulate_convolution(spec, radii, tol, max_refinements)

    # enforce profile invariants: range, monotonicity, exact support cutoff
    values = np.clip(values, 0.0, norm)
    values = np.minimum.accumulate(values)
    if math.isfinite(s_max):
        values[radii > 2.0 * s_max] = 0.0

    profile = ConvolutionProfile(
        kind="tabulated",
        d=spec.d,
        norm_g=norm,
        kernel_support=s_max,
        radii=radii,
        values=values,
        max_abs_error=err + _interpolation_error(values) if spec.d >= 2 else err,
        refinement_level=level,
    )
    if err > tol:
        raise ConvergenceError(
            f"self-convolution did not reach tol={tol:g} within the refinement "
            f"budget (achieved {err:.3g} at refinement level {level})",
            estimate=profile,
            error_bound=err,
        )
    return profile


def _interpolation_error(values: np.ndarray) -> float:
    """How far the linear interpolant of a non-increasing f may stray from
    f between equispaced radii, read off the values: half their largest
    second difference, four times the h^2/8 |f''| of a smooth f, which
    also covers the (2r - t)^(3/2) edge a jump in g leaves; and never more
    than the largest drop across one cell, which bounds it outright."""
    drop = float(np.max(-np.diff(values)))
    if values.size < 3:
        return drop
    return min(drop, 0.5 * float(np.max(np.abs(np.diff(values, 2)))))


def _truncation_radius(spec: KernelSpec, t_top: float, tol: float) -> tuple[float, float]:
    """Integration radius R and the truncation error bound it guarantees.

    Restricting the convolution integral to |x| <= R drops at most
    g(R - t) * tail(R) for every target radius t <= t_top.
    """
    s_max = support_radius(spec, 0.0)
    if math.isfinite(s_max):
        return s_max, 0.0
    radius = max(t_top, 2.0 * length_scale(spec), 1.0)
    for _ in range(200):
        bound = eval_kernel(spec, max(radius - t_top, 0.0)) * tail_mass(spec, radius)
        if bound <= 0.5 * tol:
            return radius, bound
        radius *= 1.25
    raise ConvergenceError(
        f"could not find a truncation radius meeting tol={tol:g}", estimate=radius
    )


def _edges(spec: KernelSpec) -> np.ndarray:
    """Ascending radii where g is not smooth: its kinks, and its support
    edge when finite, where a tabulated or boolean g jumps to 0."""
    s_max = support_radius(spec, 0.0)
    edges = {k for k in kernel_kinks(spec) if 0.0 < k < s_max}
    if math.isfinite(s_max):
        edges.add(s_max)
    return np.array(sorted(edges))


def _panel_convolution(spec, radii, n, r_int):
    """One panel Gauss-Legendre pass, n nodes per panel, of the reduced
    convolution integral:

        f(t) = C_d * int_0^R int_0^pi g(s) g(D) s^(d-1) sin^(d-2)(theta)
               dtheta ds,   D^2 = t^2 + s^2 - 2 t s cos(theta),

    with C_d the surface area of the unit (d-2)-sphere (C_2 = 2).  For
    d = 1 the theta-integral is the sum over the two angles {0, pi}, that
    is g(|t - s|) + g(t + s), and C_1 = 1.

    The panels follow the kinks, so the integrand is smooth on each.  The
    s-axis breaks at 0 and R, at every edge k of g (_edges), at the
    tangency radii |t - k| and t + k, where the circle D = k meets the
    ends of the theta range, at t, where D = 0 does (a g with a slope at
    0 has a cone there), and at 2^j half length scales (j >= 0).
    Each s-panel is mapped by s = a + h (3u^2 - 2u^3), whose Jacobian
    vanishes at both ends and absorbs the square-root edge of the inner
    integral at a tangency radius.  For each s node the theta-axis breaks
    where D = k, at cos(theta) = (t^2 + s^2 - k^2) / (2 t s); past the
    support edge g is 0, so no panel is laid there, nor on an s-panel the
    support cannot reach.

    Radii are taken in chunks of about _TILE_NODES (t, s) nodes, at least
    one radius each, and their theta integrals in tiles of about
    _TILE_NODES (t, s, theta) nodes, so memory does not grow with the
    number of radii.
    """
    d = spec.d
    x, w = np.polynomial.legendre.leggauss(n)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    s_u, s_w = u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u) * w
    edges = _edges(spec)
    reach = support_radius(spec, 0.0)
    scale = 0.5 * length_scale(spec)
    steps = scale * 2.0 ** np.arange(max(1, math.ceil(math.log2(r_int / scale))))
    fixed = np.unique(np.clip(np.concatenate([[0.0, r_int], edges, steps]), 0.0, r_int))
    # every s node carries one theta panel per edge, and one more up to pi
    # when g has no support edge; the last edge is the support edge otherwise
    panels = edges.size + (0 if math.isfinite(reach) else 1)
    chunk = max(1, _TILE_NODES // ((fixed.size + 1 + 2 * edges.size) * n))
    rows = max(1, _TILE_NODES // (panels * n))
    c_d = 1.0 if d == 1 else 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    out = np.empty(radii.size)
    for first in range(0, radii.size, chunk):
        t = radii[first : first + chunk, None]
        cuts = [np.broadcast_to(fixed, (t.size, fixed.size)), t, np.abs(t - edges), t + edges]
        breaks = np.sort(np.clip(np.concatenate(cuts, axis=1), 0.0, r_int), axis=1)
        lo, hi = breaks[:, :-1], breaks[:, 1:]
        # drop empty panels and those whose every D lies beyond the support
        which, panel = np.nonzero((hi > lo) & (hi > t - reach) & (lo < t + reach))
        lo, h = lo[which, panel, None], (hi - lo)[which, panel, None]
        s = (lo + h * s_u).ravel()
        weight = (h * s_w).ravel() * _eval_kernel_array(spec, s) * s ** (d - 1)
        which = np.repeat(which, n)
        t_s = t[which, 0]
        for start in range(0, s.size, rows):
            part = slice(start, start + rows)
            weight[part] *= _theta_integral(spec, t_s[part, None], s[part, None], edges, panels, u, w)
        out[first : first + chunk] = c_d * np.bincount(which, weights=weight, minlength=t.size)
    return out


def _theta_integral(spec, t, s, edges, panels, u, w):
    """int_0^pi g(D) sin^(d-2)(theta) dtheta at each (t, s) pair, on
    Gauss-Legendre panels (nodes u, weights w on [0, 1]) between the angles
    where D crosses an edge; the first `panels` of them are laid, and empty
    ones are skipped.  For d = 1 it is the sum over the angles {0, pi}."""
    if spec.d == 1:
        return (_eval_kernel_array(spec, np.abs(t - s)) + _eval_kernel_array(spec, t + s))[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_k = (t * t + s * s - edges**2) / (2.0 * t * s)
    # clip to [-1, 1]; fmin maps the NaN of t = 0, s = k to 1, theta_k = 0
    theta_k = np.arccos(np.fmax(np.fmin(cos_k, 1.0), -1.0))
    bounds = np.concatenate([np.zeros_like(t), theta_k, np.full_like(t, math.pi)], axis=1)
    width = np.diff(bounds[:, : panels + 1], axis=1)
    row, panel = np.nonzero(width > 0)
    width = width[row, panel, None]
    theta = bounds[row, panel, None] + width * u
    dist = np.cos(theta)
    dist *= -2.0 * t[row] * s[row]
    dist += (t * t + s * s)[row]
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    g = _eval_kernel_array(spec, dist)
    if spec.d > 2:
        g *= np.sin(theta) ** (spec.d - 2)
    return np.bincount(row, weights=(g @ w) * width[:, 0], minlength=t.size)


def _tabulate_convolution(spec, radii, tol, max_refinements):
    """(values, error bound, level) of the first refinement level that meets
    tol, else of the finest level tried.

    Level l compares the panel rule at n = _GAUSS_NODES * 2^l nodes per
    panel with the rule at 2n, returns the 2n estimate, and bounds its error
    by their largest gap plus the truncation bound.
    """
    r_int, trunc_err = _truncation_radius(spec, float(radii[-1]), tol)
    coarse = _panel_convolution(spec, radii, _GAUSS_NODES, r_int)
    for level in range(max_refinements + 1):
        fine = _panel_convolution(spec, radii, 2 * _GAUSS_NODES * 2**level, r_int)
        err = float(np.max(np.abs(fine - coarse))) + trunc_err
        if err <= tol:
            break
        coarse = fine
    return fine, err, level


# ---------------------------------------------------------------------------
# profile evaluation


def eval_profile(profile: ConvolutionProfile, t):
    """Evaluate f at radial distance t (scalar or array); t must be >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("radial distance must be >= 0")
    if profile.kind == "gaussian":
        peak = profile.amplitude**2 * (math.pi * profile.sigma**2) ** (profile.d / 2.0)
        out = peak * np.exp(-0.25 * (t_arr / profile.sigma) ** 2)
    elif profile.kind == "boolean_lens":
        out = _lens_area(t_arr, profile.r)
    elif profile.kind == "tabulated":
        out = np.interp(t_arr, profile.radii, profile.values, right=0.0)
        if math.isfinite(profile.kernel_support):
            out = np.where(t_arr > 2.0 * profile.kernel_support, 0.0, out)
    else:
        raise ValueError(f"unknown profile kind {profile.kind!r}")
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _lens_area(t, r):
    """Area of the intersection of two radius-r disks with centers t apart."""
    t = np.minimum(np.asarray(t, dtype=float), 2.0 * r)
    half = np.clip(t / (2.0 * r), 0.0, 1.0)
    return 2.0 * r**2 * np.arccos(half) - 0.5 * t * np.sqrt(
        np.maximum(4.0 * r**2 - t**2, 0.0)
    )


def radius_level(profile: ConvolutionProfile, s: float) -> float:
    """Largest radius at which f still exceeds the level s (0 if s >= f(0)).

    For tabulated profiles the request is answered on the piecewise-linear
    interpolant; levels below the last tabulated value return the grid end.
    """
    if not s > 0:
        raise ValueError(f"level must be > 0, got {s}")
    f0 = profile.f0
    if s >= f0:
        return 0.0
    if profile.kind == "gaussian":
        return 2.0 * profile.sigma * math.sqrt(math.log(f0 / s))
    if profile.kind == "boolean_lens":
        # the lens area falls from f0 to 0 on [0, 2r]
        r = profile.r
        return float(_bisect(lambda t: _lens_area(t, r) > s, 0.0, 2.0 * r))
    values, radii = profile.values, profile.radii
    above = np.nonzero(values > s)[0]
    i = int(above[-1])
    if i == values.size - 1:
        return float(radii[-1])
    v_hi, v_lo = values[i], values[i + 1]
    frac = (v_hi - s) / (v_hi - v_lo)
    return float(radii[i] + frac * (radii[i + 1] - radii[i]))


# ---------------------------------------------------------------------------
# serialization


def kernel_to_json(spec: KernelSpec) -> dict:
    """JSON object {"family": ..., "params": {...}, "d": ...}."""
    family = next((name for name, cls in _FAMILIES.items() if isinstance(spec, cls)), None)
    if family is None:
        raise TypeError(f"unknown kernel spec {spec!r}")
    params = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "d"}
    if family == "tabulated":
        params = {key: [float(v) for v in array] for key, array in params.items()}
    return {"family": family, "params": params, "d": spec.d}


def _finite(value, what: str) -> float:
    """float(value), refusing with a ConfigError booleans, strings (JSON
    "1.5" is not a number), values float() cannot read, NaN and the
    infinities."""
    try:
        number = None if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def kernel_from_json(obj: dict) -> KernelSpec:
    """Parse a kernel spec; gaussian/powerlaw accept "norm" instead of "amplitude".

    Parameters sit either in a nested "params" object (the canonical form
    kernel_to_json emits) or directly next to "family" and "d", not both.
    The parameters a family accepts are its dataclass fields besides d,
    and "norm" where the class has with_norm; any other key is refused.
    """
    try:
        family, d = obj["family"], obj["d"]
        params = {k: v for k, v in obj.items() if k not in ("family", "d")}
        if "params" in params:
            if len(params) > 1:
                raise ValueError(f"parameters {sorted(params)} both in and next to 'params'")
            params = dict(params["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed kernel spec: {exc}") from exc
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ConfigError(f"unknown kernel family {family!r}")
    accepted = {f.name for f in fields(cls) if f.name != "d"}
    if hasattr(cls, "with_norm"):
        accepted.add("norm")
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ConfigError(f"unknown {family} kernel parameter(s) {unknown}; accepted: {sorted(accepted)}")
    if {"norm", "amplitude"} <= set(params):
        raise ConfigError(f"a {family} kernel takes amplitude or norm, not both")
    try:
        if cls is TabulatedKernel:
            radii, values = (
                np.array([_finite(v, f"tabulated {key} entry") for v in params[key]], dtype=float)
                for key in ("radii", "values")
            )
            return TabulatedKernel(radii=radii, values=values, d=d)
        numbers = {key: _finite(value, f"{family} {key}") for key, value in params.items()}
        return cls.with_norm(**numbers, d=d) if "norm" in numbers else cls(**numbers, d=d)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid kernel parameters for family {family!r}: {exc}") from exc


def profile_to_csv(profile: ConvolutionProfile, path, n_samples: int = 513) -> None:
    """Two-column CSV (radius, f); closed forms are sampled on demand."""
    if profile.kind == "tabulated":
        radii, values = profile.radii, profile.values
    else:
        top = profile.support
        if not math.isfinite(top):
            top = 8.0 * profile.sigma
        radii = np.linspace(0.0, top, n_samples)
        values = eval_profile(profile, radii)
    write_csv(path, ["radius", "f"], zip(radii, values))
