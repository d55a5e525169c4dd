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

Each family's radial mass (the integral of g inside a radius) and its
inverse have closed forms; the tabulated mass is a polynomial on each
segment, inverted by Newton's method inside the one segment found.

The self-convolution ``f = g * g`` drives every analytic quantity: the
number of groups shared by two vertices at distance t is Poisson with
mean ``mu * f(t)``.  Closed forms exist for the gaussian family (any d)
and the boolean family in d = 2 (disk lens area); everything else is
tabulated by tensor-grid trapezoidal quadrature with dyadic refinement
and Richardson extrapolation, with the achieved error bound recorded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import ConfigError, ConvergenceError
from .geometry import ball_volume, sphere_surface

_TAIL_SCALE = math.exp(-2.0)  # tail fraction defining the kernel's length scale
# (s, theta) nodes per quadrature tile; bounds the memory of one trapezoid pass
_TILE_NODES = 1 << 15
# relative slack on the support radius when skipping nodes the kernel cannot reach
_PRUNE_MARGIN = 1e-9


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
    amplitude: float
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
        return spec.amplitude * np.exp(-0.5 * (t / spec.sigma) ** 2)
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


def _tabulated_mass(spec: TabulatedKernel, r) -> np.ndarray:
    """Mass of g inside radius r (scalar or array), in closed form.

    On segment i, g = v_i + b_i h with h = x - lo_i, and the shell mass is a
    polynomial in h whose coefficients expand (lo_i + h)^(d-1) binomially;
    unlike r^d - lo^d, it does not cancel on a short segment far from the
    origin.  Each r sums its own segment's polynomial by Horner's rule."""
    radii, values, d = spec.radii, spec.values, spec.d
    k = np.arange(d)
    # the integrand (lo_i + h)^(d-1) (v_i + b_i h) in powers h^0 .. h^d,
    # integrated: coef[i, q] multiplies h^(q+1)
    expansion = np.array([math.comb(d - 1, j) for j in k]) * radii[:-1, None] ** (d - 1 - k)
    coef = np.zeros((radii.size - 1, d + 1))
    coef[:, :d] += expansion * values[:-1, None]
    coef[:, 1:] += expansion * (np.diff(values) / np.diff(radii))[:, None]
    coef *= sphere_surface(d) / np.arange(1, d + 2)

    def shells(i, h):
        acc = coef[i, d]
        for q in range(d - 1, -1, -1):
            acc = acc * h + coef[i, q]
        return acc * h

    cum = np.concatenate([[0.0], np.cumsum(shells(np.arange(radii.size - 1), np.diff(radii)))])
    r = np.minimum(np.asarray(r, dtype=float), radii[-1])
    i = np.minimum(np.searchsorted(radii, r, side="right"), radii.size - 1) - 1
    return cum[i] + shells(i, r - radii[i])


def _newton_root(func, rate, lo, hi):
    """Roots of an increasing func, one in each bracket [lo, hi] (1-d arrays).

    func(x, k) answers for the elements k (func < 0 at lo, >= 0 at hi), and
    rate(x) is its derivative.  Newton steps begin at hi; a step that leaves
    the open bracket, or is over half the step before last, bisects, so a
    plateau of rounded values cannot stall it.  Below the root a step under
    two ulps becomes a probe up, doubling while it stays below; above it,
    such a step stops the element, as does a bracket two ulps wide.  Returns
    each bracket's top, where func >= 0.
    """
    x, out = hi, hi.copy()
    k = np.arange(hi.size)  # the elements still moving
    last = before = hi - lo  # each one's last step, and the step before it
    reach = np.zeros(hi.size)  # after a probe, the next probe's length
    for _ in range(100):
        if k.size == 0:
            break
        value = func(x, k)
        below = value < 0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        few = 2.0 * np.spacing(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = value / rate(x)  # NaN or infinite without slope: bisects
        short = np.abs(step) <= few
        step = np.where(short, -np.maximum(few, reach), step)
        nxt = x - step
        newton = (lo < nxt) & (nxt < hi) & (short | (np.abs(step) <= 0.5 * before))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        reach = np.where(short & newton, -2.0 * step, 0.0)
        before, last = last, np.abs(nxt - x)
        out[k] = hi
        going = (hi - lo > few) & (below | ~short)
        k, x, lo, hi, last, before, reach = (a[going] for a in (k, nxt, lo, hi, last, before, reach))
    return out


def tail_mass(spec: KernelSpec, radius: float) -> float:
    """Integral of g outside the ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    norm = kernel_norm(spec)
    if isinstance(spec, BooleanKernel):
        return norm - ball_volume(spec.d, min(radius, spec.r))
    if isinstance(spec, GaussianKernel):
        return norm * float(
            special.gammaincc(spec.d / 2.0, radius**2 / (2.0 * spec.sigma**2))
        )
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
    which is the truncation radius used by grid-indexed graph builds.
    eps_tail may be an array; a scalar gives a float.  At uniform eps_tail
    the radii follow the radial law of the density g / ||g||:
    P(R > r) = tail_mass(r) / ||g||.
    """
    # [()] keeps a scalar a numpy scalar, whose ** is Python's pow; a 0-d
    # array's ** may differ from it in the last bit
    eps = np.asarray(eps_tail, dtype=float)[()]
    if not np.all((0 <= eps) & (eps < 1)):
        raise ValueError(f"eps_tail must lie in [0, 1), got {eps_tail}")
    if isinstance(spec, BooleanKernel):
        radius = spec.r * (1.0 - eps) ** (1.0 / spec.d)
    elif isinstance(spec, GaussianKernel):
        radius = spec.sigma * np.sqrt(2.0 * special.gammainccinv(spec.d / 2.0, eps))
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


def _tabulated_radius(spec: TabulatedKernel, eps):
    """support_radius of a table: the node that closes the last positive
    value at eps = 0, else a Newton solve of the mass law in one segment."""
    positive = np.flatnonzero(spec.values > 0)
    s_max = spec.radii[min(positive[-1] + 1, spec.radii.size - 1)] if positive.size else 0.0
    if s_max == 0.0 or not np.any(eps):  # an all-zero table, or eps_tail = 0 throughout
        return np.full(np.shape(eps), s_max)
    norm, d = kernel_norm(spec), spec.d
    target = np.ravel(eps * norm)
    # the first node whose mass reaches norm - target closes the segment
    # that holds R, so a zero tail, which adds no mass, is never entered
    cum = _tabulated_mass(spec, spec.radii)
    i = np.minimum(np.searchsorted(cum, norm - target), cum.size - 1) - 1
    radius = _newton_root(
        lambda r, k: target[k] - (norm - _tabulated_mass(spec, r)),
        lambda r: sphere_surface(d) * r ** (d - 1) * _eval_kernel_array(spec, r),
        spec.radii[i],
        spec.radii[i + 1],
    )
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
    the refinement level of the quadrature pass it came from.
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
    base_nodes: int = 64,
    max_refinements: int = 6,
    method: str = "auto",
) -> ConvolutionProfile:
    """Build the profile f = g * g for a kernel.

    Gaussian kernels and 2-d boolean kernels get exact closed forms; other
    specs are tabulated on ``grid.n_radii`` equispaced radii in
    ``[0, grid.t_max]``.  Tabulation refines a tensor-grid trapezoid rule
    dyadically, Richardson-extrapolates, and stops once successive
    estimates agree within tol; exceeding the refinement budget raises
    ConvergenceError carrying the best profile.

    method: "auto" prefers closed forms, "tabulated" forces the quadrature
    path (used to cross-check closed forms against the numeric machinery).
    """
    if method not in ("auto", "tabulated"):
        raise ValueError(f"method must be 'auto' or 'tabulated', got {method!r}")
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
    values, err, level = _tabulate_convolution(spec, radii, tol, base_nodes, max_refinements)

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
        max_abs_error=err,
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


def _segment_nodes(breaks: np.ndarray, per_unit: float):
    """Composite trapezoid nodes/weights on segments between breakpoints."""
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n_int = max(1, int(math.ceil((hi - lo) * per_unit)))
        x = np.linspace(lo, hi, n_int + 1)
        h = (hi - lo) / n_int
        w = np.full(n_int + 1, h)
        w[0] = w[-1] = 0.5 * h
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _trapezoid_convolution(spec, radii, level, base_nodes, r_int):
    """One trapezoid pass of the reduced convolution integral.

    For d >= 2 the integral over R^d reduces to the (s, theta) rectangle

        f(t) = C_d * int_0^R int_0^pi g(s) g(D) s^(d-1) sin^(d-2)(theta)
               dtheta ds,   D^2 = t^2 + s^2 - 2 t s cos(theta),

    with C_d the surface area of the unit (d-2)-sphere (C_2 = 2).  In
    d = 1 it is a plain line integral.  Kernel kink radii are grid
    breakpoints so refinement only has to resolve the t-dependent kinks.
    For d >= 2 each radius is summed over tiles of s-rows, _TILE_NODES
    nodes each, in one reused buffer, so memory does not grow with the
    level or the number of radii.
    """
    d = spec.d
    scale = base_nodes * 2**level
    kinks = [k for k in kernel_kinks(spec) if 0.0 < k < r_int]

    if d == 1:
        breaks = np.array(sorted({-r_int, *(-k for k in kinks), 0.0, *kinks, r_int}))
        x, w = _segment_nodes(breaks, scale / (2.0 * r_int))
        a_x = w * _eval_kernel_array(spec, np.abs(x))
        out = np.empty(radii.size)
        for i, t in enumerate(radii):
            out[i] = float(np.sum(a_x * _eval_kernel_array(spec, np.abs(t - x))))
        return out

    breaks = np.array(sorted({0.0, *kinks, r_int}))
    s, w_s = _segment_nodes(breaks, scale / r_int)
    theta = np.linspace(0.0, math.pi, scale + 1)
    w_t = np.full(theta.size, math.pi / scale)
    w_t[0] = w_t[-1] = 0.5 * math.pi / scale

    c_d = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    a_s = w_s * _eval_kernel_array(spec, s) * s ** (d - 1)
    a_t = w_t * np.sin(theta) ** (d - 2)
    cos_t = np.cos(theta)
    neg_cos = -cos_t  # ascending, for searchsorted
    s_sq = s**2

    # D <= s_max needs 2 t s cos(theta) >= t^2 + s^2 - s_max^2, and cos falls
    # with theta, so the nodes where a bounded g can be nonzero form a prefix
    # of each s-row (empty when |t - s| > s_max); the margin on s_max keeps
    # rounding in D from cutting off a nonzero node
    reach_sq = (support_radius(spec, 0.0) * (1.0 + _PRUNE_MARGIN)) ** 2
    rows = max(1, _TILE_NODES // theta.size)
    starts = np.arange(0, s.size, rows)
    tile = np.empty(rows * theta.size)
    per_s = np.empty(s.size)
    out = np.empty(radii.size)
    for i, t in enumerate(radii):
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = (t**2 + s_sq - reach_sq) / (2.0 * t * s)
        # t s = 0 gives -inf or +inf, a row all live or all dead since then
        # D = |t - s|; 0/0 gives NaN, which sorts last: all live
        live = np.searchsorted(neg_cos, -cut, side="right")
        for start, cols in zip(starts.tolist(), np.maximum.reduceat(live, starts).tolist()):
            stop = min(start + rows, s.size)
            buf = tile[: (stop - start) * cols].reshape(stop - start, cols)
            # D^2 = t^2 + s^2 - 2 t s cos(theta), clamped at 0 before the root
            np.multiply(s[start:stop, None], cos_t[:cols], out=buf)
            buf *= 2.0 * t
            np.subtract((t**2 + s_sq[start:stop])[:, None], buf, out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.sqrt(buf, out=buf)
            per_s[start:stop] = _eval_kernel_array(spec, buf) @ a_t[:cols]
        out[i] = c_d * (per_s @ a_s)
    return out


def _tabulate_convolution(spec, radii, tol, base_nodes, max_refinements):
    """(values, error bound, level): the Richardson estimate at the first level
    whose successive estimates agree within tol, else the finest one tried."""
    r_int, trunc_err = _truncation_radius(spec, float(radii[-1]), tol)
    trap_prev = None
    rich_prev = None
    best = None
    for level in range(max_refinements + 1):
        trap = _trapezoid_convolution(spec, radii, level, base_nodes, r_int)
        if trap_prev is not None:
            rich = trap + (trap - trap_prev) / 3.0
            if rich_prev is not None:
                diff = float(np.max(np.abs(rich - rich_prev)))
                best = (rich, diff + trunc_err, level)
                if diff + trunc_err <= tol:
                    return best
            rich_prev = rich
        trap_prev = trap
    if best is None:
        best = (trap_prev, math.inf, max_refinements)
    return best


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
        # the lens area A falls from f0 to 0 on [0, 2r], A'(t) = -sqrt(4r^2 - t^2)
        r = profile.r
        (t,) = _newton_root(
            lambda t, _: s - _lens_area(t, r),
            lambda t: np.sqrt(np.maximum(4.0 * r * r - t * t, 0.0)),
            np.zeros(1),
            np.full(1, 2.0 * r),
        )
        return float(t)
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
    if isinstance(spec, BooleanKernel):
        return {"family": "boolean", "params": {"r": spec.r}, "d": spec.d}
    if isinstance(spec, GaussianKernel):
        return {
            "family": "gaussian",
            "params": {"sigma": spec.sigma, "amplitude": spec.amplitude},
            "d": spec.d,
        }
    if isinstance(spec, PowerLawKernel):
        return {
            "family": "powerlaw",
            "params": {"alpha": spec.alpha, "amplitude": spec.amplitude},
            "d": spec.d,
        }
    if isinstance(spec, TabulatedKernel):
        return {
            "family": "tabulated",
            "params": {
                "radii": [float(v) for v in spec.radii],
                "values": [float(v) for v in spec.values],
            },
            "d": spec.d,
        }
    raise TypeError(f"unknown kernel spec {spec!r}")


def _finite(value) -> float:
    """float(value), refusing NaN and the infinities with a ValueError."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"parameters must be finite, got {value!r}")
    return number


def kernel_from_json(obj: dict) -> KernelSpec:
    """Parse a kernel spec; gaussian/powerlaw accept "norm" instead of "amplitude".

    Parameters may sit in a nested "params" object (the canonical form
    kernel_to_json emits) or directly next to "family" and "d".
    """
    try:
        family = obj["family"]
        if "params" in obj:
            params = dict(obj["params"])
        else:
            params = {k: v for k, v in obj.items() if k not in ("family", "d")}
        d = obj["d"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed kernel spec: {exc}") from exc
    try:
        if family == "boolean":
            return BooleanKernel(r=_finite(params["r"]), d=d)
        if family == "gaussian":
            sigma = _finite(params["sigma"])
            if "norm" in params:
                return GaussianKernel.with_norm(sigma, _finite(params["norm"]), d)
            return GaussianKernel(sigma=sigma, amplitude=_finite(params.get("amplitude", 1.0)), d=d)
        if family == "powerlaw":
            alpha = _finite(params["alpha"])
            if "norm" in params:
                return PowerLawKernel.with_norm(alpha, _finite(params["norm"]), d)
            return PowerLawKernel(alpha=alpha, amplitude=_finite(params.get("amplitude", 1.0)), d=d)
        if family == "tabulated":
            radii, values = (np.asarray(params[key], dtype=float) for key in ("radii", "values"))
            if not (np.isfinite(radii).all() and np.isfinite(values).all()):
                raise ValueError("radii and values must be finite")
            return TabulatedKernel(radii=radii, values=values, d=d)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid kernel parameters for family {family!r}: {exc}") from exc
    raise ConfigError(f"unknown kernel family {family!r}")


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "f"])
        for t, v in zip(radii, values):
            writer.writerow([repr(float(t)), repr(float(v))])
