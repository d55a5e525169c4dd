import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from grig import kernels
from grig.errors import ConfigError, ConvergenceError
from grig.experiments import _offsets
from grig.geometry import sphere_surface
from grig.kernels import (
    BooleanKernel,
    ConvolutionGrid,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    eval_kernel,
    eval_profile,
    kernel_from_json,
    kernel_norm,
    kernel_to_json,
    length_scale,
    radius_level,
    self_convolve,
    support_radius,
    tail_mass,
)


# ---------------------------------------------------------------------------
# eval_kernel


def test_boolean_indicator():
    spec = BooleanKernel(r=1.0, d=2)
    assert eval_kernel(spec, 0.5) == 1.0
    assert eval_kernel(spec, 1.5) == 0.0


def test_eval_kernel_vectorized_and_negative():
    spec = GaussianKernel(sigma=1.0, amplitude=0.5, d=2)
    t = np.array([0.0, 1.0, 2.0])
    vals = eval_kernel(spec, t)
    assert vals.shape == (3,)
    assert vals[0] == 0.5
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        eval_kernel(spec, -0.1)


def test_gaussian_evaluation_in_place_is_bit_identical():
    # the in-place evaluation against the expression it replaced, at t = 0,
    # at subnormal t, and far enough out that exp underflows to 0
    spec = GaussianKernel(sigma=0.7, amplitude=0.3, d=2)
    rng = np.random.default_rng(5)
    t = np.concatenate([[0.0, 5e-324, 1e-300, 1e3, np.inf], rng.uniform(0.0, 40.0, 10**5)])
    old = spec.amplitude * np.exp(-0.5 * (t / spec.sigma) ** 2)
    new = eval_kernel(spec, t)
    assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert np.count_nonzero(new == 0.0) > 10**4
    assert eval_kernel(spec, 0.0) == 0.3
    block = rng.uniform(0.0, 5.0, size=(30, 14))
    assert np.array_equal(eval_kernel(spec, block), spec.amplitude * np.exp(-0.5 * (block / spec.sigma) ** 2))


def test_powerlaw_plateau_and_tail():
    spec = PowerLawKernel(alpha=2.0, amplitude=0.8, d=2)
    # constant at amplitude up to t=1, then t^(-d*alpha)
    assert eval_kernel(spec, 0.0) == 0.8
    assert eval_kernel(spec, 0.5) == 0.8
    assert eval_kernel(spec, 2.0) == pytest.approx(0.8 * 2.0**-4, rel=1e-14)


def test_tabulated_interp_and_prepended_origin():
    spec = TabulatedKernel(radii=np.array([1.0, 2.0]), values=np.array([0.8, 0.2]), d=2)
    # a radius-0 node holding the first value is prepended
    assert eval_kernel(spec, 0.0) == 0.8
    assert eval_kernel(spec, 1.5) == pytest.approx(0.5)
    assert eval_kernel(spec, 2.5) == 0.0


def test_kernel_validation_errors():
    with pytest.raises(ValueError):
        PowerLawKernel(alpha=1.0, amplitude=0.5, d=2)  # norm diverges
    with pytest.raises(ValueError):
        GaussianKernel(sigma=1.0, amplitude=1.5, d=2)  # not a probability
    with pytest.raises(ValueError):
        BooleanKernel(r=-1.0, d=2)
    with pytest.raises(ValueError):
        TabulatedKernel(radii=np.array([1.0, 2.0]), values=np.array([0.2, 0.8]), d=2)
    with pytest.raises(ValueError):
        TabulatedKernel(radii=np.array([2.0, 1.0]), values=np.array([0.8, 0.2]), d=2)


# ---------------------------------------------------------------------------
# kernel_norm


def test_boolean_norm_unit_disk():
    assert kernel_norm(BooleanKernel(r=1.0, d=2)) == pytest.approx(math.pi, rel=1e-14)


def test_powerlaw_norm_closed_form_and_quadrature():
    spec = PowerLawKernel(alpha=1.5, amplitude=1.0, d=2)
    assert kernel_norm(spec) == pytest.approx(3.0 * math.pi, rel=1e-13)
    # radial quadrature oracle: 2*pi * int t*g(t) dt, split at the plateau edge
    inner, _ = integrate.quad(lambda t: t * 1.0, 0.0, 1.0)
    outer, _ = integrate.quad(lambda t: t * t ** (-3.0), 1.0, np.inf)
    assert kernel_norm(spec) == pytest.approx(2.0 * math.pi * (inner + outer), rel=1e-6)


def test_gaussian_norm_matches_with_norm_constructor():
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    assert spec.amplitude == pytest.approx(0.15915494309189535, rel=1e-15)
    assert kernel_norm(spec) == pytest.approx(1.0, rel=1e-13)


def test_tabulated_norm_against_dense_trapezoid():
    radii = np.array([0.5, 1.0, 2.5])
    values = np.array([0.9, 0.6, 0.1])
    for d in (1, 2, 3):
        spec = TabulatedKernel(radii=radii, values=values, d=d)
        t = np.linspace(0.0, 2.5, 2_000_001)
        g = eval_kernel(spec, t)
        if d == 1:
            oracle = 2.0 * np.trapezoid(g, t)
        elif d == 2:
            oracle = 2.0 * math.pi * np.trapezoid(t * g, t)
        else:
            oracle = 4.0 * math.pi * np.trapezoid(t**2 * g, t)
        assert kernel_norm(spec) == pytest.approx(oracle, rel=1e-8)


@st.composite
def tabulated_kernels(draw):
    """2-6 nodes, a first radius at 0 or above it, flat stretches and zero
    tails, d = 1..5.  Nonzero values stay >= 0.01: a support radius moves by
    about ulp(||g||) / g(R), so tinier values make it ill-conditioned."""
    n = draw(st.integers(2, 6))
    gaps = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
    radii = np.cumsum(gaps) - (gaps[0] if draw(st.booleans()) else 0.0)
    values = draw(st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=n, max_size=n))
    values = sorted(values, reverse=True)
    zeros = draw(st.integers(0, n - 1))
    values[n - zeros :] = [0.0] * zeros
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 2))
        values[j + 1] = values[j]
    return TabulatedKernel(radii=radii, values=np.array(values), d=draw(st.integers(1, 5)))


def _reference_support_radius(spec, eps_tail):
    """Smallest R with tail mass <= eps_tail ||g||, by 200 bisection steps on
    masses from 8-node Gauss-Legendre per segment (exact on each polynomial)."""
    nodes, weights = special.roots_legendre(8)

    def mass_in_segment(i, top):
        lo, hi = spec.radii[i], spec.radii[i + 1]
        x = 0.5 * (top + lo) + 0.5 * (top - lo) * nodes
        g = spec.values[i] + (spec.values[i + 1] - spec.values[i]) * (x - lo) / (hi - lo)
        half = 0.5 * (top - lo)
        return sphere_surface(spec.d) * half * float(np.sum(weights * g * x ** (spec.d - 1)))

    segments = range(spec.radii.size - 1)
    cum = np.cumsum([0.0] + [mass_in_segment(i, spec.radii[i + 1]) for i in segments])

    def tail(r):
        if r >= spec.radii[-1]:
            return 0.0
        i = int(np.searchsorted(spec.radii, r, side="right")) - 1
        return max(0.0, cum[-1] - cum[i] - mass_in_segment(i, r))

    target = eps_tail * cum[-1]
    if tail(0.0) <= target:
        return 0.0
    lo, hi = 0.0, support_radius(spec, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if tail(mid) <= target else (mid, hi)
    return hi


@settings(max_examples=100, deadline=None)
@given(tabulated_kernels(), st.floats(1e-6, 0.99))
def test_tabulated_mass_law_and_its_inverse(spec, eps_tail):
    # norm: per-segment dense trapezoid, with the kinks on segment ends
    oracle = 0.0
    for lo, hi in zip(spec.radii[:-1], spec.radii[1:]):
        t = np.linspace(lo, hi, 100_001)
        oracle += sphere_surface(spec.d) * np.trapezoid(eval_kernel(spec, t) * t ** (spec.d - 1), t)
    norm = kernel_norm(spec)
    assert norm == pytest.approx(oracle, rel=1e-8, abs=1e-300)
    radius = support_radius(spec, eps_tail)
    # the tail fits, and the radius stops at the start of any zero tail
    assert tail_mass(spec, radius) <= eps_tail * norm
    assert radius <= support_radius(spec, 0.0)
    assert radius == pytest.approx(_reference_support_radius(spec, eps_tail), rel=1e-12)


def _exact_mass(spec, r):
    """Mass inside r, summed in rational arithmetic (floats are binary fractions)."""
    d, total = spec.d, Fraction(0)
    radii, values = list(map(Fraction, spec.radii)), list(map(Fraction, spec.values))
    for lo, hi, v_lo, v_hi in zip(radii[:-1], radii[1:], values[:-1], values[1:]):
        top = min(Fraction(r), hi)
        if top > lo:
            slope = (v_hi - v_lo) / (hi - lo)
            a = v_lo - slope * lo
            total += a * (top**d - lo**d) / d + slope * (top ** (d + 1) - lo ** (d + 1)) / (d + 1)
    return sphere_surface(d) * float(total)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_tabulated_mass_exact_on_short_distant_segments(d):
    # r^d - lo^d cancels on these segments, losing about 1e-10; the mass law must not
    for radii, values in (
        ([10.0, 10.001], [0.9, 0.0]),
        ([1.0, 1.000001, 3.0], [1.0, 0.5, 0.25]),
        ([3.0, 3.0001, 5.0], [0.99, 0.0, 0.0]),
    ):
        spec = TabulatedKernel(radii=np.array(radii), values=np.array(values), d=d)
        norm = _exact_mass(spec, spec.radii[-1])
        assert kernel_norm(spec) == pytest.approx(norm, rel=1e-14)
        for r in np.linspace(0.0, spec.radii[-1], 13):
            exact = norm - _exact_mass(spec, r)
            assert tail_mass(spec, r) == pytest.approx(exact, rel=1e-12, abs=1e-14 * norm)


def test_support_radius_leftmost_across_a_zero_tail():
    # a tail small enough that the whole norm is the target: the mass reaches
    # it where g hits 0, and holds it over the flat zero segments after
    spec = TabulatedKernel(
        radii=np.array([1.0, 2.0, 3.0, 4.0]), values=np.array([0.9, 0.5, 0.0, 0.0]), d=2
    )
    radius = support_radius(spec, 1e-300)
    assert radius <= 3.0
    assert tail_mass(spec, radius) == 0.0
    assert radius == pytest.approx(3.0, rel=1e-7)


# ---------------------------------------------------------------------------
# support_radius / length_scale


def test_support_radius_boolean_exact():
    assert support_radius(BooleanKernel(r=2.0, d=2), 0.0) == 2.0


def test_support_radius_gaussian_infinite_at_zero():
    assert math.isinf(support_radius(GaussianKernel(sigma=1.0, amplitude=0.3, d=2), 0.0))


def test_support_radius_gaussian_one_percent_tail():
    # d=2 tail mass fraction e^{-R^2/2} = 0.01 -> R = sqrt(2 ln 100)
    spec = GaussianKernel(sigma=1.0, amplitude=1.0 / (2.0 * math.pi), d=2)
    R = support_radius(spec, 0.01)
    assert R == pytest.approx(math.sqrt(2.0 * math.log(100.0)), rel=1e-10)
    # quadrature oracle for the enclosed mass
    mass, _ = integrate.quad(lambda t: 2.0 * math.pi * t * eval_kernel(spec, t), 0.0, R)
    assert mass == pytest.approx(0.99 * kernel_norm(spec), rel=1e-8)


def test_support_radius_monotone_in_eps():
    spec = PowerLawKernel(alpha=2.5, amplitude=0.8, d=2)
    rs = [support_radius(spec, e) for e in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(a < b for a, b in zip(rs, rs[1:]))
    for e, R in zip((1e-1, 1e-2, 1e-3, 1e-4), rs):
        # enclosed mass check: 2*pi int_R^inf t g dt = eps * ||g||
        tail, _ = integrate.quad(
            lambda t: 2.0 * math.pi * t * eval_kernel(spec, t), R, np.inf
        )
        assert tail == pytest.approx(e * kernel_norm(spec), rel=1e-6)


BENCH_TABLE = ([0.5, 1.0, 1.5, 2.0], [0.9, 0.6, 0.3, 0.1])
ZERO_TAIL_TABLE = ([1.0, 2.0, 3.0, 4.0], [0.9, 0.5, 0.0, 0.0])


def _one_of_each_family(d):
    return (
        BooleanKernel(r=1.3, d=d),
        GaussianKernel.with_norm(0.8, 1.0, d),
        PowerLawKernel.with_norm(1.5, 1.0, d),
        PowerLawKernel(alpha=3.5, amplitude=0.7, d=d),
        TabulatedKernel(radii=np.array(BENCH_TABLE[0]), values=np.array(BENCH_TABLE[1]), d=d),
        TabulatedKernel(radii=np.array(ZERO_TAIL_TABLE[0]), values=np.array(ZERO_TAIL_TABLE[1]), d=d),
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_support_radius_array_matches_scalar_calls(d):
    rng = np.random.default_rng(3)
    eps = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6], rng.random(300), 1e-4 * rng.random(50)])
    eps = eps.reshape(2, -1)  # any shape, kept
    for spec in _one_of_each_family(d):
        radii = support_radius(spec, eps)
        assert radii.shape == eps.shape
        scalar = np.array([support_radius(spec, float(e)) for e in eps.ravel()]).reshape(eps.shape)
        assert all(isinstance(support_radius(spec, e), float) for e in (0.0, 0.5, np.float64(0.5)))
        if isinstance(spec, (GaussianKernel, TabulatedKernel)):
            np.testing.assert_array_equal(radii, scalar)
        else:
            # numpy's array ** and Python's pow differ in the last bit at times
            assert np.array_equal(np.isinf(radii), np.isinf(scalar))
            finite = np.isfinite(scalar)
            np.testing.assert_array_max_ulp(radii[finite], scalar[finite], maxulp=2)
    assert support_radius(_one_of_each_family(d)[0], np.empty(0)).shape == (0,)
    with pytest.raises(ValueError):
        support_radius(_one_of_each_family(d)[1], np.array([0.5, 1.0]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_support_radius_scalar_closed_forms_unchanged(d):
    # the closed forms as plain Python float arithmetic, bit for bit
    for eps in (1e-12, 1e-6, 1e-3, math.exp(-2.0), 0.1, 0.4, 0.5, 0.9, 0.999):
        r, sigma = 1.3, 0.8
        boolean = BooleanKernel(r=r, d=d)
        assert support_radius(boolean, eps) == r * (1.0 - eps) ** (1.0 / d)
        # the gaussian radius is the least float whose tail, in tail_mass's
        # own arithmetic, is within eps ||g||; scipy's inverse rounds its own way
        gauss = GaussianKernel.with_norm(sigma, 1.0, d)
        radius, target = support_radius(gauss, eps), eps * kernel_norm(gauss)
        assert tail_mass(gauss, radius) <= target < tail_mass(gauss, math.nextafter(radius, 0.0))
        expected = sigma * math.sqrt(2.0 * float(special.gammainccinv(d / 2.0, eps)))
        assert radius == pytest.approx(expected, rel=1e-12)
        for alpha in (1.5, 2.0, 3.5):
            power = PowerLawKernel.with_norm(alpha, 1.0, d)
            if eps >= 1.0 / alpha:
                expected = ((1.0 - eps) * alpha / (alpha - 1.0)) ** (1.0 / d)
            else:
                expected = (alpha * eps) ** (-1.0 / (d * (alpha - 1.0)))
            assert support_radius(power, eps) == expected
    assert support_radius(BooleanKernel(r=1.3, d=d), 0.0) == 1.3
    assert math.isinf(support_radius(PowerLawKernel.with_norm(1.5, 1.0, d), 0.0))


# support_radius of the two tables at TABLE_EPS, from the scalar bisect-and-Newton
# solve that stopped on a relative step of 1e-15
TABLE_EPS = (1e-6, 1e-3, math.exp(-2.0), 0.1, 0.25, 0.5, 0.75, 0.9)
TABLE_RADII = {
    ("bench", 1): [1.9999885002644895, 1.9887529904477381, 1.3401121920555874, 1.4522774424948337,
                   1.0645856533065146, 0.6459935992273399, 0.3194444444444444, 0.12777777777777782],
    ("bench", 2): [1.9999958333637156, 1.995863233602199, 1.6359097226970967, 1.7123041041602403,
                   1.4206429177101163, 1.0486494918800358, 0.6916127344517111, 0.4303314829119354],
    ("bench", 3): [1.9999977968822806, 1.9978040947696656, 1.7677947626928467, 1.8208850640626,
                   1.6093994361036852, 1.2906470535577466, 0.9546718574543275, 0.6732584099980008],
    ("zero_tail", 1): [2.997279705898265, 2.9139767473295737, 1.9992596712591912, 2.1397674732957377,
                       1.6298148253980351, 1.0279513956711028, 0.5138888888888888, 0.2055555555555556],
    ("zero_tail", 2): [2.998346416587732, 2.947410511517356, 2.341745597043829, 2.4413634965997524,
                       2.072199241828736, 1.5751816309004216, 1.0681994478625587, 0.6749485577105527],
    ("zero_tail", 3): [2.9988055615612597, 2.9619164358122454, 2.5071423346173396, 2.584212387130891,
                       2.2932231871026314, 1.8837875124262546, 1.420843477484254, 1.022745357717236],
}


@pytest.mark.parametrize("name, d", sorted(TABLE_RADII))
def test_support_radius_tabulated_within_ulps_of_the_scalar_solve(name, d):
    radii, values = BENCH_TABLE if name == "bench" else ZERO_TAIL_TABLE
    spec = TabulatedKernel(radii=np.array(radii), values=np.array(values), d=d)
    norm = kernel_norm(spec)
    for eps, before in zip(TABLE_EPS, TABLE_RADII[(name, d)]):
        radius = support_radius(spec, eps)
        assert tail_mass(spec, radius) <= eps * norm
        # 2 ulps of R, widened where 4 ulps of mass move R by more: the mass
        # law is rounded to ulps of ||g||, which fixes R no closer than that
        rate = sphere_surface(d) * before ** (d - 1) * eval_kernel(spec, before)
        assert abs(radius - before) <= 2 * np.spacing(before) + 4 * np.spacing(norm) / rate


@pytest.mark.parametrize("d", [1, 2, 3])
def test_support_radius_tabulated_array_keeps_the_tail_bound(d):
    rng = np.random.default_rng(5)
    eps = np.concatenate([rng.random(5000), 10.0 ** rng.uniform(-12, -1, 1000)])
    for table in (BENCH_TABLE, ZERO_TAIL_TABLE):
        spec = TabulatedKernel(radii=np.array(table[0]), values=np.array(table[1]), d=d)
        norm = kernel_norm(spec)
        radii = support_radius(spec, eps)
        assert np.all(radii <= support_radius(spec, 0.0))
        # tail_mass's own arithmetic, for every radius at once
        assert np.all(np.maximum(0.0, norm - kernels._tabulated_mass(spec, radii)) <= eps * norm)
        assert all(tail_mass(spec, r) <= e * norm for r, e in zip(radii[::10], eps[::10]))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_support_radius_tabulated_is_the_least_radius_within_the_bound(d):
    # the smallest R whose tail fits: the float below R breaks the bound.
    # Tails in tail_mass's own arithmetic, for every radius at once
    rng = np.random.default_rng(60 + d)
    eps = np.concatenate([rng.random(20_000), 10.0 ** rng.uniform(-12, -1, 2000)])
    for radii, values in (BENCH_TABLE, ZERO_TAIL_TABLE, ([0.0, 1.0], [1.0, 0.0]), ([10.0, 10.001], [0.9, 0.0])):
        spec = TabulatedKernel(radii=np.array(radii), values=np.array(values), d=d)
        norm = kernel_norm(spec)
        radius = support_radius(spec, eps)

        def tail(r):
            return np.maximum(0.0, norm - kernels._tabulated_mass(spec, r))

        assert np.all(tail(radius) <= eps * norm), (radii, d)
        assert np.all(tail(np.nextafter(radius, 0.0)) > eps * norm), (radii, d)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "table",
    [BENCH_TABLE, ZERO_TAIL_TABLE, ([0.0, 1.0], [1.0, 0.0])],
    ids=["bench", "zero-tail", "linear-to-zero"],
)
def test_support_radius_tabulated_newton_stops_before_the_cap(monkeypatch, d, table):
    # besides ||g|| and the node masses, each Newton step evaluates the mass
    # law once for the elements still moving, so one element at the 100-step
    # cap would make 100 calls alone.  Where g falls to 0 the mass is flat
    # and rounds in plateaus, which the bisection and the doubling probe cross
    spec = TabulatedKernel(radii=np.array(table[0]), values=np.array(table[1]), d=d)
    calls = []
    mass = kernels._tabulated_mass

    def counted(spec, r):
        calls.append(np.size(r))
        return mass(spec, r)

    monkeypatch.setattr(kernels, "_tabulated_mass", counted)
    rng = np.random.default_rng(6)
    support_radius(spec, np.concatenate([rng.random(100_000), 10.0 ** rng.uniform(-12, -1, 1000)]))
    assert len(calls) - 2 < 100


def _tail_fraction(spec):
    """r -> tail(r) / ||g||: the closed-form tails, and for a table a dense
    trapezoid of g, so the mass law that support_radius inverts is not used."""
    if not isinstance(spec, TabulatedKernel):
        norm = kernel_norm(spec)
        return lambda r: np.array([tail_mass(spec, x) / norm for x in np.atleast_1d(r)])
    t = np.linspace(0.0, spec.radii[-1], 400_001)
    mass = integrate.cumulative_trapezoid(
        sphere_surface(spec.d) * t ** (spec.d - 1) * eval_kernel(spec, t), t, initial=0.0
    )
    return lambda r: 1.0 - np.interp(r, t, mass) / mass[-1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_support_radius_at_uniform_eps_follows_the_radial_law(d):
    # P(R > r) = tail(r) / ||g||: a KS test on 20000 radii per kernel
    rng = np.random.default_rng(40 + d)
    for spec in _one_of_each_family(d):
        radii = support_radius(spec, rng.random(20_000))
        tail = _tail_fraction(spec)
        result = stats.kstest(radii, lambda r: 1.0 - tail(r))
        assert result.pvalue > 1e-3, (spec, result)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_offsets_tabulated_radii_follow_the_radial_law(d):
    # the segment-and-rejection draws of a table: P(R <= r) = mass(r) / ||g||,
    # a KS test on 2 * 10^5 radii per table against a dense trapezoid of g
    rng = np.random.default_rng(70 + d)
    for radii, values in (BENCH_TABLE, ZERO_TAIL_TABLE, ([0.0, 1.0], [1.0, 0.0])):
        spec = TabulatedKernel(radii=np.array(radii), values=np.array(values), d=d)
        offsets, radius = _offsets(200_000, spec, rng)
        np.testing.assert_allclose(np.sqrt(np.square(offsets).sum(axis=0)), radius, rtol=1e-12)
        tail = _tail_fraction(spec)
        result = stats.kstest(radius, lambda r: 1.0 - tail(r))
        assert result.pvalue > 1e-3, (radii, d, result)


def test_length_scale_positive_and_finite():
    for spec in (
        BooleanKernel(r=0.7, d=2),
        GaussianKernel(sigma=2.0, amplitude=0.4, d=1),
        PowerLawKernel(alpha=3.0, amplitude=0.7, d=1),
    ):
        ell = length_scale(spec)
        assert 0 < ell < math.inf


# ---------------------------------------------------------------------------
# self_convolve: closed forms


def test_boolean_lens_closed_form():
    prof = self_convolve(BooleanKernel(r=1.0, d=2))
    assert prof.kind == "boolean_lens"
    assert eval_profile(prof, 0.0) == pytest.approx(math.pi, rel=1e-14)
    # lens area at t=1: 2 acos(1/2) - (1/2) sqrt(3)
    assert eval_profile(prof, 1.0) == pytest.approx(1.2283696986087568, rel=1e-12)
    assert eval_profile(prof, 2.0) == 0.0
    assert eval_profile(prof, 5.0) == 0.0


def test_boolean_lens_monte_carlo_overlap():
    # 1e7-sample MC oracle of the disk-overlap area at t=1
    rng = np.random.default_rng(2024)
    n = 10_000_000
    hits = 0
    for _ in range(10):
        pts = rng.uniform(-1.0, 1.0, size=(n // 10, 2))
        inside = pts[np.einsum("ij,ij->i", pts, pts) <= 1.0]
        shifted = inside - np.array([1.0, 0.0])
        hits += int(np.sum(np.einsum("ij,ij->i", shifted, shifted) <= 1.0))
    # area estimate: fraction of the [-1,1]^2 square inside both disks
    est = 4.0 * hits / n
    se = 4.0 * math.sqrt(est / 4.0 * (1 - est / 4.0) / n)
    prof = self_convolve(BooleanKernel(r=1.0, d=2))
    assert abs(eval_profile(prof, 1.0) - est) < 3.0 * se


def test_gaussian_profile_closed_form():
    prof = self_convolve(GaussianKernel.with_norm(1.0, 1.0, 2))
    # f(t) = a^2 (pi sigma^2)^{d/2} exp(-t^2 / 4 sigma^2)
    assert prof.f0 == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert eval_profile(prof, 2.0) == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), rel=1e-12)


def test_gaussian_quadrature_path_matches_closed_form():
    # force the tabulated path and compare at the grid nodes
    for d in (1, 2, 3):
        spec = GaussianKernel(sigma=0.8, amplitude=0.6, d=d)
        tab = self_convolve(
            spec, grid=ConvolutionGrid(n_radii=257), tol=1e-10, method="tabulated"
        )
        closed = self_convolve(spec)
        diff = np.abs(tab.values - eval_profile(closed, tab.radii)).max()
        assert diff < 1e-9


def _lens_d3(r, t):
    """Overlap volume of two radius-r balls at distance t: pi/12 (4r+t)(2r-t)^2."""
    return math.pi / 12.0 * (4.0 * r + t) * np.maximum(2.0 * r - t, 0.0) ** 2


def test_boolean_d3_sphere_overlap():
    # two balls radius r at distance t overlap in pi/12 (4r+t)(2r-t)^2
    r = 0.9
    prof = self_convolve(
        BooleanKernel(r=r, d=3), grid=ConvolutionGrid(n_radii=257), tol=5e-3, max_refinements=4
    )
    ts = np.linspace(0.0, 2.0 * r, 101)
    closed = math.pi / 12.0 * (4.0 * r + ts) * np.maximum(2.0 * r - ts, 0.0) ** 2
    diff = np.abs(eval_profile(prof, ts) - closed).max()
    assert diff <= prof.max_abs_error * 1.05 + 1e-12
    assert diff < 5e-3


@pytest.mark.parametrize(
    "spec, closed",
    [
        (BooleanKernel(r=0.9, d=2), lambda t: kernels._lens_area(t, 0.9)),
        (BooleanKernel(r=1.3, d=3), lambda t: _lens_d3(1.3, t)),
    ],
    ids=["boolean-d2", "boolean-d3"],
)
def test_tabulated_method_matches_closed_forms(spec, closed):
    # the panel rule puts a panel edge on every kink of the integrand, so it
    # reaches the closed forms to 1e-9 at the tabulated radii; between them
    # the recorded bound covers the linear interpolant too
    prof = self_convolve(spec, grid=ConvolutionGrid(n_radii=257), tol=1e-10, method="tabulated")
    assert np.abs(prof.values - closed(prof.radii)).max() <= 1e-9
    ts = np.linspace(0.0, float(prof.radii[-1]), 1001)
    off_grid = np.abs(eval_profile(prof, ts) - closed(ts)).max()
    assert 1e-6 < off_grid <= prof.max_abs_error


def test_powerlaw_d1_profile_value_at_zero():
    # f(0) = int g^2 = a^2 (2 + 2/(2 alpha - 1)) for the d=1 plateau kernel
    a, alpha = 0.7, 3.0
    prof = self_convolve(
        PowerLawKernel(alpha=alpha, amplitude=a, d=1),
        grid=ConvolutionGrid(n_radii=3000, t_max=30.0),
        tol=1e-5,
        max_refinements=8,
    )
    closed = a**2 * (2.0 + 2.0 / (2.0 * alpha - 1.0))
    assert prof.f0 == pytest.approx(closed, abs=2e-5)
    assert prof.max_abs_error < 1e-5


def test_profile_t0_is_max_and_zero_beyond_doubled_support():
    prof = self_convolve(BooleanKernel(r=1.3, d=2))
    ts = np.linspace(0.0, 3.0, 200)
    vals = eval_profile(prof, ts)
    assert vals[0] == vals.max()
    assert eval_profile(prof, 2.6 + 1e-9) == 0.0
    with pytest.raises(ValueError):
        eval_profile(prof, -1.0)


def test_profile_monotone_and_bounded_by_norm():
    # holds for converged profiles and carried estimates alike
    spec = PowerLawKernel(alpha=2.0, amplitude=0.9, d=2)
    try:
        prof = self_convolve(
            spec, grid=ConvolutionGrid(n_radii=257), tol=5e-3, max_refinements=3
        )
    except ConvergenceError as exc:
        prof = exc.estimate
    ts = np.linspace(0.0, prof.radii[-1], 1500)
    vals = eval_profile(prof, ts)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.max() <= kernel_norm(spec) + 1e-12


def test_convergence_error_carries_estimate():
    # tol 1e-18 lies below the rounding of f(0) = 4 pi / 3, so no level meets it
    with pytest.raises(ConvergenceError, match="at refinement level 2") as exc_info:
        self_convolve(
            BooleanKernel(r=1.0, d=3),
            grid=ConvolutionGrid(n_radii=129),
            tol=1e-18,
            max_refinements=2,
        )
    err = exc_info.value
    assert err.estimate is not None
    assert err.error_bound > 1e-18
    assert err.estimate.refinement_level == 2
    # the carried estimate is still a usable profile
    assert eval_profile(err.estimate, 0.0) > 0


# the tabulated kernel of the benchmark: its last value is above 0, so g is
# nonzero on the edge of the support, where the quadrature prunes nodes
BENCH_TABULATED = TabulatedKernel(
    radii=np.array([0.5, 1.0, 1.5, 2.0]), values=np.array([0.9, 0.6, 0.3, 0.1]), d=2
)


def test_refinement_level_on_benchmark_profiles():
    tab = self_convolve(
        BENCH_TABULATED, grid=ConvolutionGrid(n_radii=64), tol=1e-4, max_refinements=4
    )
    assert tab.refinement_level == 0
    plaw = self_convolve(
        PowerLawKernel.with_norm(2.0, 1.0, 2),
        grid=ConvolutionGrid(n_radii=128),
        tol=1e-4,
        max_refinements=4,
    )
    assert plaw.refinement_level == 0
    assert self_convolve(GaussianKernel.with_norm(1.0, 1.0, 2)).refinement_level is None
    assert self_convolve(BooleanKernel(r=1.0, d=2)).refinement_level is None


@pytest.mark.parametrize(
    "spec",
    [
        BooleanKernel(r=1.3, d=2),
        BooleanKernel(r=0.7, d=3),
        BENCH_TABULATED,
        TabulatedKernel(radii=np.array([0.4, 0.9, 1.3]), values=np.array([0.8, 0.5, 0.2]), d=2),
        PowerLawKernel.with_norm(2.0, 1.0, 2),
        GaussianKernel.with_norm(1.0, 1.0, 2),
        GaussianKernel(sigma=0.7, amplitude=0.5, d=3),
    ],
    ids=[
        "boolean-d2",
        "boolean-d3",
        "tabulated",
        "tabulated-1.3",
        "powerlaw",
        "gaussian-d2",
        "gaussian-d3",
    ],
)
def test_tiled_convolution_matches_dense_reference(spec, monkeypatch):
    # the panel rule in one tile holding every node, against tiles of one
    # node, of 37 nodes, and the default
    s_max = support_radius(spec, 0.0)
    t_top = 2.0 * s_max if math.isfinite(s_max) else 3.0 * length_scale(spec)
    r_int, _ = kernels._truncation_radius(spec, t_top, 1e-4)
    # t = 0, t on an edge of g, and radii whose panels the support just reaches
    edges = kernels._edges(spec)
    radii = np.unique(np.concatenate([np.linspace(0.0, t_top, 9), edges, 2.0 * edges]))
    default_tile = kernels._TILE_NODES
    for n in (8, 16):
        monkeypatch.setattr(kernels, "_TILE_NODES", 1 << 62)
        ref = kernels._panel_convolution(spec, radii, n, r_int)
        bound = 1e-12 * max(1.0, float(np.abs(ref).max()))
        for tile in (1, 37, default_tile):
            monkeypatch.setattr(kernels, "_TILE_NODES", tile)
            got = kernels._panel_convolution(spec, radii, n, r_int)
            assert np.abs(got - ref).max() <= bound, (n, tile)


def test_self_convolve_memory_does_not_grow_with_the_grid():
    # tol 1e-18 lies below the rounding of f(0), so every level runs, up to
    # 128 nodes per panel
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            self_convolve(
                BENCH_TABULATED, grid=ConvolutionGrid(n_radii=64), tol=1e-18, max_refinements=3
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# radius_level


def test_radius_level_gaussian_self_consistency():
    prof = self_convolve(GaussianKernel.with_norm(1.0, 1.0, 2))
    s = eval_profile(prof, 1.0)
    assert radius_level(prof, s) == pytest.approx(1.0, rel=1e-12)


def test_radius_level_above_f0_is_zero():
    prof = self_convolve(BooleanKernel(r=1.0, d=2))
    assert radius_level(prof, math.pi) == 0.0
    assert radius_level(prof, 4.0) == 0.0


def test_radius_level_lens_inverts_eval():
    prof = self_convolve(BooleanKernel(r=1.0, d=2))
    for t in (0.3, 0.7, 1.2, 1.9):
        s = eval_profile(prof, t)
        assert radius_level(prof, s) == pytest.approx(t, abs=1e-9)


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_radius_level_lens_matches_brentq(r):
    prof = self_convolve(BooleanKernel(r=r, d=2))
    for s in prof.f0 * np.geomspace(1e-10, 0.999, 40):
        oracle = optimize.brentq(
            lambda t: eval_profile(prof, t) - s, 0.0, 2.0 * r, xtol=1e-15, rtol=1e-15
        )
        assert abs(radius_level(prof, s) - oracle) <= 1e-10 * 2.0 * r


def test_radius_level_tabulated_inverts_eval():
    prof = self_convolve(
        BooleanKernel(r=1.0, d=1), grid=ConvolutionGrid(n_radii=257), tol=1e-3
    )
    for t in (0.25, 0.8, 1.5):
        s = eval_profile(prof, t)
        assert eval_profile(prof, radius_level(prof, s)) == pytest.approx(s, rel=1e-9)


# ---------------------------------------------------------------------------
# JSON round trip


def test_kernel_json_round_trip():
    specs = [
        BooleanKernel(r=0.7, d=3),
        GaussianKernel(sigma=1.2, amplitude=0.5, d=2),
        PowerLawKernel(alpha=2.2, amplitude=0.4, d=1),
        TabulatedKernel(radii=np.array([0.5, 1.5]), values=np.array([0.9, 0.1]), d=2),
    ]
    for spec in specs:
        back = kernel_from_json(kernel_to_json(spec))
        assert type(back) is type(spec)
        t = np.linspace(0.0, 2.0, 50)
        np.testing.assert_allclose(eval_kernel(back, t), eval_kernel(spec, t), rtol=1e-14)


def test_kernel_json_norm_key():
    spec = kernel_from_json({"family": "gaussian", "params": {"sigma": 1.0, "norm": 1.0}, "d": 2})
    assert kernel_norm(spec) == pytest.approx(1.0, rel=1e-13)
    flat = kernel_from_json({"family": "powerlaw", "alpha": 2.0, "norm": 2.0, "d": 2})
    assert kernel_norm(flat) == pytest.approx(2.0, rel=1e-13)


def test_kernel_json_malformed():
    with pytest.raises(ConfigError):
        kernel_from_json({"family": "nope", "d": 2})
    with pytest.raises(ConfigError):
        kernel_from_json({"family": "gaussian", "d": 2})  # no sigma
    with pytest.raises(ConfigError):
        kernel_from_json({"d": 2})
    # a parameter the family does not have, amplitude next to norm, flat
    # parameters next to a "params" object, and a boolean for a number
    for obj in (
        {"family": "gaussian", "sigma": 1.0, "amplitud": 0.5, "d": 2},
        {"family": "boolean", "radius": 3.0, "r": 1.0, "d": 2},
        {"family": "gaussian", "sigma": 1.0, "amplitude": 0.5, "norm": 1.0, "d": 2},
        {"family": "powerlaw", "params": {"alpha": 2.0, "amplitude": 0.5, "norm": 1.0}, "d": 2},
        {"family": "gaussian", "params": {"sigma": 1.0}, "sigma": 2.0, "d": 2},
        {"family": "tabulated", "radii": [0.5, 1.0], "values": [0.9, 0.1], "norm": 1.0, "d": 2},
        {"family": "boolean", "r": True, "d": 2},
        # JSON strings are not numbers, in a parameter or a table entry
        {"family": "gaussian", "sigma": "2", "d": 2},
        {"family": "powerlaw", "alpha": "2.0", "norm": 1.0, "d": 2},
        {"family": "tabulated", "radii": ["0.5", "1"], "values": [0.9, 0.1], "d": 2},
        {"family": "tabulated", "radii": [0.5, 1.0], "values": [True, 0.1], "d": 2},
    ):
        with pytest.raises(ConfigError):
            kernel_from_json(obj)
