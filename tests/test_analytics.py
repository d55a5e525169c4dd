import math

import numpy as np
import pytest
from scipy import integrate

from grig.analytics import (
    connection_probability,
    degree_bounds,
    expected_degree,
    isolated_probability_bound,
    offspring_mean,
    sample_dominating_degree,
)
from grig.geometry import sphere_surface
from grig.kernels import (
    BooleanKernel,
    ConvolutionGrid,
    GaussianKernel,
    PowerLawKernel,
    TabulatedKernel,
    eval_profile,
    kernel_norm,
    radius_level,
    self_convolve,
)

GAUSS_N1 = self_convolve(GaussianKernel.with_norm(1.0, 1.0, 2))
LENS_R1 = self_convolve(BooleanKernel(r=1.0, d=2))


def test_connection_probability_arithmetic():
    # mu=1, f(t)=ln 2 -> p = 1/2; pick t where the lens hits ln 2
    t_half = radius_level(LENS_R1, math.log(2.0))
    assert connection_probability(LENS_R1, 1.0, t_half) == pytest.approx(0.5, rel=1e-10)


def test_connection_probability_monotone_and_zero_tail():
    ts = np.linspace(0.0, 2.5, 40)
    ps = np.array([connection_probability(LENS_R1, 2.0, float(t)) for t in ts])
    assert np.all(np.diff(ps) <= 1e-15)
    assert connection_probability(LENS_R1, 2.0, 3.0) == 0.0
    # tiny mu f: expm1 keeps precision where 1-exp(-x) would cancel
    p = connection_probability(GAUSS_N1, 1e-12, 0.0)
    assert p == pytest.approx(1e-12 * GAUSS_N1.f0, rel=1e-6)


def test_expected_degree_zero_intensities():
    assert expected_degree(GAUSS_N1, 0.0, 2.0) == 0.0
    assert expected_degree(GAUSS_N1, 2.0, 0.0) == 0.0


def test_expected_degree_reference_values():
    # frozen reference: adaptive quadrature of lambda 2 pi int t (1-e^{-mu f}) dt,
    # cross-checked against a 2e6-point stratified Monte Carlo integration
    assert expected_degree(GAUSS_N1, 2.0, 2.0) == pytest.approx(3.84628508681592, rel=1e-9)
    assert expected_degree(LENS_R1, 1.0, 1.0) == pytest.approx(5.541718038663294, rel=1e-9)


def test_expected_degree_below_simple_upper_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = float(rng.uniform(0.1, 3.0))
        mu = float(rng.uniform(0.1, 3.0))
        ed = expected_degree(GAUSS_N1, lam, mu)
        assert 0.0 < ed <= lam * mu * 1.0 + 1e-12


def test_expected_degree_tabulated_profile_matches_closed():
    # same kernel through the tabulated path should give nearly the same number
    spec = GaussianKernel.with_norm(1.0, 1.0, 2)
    tab = self_convolve(
        spec, grid=ConvolutionGrid(n_radii=1025), tol=1e-7, max_refinements=7, method="tabulated"
    )
    a = expected_degree(GAUSS_N1, 2.0, 2.0)
    b = expected_degree(tab, 2.0, 2.0)
    assert b == pytest.approx(a, rel=5e-5)


def test_degree_bounds_bracket_and_trivial_low():
    b = degree_bounds(LENS_R1, 1.0, 1.0)
    ed = expected_degree(LENS_R1, 1.0, 1.0)
    assert b.bracket_low <= ed <= b.bracket_high
    assert ed <= b.upper_simple + 1e-12
    assert b.contains(ed)
    # 1/mu >= f(0) forces the low bracket to zero
    low = degree_bounds(GAUSS_N1, 1.0, 1.0 / (2.0 * GAUSS_N1.f0))
    assert low.bracket_low == 0.0


def test_degree_bounds_finite_vs_infinite_high():
    assert math.isinf(degree_bounds(GAUSS_N1, 1.0, 1.0).bracket_high)
    assert degree_bounds(LENS_R1, 1.0, 1.0).bracket_high == pytest.approx(
        1.0 * math.pi * 4.0, rel=1e-12
    )  # ball of doubled support radius


def test_offspring_mean_arithmetic():
    m = offspring_mean(0.5, 0.5, 1.0)
    assert m.value == 0.25
    assert m.subcritical is True
    m = offspring_mean(2.0, 2.0, 1.0)
    assert m.value == 4.0
    assert m.subcritical is False
    with pytest.raises(ValueError):
        offspring_mean(-1.0, 1.0, 1.0)


def test_dominating_sampler_degenerate_and_mean():
    rng = np.random.default_rng(1)
    assert np.all(sample_dominating_degree(1.0, 0.0, 1.0, rng, size=100) == 0)
    draws = sample_dominating_degree(1.0, 1.0, 2.0, np.random.default_rng(2), size=100_000)
    # compound mean lambda mu ||g||^2 = 4
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 4.0) < 3.0 * se


def test_isolated_probability_bound():
    assert isolated_probability_bound(0.0, 1.0) == 1.0
    assert isolated_probability_bound(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert isolated_probability_bound(2.0, 2.0) == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_expected_degree_powerlaw_d1_reference():
    # frozen from an earlier trapezoid tabulation (bound 8.8e-6); the panel
    # rule meets tol at level 0 (bound 2.5e-6) and reads it to 7e-11 relative
    prof = self_convolve(
        PowerLawKernel(alpha=3.0, amplitude=0.7, d=1),
        grid=ConvolutionGrid(n_radii=3000, t_max=30.0),
        tol=1e-5,
        max_refinements=8,
    )
    ed = expected_degree(prof, 1.0, 1.0)
    assert ed == pytest.approx(3.1288262242701697, rel=1e-6)
    assert ed <= 1.0 * 1.0 * kernel_norm(PowerLawKernel(alpha=3.0, amplitude=0.7, d=1)) ** 2


def _quad_expected_degree(profile, lam, mu, points=None):
    """Adaptive-quadrature oracle: the same radial integral up to the same cutoff."""
    cutoff = radius_level(profile, -math.log1p(-1e-6) / mu)
    d = profile.d
    inner, _ = integrate.quad(
        lambda t: -math.expm1(-mu * eval_profile(profile, t)) * t ** (d - 1),
        0.0,
        cutoff,
        points=points,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    return lam * sphere_surface(d) * inner


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0, 20.0])
def test_expected_degree_closed_forms_match_adaptive_quadrature(mu):
    profiles = [self_convolve(GaussianKernel.with_norm(1.0, 1.0, d)) for d in (1, 2, 3)]
    profiles += [self_convolve(BooleanKernel(r=r, d=2)) for r in (0.5, 1.0, 2.0)]
    for profile in profiles:
        oracle = _quad_expected_degree(profile, 1.0, mu)
        assert expected_degree(profile, 1.0, mu) == pytest.approx(oracle, rel=1e-9)


def test_expected_degree_tabulated_integrates_up_to_the_cutoff():
    # the benchmark's tabulated kernel: the cutoff falls inside the profile's
    # last segment, whose partial panel the integral must keep
    spec = TabulatedKernel(
        radii=np.array([0.5, 1.0, 1.5, 2.0]), values=np.array([0.9, 0.6, 0.3, 0.1]), d=2
    )
    profile = self_convolve(spec, grid=ConvolutionGrid(n_radii=64), tol=1e-4, max_refinements=4)
    assert radius_level(profile, -math.log1p(-1e-6)) < profile.radii[-1]
    oracle = _quad_expected_degree(profile, 1.0, 1.0, points=profile.radii[1:-1])
    assert expected_degree(profile, 1.0, 1.0) == pytest.approx(oracle, rel=1e-10)
