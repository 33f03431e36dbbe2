import math

import numpy as np
import pytest

from insidermc import (
    Affine,
    Indicator,
    IntegrandTerm,
    MarketParams,
    MonotoneSmooth,
    MonotonicityError,
    NonDifferentiableError,
    PartialTrust,
    ProductIntegrand,
    TerminalFunctional,
    arctangent,
    logistic,
    malliavin_trace_partial,
    stock_functional,
)

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)


def test_affine_evaluation():
    c = Affine(1.0, 2.0)
    assert c.evaluate(0.0) == 1.0
    assert c.evaluate(1.5) == 4.0
    assert np.allclose(c.evaluate(np.array([0.0, 1.0])), [1.0, 3.0])


def test_partial_trust_bracket_at_zero():
    # M [1 + (sigma*0 - sigma^2 T/2) / (2 (mu - rho) T)] = 1 - 0.02/0.06
    c = stock_functional(PartialTrust(), BASELINE)
    assert math.isclose(c.evaluate(0.0), 2.0 / 3.0, rel_tol=1e-12)


def test_indicator_boundary_is_strict():
    c = Indicator(1.0, -0.05)
    assert c.evaluate(-0.05) == 0.0
    assert c.evaluate(-0.05 + 1e-12) == 1.0
    assert c.evaluate(-1.0) == 0.0


def test_rejects_non_finite_argument():
    for c in (Affine(1.0, 2.0), Indicator(1.0, 0.0), logistic()):
        with pytest.raises(ValueError):
            c.evaluate(float("nan"))
        with pytest.raises(ValueError):
            c.evaluate(np.array([0.0, float("inf")]))


def test_a_family_without_an_evaluator_names_itself():
    class Bare(TerminalFunctional):
        pass

    for call in (Bare().evaluate, Bare().evaluate_finite):
        with pytest.raises(NotImplementedError, match="Bare defines neither evaluate nor"):
            call(np.zeros(3))


def test_translate_identity_and_algebra():
    c = Affine(1.0, 2.0)
    assert c.translate(0.0) == c
    assert c.translate(0.5) == Affine(0.0, 2.0)
    ind = Indicator(3.0, 0.1)
    assert ind.translate(0.25) == Indicator(3.0, 0.35)


def test_translate_is_a_group_action():
    rng = np.random.default_rng(0)
    xs = np.linspace(-5.0, 5.0, 101)
    for c in (Affine(0.3, -1.2), Indicator(2.0, 0.4), logistic(1.5), arctangent(0.7)):
        s1, s2 = rng.normal(size=2)
        once = c.translate(s1).translate(s2).evaluate(xs)
        both = c.translate(s1 + s2).evaluate(xs)
        assert np.allclose(np.asarray(once, dtype=float), np.asarray(both, dtype=float), atol=1e-12)


def test_wick_with_exponential_is_translation():
    sigma, t = 0.2, 0.7
    # deterministic data: multiplying by the exponential changes nothing
    const = Affine(4.2, 0.0)
    assert const.translate(sigma * t) == const

    # affine partial-trust bracket picks up the -sigma^2 t term
    c = stock_functional(PartialTrust(), BASELINE)
    shifted = c.translate(sigma * t)
    p = BASELINE
    xs = np.linspace(-4.0, 4.0, 50)
    expected = p.wealth * (
        1.0
        + (p.sigma * xs - p.sigma**2 * t - p.sigma**2 * p.horizon / 2.0)
        / (2.0 * (p.mu - p.rho) * p.horizon)
    )
    assert np.allclose(shifted.evaluate(xs), expected, rtol=1e-12)

    # indicator jump set moves up by sigma*t
    ind = Indicator(1.0, -0.05)
    assert ind.translate(sigma * t) == Indicator(1.0, -0.05 + sigma * t)


def test_affine_wick_commutes_with_scaling():
    c = Affine(0.4, 1.1)
    doubled = Affine(0.8, 2.2)
    xs = np.linspace(-3, 3, 11)
    left = 2.0 * np.asarray(c.translate(0.3 * 0.5).evaluate(xs))
    right = np.asarray(doubled.translate(0.3 * 0.5).evaluate(xs))
    assert np.allclose(left, right, rtol=1e-14)


def test_derivatives():
    assert Affine(1.0, 2.0).derivative() == Affine(2.0, 0.0)
    assert Affine(1.0, 2.0).derivative().derivative().is_zero
    with pytest.raises(NonDifferentiableError):
        Indicator(1.0, 0.0).derivative()
    d = logistic(2.0).derivative()
    assert math.isclose(float(np.asarray(d.evaluate(0.0))), 2.0 * 0.25, rel_tol=1e-12)


def _exp_factor(params):
    def factor(s, x):
        return np.exp((params.mu - 0.5 * params.sigma**2) * s + params.sigma * x)

    return factor


def _solution_product_integrand(params) -> ProductIntegrand:
    """The affine partial-trust solution split into adapted * future terms."""
    c = stock_functional(PartialTrust(), params)
    growth = _exp_factor(params)
    sigma = params.sigma

    def adapted_const(s, x):
        return (c.a + c.b * (x - sigma * s)) * growth(s, x)

    def adapted_slope(s, x):
        return c.b * growth(s, x)

    return ProductIntegrand(
        terms=(
            IntegrandTerm(adapted=adapted_const, future=np.ones_like,
                          future_derivative=np.zeros_like),
            IntegrandTerm(adapted=adapted_slope, future=lambda y: y,
                          future_derivative=np.ones_like),
        )
    )


def test_trace_of_linear_future_term_is_one():
    u = ProductIntegrand(
        terms=(
            IntegrandTerm(adapted=lambda s, x: x, future=np.ones_like,
                          future_derivative=np.zeros_like),
            IntegrandTerm(adapted=lambda s, x: np.ones_like(x), future=lambda y: y,
                          future_derivative=np.ones_like),
        )
    )
    s = np.array([0.25])
    x = np.array([0.6])
    y = np.array([-0.2])
    assert np.allclose(malliavin_trace_partial(u, s, x, y), 1.0)


def test_trace_matches_wealth_process_closed_form():
    # the trace of the solution process is sigma M / (2 (mu-rho) T) * growth
    p = BASELINE
    u = _solution_product_integrand(p)
    s, x, y = 0.4, 0.3, -0.7
    got = float(np.asarray(malliavin_trace_partial(u, s, x, y)))
    want = (
        p.sigma * p.wealth / (2.0 * (p.mu - p.rho) * p.horizon)
        * math.exp((p.mu - 0.5 * p.sigma**2) * s + p.sigma * x)
    )
    assert math.isclose(got, want, rel_tol=1e-12)


def test_trace_agrees_with_future_bump_finite_difference():
    # bump the path by eps on (s, T]: only the future argument moves
    p = BASELINE
    u = _solution_product_integrand(p)
    eps = 1e-6
    rng = np.random.default_rng(8)
    for _ in range(5):
        s = rng.uniform(0.0, p.horizon)
        x = rng.normal()
        y = rng.normal()
        fd = (u(s, x, y + eps) - u(s, x, y)) / eps
        trace = malliavin_trace_partial(u, s, x, y)
        assert math.isclose(float(np.asarray(fd)), float(np.asarray(trace)), rel_tol=1e-4)


def test_trace_rejects_indicator_terms():
    flagged = ProductIntegrand(
        terms=(
            IntegrandTerm(
                adapted=lambda s, x: np.ones_like(x),
                future=lambda y: np.where(y > 0.0, 1.0, 0.0),
                future_derivative=None,
            ),
        )
    )
    with pytest.raises(NonDifferentiableError):
        malliavin_trace_partial(flagged, 0.1, 0.2, 0.3)


def test_monotone_probe_accepts_increasing_families():
    logistic(2.0).validate_monotone(1.0)
    arctangent(0.5).validate_monotone(4.0)


def test_monotone_probe_rejects_bad_evaluators():
    bump = MonotoneSmooth(scale=1.0, fn=lambda x: np.exp(-np.square(x)))
    with pytest.raises(MonotonicityError):
        bump.validate_monotone(1.0)
    flat = MonotoneSmooth(scale=1.0, fn=np.zeros_like)
    with pytest.raises(MonotonicityError):
        flat.validate_monotone(1.0)


def test_monotone_probe_needs_two_points():
    with pytest.raises(ValueError, match="at least 2 points, got 1"):
        logistic(1.0).validate_monotone(1.0, points=1)


def test_monotone_outputs_nondecreasing_on_increasing_inputs():
    xs = np.linspace(-8.0, 8.0, 1000)
    for c in (logistic(3.0), arctangent(2.0)):
        ys = np.asarray(c.evaluate(xs), dtype=float)
        assert np.all(np.diff(ys) >= 0.0)
        assert ys[-1] > ys[0]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -0.0, +0.0 and the threshold itself, next to values on either side of it
EDGE_POINTS = np.array(
    [-0.0, 0.0, 0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), -3.5, 7.0]
)
# one scale per row of the three-row argument below, a zero scale among them
ROW_SCALES = np.array([[1.5], [0.0], [2.0]])


@pytest.mark.parametrize(
    "c, formula",
    [
        (Affine(0.3, -1.7), lambda x: 0.3 + -1.7 * x),
        (Affine(-0.0, 2.0), lambda x: -0.0 + 2.0 * x),
        (Indicator(1.5, 0.25), lambda x: np.where(np.greater(x, 0.25), 1.5, 0.0)),
        (Indicator(2.0, -0.0), lambda x: np.where(np.greater(x, -0.0), 2.0, 0.0)),
        (
            Indicator(ROW_SCALES, 0.25),
            lambda x: np.where(np.greater(x, 0.25), ROW_SCALES, 0.0),
        ),
    ],
    ids=["affine", "affine-zero-intercept", "indicator", "indicator-at-zero",
         "indicator-column-scale"],
)
def test_evaluate_into_a_dirty_buffer_equals_a_fresh_evaluation(c, formula):
    x = np.tile(EDGE_POINTS, (3, 1))
    out = np.full(x.shape, np.nan)
    assert c.evaluate(x, out=out) is out
    assert _same_bits(out, c.evaluate(x))
    assert _same_bits(out, formula(x))
    # the argument itself as the output
    y = x.copy()
    assert c.evaluate(y, out=y) is y
    assert _same_bits(y, formula(x))
    if np.ndim(getattr(c, "scale", 0.0)):
        # a column of scales fits the three-row argument alone
        return
    # a column argument broadcast across a row of the output, as a frozen C(B_T) is
    column = EDGE_POINTS[:, None]
    wide = np.full((EDGE_POINTS.size, 4), np.nan)
    c.evaluate(column, out=wide)
    assert _same_bits(wide, np.broadcast_to(c.evaluate(column), wide.shape))
    for v in EDGE_POINTS:
        scalar = c.evaluate(float(v))
        assert type(scalar) is float and _same_bits(scalar, formula(float(v)))


@pytest.mark.parametrize("family", [logistic, arctangent])
def test_smooth_evaluates_into_its_argument(family):
    c = family(np.array([[1.0], [2.5]])).translate(0.3)
    x = np.tile(np.linspace(-40.0, 40.0, 801), (2, 1))
    y = x.copy()
    assert c.evaluate(y, out=y) is y
    assert _same_bits(y, c.evaluate(x))


@pytest.mark.parametrize(
    "family, formula",
    [
        (logistic, lambda z: 1.0 / (1.0 + np.exp(-z))),
        (arctangent, lambda z: 0.5 + np.arctan(z) / np.pi),
    ],
)
def test_smooth_keeps_its_formula_and_the_callers_argument(family, formula):
    c = family(2.5).translate(0.3)
    x = np.concatenate([np.linspace(-800.0, 800.0, 1601), EDGE_POINTS])
    kept = x.copy()
    with np.errstate(over="ignore"):
        want = np.multiply(2.5, formula(x - 0.3))
    assert _same_bits(c.evaluate(x), want)
    # the map works in evaluate's own buffer, not in the caller's array
    assert _same_bits(x, kept)
    scalar = c.evaluate(float(x[5]))
    assert type(scalar) is float and _same_bits(scalar, want[5])


def test_evaluate_broadcasts_column_coefficients():
    c = Affine(np.array([[1.0], [2.0]]), np.array([[0.5], [-1.0]]))
    x = np.array([-0.0, 0.25, 3.0])
    assert _same_bits(c.evaluate(x), c.a + c.b * x)
    out = np.full((2, 3), np.nan)
    assert _same_bits(c.evaluate(x, out=out), c.a + c.b * x)
