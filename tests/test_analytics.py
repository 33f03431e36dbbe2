import math

import numpy as np
import pytest
from scipy.optimize import brentq

from insidermc import analytics
from insidermc import (
    Affine,
    Indicator,
    Interpretation,
    MarketParams,
    MonotonicityError,
    PartialTrust,
    arctangent,
    expected_honest,
    expected_honest_max,
    expected_insider,
    jump_probability,
    logistic,
    norm_cdf,
    ordering_monotone_block,
    quadrature_expectations,
    random_params,
    stock_functional,
    threshold,
    verify_ordering,
)
from insidermc.analytics import (
    CSV_HEADER,
    closed_form_table,
    insider_bond_leg,
    quadrature_table,
    render_tables,
)
from insidermc.cli import main

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
DEBT = MarketParams(wealth=1.0, rho=0.04, mu=0.05, sigma=2.5, horizon=1.0)


def test_expected_honest_examples():
    assert math.isclose(expected_honest(BASELINE, 1.0, 0.0), math.exp(0.02), rel_tol=1e-14)
    assert math.isclose(expected_honest(BASELINE, 0.0, 1.0), 1.0512710963760241, rel_tol=1e-14)
    mid = expected_honest(BASELINE, 0.25, 0.75)
    assert math.isclose(mid, 0.25 * math.exp(0.02) + 0.75 * math.exp(0.05), rel_tol=1e-14)
    with pytest.raises(ValueError):
        expected_honest(BASELINE, 0.5, 0.6)
    with pytest.raises(ValueError):
        expected_honest(BASELINE, -0.1, 1.1)


def test_expected_insider_baseline_values():
    # A = 1/3 here: (1/3) e^0.02 + (2/3) e^0.05 and (1/3) e^0.02 + (4/3) e^0.05
    assert math.isclose(
        expected_insider(BASELINE, Interpretation.HITSUDA_SKOROKHOD),
        1.040914510926268,
        rel_tol=1e-12,
    )
    assert math.isclose(
        expected_insider(BASELINE, Interpretation.AYED_KUO),
        1.040914510926268,
        rel_tol=1e-12,
    )
    assert math.isclose(
        expected_insider(BASELINE, Interpretation.FORWARD),
        1.7417619085102842,
        rel_tol=1e-12,
    )
    with pytest.raises(ValueError):
        expected_insider(BASELINE, Interpretation.ITO)


def test_expected_insider_degenerates_to_honest_as_tilt_vanishes():
    p = BASELINE
    sigma = math.sqrt(4.0 * (p.mu - p.rho) * 1e-7)  # tilt coefficient 1e-7
    tiny = MarketParams(p.wealth, p.rho, p.mu, sigma, p.horizon)
    target = tiny.wealth * math.exp(tiny.mu * tiny.horizon)
    for interp in (Interpretation.FORWARD, Interpretation.AYED_KUO):
        assert abs(expected_insider(tiny, interp) - target) < 1e-5 * tiny.wealth


def test_debt_regime_value_and_signs():
    e_hs = expected_insider(DEBT, Interpretation.HITSUDA_SKOROKHOD)
    assert math.isclose(e_hs, -0.5831542448170808, rel_tol=1e-12)
    assert e_hs < 0.0
    assert expected_insider(DEBT, Interpretation.FORWARD) > expected_honest_max(DEBT) > 0.0


def test_quadrature_constant_functional_gives_lognormal_mean():
    for shift in (0.0, 0.37, -1.2):
        (got,) = quadrature_expectations(Affine(1.0, 0.0), (shift,), (BASELINE,))
        assert math.isclose(got, math.exp(0.05), rel_tol=1e-12)


def test_quadrature_affine_matches_closed_form_stock_legs():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    a = p.sigma**2 / (4.0 * (p.mu - p.rho))
    (forward_leg,) = quadrature_expectations(c, (0.0,), (p,))
    assert math.isclose(forward_leg, p.wealth * (1.0 + a) * math.exp(p.mu), rel_tol=1e-10)
    (anticipating_leg,) = quadrature_expectations(c, (p.sigma * p.horizon,), (p,))
    assert math.isclose(anticipating_leg, p.wealth * (1.0 - a) * math.exp(p.mu), rel_tol=1e-10)


def _dense_trapezoid_oracle(c, shift, params):
    # brute-force reference: integrate C(x - shift) e^{(mu - s^2/2)T + s x}
    # against the N(0, T) density on a very fine grid; indicators integrate
    # from their exact breakpoint so the rule never straddles the jump
    t = params.horizon
    lo = -12.0 * math.sqrt(t)
    if isinstance(c, Indicator):
        lo = c.threshold + shift
    xs = np.linspace(lo, 12.0 * math.sqrt(t), 400_001)
    density = np.exp(-np.square(xs) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    payoff = np.asarray(c.evaluate(xs - shift), dtype=float)
    if isinstance(c, Indicator):
        payoff = np.full_like(xs, c.scale)
    growth = np.exp((params.mu - 0.5 * params.sigma**2) * t + params.sigma * xs)
    return float(np.trapezoid(payoff * growth * density, xs))


def test_quadrature_against_dense_trapezoid():
    p = BASELINE
    shift = p.sigma * p.horizon
    for c in (stock_functional(PartialTrust(), p), logistic(1.0), Indicator(1.0, -0.05)):
        (got,) = quadrature_expectations(c, (shift,), (p,))
        want = _dense_trapezoid_oracle(c, shift, p)
        assert math.isclose(got, want, rel_tol=1e-6)


def test_indicator_quadrature_closed_form():
    p = BASELINE
    c = Indicator(p.wealth, threshold(p))
    # P(B_T > z + shift - sigma T) under the tilted law, times M e^{mu T}
    for shift in (0.0, p.sigma * p.horizon):
        (got,) = quadrature_expectations(c, (shift,), (p,))
        arg = (p.sigma * p.horizon - c.threshold - shift) / math.sqrt(p.horizon)
        want = p.wealth * math.exp(p.mu * p.horizon) * norm_cdf(arg)
        assert math.isclose(got, want, rel_tol=1e-14)


def test_closed_form_vs_quadrature_on_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        p = random_params(rng)
        closed = closed_form_table(p)
        quad = quadrature_table(p)
        for pair in ((closed.hs, quad.hs), (closed.ak, quad.ak), (closed.rv, quad.rv),
                     (closed.honest, quad.honest)):
            assert abs(pair[0] - pair[1]) / p.wealth < 1e-8


def test_insider_bond_leg_closed_form():
    p = BASELINE
    assert math.isclose(insider_bond_leg(p), (1.0 / 3.0) * math.exp(0.02), rel_tol=1e-12)


def test_verify_ordering_baseline():
    v = verify_ordering(BASELINE)
    assert v.hs_equals_ak and v.ak_below_honest and v.honest_below_rv and v.all_hold
    assert math.isclose(v.honest, 1.0512710963760241, rel_tol=1e-12)
    assert math.isclose(v.rv, 1.7417619085102842, rel_tol=1e-12)


def test_ordering_chain_identity_on_sweep():
    # honest - anticipating = M A (e^{mu T} - e^{rho T}) exactly
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = random_params(rng, wealth=float(rng.uniform(0.2, 5.0)))
        v = verify_ordering(p)
        assert v.all_hold
        a = p.sigma**2 / (4.0 * (p.mu - p.rho))
        gap = p.wealth * a * (math.exp(p.mu * p.horizon) - math.exp(p.rho * p.horizon))
        assert math.isclose(v.honest - v.hs, gap, rel_tol=1e-12)


def test_negativity_frontier_located_by_bisection():
    # anticipating expectation crosses zero where the tilt coefficient hits
    # e^{mu T} / (e^{mu T} - e^{rho T}); locate the volatility root by bisection
    rho, mu, horizon = 0.04, 0.05, 1.0

    def value(sigma):
        p = MarketParams(1.0, rho, mu, sigma, horizon)
        return expected_insider(p, Interpretation.HITSUDA_SKOROKHOD)

    a_star = math.exp(mu) / (math.exp(mu) - math.exp(rho))
    sigma_star = math.sqrt(4.0 * (mu - rho) * a_star)
    root = brentq(value, 0.5 * sigma_star, 2.0 * sigma_star, xtol=1e-12)
    assert abs(root - sigma_star) < 1e-6
    assert value(root + 1e-6) < 0.0 < value(root - 1e-6)


def test_ordering_monotone_families():
    p = BASELINE
    for c in (logistic(1.0), arctangent(1.0)):
        (e_ak,), (e_rv,) = ordering_monotone_block(c, (p,))
        assert e_ak < e_rv
    # affine gap is exactly M_b * sigma * T * e^{mu T} for slope M_b
    c = stock_functional(PartialTrust(), p)
    (e_ak,), (e_rv,) = ordering_monotone_block(c, (p,))
    want_gap = c.b * p.sigma * p.horizon * math.exp(p.mu * p.horizon)
    assert math.isclose(e_rv - e_ak, want_gap, rel_tol=1e-10)


def test_ordering_monotone_rejects_bad_inputs():
    with pytest.raises(MonotonicityError):
        ordering_monotone_block(Affine(1.0, 0.0), (BASELINE,))  # constant
    with pytest.raises(MonotonicityError):
        ordering_monotone_block(Affine(1.0, -2.0), (BASELINE,))  # decreasing
    with pytest.raises(MonotonicityError):
        ordering_monotone_block(Indicator(1.0, 0.0), (BASELINE,))  # discontinuous


def _column(values) -> np.ndarray:
    return np.array([[v] for v in values])


def _sweep_sets(seed: int, n: int) -> list[MarketParams]:
    rng = np.random.default_rng(seed)
    return [random_params(rng) for _ in range(n)]


def test_batched_quadrature_equals_one_set_calls_bit_for_bit():
    # at seed 7, set 81 needs 1024 nodes (arctangent, forward leg); the rest stop at 256 or 512
    sets = _sweep_sets(7, 200)
    stocks = [stock_functional(PartialTrust(), p) for p in sets]
    wealth = _column(p.wealth for p in sets)
    families = {
        "logistic": (logistic(wealth), [logistic(p.wealth) for p in sets]),
        "arctangent": (arctangent(wealth), [arctangent(p.wealth) for p in sets]),
        "affine": (Affine(_column(c.a for c in stocks), _column(c.b for c in stocks)), stocks),
        "constant": (Affine(wealth, 0.0), [Affine(p.wealth, 0.0) for p in sets]),
        "indicator": (Indicator(1.0, 0.3), [Indicator(1.0, 0.3)] * len(sets)),
    }
    for name, (block, singles) in families.items():
        for shifts in ([p.sigma * p.horizon for p in sets], [0.0] * len(sets)):
            got = quadrature_expectations(block, shifts, sets)
            want = [
                quadrature_expectations(c, (s,), (p,))[0] for c, s, p in zip(singles, shifts, sets)
            ]
            assert got == want, name
            assert all(type(v) is float for v in got)
    legs = ordering_monotone_block(families["arctangent"][0], sets)
    singles = [ordering_monotone_block(arctangent(p.wealth), (p,)) for p in sets]
    assert list(zip(*legs)) == [(e_ak, e_rv) for (e_ak,), (e_rv,) in singles]


def test_batched_quadrature_names_the_first_set_that_fails(monkeypatch, capsys):
    # sets 81 and 258 need 1024 nodes, so a 512-node cap fails both
    sets = _sweep_sets(7, 300)
    monkeypatch.setattr(analytics, "_QUAD_MAX", 512)
    with pytest.raises(analytics.QuadratureError, match="up to 512 nodes") as info:
        quadrature_expectations(arctangent(1.0), [0.0] * len(sets), sets)
    assert f"for {sets[81]} (last change" in str(info.value)
    assert main(["ordering-sweep", "--sets", "300", "--seed", "7"]) == 3
    assert f"for {sets[81]}" in capsys.readouterr().err


def test_monotone_probe_block_raises_the_one_set_message():
    sets = _sweep_sets(3, 6)
    # the first failing row decides the message: a decreasing one, then a constant one
    cases = (([1.0, 2.0, -1.0, 1.0, 0.0, 1.0], -1.0), ([1.0, 0.0, -1.0, 1.0, 1.0, 1.0], 0.0))
    for scales, bad in cases:
        with pytest.raises(MonotonicityError) as one:
            ordering_monotone_block(logistic(bad), (sets[scales.index(bad)],))
        with pytest.raises(MonotonicityError, match=f"^{one.value}$"):
            ordering_monotone_block(logistic(_column(scales)), sets)
    slopes = _column([1.0, 1.0, -2.0, 1.0, 1.0, 1.0])
    with pytest.raises(MonotonicityError, match="affine functional must have positive slope"):
        ordering_monotone_block(Affine(1.0, slopes), sets)


def test_jump_probability_baseline_and_bounds():
    assert math.isclose(jump_probability(BASELINE), 0.07955649820861499, rel_tol=1e-10)
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = random_params(rng)
        prob = jump_probability(p)
        assert 0.0 < prob < 1.0
    # vanishing window: probability goes to zero
    small = MarketParams(1.0, 0.02, 0.05, 1e-6, 1.0)
    assert jump_probability(small) < 1e-4
    # wide window: probability grows but stays below one
    wide = MarketParams(1.0, 0.02, 0.05, 3.0, 5.0)
    z = threshold(wide)
    want = norm_cdf((z + 15.0) / math.sqrt(5.0)) - norm_cdf(z / math.sqrt(5.0))
    assert math.isclose(jump_probability(wide), want, rel_tol=1e-12)
    assert jump_probability(wide) < 1.0


def test_render_tables_keeps_wide_cells_apart():
    # sigma = 100, T = 50 gives values wider than their columns
    wide = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=100.0, horizon=50.0)
    header, _, row = render_tables([closed_form_table(wide)]).splitlines()
    assert header.split() == list(CSV_HEADER)
    cells = row.split()
    assert len(cells) == 10
    assert cells[2] == "100.0000" and cells[3] == "50.00"
    assert cells[-1] == "closed-form"
