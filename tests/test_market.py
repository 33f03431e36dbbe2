import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insidermc import (
    Affine,
    FullInformation,
    Honest,
    Indicator,
    Interpretation,
    MarketParams,
    PartialTrust,
    TimeGrid,
    generate_path,
    initial_allocation,
    random_param_sets,
    random_params,
    stock_functional,
    threshold,
)

from per_path_reference import wealth_at

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        MarketParams(wealth=1.0, rho=0.05, mu=0.05, sigma=0.2, horizon=1.0)  # mu > rho strict
    with pytest.raises(ValueError):
        MarketParams(wealth=1.0, rho=0.06, mu=0.05, sigma=0.2, horizon=1.0)
    with pytest.raises(ValueError):
        MarketParams(wealth=0.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
    with pytest.raises(ValueError):
        MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=-1.0)
    with pytest.raises(ValueError):
        MarketParams(wealth=1.0, rho=0.02, mu=float("nan"), sigma=0.2, horizon=1.0)
    # a block raises the message of its first failing set alone: mu <= rho at
    # row 5 and a NaN sigma at row 9, then the two faults swapped
    block = random_param_sets(np.random.default_rng(5), 12)
    for bad_rate, bad_sigma, want in ((5, 9, "stock rate must exceed"), (9, 5, "sigma must be finite")):
        rho, sigma = block.rho.copy(), block.sigma.copy()
        rho[bad_rate], sigma[bad_sigma] = block.mu[bad_rate], math.nan
        with pytest.raises(ValueError, match=want) as alone:
            MarketParams(block.wealth, rho[5].item(), block.mu[5].item(), sigma[5].item(),
                         block.horizon[5].item())
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            MarketParams(block.wealth, rho, block.mu, sigma, block.horizon)

def test_threshold_examples():
    assert math.isclose(threshold(BASELINE), -0.05, rel_tol=1e-12)
    other = MarketParams(wealth=1.0, rho=0.04, mu=0.08, sigma=0.2, horizon=2.0)
    assert math.isclose(threshold(other), -0.2, rel_tol=1e-12)
    # sigma^2 = 2 (mu - rho) puts the threshold at the origin
    balanced = MarketParams(wealth=1.0, rho=0.02, mu=0.04, sigma=0.2, horizon=1.0)
    assert abs(threshold(balanced)) < 1e-15


def test_honest_allocation_ignores_terminal_value():
    strat = Honest(bond0=0.3, stock0=0.7)
    for b_t in (-2.0, 0.0, 5.0):
        assert initial_allocation(strat, BASELINE, b_t) == (0.7, 0.3)


def test_honest_split_validation():
    with pytest.raises(ValueError):
        initial_allocation(Honest(0.5, 0.6), BASELINE, 0.0)
    with pytest.raises(ValueError):
        initial_allocation(Honest(-0.1, 1.1), BASELINE, 0.0)


def test_partial_trust_average_outcome_zeroes_the_bond():
    # b_T = sigma T / 2 is the terminal value that delivers the all-stock mean
    b_t = BASELINE.sigma * BASELINE.horizon / 2.0
    stock0, bond0 = initial_allocation(PartialTrust(), BASELINE, b_t)
    assert math.isclose(stock0, BASELINE.wealth, rel_tol=1e-12)
    assert abs(bond0) < 1e-12


def test_partial_trust_leveraged_example():
    stock0, bond0 = initial_allocation(PartialTrust(), BASELINE, 1.0)
    assert math.isclose(stock0, 4.0, rel_tol=1e-12)
    assert math.isclose(bond0, -3.0, rel_tol=1e-12)


def test_partial_trust_equal_split_at_par_terminal_value():
    # bond and stock get the same amount exactly when both assets end at par,
    # i.e. when b_T sits at the betting threshold
    for params in (BASELINE, MarketParams(2.0, 0.03, 0.11, 0.7, 2.5)):
        b_star = threshold(params)
        stock0, bond0 = initial_allocation(PartialTrust(), params, b_star)
        assert math.isclose(stock0, params.wealth / 2.0, rel_tol=1e-10)
        assert math.isclose(bond0, params.wealth / 2.0, rel_tol=1e-10)


def test_full_information_bets_everything_on_the_winner():
    z = threshold(BASELINE)
    assert initial_allocation(FullInformation(), BASELINE, z + 0.01) == (1.0, 0.0)
    assert initial_allocation(FullInformation(), BASELINE, z - 0.01) == (0.0, 1.0)
    # the tie goes to the bond (strict inequality for the stock)
    assert initial_allocation(FullInformation(), BASELINE, z) == (0.0, 1.0)


def test_wealth_conservation_across_strategies():
    rng = np.random.default_rng(3)
    for _ in range(200):
        params = random_params(rng, wealth=float(rng.uniform(0.5, 5.0)))
        b_t = float(rng.normal(scale=math.sqrt(params.horizon)))
        for strat in (Honest(params.wealth / 3.0, 2.0 * params.wealth / 3.0),
                      PartialTrust(), FullInformation()):
            stock0, bond0 = initial_allocation(strat, params, b_t)
            assert abs(stock0 + bond0 - params.wealth) <= 1e-12 * params.wealth


def test_allocation_is_monotone_in_terminal_value():
    grid = np.linspace(-4.0, 4.0, 201)
    for strat in (PartialTrust(), FullInformation()):
        stocks = [initial_allocation(strat, BASELINE, b)[0] for b in grid]
        assert all(b >= a for a, b in zip(stocks, stocks[1:]))


def test_stock_functional_families():
    assert stock_functional(Honest(0.0, 1.0), BASELINE) == Affine(1.0, 0.0)
    c = stock_functional(PartialTrust(), BASELINE)
    assert isinstance(c, Affine) and c.b > 0.0
    ind = stock_functional(FullInformation(), BASELINE)
    assert ind == Indicator(1.0, threshold(BASELINE))


def test_total_wealth_bond_only_is_deterministic():
    grid = TimeGrid(1.0, 16)
    w = generate_path(grid, 2, 0)
    wealth = wealth_at(Honest(1.0, 0.0), BASELINE, grid.nodes, w, Interpretation.ITO)
    expected = np.exp(BASELINE.rho * grid.nodes)
    assert np.allclose(wealth, expected, rtol=1e-14)


def test_total_wealth_all_stock_matches_gbm():
    grid = TimeGrid(1.0, 16)
    w = generate_path(grid, 2, 1)
    wealth = wealth_at(Honest(0.0, 1.0), BASELINE, grid.nodes, w, Interpretation.ITO)
    p = BASELINE
    expected = np.exp((p.mu - 0.5 * p.sigma**2) * grid.nodes + p.sigma * w)
    assert np.allclose(wealth, expected, rtol=1e-14)


def test_total_wealth_starts_at_total_wealth():
    rng = np.random.default_rng(10)
    for _ in range(50):
        params = random_params(rng)
        grid = TimeGrid(params.horizon, 8)
        w = generate_path(grid, 77, int(rng.integers(0, 1000)))
        for strat, interp in (
            (PartialTrust(), Interpretation.FORWARD),
            (PartialTrust(), Interpretation.AYED_KUO),
            (FullInformation(), Interpretation.AYED_KUO),
        ):
            wealth = wealth_at(strat, params, grid.nodes, w, interp)
            assert math.isclose(wealth[0], params.wealth, rel_tol=1e-11)


def test_total_wealth_rejects_ito_for_insiders():
    grid = TimeGrid(1.0, 8)
    w = generate_path(grid, 2, 0)
    with pytest.raises(ValueError):
        wealth_at(PartialTrust(), BASELINE, grid.nodes, w, Interpretation.ITO)


def test_random_params_stay_in_sweep_ranges():
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = random_params(rng)
        assert 0.001 <= p.rho <= 0.2
        assert p.rho < p.mu <= 0.2
        assert p.mu - p.rho >= 1e-3
        assert 0.01 <= p.sigma <= 3.0
        assert 0.1 <= p.horizon <= 5.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    wealth=st.floats(1e-3, 1e6),
)
def test_a_block_draw_is_that_many_one_set_draws(seed, n, wealth):
    block_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = random_param_sets(block_rng, n, wealth)
    # row by row, the sweep ranges drawn one rng.uniform call at a time, bit for bit
    for p in block:
        rho = one_rng.uniform(0.001, 0.199)
        mu = one_rng.uniform(rho + 1e-3, 0.2)
        sigma = one_rng.uniform(0.01, 3.0)
        horizon = one_rng.uniform(0.1, 5.0)
        assert p == MarketParams(wealth=wealth, rho=rho, mu=mu, sigma=sigma, horizon=horizon)
    # n one-set draws give the same sets, and every generator then stands where
    # the others do: the next draws match
    rng = np.random.default_rng(seed)
    assert [random_params(rng, wealth) for _ in range(n)] == [block[i] for i in range(n)]
    after = [random_params(r, wealth) for r in (block_rng, one_rng, rng)]
    assert after[0] == after[1] == after[2]
