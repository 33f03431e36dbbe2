import math

import numpy as np
import pytest

from insidermc import (
    Affine,
    BrownianPath,
    FullInformation,
    Indicator,
    IntegrandTerm,
    Interpretation,
    MarketParams,
    NonDifferentiableError,
    PartialTrust,
    ProductIntegrand,
    TimeGrid,
    ak_integral,
    ak_residual,
    coarsen,
    detect_indicator_flip,
    euler_forward,
    exact_solution,
    forward_integral,
    generate_path,
    logistic,
    random_params,
    skorokhod_integral,
    skorokhod_via_correction,
    stock_functional,
    threshold,
)

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
AK = Interpretation.AYED_KUO
HS = Interpretation.HITSUDA_SKOROKHOD
RV = Interpretation.FORWARD
ITO = Interpretation.ITO


def _terminal_as_integrand(s, x, y):
    # B_T written in the adapted/future split: B_s + (B_T - B_s)
    return x + y


def test_deterministic_data_reduces_every_interpretation_to_gbm():
    path = generate_path(TimeGrid(1.0, 32), 4, 0)
    c = Affine(2.5, 0.0)
    p = BASELINE
    reference = 2.5 * np.exp((p.mu - 0.5 * p.sigma**2) * path.grid.nodes + p.sigma * path.values)
    processes = [exact_solution(c, p, path, interp) for interp in (ITO, RV, AK, HS)]
    for proc in processes:
        assert np.array_equal(proc, processes[0])
    assert np.allclose(processes[0], reference, rtol=1e-14)


def test_exact_solution_rejects_ito_with_random_data():
    path = generate_path(TimeGrid(1.0, 8), 4, 0)
    with pytest.raises(ValueError):
        exact_solution(Affine(1.0, 2.0), BASELINE, path, ITO)


def test_anticipating_terminal_bracket_has_triple_volatility_term():
    # at t = T the translated affine bracket is 1 + (s B_T - 3 s^2 T/2)/(2(mu-rho)T)
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    for idx in range(5):
        path = generate_path(TimeGrid(1.0, 16), 21, idx)
        got = exact_solution(c, p, path, AK)[-1]
        b_t = path.terminal
        bracket = 1.0 + (p.sigma * b_t - 1.5 * p.sigma**2 * p.horizon) / (
            2.0 * (p.mu - p.rho) * p.horizon
        )
        growth = math.exp((p.mu - 0.5 * p.sigma**2) * p.horizon + p.sigma * b_t)
        assert math.isclose(got, p.wealth * bracket * growth, rel_tol=1e-12)


def test_translation_consistency_of_exact_solution():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    path = generate_path(TimeGrid(1.0, 16), 33, 2)
    proc = exact_solution(c, p, path, AK)
    for i, t in enumerate(path.grid.nodes):
        via_translate = c.translate(p.sigma * t).evaluate(path.terminal) * math.exp(
            (p.mu - 0.5 * p.sigma**2) * t + p.sigma * path.values[i]
        )
        assert math.isclose(proc[i], via_translate, rel_tol=1e-12)


def test_hs_and_ak_exact_solutions_are_bitwise_identical():
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = random_params(rng)
        path = generate_path(TimeGrid(params.horizon, 64), 91, int(rng.integers(1000)))
        for c in (stock_functional(PartialTrust(), params),
                  stock_functional(FullInformation(), params)):
            a = exact_solution(c, params, path, AK)
            h = exact_solution(c, params, path, HS)
            assert np.array_equal(a, h)


def test_pathwise_domination_for_monotone_data():
    p = BASELINE
    rng = np.random.default_rng(6)
    for c in (logistic(1.0), stock_functional(PartialTrust(), p)):
        for _ in range(10):
            path = generate_path(TimeGrid(1.0, 32), 17, int(rng.integers(1000)))
            low = exact_solution(c, p, path, AK)
            high = exact_solution(c, p, path, RV)
            assert np.all(low <= high)
            # strictly increasing data: strict gap at every positive time
            assert np.all(low[1:] < high[1:])
            assert low[0] == high[0]


def test_indicator_solution_jumps_when_threshold_is_crossed():
    p = BASELINE
    z = threshold(p)
    grid = TimeGrid(1.0, 64)
    # build a path ending half a window above the threshold: flip at t = T/2
    base = generate_path(grid, 70, 0)
    target = z + p.sigma * p.horizon / 2.0
    values = base.values + (target - base.terminal) * grid.nodes / p.horizon
    values[0] = 0.0
    path = BrownianPath(grid=grid, values=values, seed=0, path_index=0)
    c = Indicator(p.wealth, z)
    samples = exact_solution(c, p, path, AK)
    factor_on = samples > 0.0
    scan = np.nonzero(factor_on[:-1] & ~factor_on[1:])[0]
    assert scan.size == 1
    flipped, t_est = detect_indicator_flip(c, p, path, AK)
    assert flipped
    # the flip solves B_T - sigma t = z, here t = T/2, up to half a grid cell
    assert abs(t_est - 0.5) <= grid.dt
    assert grid.nodes[scan[0]] <= t_est <= grid.nodes[scan[0] + 1]


def test_flip_detection_agrees_with_window_inequality():
    rng = np.random.default_rng(44)
    for _ in range(40):
        p = random_params(rng)
        z = threshold(p)
        path = generate_path(TimeGrid(p.horizon, 32), 123, int(rng.integers(10_000)))
        c = Indicator(p.wealth, z)
        flipped, _ = detect_indicator_flip(c, p, path, AK)
        assert flipped == (z < path.terminal <= z + p.sigma * p.horizon)
        rv_flipped, _ = detect_indicator_flip(c, p, path, RV)
        assert not rv_flipped


def test_euler_forward_matches_hand_rolled_recursion():
    p = BASELINE
    path = generate_path(TimeGrid(1.0, 4), 8, 0)
    c = Affine(0.5, 1.5)
    got = euler_forward(c, p, path)
    s = c.evaluate(path.terminal)
    want = [s]
    for dw in path.increments:
        s = s * (1.0 + p.mu * path.grid.dt + p.sigma * dw)
        want.append(s)
    assert np.allclose(got, want, rtol=1e-15)


def test_euler_forward_terminal_error_shrinks_with_mesh():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    errs = []
    for n in (64, 512, 4096):
        total = 0.0
        for idx in range(50):
            fine = generate_path(TimeGrid(1.0, 4096), 3, idx)
            path = coarsen(fine, 4096 // n)
            total += abs(
                euler_forward(c, p, path)[-1]
                - exact_solution(c, p, path, RV)[-1]
            )
        errs.append(total / 50)
    assert errs[0] > errs[1] > errs[2]


def test_forward_sum_of_terminal_value_telescopes_exactly():
    for n in (1, 7, 64):
        path = generate_path(TimeGrid(1.0, n), 12, 3)
        got = forward_integral(_terminal_as_integrand, path, 1.0)
        assert math.isclose(got, path.terminal * path.terminal, rel_tol=1e-12, abs_tol=1e-12)


def test_constant_integrand_sums_to_brownian_value():
    path = generate_path(TimeGrid(1.0, 128), 13, 1)
    t = 0.5
    got = ak_integral(lambda s, x, y: np.ones_like(x), path, t)
    assert math.isclose(got, path.values[path.grid.index_of(t)], rel_tol=1e-12, abs_tol=1e-12)


def test_adapted_integrand_reduces_to_ito_left_sum():
    path = generate_path(TimeGrid(1.0, 16), 14, 2)
    got = ak_integral(lambda s, x, y: x, path, 1.0)
    dw = path.increments
    want = float(np.sum(path.values[:-1] * dw))
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_mixed_endpoint_sum_converges_to_bt_squared_minus_t():
    n = 2**12
    tol = 5.0 * n ** (-0.4)
    errors = []
    for idx in range(100):
        path = generate_path(TimeGrid(1.0, n), 15, idx)
        got = ak_integral(_terminal_as_integrand, path, 1.0)
        errors.append(abs(got - (path.terminal**2 - 1.0)))
    assert np.mean(errors) < tol


def _terminal_product_integrand():
    return ProductIntegrand(
        terms=(
            IntegrandTerm(adapted=lambda s, x: x, future=np.ones_like,
                          future_derivative=np.zeros_like),
            IntegrandTerm(adapted=lambda s, x: np.ones_like(x), future=lambda y: y,
                          future_derivative=np.ones_like),
        )
    )


def test_divergence_primitive_is_forward_minus_time():
    u = _terminal_product_integrand()
    for n in (8, 64, 512):
        path = generate_path(TimeGrid(1.0, n), 16, 4)
        for t in (0.25, 0.5, 1.0):
            got = skorokhod_integral(u, path, t)
            want = path.terminal * path.values[path.grid.index_of(t)] - t
            assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)


def test_correction_scheme_reduces_to_euler_without_randomness():
    p = BASELINE
    path = generate_path(TimeGrid(1.0, 64), 18, 0)
    c = Affine(3.0, 0.0)
    assert np.array_equal(
        skorokhod_via_correction(c, p, path),
        euler_forward(c, p, path),
    )


def test_correction_scheme_rejects_indicator_data():
    path = generate_path(TimeGrid(1.0, 8), 18, 0)
    with pytest.raises(NonDifferentiableError):
        skorokhod_via_correction(Indicator(1.0, 0.0), BASELINE, path)


def test_correction_scheme_converges_to_anticipating_solution():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    errs = []
    for n in (64, 512, 4096):
        total = 0.0
        for idx in range(50):
            fine = generate_path(TimeGrid(1.0, 4096), 19, idx)
            path = coarsen(fine, 4096 // n)
            total += abs(
                skorokhod_via_correction(c, p, path)[-1]
                - exact_solution(c, p, path, HS)[-1]
            )
        errs.append(total / 50)
    assert errs[0] > errs[1] > errs[2]


def test_correction_scheme_handles_smooth_family():
    # logistic data: one correction level is available; the scheme should
    # still track the exact anticipating solution closely on a fine grid
    p = BASELINE
    c = logistic(1.0)
    err = []
    for n in (64, 4096):
        total = 0.0
        for idx in range(25):
            fine = generate_path(TimeGrid(1.0, 4096), 23, idx)
            path = coarsen(fine, 4096 // n)
            total += abs(
                skorokhod_via_correction(c, p, path)[-1]
                - exact_solution(c, p, path, HS)[-1]
            )
        err.append(total / 25)
    assert err[-1] < err[0]
    assert err[-1] < 5e-3


def test_deterministic_residual_is_euler_sized():
    # with constant data the defect is the classical Euler one; per path it is
    # a mean-zero fluctuation, so the size comparison is made in aggregate
    p = BASELINE
    c = Affine(1.0, 0.0)
    ladder = (256, 1024, 4096)
    means = []
    for n in ladder:
        total = 0.0
        for idx in range(100):
            fine = generate_path(TimeGrid(1.0, ladder[-1]), 20, idx)
            total += abs(ak_residual(c, p, coarsen(fine, ladder[-1] // n)))
        means.append(total / 100)
    assert means[0] > means[1] > means[2]
    assert means[-1] < 1e-3


def test_affine_residual_decays_at_half_order():
    # |R| per path is noise-dominated (scale ~ sqrt(dt)), so the decay shows
    # up in aggregate statistics: means and medians halve per 4x refinement
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    n_paths = 200
    ladder = (1024, 4096, 16384)
    values = np.empty((len(ladder), n_paths))
    for idx in range(n_paths):
        fine = generate_path(TimeGrid(1.0, ladder[-1]), 22, idx)
        for j, n in enumerate(ladder):
            values[j, idx] = abs(ak_residual(c, p, coarsen(fine, ladder[-1] // n)))
    means = values.mean(axis=1)
    medians = np.median(values, axis=1)
    assert means[0] > means[1] > means[2]
    assert medians[0] > medians[1] > medians[2]
    decay = -np.polyfit(np.log2(ladder), np.log2(means), 1)[0]
    assert decay > 0.3


def test_indicator_residual_reports_without_failing():
    p = BASELINE
    c = stock_functional(FullInformation(), p)
    path = generate_path(TimeGrid(1.0, 1024), 24, 0)
    r = ak_residual(c, p, path)
    assert math.isfinite(r)
