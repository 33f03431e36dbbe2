import math

import numpy as np
import pytest

from insidermc import (
    Affine,
    FullInformation,
    Indicator,
    IntegrandTerm,
    Interpretation,
    MarketParams,
    NonDifferentiableError,
    PartialTrust,
    ProductIntegrand,
    TimeGrid,
    generate_path,
    logistic,
    random_params,
    skorokhod_integral,
    stock_functional,
    threshold,
)
from insidermc.integrators import (
    _riemann_sums,
    ak_residuals,
    exact_wealths,
    first_flip,
    scheme_stack,
    scheme_terminals,
)
from insidermc.paths import sample_block

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
AK = Interpretation.AYED_KUO
HS = Interpretation.HITSUDA_SKOROKHOD
RV = Interpretation.FORWARD
ITO = Interpretation.ITO


def _scheme(c, p, grids, w, interp):
    # the terminal wealth, one row per level of ``grids``, of the scheme the
    # interpretation runs, S_0 = C(B_T): plain Euler for forward, the corrected
    # Euler scheme for Hitsuda-Skorokhod
    return scheme_terminals(p, grids, w, [scheme_stack(c, interp)])[0]


def _terminal_as_integrand(s, x, y):
    # B_T written in the adapted/future split: B_s + (B_T - B_s)
    return x + y


def _riemann(u, grid, w, t, right):
    """The Riemann sum of u over [0, t] on each path of the block ``w``: the
    future argument at the right node (mixed-endpoint) or the left (forward)."""
    (total,) = _riemann_sums(
        lambda s, x, y, dw: [u(s, x, y) * dw], grid.nodes, w, grid.index_of(t), right
    )
    return total


def test_deterministic_data_reduces_every_interpretation_to_gbm():
    grid = TimeGrid(1.0, 32)
    nodes, w = grid.nodes, generate_path(grid, 4, 0)
    c = Affine(2.5, 0.0)
    p = BASELINE
    reference = 2.5 * np.exp((p.mu - 0.5 * p.sigma**2) * nodes + p.sigma * w)
    processes = [exact_wealths([c], p, nodes, w, interp)[0] for interp in (ITO, RV, AK, HS)]
    for proc in processes:
        assert np.array_equal(proc, processes[0])
    assert np.allclose(processes[0], reference, rtol=1e-14)


def test_exact_solution_rejects_ito_with_random_data():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        exact_wealths([Affine(1.0, 2.0)], BASELINE, grid.nodes, generate_path(grid, 4, 0), ITO)


def test_anticipating_terminal_bracket_has_triple_volatility_term():
    # at t = T the translated affine bracket is 1 + (s B_T - 3 s^2 T/2)/(2(mu-rho)T)
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    grid = TimeGrid(1.0, 16)
    w = sample_block(grid, 21, 0, 5)
    got = exact_wealths([c], p, grid.nodes, w, AK)[0][:, -1]
    b_t = w[:, -1]
    bracket = 1.0 + (p.sigma * b_t - 1.5 * p.sigma**2 * p.horizon) / (
        2.0 * (p.mu - p.rho) * p.horizon
    )
    growth = np.exp((p.mu - 0.5 * p.sigma**2) * p.horizon + p.sigma * b_t)
    assert np.allclose(got, p.wealth * bracket * growth, rtol=1e-12, atol=0.0)


def test_translation_consistency_of_exact_solution():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    grid = TimeGrid(1.0, 16)
    w = generate_path(grid, 33, 2)
    proc = exact_wealths([c], p, grid.nodes, w, AK)[0]
    for i, t in enumerate(grid.nodes):
        via_translate = c.translate(p.sigma * t).evaluate(w[-1]) * math.exp(
            (p.mu - 0.5 * p.sigma**2) * t + p.sigma * w[i]
        )
        assert math.isclose(proc[i], via_translate, rel_tol=1e-12)


def test_hs_and_ak_exact_solutions_are_bitwise_identical():
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = random_params(rng)
        grid = TimeGrid(params.horizon, 64)
        w = generate_path(grid, 91, int(rng.integers(1000)))
        for c in (stock_functional(PartialTrust(), params),
                  stock_functional(FullInformation(), params)):
            a = exact_wealths([c], params, grid.nodes, w, AK)[0]
            h = exact_wealths([c], params, grid.nodes, w, HS)[0]
            assert np.array_equal(a, h)


def test_pathwise_domination_for_monotone_data():
    p = BASELINE
    rng = np.random.default_rng(6)
    grid = TimeGrid(1.0, 32)
    paths = sample_block(grid, 17, 0, 1000)
    for c in (logistic(1.0), stock_functional(PartialTrust(), p)):
        w = paths[[int(rng.integers(1000)) for _ in range(10)]]
        low = exact_wealths([c], p, grid.nodes, w, AK)[0]
        high = exact_wealths([c], p, grid.nodes, w, RV)[0]
        assert np.all(low <= high)
        # strictly increasing data: strict gap at every positive time
        assert np.all(low[:, 1:] < high[:, 1:])
        assert np.array_equal(low[:, 0], high[:, 0])


def test_indicator_solution_jumps_when_threshold_is_crossed():
    p = BASELINE
    z = threshold(p)
    grid = TimeGrid(1.0, 64)
    # build a path ending half a window above the threshold: flip at t = T/2
    base = generate_path(grid, 70, 0)
    target = z + p.sigma * p.horizon / 2.0
    values = base + (target - base[-1]) * grid.nodes / p.horizon
    values[0] = 0.0
    c = Indicator(p.wealth, z)
    samples = exact_wealths([c], p, grid.nodes, values, AK)[0]
    factor_on = samples > 0.0
    scan = np.nonzero(factor_on[:-1] & ~factor_on[1:])[0]
    assert scan.size == 1
    flipped, t_est = first_flip(c, p, grid.nodes, values[-1:], AK)
    assert flipped
    # the flip solves B_T - sigma t = z, here t = T/2, up to half a grid cell
    assert abs(t_est - 0.5) <= grid.dt
    assert grid.nodes[scan[0]] <= t_est <= grid.nodes[scan[0] + 1]


def test_flip_detection_agrees_with_window_inequality():
    rng = np.random.default_rng(44)
    for _ in range(40):
        p = random_params(rng)
        z = threshold(p)
        grid = TimeGrid(p.horizon, 32)
        b_t = generate_path(grid, 123, int(rng.integers(10_000)))[-1:]
        c = Indicator(p.wealth, z)
        flipped, _ = first_flip(c, p, grid.nodes, b_t, AK)
        assert flipped == (z < b_t[0] <= z + p.sigma * p.horizon)
        rv_flipped, _ = first_flip(c, p, grid.nodes, b_t, RV)
        assert not rv_flipped


def test_euler_forward_matches_hand_rolled_recursion():
    p = BASELINE
    w = generate_path(TimeGrid(1.0, 4), 8, 0)
    c = Affine(0.5, 1.5)
    grids = [TimeGrid(1.0, n) for n in (1, 2, 4)]
    got = _scheme(c, p, grids, w, RV)
    want = []
    for grid in grids:
        s = c.evaluate(w[-1])
        for dw in np.diff(w[:: 4 // grid.steps]):
            s = s * (1.0 + p.mu * grid.dt + p.sigma * dw)
        want.append(s)
    assert np.allclose(got, want, rtol=1e-15)


def test_euler_forward_terminal_error_shrinks_with_mesh():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    fine = sample_block(TimeGrid(1.0, 4096), 3, 0, 50)
    errs = []
    for n in (64, 512, 4096):
        grid, w = TimeGrid(1.0, n), fine[:, :: 4096 // n]
        exact = exact_wealths([c], p, grid.nodes, w, RV)[0]
        errs.append(np.mean(np.abs(_scheme(c, p, [grid], w, RV)[0] - exact[:, -1])))
    assert errs[0] > errs[1] > errs[2]


def test_forward_sum_of_terminal_value_telescopes_exactly():
    for n in (1, 7, 64):
        grid = TimeGrid(1.0, n)
        w = sample_block(grid, 12, 3, 4)
        (got,) = _riemann(_terminal_as_integrand, grid, w, 1.0, right=False)
        b_t = w[0, -1]
        assert math.isclose(got, b_t * b_t, rel_tol=1e-12, abs_tol=1e-12)


def test_constant_integrand_sums_to_brownian_value():
    grid = TimeGrid(1.0, 128)
    w = sample_block(grid, 13, 1, 2)
    t = 0.5
    (got,) = _riemann(lambda s, x, y: np.ones_like(x), grid, w, t, right=True)
    assert math.isclose(got, w[0, grid.index_of(t)], rel_tol=1e-12, abs_tol=1e-12)


def test_adapted_integrand_reduces_to_ito_left_sum():
    grid = TimeGrid(1.0, 16)
    w = sample_block(grid, 14, 2, 3)
    (got,) = _riemann(lambda s, x, y: x, grid, w, 1.0, right=True)
    dw = np.diff(w[0])
    want = float(np.sum(w[0, :-1] * dw))
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_mixed_endpoint_sum_converges_to_bt_squared_minus_t():
    n = 2**12
    tol = 5.0 * n ** (-0.4)
    grid = TimeGrid(1.0, n)
    w = sample_block(grid, 15, 0, 100)
    got = _riemann(_terminal_as_integrand, grid, w, 1.0, right=True)
    errors = np.abs(got - (w[:, -1] ** 2 - 1.0))
    assert np.mean(errors) < tol


def test_a_block_of_riemann_sums_equals_one_call_per_path():
    # past 128 terms np.sum splits each row's sum pairwise
    grid = TimeGrid(1.0, 512)
    w = sample_block(grid, 15, 5, 12)
    for right in (True, False):
        for t in (0.5, 1.0):
            block = _riemann(_terminal_as_integrand, grid, w, t, right)
            for k in range(w.shape[0]):
                values = generate_path(grid, 15, 5 + k)
                alone = _riemann(_terminal_as_integrand, grid, values, t, right)
                assert block[k].tobytes() == alone.tobytes()


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
        grid = TimeGrid(1.0, n)
        w = sample_block(grid, 16, 0, 8)
        for t in (0.25, 0.5, 1.0):
            got = skorokhod_integral(u, grid, w, t)
            want = w[:, -1] * w[:, grid.index_of(t)] - t
            assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_a_block_of_divergence_integrals_equals_one_call_per_path():
    u = _terminal_product_integrand()
    grid = TimeGrid(1.0, 512)
    w = sample_block(grid, 16, 0, 8)
    for t in (0.5, 1.0):
        block = skorokhod_integral(u, grid, w, t)
        assert block.shape == (8,)
        for k in range(w.shape[0]):
            assert block[k].tobytes() == skorokhod_integral(u, grid, w[k], t).tobytes()
    with pytest.raises(ValueError, match="do not lie on a 256-step grid"):
        skorokhod_integral(u, TimeGrid(1.0, 256), w, 1.0)


def test_correction_scheme_reduces_to_euler_without_randomness():
    p = BASELINE
    w = generate_path(TimeGrid(1.0, 64), 18, 0)
    c = Affine(3.0, 0.0)
    grids = [TimeGrid(1.0, n) for n in (1, 8, 64)]
    assert np.array_equal(_scheme(c, p, grids, w, HS), _scheme(c, p, grids, w, RV))


def test_correction_scheme_rejects_indicator_data():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(NonDifferentiableError):
        _scheme(Indicator(1.0, 0.0), BASELINE, [grid], generate_path(grid, 18, 0), HS)


def test_correction_scheme_converges_to_anticipating_solution():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    fine = sample_block(TimeGrid(1.0, 4096), 19, 0, 50)
    errs = []
    for n in (64, 512, 4096):
        grid, w = TimeGrid(1.0, n), fine[:, :: 4096 // n]
        exact = exact_wealths([c], p, grid.nodes, w, HS)[0]
        errs.append(np.mean(np.abs(_scheme(c, p, [grid], w, HS)[0] - exact[:, -1])))
    assert errs[0] > errs[1] > errs[2]


def test_correction_scheme_handles_smooth_family():
    # logistic data: one correction level is available; the scheme should
    # still track the exact anticipating solution closely on a fine grid
    p = BASELINE
    c = logistic(1.0)
    fine = sample_block(TimeGrid(1.0, 4096), 23, 0, 25)
    err = []
    for n in (64, 4096):
        grid, w = TimeGrid(1.0, n), fine[:, :: 4096 // n]
        exact = exact_wealths([c], p, grid.nodes, w, HS)[0]
        err.append(np.mean(np.abs(_scheme(c, p, [grid], w, HS)[0] - exact[:, -1])))
    assert err[-1] < err[0]
    assert err[-1] < 5e-3


def test_deterministic_residual_is_euler_sized():
    # with constant data the defect is the classical Euler one; per path it is
    # a mean-zero fluctuation, so the size comparison is made in aggregate
    p = BASELINE
    c = Affine(1.0, 0.0)
    ladder = (256, 1024, 4096)
    fine = sample_block(TimeGrid(1.0, ladder[-1]), 20, 0, 100)
    residuals = ak_residuals([c], p, [TimeGrid(1.0, n) for n in ladder], fine)[0]
    means = np.mean(np.abs(residuals), axis=1)
    assert means[0] > means[1] > means[2]
    assert means[-1] < 1e-3


def test_affine_residual_decays_at_half_order():
    # |R| per path is noise-dominated (scale ~ sqrt(dt)), so the decay shows
    # up in aggregate statistics: means and medians halve per 4x refinement
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    ladder = (1024, 4096, 16384)
    grids = [TimeGrid(1.0, n) for n in ladder]
    # 200 paths in blocks of 50, which keeps the working set small
    values = np.abs(np.concatenate([
        ak_residuals([c], p, grids, sample_block(grids[-1], 22, lo, lo + 50))[0]
        for lo in range(0, 200, 50)
    ], axis=1))
    means = values.mean(axis=1)
    medians = np.median(values, axis=1)
    assert means[0] > means[1] > means[2]
    assert medians[0] > medians[1] > medians[2]
    decay = -np.polyfit(np.log2(ladder), np.log2(means), 1)[0]
    assert decay > 0.3


def test_indicator_residual_reports_without_failing():
    p = BASELINE
    c = stock_functional(FullInformation(), p)
    grid = TimeGrid(1.0, 1024)
    r = float(ak_residuals([c], p, [grid], generate_path(grid, 24, 0))[0, 0])
    assert math.isfinite(r)
