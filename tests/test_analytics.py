import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from insidermc import analytics
from insidermc import (
    Affine,
    Indicator,
    MarketParams,
    MonotoneSmooth,
    MonotonicityError,
    PartialTrust,
    arctangent,
    jump_probability,
    logistic,
    norm_cdf,
    ordering_monotone_block,
    quadrature_expectations,
    random_param_sets,
    random_params,
    stock_functional,
    threshold,
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


def test_expected_insider_baseline_values():
    # A = 1/3 here: (1/3) e^0.02 + (2/3) e^0.05 and (1/3) e^0.02 + (4/3) e^0.05
    closed = closed_form_table(BASELINE)
    assert math.isclose(closed.hs, 1.040914510926268, rel_tol=1e-12)
    assert math.isclose(closed.ak, 1.040914510926268, rel_tol=1e-12)
    assert math.isclose(closed.rv, 1.7417619085102842, rel_tol=1e-12)
    # the all-stock honest split, M e^{mu T}
    assert math.isclose(closed.honest, 1.0512710963760241, rel_tol=1e-14)


def test_expected_insider_degenerates_to_honest_as_tilt_vanishes():
    p = BASELINE
    sigma = math.sqrt(4.0 * (p.mu - p.rho) * 1e-7)  # tilt coefficient 1e-7
    tiny = MarketParams(p.wealth, p.rho, p.mu, sigma, p.horizon)
    target = tiny.wealth * math.exp(tiny.mu * tiny.horizon)
    closed = closed_form_table(tiny)
    for value in (closed.rv, closed.ak):
        assert abs(value - target) < 1e-5 * tiny.wealth


def test_debt_regime_value_and_signs():
    closed = closed_form_table(DEBT)
    e_hs = closed.hs
    assert math.isclose(e_hs, -0.5831542448170808, rel_tol=1e-12)
    assert e_hs < 0.0
    assert closed.rv > closed.honest > 0.0


def test_quadrature_constant_functional_gives_lognormal_mean():
    for shift in (0.0, 0.37, -1.2):
        (got,) = quadrature_expectations(Affine(1.0, 0.0), (shift,), BASELINE)
        assert math.isclose(got, math.exp(0.05), rel_tol=1e-12)


def test_quadrature_affine_matches_closed_form_stock_legs():
    p = BASELINE
    c = stock_functional(PartialTrust(), p)
    a = p.sigma**2 / (4.0 * (p.mu - p.rho))
    (forward_leg,) = quadrature_expectations(c, (0.0,), p)
    assert math.isclose(forward_leg, p.wealth * (1.0 + a) * math.exp(p.mu), rel_tol=1e-10)
    (anticipating_leg,) = quadrature_expectations(c, (p.sigma * p.horizon,), p)
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
        (got,) = quadrature_expectations(c, (shift,), p)
        want = _dense_trapezoid_oracle(c, shift, p)
        assert math.isclose(got, want, rel_tol=1e-6)


def test_indicator_quadrature_closed_form():
    p = BASELINE
    c = Indicator(p.wealth, threshold(p))
    # P(B_T > z + shift - sigma T) under the tilted law, times M e^{mu T}
    for shift in (0.0, p.sigma * p.horizon):
        (got,) = quadrature_expectations(c, (shift,), p)
        arg = (p.sigma * p.horizon - c.threshold - shift) / math.sqrt(p.horizon)
        want = p.wealth * math.exp(p.mu * p.horizon) * norm_cdf(arg)
        assert math.isclose(got, want, rel_tol=1e-14)


def test_quadrature_table_refuses_a_block():
    with pytest.raises(ValueError, match="takes one parameter set"):
        quadrature_table(random_param_sets(np.random.default_rng(1), 4))


def test_closed_form_vs_quadrature_on_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        p = random_params(rng)
        closed = closed_form_table(p)
        quad = quadrature_table(p)
        for pair in ((closed.hs, quad.hs), (closed.ak, quad.ak), (closed.rv, quad.rv),
                     (closed.honest, quad.honest)):
            assert abs(pair[0] - pair[1]) / p.wealth < 1e-8


@pytest.mark.parametrize("seed", [1, 11])
def test_column_closed_forms_are_the_one_set_floats(seed):
    # per-set exp and ** 2 come from libm, whose bits np.exp and s * s need not match
    block = random_param_sets(np.random.default_rng(seed), 4096)
    table = closed_form_table(block)
    bond, z, flip = insider_bond_leg(block), threshold(block), jump_probability(block)
    stock = stock_functional(PartialTrust(), block)
    verdicts = ("hs_equals_ak", "ak_below_honest", "honest_below_rv", "all_hold")
    for i in range(len(block)):
        p = block[i]
        one = closed_form_table(p)
        assert (table.honest[i], table.hs[i], table.ak[i], table.rv[i]) == (
            one.honest, one.hs, one.ak, one.rv
        )
        # one set's verdicts are bools, as the JSON writer needs
        assert [type(getattr(one, v)) for v in verdicts] == [bool] * 4
        assert [getattr(table, v)[i] for v in verdicts] == [getattr(one, v) for v in verdicts]
        assert (bond[i], z[i], flip[i]) == (insider_bond_leg(p), threshold(p), jump_probability(p))
        c = stock_functional(PartialTrust(), p)
        assert (stock.a[i, 0], stock.b[i, 0]) == (c.a, c.b)


def test_insider_bond_leg_closed_form():
    p = BASELINE
    assert math.isclose(insider_bond_leg(p), (1.0 / 3.0) * math.exp(0.02), rel_tol=1e-12)


def test_verify_ordering_baseline():
    v = closed_form_table(BASELINE)
    assert v.hs_equals_ak and v.ak_below_honest and v.honest_below_rv and v.all_hold
    assert math.isclose(v.honest, 1.0512710963760241, rel_tol=1e-12)
    assert math.isclose(v.rv, 1.7417619085102842, rel_tol=1e-12)


def test_ordering_chain_identity_on_sweep():
    # honest - anticipating = M A (e^{mu T} - e^{rho T}) exactly
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = random_params(rng, wealth=float(rng.uniform(0.2, 5.0)))
        v = closed_form_table(p)
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
        return closed_form_table(p).hs

    a_star = math.exp(mu) / (math.exp(mu) - math.exp(rho))
    sigma_star = math.sqrt(4.0 * (mu - rho) * a_star)
    root = brentq(value, 0.5 * sigma_star, 2.0 * sigma_star, xtol=1e-12)
    assert abs(root - sigma_star) < 1e-6
    assert value(root + 1e-6) < 0.0 < value(root - 1e-6)


def test_ordering_monotone_families():
    p = BASELINE
    for c in (logistic(1.0), arctangent(1.0)):
        (e_ak,), (e_rv,) = ordering_monotone_block(c, p)
        assert e_ak < e_rv
    # affine gap is exactly M_b * sigma * T * e^{mu T} for slope M_b
    c = stock_functional(PartialTrust(), p)
    (e_ak,), (e_rv,) = ordering_monotone_block(c, p)
    want_gap = c.b * p.sigma * p.horizon * math.exp(p.mu * p.horizon)
    assert math.isclose(e_rv - e_ak, want_gap, rel_tol=1e-10)


def test_ordering_monotone_rejects_bad_inputs():
    with pytest.raises(MonotonicityError):
        ordering_monotone_block(Affine(1.0, 0.0), BASELINE)  # constant
    with pytest.raises(MonotonicityError):
        ordering_monotone_block(Affine(1.0, -2.0), BASELINE)  # decreasing
    with pytest.raises(MonotonicityError):
        ordering_monotone_block(Indicator(1.0, 0.0), BASELINE)  # discontinuous


def _column(values) -> np.ndarray:
    return np.array([[v] for v in values])


def _sweep_sets(seed: int, n: int) -> MarketParams:
    return random_param_sets(np.random.default_rng(seed), n)


def test_batched_quadrature_equals_one_set_calls_bit_for_bit():
    # at seed 7, set 81 needs 1024 nodes (arctangent, forward leg); the rest stop at 128 to 512
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
                quadrature_expectations(c, (s,), p)[0] for c, s, p in zip(singles, shifts, sets)
            ]
            assert got == want, name
            assert all(type(v) is float for v in got)
    legs = ordering_monotone_block(families["arctangent"][0], sets)
    singles = [ordering_monotone_block(arctangent(p.wealth), p) for p in sets]
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


def test_kernel_evaluates_only_the_sets_still_doubling():
    # at seed 7, set 81 needs 1024 nodes (arctangent, forward leg); 90 others stop
    # at 512, 64 at 256 and 45 at 128, the first rule with two agreements in a row
    sets = _sweep_sets(7, 200)
    c = arctangent(_column(p.wealth for p in sets))
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return c.fn(x)

    shifts = [0.0] * len(sets)
    got = quadrature_expectations(replace(c, fn=counted), shifts, sets)
    assert got == quadrature_expectations(c, shifts, sets)
    # the hint probe at each set's centre, then the sets still doubling at each node count
    assert sum(sizes) == 200 + 200 * (32 + 64 + 128) + 155 * 256 + 91 * 512 + 1 * 1024
    assert max(sizes) <= analytics._CHUNK_VALUES


def test_oracle_lies_within_1e_9_of_an_8192_node_rule():
    # every set stops at the first rule it trusts; that rule must be as good as
    # a far finer one, for each family the sweep checks and both stock legs
    sets = random_param_sets(np.random.default_rng(11), 1024)
    wealth = _column(p.wealth for p in sets)
    stocks = [stock_functional(PartialTrust(), p) for p in sets]
    families = {
        "logistic": logistic(wealth),
        "arctangent": arctangent(wealth),
        "affine": Affine(_column(c.a for c in stocks), _column(c.b for c in stocks)),
    }
    factor = np.array([math.exp(p.mu * p.horizon) for p in sets]) / math.sqrt(math.pi)
    roots = [math.sqrt(2.0 * p.horizon) for p in sets]
    drifts = [p.sigma * p.horizon for p in sets]
    for leg, shifts in {"anticipating": drifts, "forward": [0.0] * len(sets)}.items():
        columns = np.array([roots, drifts, shifts])[:, :, None]
        for name, c in families.items():
            got = np.array(quadrature_expectations(c, shifts, sets))
            want = factor * analytics._node_sums(c, columns, 8192)
            worst = np.max(np.abs(got - want) / np.abs(want))
            assert worst <= 1e-9, (name, leg, worst)


def test_quadrature_table_builds_only_the_rules_it_settles_at(monkeypatch):
    # the three affine legs of the default market settle together at 128 nodes
    rule = analytics._hermgauss
    rule.cache_clear()
    asked = []
    monkeypatch.setattr(analytics, "_hermgauss", lambda n: asked.append(n) or rule(n))
    quadrature_table(BASELINE)
    assert sorted(set(asked)) == [32, 64, 128]
    assert rule.cache_info().currsize == 3


@pytest.mark.parametrize("nodes", [256, 512, 1024, 2048, 4096])
def test_chunk_sums_equal_one_dot_per_row(nodes):
    # the kernel's row sums must keep the bits of w @ row for any chunk height
    _, w = analytics._hermgauss(nodes)
    values = np.random.default_rng(nodes).standard_normal((333, nodes))
    want = [float(w @ row) for row in values]
    for rows in range(1, 334):
        assert analytics._row_dots(values[:rows], w).tolist() == want[:rows], rows


@pytest.mark.parametrize("nodes", [256, 1024])
def test_node_sums_keep_the_bits_of_the_plain_argument(nodes):
    # the kernel builds root * x + drift - shift in one reused buffer; over
    # several row chunks and a short last one, each sum keeps the bits of the
    # expression written out, row by row
    x, w = analytics._hermgauss(nodes)
    sets = _sweep_sets(3, 150)
    shifts = [p.sigma * p.horizon if i % 2 else 0.0 for i, p in enumerate(sets)]
    columns = np.array([
        [math.sqrt(2.0 * p.horizon) for p in sets], [p.sigma * p.horizon for p in sets], shifts,
    ])[:, :, None]
    got = analytics._node_sums(arctangent(_column(p.wealth for p in sets)), columns, nodes)
    want = [
        float(w @ arctangent(p.wealth).evaluate(root * x + drift - shift))
        for p, (root, drift, shift) in zip(sets, columns.transpose(1, 0, 2))
    ]
    assert got.tolist() == want


def test_monotone_probe_block_raises_the_one_set_message():
    # the first failing row decides the message: a decreasing one, then a constant one
    cases = [([1.0, 2.0, -1.0, 1.0, 0.0, 1.0], -1.0), ([1.0, 0.0, -1.0, 1.0, 1.0, 1.0], 0.0)]
    # 120 sets probed in chunks: the first failing row, 40, lies past the first
    # chunk, and a row with the other failure follows in a later chunk
    assert 40 >= analytics._CHUNK_VALUES // analytics._PROBE_POINTS
    for bad, later in ((-1.0, 0.0), (0.0, -1.0)):
        scales = [1.0] * 120
        scales[40], scales[100] = bad, later
        cases.append((scales, bad))
    for scales, bad in cases:
        sets = _sweep_sets(3, len(scales))
        with pytest.raises(MonotonicityError) as one:
            ordering_monotone_block(logistic(bad), sets[scales.index(bad)])
        with pytest.raises(MonotonicityError, match=f"^{one.value}$"):
            ordering_monotone_block(logistic(_column(scales)), sets)
    sets = _sweep_sets(3, 6)
    slopes = _column([1.0, 1.0, -2.0, 1.0, 1.0, 1.0])
    with pytest.raises(MonotonicityError, match="affine functional must have positive slope"):
        ordering_monotone_block(Affine(1.0, slopes), sets)


def test_monotone_block_probes_the_shape_once():
    # the block's fn values are the kernel's on the same legs plus one probe
    sets = _sweep_sets(7, 200)
    base = arctangent(_column(p.wealth for p in sets))
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return base.fn(x)

    c = replace(base, fn=counted)
    ordering_monotone_block(c, sets)
    block = sum(sizes)
    sizes.clear()
    shifts = [[p.sigma * p.horizon for p in sets], [0.0] * len(sets)]
    quadrature_expectations(replace(c, scale=np.tile(c.scale, (2, 1))), shifts, sets)
    assert block - sum(sizes) == analytics._PROBE_POINTS


def _monotone_outcome(c, sets):
    """The MonotonicityError message of a block, or None if it passes."""
    try:
        ordering_monotone_block(c, sets)
    except MonotonicityError as error:
        return str(error)
    return None


@pytest.mark.parametrize("bad, want", [
    (-1.0, "decreases"),
    (0.0, "constant"),
    (math.nan, "constant"),
    (math.inf, "constant"),
    # every probe value is -inf, so none is below the one before it
    (-math.inf, "constant"),
    (5e-324, None),
])
def test_monotone_block_checks_each_scale_as_its_one_set_probe(bad, want):
    sets = _sweep_sets(3, 6)
    scales = [1.0, 2.0, 1.0, bad, 1.0, 0.5]
    for family in (logistic, arctangent):
        one = _monotone_outcome(family(bad), sets[3])
        assert one == _monotone_outcome(family(_column(scales)), sets)
        assert one is None if want is None else want in one


def test_monotone_block_rejects_a_bad_shape():
    sets = _sweep_sets(3, 6)
    scales = _column([1.0] * 6)
    bump = MonotoneSmooth(scale=scales, fn=lambda x: np.exp(-np.square(x)))
    with pytest.raises(MonotonicityError, match="decreases"):
        ordering_monotone_block(bump, sets)
    flat = MonotoneSmooth(scale=scales, fn=np.zeros_like)
    with pytest.raises(MonotonicityError, match="constant"):
        ordering_monotone_block(flat, sets)


def test_monotone_block_probes_the_widest_window():
    # x e^{-x^2/50} rises on |x| < 5 only: inside +-8 sqrt(0.1), not +-8 sqrt(5)
    hump = MonotoneSmooth(scale=1.0, fn=lambda x: x * np.exp(-np.square(x) / 50.0))
    hump.validate_monotone(0.1)
    with pytest.raises(MonotonicityError, match="decreases"):
        hump.validate_monotone(5.0)
    sets = replace(BASELINE, horizon=np.array([0.1, 5.0]))
    with pytest.raises(MonotonicityError, match="decreases"):
        ordering_monotone_block(hump, sets)


def test_oracle_settles_at_the_debt_regime_boundary(tmp_path):
    # A = sigma^2 / (4 (mu - rho)) = 1: the anticipating stock leg is exactly 0,
    # so only the integrand's own scale can tell its rounding from a change
    config = tmp_path / "boundary.ini"
    config.write_text(
        "[market]\nwealth = 1.0\nrho = 0.01\nmu = 0.05\nsigma = 0.4\nhorizon = 1.0\n"
        "\n[strategy]\nkind = partial-trust\n"
    )
    assert main(["expect", "--config", str(config)]) == 0


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
