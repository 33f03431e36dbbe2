"""Acceptance suite: one test per quantitative claim, each printing a PASS line.

Budgeted statistical runs use the documented default seed 20240101; sweep
tests draw parameters from the benchmark ranges with fixed seeds.
"""
import math
import time

import numpy as np

from insidermc import (
    Honest,
    Interpretation,
    MarketParams,
    PartialTrust,
    TimeGrid,
    ak_integral,
    arctangent,
    closed_form_table,
    conjecture_report,
    convergence_studies,
    discontinuity_probe,
    estimate_expectations,
    expected_honest_max,
    expected_insider,
    generate_path,
    logistic,
    ordering_monotone_block,
    quadrature_expectations,
    random_params,
    skorokhod_integral,
    stock_functional,
)
from insidermc.analytics import insider_bond_leg
from insidermc.functionals import IntegrandTerm, ProductIntegrand
from insidermc.harness import DEFAULT_SEED
from insidermc.integrators import exact_wealths

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
DEBT = MarketParams(wealth=1.0, rho=0.04, mu=0.05, sigma=2.5, horizon=1.0)

# frozen expected values, derived by hand from the closed forms before the build
E_ANTICIPATING = 1.040914510926268
E_FORWARD = 1.7417619085102842
E_HONEST = 1.0512710963760241
E_DEBT = -0.5831542448170808
JUMP_PROB = 0.07955649820861499

AK = Interpretation.AYED_KUO
HS = Interpretation.HITSUDA_SKOROKHOD
RV = Interpretation.FORWARD
ITO = Interpretation.ITO
CASES = ((Honest(0.0, 1.0), ITO), (PartialTrust(), AK), (PartialTrust(), HS), (PartialTrust(), RV))


def test_criterion_01_closed_form_vs_quadrature_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng, wealth=float(rng.uniform(0.2, 5.0)))
        bond = insider_bond_leg(p)
        c = stock_functional(PartialTrust(), p)
        legs = quadrature_expectations(c, (p.sigma * p.horizon, 0.0), p)
        quad_anticipating, quad_forward = (bond + leg for leg in legs)
        for interp, oracle in ((HS, quad_anticipating), (AK, quad_anticipating), (RV, quad_forward)):
            gap = abs(expected_insider(p, interp) - oracle) / p.wealth
            worst = max(worst, gap)
            assert gap < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: 1000 parameter sets, worst |closed - quadrature|/M = "
          f"{worst:.3e} < 1e-8 ({elapsed:.1f}s)")


def test_criterion_02_monte_carlo_reproduces_closed_forms():
    start = time.monotonic()
    # exact-solution terminal values depend on the path only through B_T,
    # so a short grid keeps the run well inside budget at N = 1e5
    grid = TimeGrid(1.0, 8)
    n = 100_000
    honest, ak, hs, rv = estimate_expectations(CASES, BASELINE, n, grid, DEFAULT_SEED)
    assert abs(honest.estimate - E_HONEST) <= 3.0 * honest.stderr
    assert abs(ak.estimate - E_ANTICIPATING) <= 3.0 * ak.stderr
    assert abs(hs.estimate - E_ANTICIPATING) <= 3.0 * hs.stderr
    assert abs(rv.estimate - E_FORWARD) <= 3.0 * rv.stderr
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nCRITERION 2 PASS: N=1e5 estimates {ak.estimate:.5f} (AK/HS), "
          f"{rv.estimate:.5f} (RV), {honest.estimate:.5f} (honest) all within 3 stderr "
          f"({elapsed:.1f}s)")


def test_criterion_03_strict_ordering_chain():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        p = random_params(rng, wealth=float(rng.uniform(0.2, 5.0)))
        assert closed_form_table(p).all_hold
    # empirical chain under common random numbers at the documented seed
    grid = TimeGrid(1.0, 16)
    n = 10_000
    honest, ak, hs, rv = estimate_expectations(CASES, BASELINE, n, grid, DEFAULT_SEED)
    assert hs.estimate == ak.estimate
    assert ak.estimate < honest.estimate < rv.estimate
    print(f"\nCRITERION 3 PASS: chain verdicts true on 1000 sets; empirical chain "
          f"{ak.estimate:.5f} = {hs.estimate:.5f} < {honest.estimate:.5f} < {rv.estimate:.5f} "
          f"at N=1e4")


def test_criterion_04_anticipating_solutions_identical():
    rng = np.random.default_rng(104)
    count = 0
    for _ in range(40):
        p = random_params(rng)
        grid = TimeGrid(p.horizon, 128)
        for strategy in (PartialTrust(),):
            c = stock_functional(strategy, p)
            for k in range(5):
                path = generate_path(grid, 104, int(rng.integers(100_000)))
                a = exact_wealths([c], p, path.grid.nodes, path.values, AK)[0]
                h = exact_wealths([c], p, path.grid.nodes, path.values, HS)[0]
                assert np.array_equal(a, h)
                count += 1
    grid = TimeGrid(1.0, 16)
    (ak,) = estimate_expectations([(PartialTrust(), AK)], BASELINE, 2000, grid, DEFAULT_SEED)
    (hs,) = estimate_expectations([(PartialTrust(), HS)], BASELINE, 2000, grid, DEFAULT_SEED)
    assert ak.estimate == hs.estimate and ak.stderr == hs.stderr
    print(f"\nCRITERION 4 PASS: {count} sampled paths node-wise identical (tolerance 0); "
          f"MC estimates bit-identical")


def test_criterion_05_debt_regime():
    e_hs = expected_insider(DEBT, HS)
    e_ak = expected_insider(DEBT, AK)
    e_rv = expected_insider(DEBT, RV)
    e_honest = expected_honest_max(DEBT)
    assert abs(e_hs - E_DEBT) < 1e-2
    assert e_hs < 0.0 and e_ak < 0.0
    assert e_rv > e_honest > 0.0
    print(f"\nCRITERION 5 PASS: debt regime E_HS = {e_hs:.5f} < 0 while "
          f"E_RV = {e_rv:.2f} > E_I = {e_honest:.4f} > 0")


def test_criterion_06_scheme_convergence_slopes():
    start = time.monotonic()
    ladder = (256, 512, 1024, 2048, 4096, 8192, 16384)
    forward, corrected = convergence_studies(
        PartialTrust(), BASELINE, (RV, HS), ladder, 1000, DEFAULT_SEED
    )
    assert forward.slope >= 0.4
    assert corrected.slope >= 0.4
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nCRITERION 6 PASS: fitted decay {forward.slope:.3f} (forward Euler), "
          f"{corrected.slope:.3f} (corrected scheme), both >= 0.4 ({elapsed:.1f}s)")


def test_criterion_07_mixed_endpoint_test_vector():
    n = 2**14
    bound = 5.0 * n ** (-0.4)
    grid = TimeGrid(1.0, n)
    errors = []
    for idx in range(100):
        path = generate_path(grid, DEFAULT_SEED, idx)
        value = ak_integral(lambda s, x, y: x + y, path, 1.0)
        errors.append(abs(value - (path.terminal**2 - 1.0)))
    mean_err = float(np.mean(errors))
    assert mean_err < bound
    print(f"\nCRITERION 7 PASS: mean |sum - (B_T^2 - T)| = {mean_err:.4e} < {bound:.4e} "
          f"at n = 2^14 over 100 paths")


def test_criterion_08_divergence_test_vector():
    u = ProductIntegrand(
        terms=(
            IntegrandTerm(adapted=lambda s, x: x, future=np.ones_like,
                          future_derivative=np.zeros_like),
            IntegrandTerm(adapted=lambda s, x: np.ones_like(x), future=lambda y: y,
                          future_derivative=np.ones_like),
        )
    )
    n = 1024
    bound = 5.0 * n ** (-0.4)
    grid = TimeGrid(1.0, n)
    worst = 0.0
    for idx in range(50):
        path = generate_path(grid, DEFAULT_SEED, idx)
        for t in (0.25, 0.5, 1.0):
            got = skorokhod_integral(u, path, t)
            want = path.terminal * path.values[grid.index_of(t)] - t
            worst = max(worst, abs(got - want))
    assert worst < bound
    print(f"\nCRITERION 8 PASS: divergence primitive matches B_T B_t - t, "
          f"worst error {worst:.3e} < {bound:.3e}")


def test_criterion_09_jump_probability():
    report = discontinuity_probe(BASELINE, 100_000, TimeGrid(1.0, 64), DEFAULT_SEED)
    assert abs(report.frequency - JUMP_PROB) <= 4.0 * report.stderr
    assert report.rv_flips == 0
    print(f"\nCRITERION 9 PASS: empirical flip frequency {report.frequency:.5f} vs "
          f"closed form {JUMP_PROB:.5f} (4 stderr = {4 * report.stderr:.5f}); "
          f"forward solution flips = 0 in 1e5 paths")


def test_criterion_10_monotone_ordering_by_quadrature():
    rng = np.random.default_rng(110)
    worst = math.inf
    for _ in range(1000):
        p = random_params(rng, wealth=float(rng.uniform(0.2, 5.0)))
        families = (
            logistic(p.wealth),
            arctangent(p.wealth),
            stock_functional(PartialTrust(), p),
        )
        for c in families:
            (e_ak,), (e_rv,) = ordering_monotone_block(c, p)
            margin = (e_rv - e_ak) / p.wealth
            worst = min(worst, margin)
            assert margin > 1e-10
    print(f"\nCRITERION 10 PASS: E_AK < E_RV for logistic/arctangent/affine on 1000 sets, "
          f"min margin {worst:.3e} > 1e-10")


def test_criterion_11_conjecture_evidence():
    report = conjecture_report(BASELINE, 200, (256, 1024, 4096), DEFAULT_SEED)
    assert report.label == "evidence"
    assert report.control_verdict == "shrinking"
    candidate_rows = [r for r in report.rows if r.group == "indicator-candidate"]
    assert len(candidate_rows) == 3
    for row in candidate_rows:
        assert math.isfinite(row.q50) and math.isfinite(row.q90)
    print(f"\nCRITERION 11 PASS: evidence report complete; control group shrinking; "
          f"candidate trend reported as '{report.candidate_verdict}' (no pass bar)")
