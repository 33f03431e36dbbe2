import math

import numpy as np
import pytest

from insidermc import (
    Honest,
    Interpretation,
    MarketParams,
    PartialTrust,
    TimeGrid,
    conjecture_report,
    convergence_studies,
    discontinuity_probe,
    estimate_expectations,
    expected_honest_max,
    expected_insider,
    jump_probability,
    threshold,
)
from insidermc.harness import NumericalError
from insidermc.paths import sample_terminal

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
GRID = TimeGrid(1.0, 16)
ITO = Interpretation.ITO
AK = Interpretation.AYED_KUO
HS = Interpretation.HITSUDA_SKOROKHOD
RV = Interpretation.FORWARD


def test_estimate_is_deterministic_and_reports_sane_fields():
    (a,) = estimate_expectations([(PartialTrust(), RV)], BASELINE, 500, GRID, 11)
    (b,) = estimate_expectations([(PartialTrust(), RV)], BASELINE, 500, GRID, 11)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr
    assert a.n_paths == 500 and a.grid_steps == 16 and a.seed == 11
    assert a.ci_low == a.estimate - 1.96 * a.stderr
    assert a.ci_high == a.estimate + 1.96 * a.stderr
    (c,) = estimate_expectations([(PartialTrust(), RV)], BASELINE, 500, GRID, 12)
    assert c.estimate != a.estimate


def test_estimate_requires_minimum_paths():
    with pytest.raises(ValueError):
        estimate_expectations([(PartialTrust(), RV)], BASELINE, 99, GRID, 1)


HUGE = MarketParams(wealth=1e306, rho=0.02, mu=0.05, sigma=2.0, horizon=5.0)
RV_HS = (Interpretation.FORWARD, Interpretation.HITSUDA_SKOROKHOD)


def test_non_finite_wealth_is_a_numerical_failure():
    # the partial-trust legs overflow to inf on some paths at this wealth
    with pytest.raises(NumericalError):
        estimate_expectations([(PartialTrust(), RV)], HUGE, 200, TimeGrid(5, 8), 1)


# the exact wealth stays finite here; forward fails only at n = 16 (2 values) and
# HS first at n = 8 (4 values), so the message tells which (scheme, level) of the
# ladder is reported first
LATE = MarketParams(wealth=3e303, rho=0.02, mu=0.05, sigma=2.5, horizon=5.0)
# the messages were recorded when each scheme ran its own ladder, scheme by scheme
LADDER_FAILURES = {
    Interpretation.FORWARD: ("1 exact wealth", "2 scheme wealth"),
    Interpretation.HITSUDA_SKOROKHOD: ("2 exact wealth", "4 scheme wealth"),
}


@pytest.mark.parametrize("interp", [Interpretation.FORWARD, Interpretation.HITSUDA_SKOROKHOD])
def test_non_finite_scheme_wealth_in_a_ladder_is_a_numerical_failure(interp):
    other = next(i for i in RV_HS if i is not interp)
    exact, scheme = LADDER_FAILURES[interp]
    # alone, then first of both schemes: the first scheme's failure is named
    for params, interps, seed, what in (
        (HUGE, (interp,), 1, exact),
        (LATE, (interp,), 2, scheme),
        (LATE, (interp, other), 2, scheme),
    ):
        with pytest.raises(NumericalError) as failure:
            with np.errstate(over="ignore"):
                convergence_studies(PartialTrust(), params, interps, (4, 8, 16), 200, seed)
        assert str(failure.value) == f"{what} values are non-finite"


def test_non_finite_residuals_are_a_numerical_failure():
    for wealth, sigma, message in (
        # the control fails on every level (23, 36, 73 values): the first level is named
        (1e306, 2.0, "23 affine-control residual"),
        # the candidate fails first at n = 8, the control at n = 4: levels come first
        (5e307, 2.0, "200 affine-control residual"),
        # both fail at n = 4: the candidate group comes first within a level
        (1e307, 0.5, "4 indicator-candidate residual"),
    ):
        params = MarketParams(wealth=wealth, rho=0.02, mu=0.05, sigma=sigma, horizon=5.0)
        with pytest.raises(NumericalError) as failure:
            conjecture_report(params, 200, (4, 8, 16), 1)
        assert str(failure.value) == f"{message} values are non-finite"


def test_worker_count_does_not_change_the_bits():
    (serial,) = estimate_expectations([(PartialTrust(), AK)], BASELINE, 300, GRID, 5, workers=1)
    (parallel,) = estimate_expectations([(PartialTrust(), AK)], BASELINE, 300, GRID, 5, workers=3)
    assert serial.estimate == parallel.estimate
    assert serial.stderr == parallel.stderr


def test_anticipating_estimates_are_bit_identical():
    (ak,) = estimate_expectations([(PartialTrust(), AK)], BASELINE, 400, GRID, 9)
    (hs,) = estimate_expectations([(PartialTrust(), HS)], BASELINE, 400, GRID, 9)
    assert ak.estimate == hs.estimate
    assert ak.stderr == hs.stderr


def test_bond_only_honest_estimate_is_exact():
    (r,) = estimate_expectations([(Honest(1.0, 0.0), ITO)], BASELINE, 200, GRID, 2)
    assert math.isclose(r.estimate, math.exp(0.02), rel_tol=1e-12)
    assert r.stderr < 1e-14


def test_estimates_land_near_closed_forms():
    n = 4000
    (honest,) = estimate_expectations([(Honest(0.0, 1.0), ITO)], BASELINE, n, GRID, 77)
    assert abs(honest.estimate - expected_honest_max(BASELINE)) < 3.0 * honest.stderr
    (rv,) = estimate_expectations([(PartialTrust(), RV)], BASELINE, n, GRID, 77)
    assert abs(rv.estimate - expected_insider(BASELINE, Interpretation.FORWARD)) < 3.0 * rv.stderr
    (ak,) = estimate_expectations([(PartialTrust(), AK)], BASELINE, n, GRID, 77)
    assert abs(ak.estimate - expected_insider(BASELINE, Interpretation.AYED_KUO)) < 3.0 * ak.stderr


def test_stderr_scales_like_inverse_root_n():
    (small,) = estimate_expectations([(Honest(0.0, 1.0), ITO)], BASELINE, 2000, GRID, 3)
    (large,) = estimate_expectations([(Honest(0.0, 1.0), ITO)], BASELINE, 8000, GRID, 3)
    ratio = small.stderr / large.stderr
    assert 1.6 < ratio < 2.4


def test_convergence_study_slopes_and_validation():
    (table,) = convergence_studies(PartialTrust(), BASELINE, (RV,), (256, 1024, 4096), 100, 21)
    assert [n for n, _ in table.rows] == [256, 1024, 4096]
    errs = [err for _, err in table.rows]
    assert errs[0] > errs[-1]
    assert table.slope >= 0.4
    (hs,) = convergence_studies(PartialTrust(), BASELINE, (HS,), (256, 1024, 4096), 100, 21)
    assert hs.slope >= 0.4

    with pytest.raises(ValueError):
        convergence_studies(PartialTrust(), BASELINE, (RV,), (256, 1024), 100, 21)
    with pytest.raises(ValueError):
        convergence_studies(PartialTrust(), BASELINE, (RV,), (256, 1000, 4096), 100, 21)
    with pytest.raises(ValueError):
        convergence_studies(PartialTrust(), BASELINE, (RV,), (1024, 256, 4096), 100, 21)
    with pytest.raises(ValueError):
        convergence_studies(PartialTrust(), BASELINE, (AK,), (256, 1024, 4096), 100, 21)
    with pytest.raises(ValueError, match="at least 1 path"):
        convergence_studies(PartialTrust(), BASELINE, (RV,), (4, 8, 16), 0, 21)


def test_deterministic_strategy_converges_too():
    (table,) = convergence_studies(Honest(0.3, 0.7), BASELINE, (ITO,), (256, 1024, 4096), 100, 29)
    assert table.slope >= 0.4


def test_discontinuity_probe_matches_closed_form():
    grid = TimeGrid(1.0, 64)
    report = discontinuity_probe(BASELINE, 4000, grid, 19)
    assert report.rv_flips == 0
    assert report.within_tolerance
    assert abs(report.frequency - jump_probability(BASELINE)) <= 4.0 * report.stderr
    assert report.mean_flip_time is not None
    assert 0.0 < report.mean_flip_time < 1.0
    with pytest.raises(ValueError):
        discontinuity_probe(BASELINE, 999, grid, 19)


def test_probe_is_deterministic():
    grid = TimeGrid(1.0, 32)
    a = discontinuity_probe(BASELINE, 1500, grid, 4)
    b = discontinuity_probe(BASELINE, 1500, grid, 4)
    assert a.frequency == b.frequency
    assert a.n_flips == b.n_flips


def test_probe_tracks_closed_form_for_wide_flip_window():
    # high volatility over a long horizon pushes the threshold z far above the
    # reachable B_T, so the flip probability is only 4.3e-4: a handful of flips
    wide = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=3.0, horizon=5.0)
    report = discontinuity_probe(wide, 4000, TimeGrid(5.0, 32), 41)
    assert report.within_tolerance
    assert report.frequency < 1.0
    assert abs(report.frequency - jump_probability(wide)) <= 4.0 * report.stderr


def test_probe_tracks_closed_form_where_many_paths_flip():
    # sigma = 1, T = 2: the window (z, z + sigma T] holds B_T with probability 0.234
    params = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=1.0, horizon=2.0)
    report = discontinuity_probe(params, 4000, TimeGrid(2.0, 32), 41)
    assert abs(jump_probability(params) - 0.234) < 5e-4
    # the flip count is the number of terminal values in the window
    z = threshold(params)
    b_t = sample_terminal(41, params.horizon, 0, 4000)
    in_window = (b_t > z) & ~(b_t - params.sigma * params.horizon > z)
    assert report.n_flips == int(np.count_nonzero(in_window)) == 948
    assert abs(report.frequency - report.closed_form) <= 4.0 * report.stderr
    assert report.rv_flips == 0


def test_conjecture_report_shapes_and_control_group():
    report = conjecture_report(BASELINE, 150, (256, 1024, 4096), 23)
    assert report.label == "evidence"
    assert report.control_verdict == "shrinking"
    groups = {row.group for row in report.rows}
    assert groups == {"indicator-candidate", "affine-control"}
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.q10 <= row.q25 <= row.q50 <= row.q75 <= row.q90
        assert math.isfinite(row.q90)
    control_medians = [r.q50 for r in report.rows if r.group == "affine-control"]
    assert control_medians[0] > control_medians[-1]
    with pytest.raises(ValueError):
        conjecture_report(BASELINE, 99, (256, 1024), 23)
    with pytest.raises(ValueError):
        conjecture_report(BASELINE, 150, (1000, 2000), 23)
