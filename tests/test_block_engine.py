"""The block-wise Monte Carlo engine against per-path reference loops.

The whole-path references draw one path at a time with ``generate_path``,
``coarsen`` it for the grid ladders and evaluate it with the per-path
``euler_forward``, ``skorokhod_via_correction``, ``exact_solution`` and
``ak_residual``. The expectation estimator and the flip probe read B_T
alone, which the terminal stream draws directly; their references read each
index's B_T from the stream contract written out in ``_contract_terminal``
and evaluate it with the per-path ``total_wealth`` and
``detect_indicator_flip``. The block engine must reproduce every reference
bit for bit, for any worker count. The flip kernel ``first_flip`` bisects
the node index; its reference is the node-by-node scan of every state,
``_scan_first_flip``.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insidermc import (
    FullInformation,
    Honest,
    Interpretation,
    MarketParams,
    PartialTrust,
    TimeGrid,
    ak_residual,
    coarsen,
    conjecture_report,
    convergence_studies,
    detect_indicator_flip,
    discontinuity_probe,
    estimate_expectations,
    euler_forward,
    exact_solution,
    generate_path,
    random_params,
    skorokhod_via_correction,
    stock_functional,
    total_wealth,
)
from insidermc.harness import _BLOCK_VALUES, _blocks
from insidermc.integrators import ANTICIPATING, first_flip
from insidermc.paths import BrownianPath, sample_block, sample_terminal

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
WIDE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=1.0, horizon=2.0)  # ~23 % flip
AK = Interpretation.AYED_KUO
HS = Interpretation.HITSUDA_SKOROKHOD
RV = Interpretation.FORWARD

CASES = (
    ("honest", Honest(0.0, 1.0), Interpretation.ITO),
    ("hs", PartialTrust(), Interpretation.HITSUDA_SKOROKHOD),
    ("ak", PartialTrust(), AK),
    ("rv", PartialTrust(), RV),
)


def _contract_terminal(seed, horizon, idx):
    """B_T of path ``idx``: element idx mod _BLOCK_VALUES of the key block's normals, times sqrt(T)."""
    key = np.array([seed, idx // _BLOCK_VALUES], dtype=np.uint64)
    normals = np.random.Generator(np.random.Philox(key=key)).standard_normal(
        idx % _BLOCK_VALUES + 1
    )
    return normals[-1] * math.sqrt(horizon)


def _terminal_path(grid, seed, idx):
    # the straight line from 0 to the contract's B_T: the exact terminal
    # wealth and the flip detector read nothing but the last value
    b_t = _contract_terminal(seed, grid.horizon, idx)
    return BrownianPath(grid, grid.nodes / grid.horizon * b_t, seed, idx)


def _reference_expectation(strategy, params, interp, n_paths, grid, seed):
    values = np.array([
        total_wealth(
            strategy, params, _terminal_path(TimeGrid(grid.horizon, 1), seed, idx), interp
        )[-1]
        for idx in range(n_paths)
    ])
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n_paths))


SCHEME_CASES = (
    ("honest", Honest(0.0, 1.0), Interpretation.ITO),
    ("hs", PartialTrust(), HS),
    ("rv", PartialTrust(), RV),
)


def _reference_scheme(c, params, path, interp):
    if interp is HS:
        return skorokhod_via_correction(c, params, path)
    return euler_forward(c, params, path)


def _reference_convergence(strategy, params, interp, n_list, n_paths, seed):
    c = stock_functional(strategy, params)
    exact_interp = HS if interp is HS else RV
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    totals = np.zeros(len(n_list))
    for idx in range(n_paths):
        fine = generate_path(fine_grid, seed, idx)
        for j, n in enumerate(n_list):
            path = coarsen(fine, n_max // n)
            approx = _reference_scheme(c, params, path, interp)[-1]
            exact = exact_solution(c, params, path, exact_interp)[-1]
            totals[j] += abs(approx - exact)
    return [float(err) for err in totals / n_paths]


def _reference_residuals(params, n_paths, n_list, seed):
    groups = {
        "indicator-candidate": stock_functional(FullInformation(), params),
        "affine-control": stock_functional(PartialTrust(), params),
    }
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    residuals = {name: np.empty((len(n_list), n_paths)) for name in groups}
    for idx in range(n_paths):
        fine = generate_path(fine_grid, seed, idx)
        for j, n in enumerate(n_list):
            path = coarsen(fine, n_max // n)
            for name, c in groups.items():
                residuals[name][j, idx] = abs(ak_residual(c, params, path))
    return [
        (name, n, *(float(q) for q in np.quantile(residuals[name][j], (0.1, 0.25, 0.5, 0.75, 0.9))))
        for name in groups
        for j, n in enumerate(n_list)
    ]


def _quantile_rows(report):
    return [(r.group, r.steps, r.q10, r.q25, r.q50, r.q75, r.q90) for r in report.rows]


def _reference_probe(params, n_paths, grid, seed):
    c = stock_functional(FullInformation(), params)
    flip_times = []
    rv_flips = 0
    for idx in range(n_paths):
        path = _terminal_path(grid, seed, idx)
        flipped, t_est = detect_indicator_flip(c, params, path, AK)
        if flipped:
            flip_times.append(t_est)
        rv_flips += int(detect_indicator_flip(c, params, path, RV)[0])
    mean_time = float(np.mean(flip_times)) if flip_times else None
    return len(flip_times), mean_time, rv_flips


def _scan_first_flip(c, params, nodes, b_t, interp):
    """``first_flip`` as a scan: the on/off state at every node, then the first change."""
    if interp in ANTICIPATING:
        factor = np.greater(b_t - params.sigma * nodes, c.threshold)
    else:
        factor = np.broadcast_to(np.greater(b_t, c.threshold), b_t.shape[:-1] + nodes.shape)
    changes = factor[..., 1:] != factor[..., :-1]
    flipped = changes.any(axis=-1)
    i = changes.argmax(axis=-1)
    return flipped, np.where(flipped, 0.5 * (nodes[i] + nodes[i + 1]), np.nan)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.sampled_from((1, 2, 3, 64, 1024)),
    interp=st.sampled_from((AK, HS, RV)),
)
def test_first_flip_equals_the_node_by_node_scan(seed, steps, interp):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    nodes = TimeGrid(params.horizon, steps).nodes
    assert np.all(nodes[1:] >= nodes[:-1])
    c = stock_functional(FullInformation(), params)
    # each node's boundary z + sigma t_k, one ulp to either side of it, and draws
    # from the law of B_T and from the flip window
    edges = c.threshold + params.sigma * nodes
    b_t = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        rng.standard_normal(200) * math.sqrt(params.horizon),
        c.threshold + params.sigma * params.horizon * rng.uniform(size=200),
    ])[:, None]
    flipped, times = first_flip(c, params, nodes, b_t, interp)
    want_flipped, want_times = _scan_first_flip(c, params, nodes, b_t, interp)
    assert np.array_equal(flipped, want_flipped)
    assert np.array_equal(times, want_times, equal_nan=True)
    assert flipped.any() == (interp is not RV)


@pytest.mark.parametrize("steps", [8, 64, 1024])
def test_block_rows_equal_generate_path(steps):
    grid = TimeGrid(1.3, steps)
    rows = _BLOCK_VALUES // (steps + 1)
    start, stop = 5, 5 + rows + 3  # more rows than one harness block
    block = sample_block(grid, 17, start, stop)
    assert block.shape == (stop - start, steps + 1)
    reference = np.stack([generate_path(grid, 17, idx).values for idx in range(start, stop)])
    assert np.array_equal(block, reference)
    spans = list(_blocks(grid, start, stop))
    assert len(spans) == 2
    pieces = np.concatenate([sample_block(grid, 17, lo, hi) for lo, hi in spans])
    assert np.array_equal(pieces, block)


def test_sample_block_rejects_bad_ranges_and_seeds():
    grid = TimeGrid(1.0, 4)
    assert sample_block(grid, 1, 3, 3).shape == (0, 5)
    for start, stop in ((-1, 2), (4, 3)):
        with pytest.raises(ValueError):
            sample_block(grid, 1, start, stop)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_block(grid, seed, 0, 2)
        with pytest.raises(ValueError):
            generate_path(grid, seed, 0)
    top = sample_block(grid, 2**64 - 1, 0, 1)
    assert np.array_equal(top[0], generate_path(grid, 2**64 - 1, 0).values)


@pytest.mark.parametrize("seed", [3, 20240101])
@pytest.mark.parametrize("steps,n_paths", [(64, 1200), (1024, 100)])
def test_expectation_matches_per_path_reference(seed, steps, n_paths):
    grid = TimeGrid(1.0, steps)
    for _, strategy, interp in CASES:
        (report,) = estimate_expectations([(strategy, interp)], BASELINE, n_paths, grid, seed)
        estimate, stderr = _reference_expectation(strategy, BASELINE, interp, n_paths, grid, seed)
        assert report.estimate == estimate
        assert report.stderr == stderr


@pytest.mark.parametrize("seed", [3, 20240101])
@pytest.mark.parametrize("params,grid", [(BASELINE, TimeGrid(1.0, 64)), (WIDE, TimeGrid(2.0, 32))])
def test_probe_matches_per_path_reference(seed, params, grid):
    report = discontinuity_probe(params, 2000, grid, seed)
    n_flips, mean_time, rv_flips = _reference_probe(params, 2000, grid, seed)
    assert report.n_flips == n_flips > 0
    assert report.mean_flip_time == mean_time
    assert report.rv_flips == rv_flips == 0


def test_outputs_equal_values_recorded_from_the_per_path_sampler():
    # the whole-path values were recorded with the per-path sampler the block
    # engine replaced; the probe and the exact-mode estimates were recorded
    # when they moved to the terminal stream. The references above share the
    # kernels; these pin both stream contracts.
    path = generate_path(TimeGrid(1.3, 5), 20240101, 3)  # sqrt(dt) is not a power of two
    assert path.values.tolist() == [
        0.0, 0.1804078727956246, 0.8981426719323746, 0.9353200186244972, 1.4544068715473242,
        0.5338411231558293,
    ]
    report = discontinuity_probe(BASELINE, 2000, TimeGrid(1.0, 64), 3)
    assert (report.n_flips, report.mean_flip_time) == (154, 0.5179586038961039)
    recorded = {
        "honest": (1.0567119803043263, 0.006166380432169325),
        "hs": (1.0531474665638516, 0.029188771126618735),
        "ak": (1.0531474665638516, 0.029188771126618735),
        "rv": (1.7576221201000692, 0.030922279501596713),
    }
    for label, strategy, interp in CASES:
        (r,) = estimate_expectations([(strategy, interp)], BASELINE, 1200, TimeGrid(1.0, 64), 3)
        assert (r.estimate, r.stderr) == recorded[label]


def test_sample_terminal_pins_the_terminal_stream():
    # sqrt(1.3) is no power of two; the range crosses the first key boundary
    values = sample_terminal(20240101, 1.3, _BLOCK_VALUES - 2, _BLOCK_VALUES + 2)
    assert values.tolist() == [
        0.3467656372980264, -1.3907347305436213, 1.9475932050103417, 0.7187647899089593,
    ]
    assert sample_terminal(20240101, 1.3, 0, 3).tolist() == [
        0.6283555687836723, -1.4630675021907347, -0.0735990747184151,
    ]
    for idx in (0, 2, _BLOCK_VALUES - 1, _BLOCK_VALUES, 2 * _BLOCK_VALUES + 5):
        assert sample_terminal(20240101, 1.3, idx, idx + 1)[0] == _contract_terminal(
            20240101, 1.3, idx
        )
    assert sample_terminal(1, 1.0, 4, 4).shape == (0,)
    for start, stop in ((-1, 2), (4, 3)):
        with pytest.raises(ValueError):
            sample_terminal(1, 1.0, start, stop)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_terminal(seed, 1.0, 0, 2)


def test_terminal_ranges_that_start_inside_a_key_block_match_a_serial_draw():
    n = 2 * _BLOCK_VALUES + 4464  # 70000 indices, three key blocks
    serial = sample_terminal(11, 2.0, 0, n)
    bounds = np.linspace(0, n, 4, dtype=int)  # the three-worker split
    pieces = [sample_terminal(11, 2.0, int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces), serial)


def test_exact_mode_at_70000_paths_does_not_depend_on_workers():
    grid = TimeGrid(1.0, 8)
    cases = [(strategy, interp) for _, strategy, interp in CASES]
    reports = [
        estimate_expectations(cases, BASELINE, 70_000, grid, 8, workers=w) for w in (1, 2, 3)
    ]
    for other in reports[1:]:
        assert [(r.estimate, r.stderr) for r in other] == [
            (r.estimate, r.stderr) for r in reports[0]
        ]
    flip_grid = TimeGrid(2.0, 16)
    probes = [discontinuity_probe(WIDE, 70_000, flip_grid, 8, workers=w) for w in (1, 2, 3)]
    assert probes[0] == probes[1] == probes[2]
    # the probe across the key blocks at 32768 and 65536 equals the scan of the same draw
    c = stock_functional(FullInformation(), WIDE)
    b_t = sample_terminal(8, flip_grid.horizon, 0, 70_000)[:, None]
    flipped, times = _scan_first_flip(c, WIDE, flip_grid.nodes, b_t, AK)
    rv_flipped, _ = _scan_first_flip(c, WIDE, flip_grid.nodes, b_t, RV)
    assert probes[0].n_flips == np.count_nonzero(flipped) > 0
    assert probes[0].mean_flip_time == float(np.mean(times[flipped]))
    assert probes[0].rv_flips == np.count_nonzero(rv_flipped) == 0


def test_steps_do_not_change_exact_mode_estimates():
    cases = [(strategy, interp) for _, strategy, interp in CASES]
    coarse = estimate_expectations(cases, BASELINE, 3000, TimeGrid(1.0, 8), 21)
    fine = estimate_expectations(cases, BASELINE, 3000, TimeGrid(1.0, 1024), 21)
    assert [(r.estimate, r.stderr) for r in coarse] == [(r.estimate, r.stderr) for r in fine]
    assert (coarse[0].grid_steps, fine[0].grid_steps) == (8, 1024)


def test_worker_count_does_not_change_the_bits():
    grid = TimeGrid(1.0, 64)
    for _, strategy, interp in CASES:
        (serial,) = estimate_expectations([(strategy, interp)], BASELINE, 1500, grid, 8, workers=1)
        (parallel,) = estimate_expectations(
            [(strategy, interp)], BASELINE, 1500, grid, 8, workers=2
        )
        assert (serial.estimate, serial.stderr) == (parallel.estimate, parallel.stderr)
    serial = discontinuity_probe(WIDE, 3000, TimeGrid(2.0, 32), 8, workers=1)
    parallel = discontinuity_probe(WIDE, 3000, TimeGrid(2.0, 32), 8, workers=2)
    assert serial == parallel
    with pytest.raises(ValueError):
        discontinuity_probe(WIDE, 3000, TimeGrid(2.0, 32), 8, workers=0)


LADDER = (4, 8, 16, 32, 64)  # 600 paths of 65 nodes span two blocks


@pytest.mark.parametrize("seed", [3, 20240101])
@pytest.mark.parametrize("label,strategy,interp", SCHEME_CASES, ids=[c[0] for c in SCHEME_CASES])
def test_convergence_study_matches_per_path_reference(seed, label, strategy, interp):
    assert len(list(_blocks(TimeGrid(1.0, LADDER[-1]), 0, 600))) == 2
    (table,) = convergence_studies(strategy, BASELINE, (interp,), LADDER, 600, seed)
    reference = _reference_convergence(strategy, BASELINE, interp, LADDER, 600, seed)
    assert [err for _, err in table.rows] == reference


def test_convergence_study_matches_reference_on_a_long_fine_grid():
    # 1025 nodes give 31 rows per block, so 40 paths span two blocks
    ladder = (64, 256, 1024)
    (table,) = convergence_studies(PartialTrust(), WIDE, (HS,), ladder, 40, 20240101)
    assert [err for _, err in table.rows] == _reference_convergence(
        PartialTrust(), WIDE, HS, ladder, 40, 20240101
    )


@pytest.mark.parametrize("seed", [3, 20240101])
@pytest.mark.parametrize("params", [BASELINE, WIDE])
def test_conjecture_report_matches_per_path_reference(seed, params):
    n_list = (16, 64, 256)  # 300 paths of 257 nodes span three blocks
    assert len(list(_blocks(TimeGrid(params.horizon, n_list[-1]), 0, 300))) == 3
    report = conjecture_report(params, 300, n_list, seed)
    assert _quantile_rows(report) == _reference_residuals(params, 300, n_list, seed)


def test_ladder_outputs_equal_values_recorded_from_the_per_path_loops():
    # recorded with the per-path loops and kernels the block engine replaced;
    # the references above share the new kernels, these pin them too
    recorded = {
        "rv": ([0.031235887894143943, 0.021574364257561096, 0.015277589303361264,
                0.011115950338315255, 0.007811695961128334], 0.48556166491830544),
        "hs": ([0.03555041261105584, 0.022933975305528296, 0.01517162748229906,
                0.010840753859664312, 0.007389818360789825], 0.5386537689500358),
        "honest": ([0.01141956604803178, 0.008110984199992117, 0.005948817437357996,
                    0.0042027704187330844, 0.002968314276732923], 0.4851961661018626),
    }
    for label, strategy, interp in SCHEME_CASES:
        (table,) = convergence_studies(strategy, BASELINE, (interp,), LADDER, 600, 3)
        assert ([err for _, err in table.rows], table.slope) == recorded[label]
    report = conjecture_report(BASELINE, 300, (16, 64, 256), 3)
    medians = [row.q50 for row in report.rows]
    assert medians == [
        0.008127331900253179, 0.0015561470287969864, 0.0002943014593766273,
        0.1747151339062322, 0.08642890344100626, 0.04508555514270943,
    ]
    assert report.rows[-1].q90 == 0.10652111618258588


def test_ladder_outputs_equal_recorded_values_off_power_of_two_steps():
    # T = 1.3 makes dt no power of two, so regrouping sigma * dt changes bits
    odd = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.7, horizon=1.3)
    recorded = {
        RV: ([1.7056199847191273, 1.2759941251089095, 0.8277370453153503,
              0.5811686930675647, 0.42621702922947347], 0.5256100174032093),
        HS: ([2.048091020534492, 1.4196901781112357, 0.8911817252044364,
              0.5880019855505948, 0.39884331885638646], 0.6094944938717479),
    }
    for interp, expected in recorded.items():
        (table,) = convergence_studies(PartialTrust(), odd, (interp,), LADDER, 600, 5)
        assert ([err for _, err in table.rows], table.slope) == expected
    report = conjecture_report(odd, 300, (16, 64, 256), 5)
    assert [row.q50 for row in report.rows] == [
        0.0, 0.0, 0.0, 1.2136426886056304, 0.6137300429866892, 0.3167842484735857,
    ]
    assert (report.rows[0].q90, report.rows[-1].q90) == (0.7669181321771208, 1.2247622719631652)


@pytest.mark.parametrize("workers", [1, 2], ids=["exact-1", "exact-2"])
def test_multi_case_estimates_equal_the_one_case_calls(workers):
    grid = TimeGrid(1.0, 64)
    reports = estimate_expectations(
        [(strategy, interp) for _, strategy, interp in CASES], BASELINE, 1500, grid, 8,
        workers=workers,
    )
    assert len(reports) == len(CASES)
    for report, (_, strategy, interp) in zip(reports, CASES):
        (single,) = estimate_expectations(
            [(strategy, interp)], BASELINE, 1500, grid, 8, workers=workers
        )
        assert (report.estimate, report.stderr) == (single.estimate, single.stderr)
    # one shared run, so one wall time on every report
    assert len({r.elapsed_seconds for r in reports}) == 1 and reports[0].elapsed_seconds > 0.0


def test_convergence_studies_equal_the_one_scheme_calls():
    tables = convergence_studies(PartialTrust(), BASELINE, (RV, HS), LADDER, 600, 3)
    assert [t.interpretation for t in tables] == [RV, HS]
    for table in tables:
        (single,) = convergence_studies(
            PartialTrust(), BASELINE, (table.interpretation,), LADDER, 600, 3
        )
        assert (table.rows, table.slope) == (single.rows, single.slope)
