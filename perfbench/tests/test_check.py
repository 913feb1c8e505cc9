"""Tests of the benchmark's reference and cell checker.

    python3 -m pytest perfbench/tests -q

The program serves here only as the thing checked: the reference must
agree with it on small inputs, and the checker must reject results that
were tampered with.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import reference  # noqa: E402
from ncmcast import runner  # noqa: E402
from ncmcast.completion import (  # noqa: E402
    AdaptivePolicy,
    CompletionModel,
    InfeasibleWindowError,
    ModelParams,
    NonAdaptivePolicy,
    anc_batch_size,
)
from ncmcast.scenario import load_scenario  # noqa: E402

TREND = ROOT / "scenarios" / "geo-trend-demo.yaml"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_table_matches_scalar_sizing(seed):
    rng = np.random.default_rng(seed)
    pe = rng.uniform(0.0, 0.97, size=40)
    pe[rng.integers(0, 40, size=6)] = 1.0
    table = reference.batch_table(pe, 4, pe.size)
    for r in range(1, 5):
        for j in range(pe.size):
            try:
                want = anc_batch_size(pe, j, r)
            except InfeasibleWindowError:
                want = 0
            assert table[r - 1, j] == want


@pytest.mark.parametrize("seed", [4, 5, 6])
@pytest.mark.parametrize("adaptive", [False, True])
def test_solve_matches_program(seed, adaptive):
    rng = np.random.default_rng(seed)
    pe = rng.uniform(0.0, 0.7, size=30)
    params = ModelParams(dof=4, t_p=0.01, t_w=0.2, ack_slot_advance=1)
    policy = AdaptivePolicy(pe) if adaptive else NonAdaptivePolicy()
    model = CompletionModel(pe, params, policy)
    table = reference.batch_table(pe if adaptive else None, 4, pe.size)
    for start in (0, 7):
        ref = reference.solve(pe, table, 0.01, 0.2, 1, start)
        assert not ref.na_ok
        assert ref.delay == pytest.approx(model.expected_time(start_slot=start), rel=1e-12)
        assert ref.packets == pytest.approx(model.average_packets(start_slot=start), rel=1e-12)
        assert ref.rounds == pytest.approx(
            model.expected_rounds(start_slot=start), rel=1e-12)


def test_geometric_moments():
    # One DoF, one packet per round, constant erasure e: rounds are
    # geometric with success 1 - e.
    e, cost = 0.4, 0.01 + 0.2
    ref = reference.solve(np.full(7, e), reference.batch_table(None, 1, 7),
                          0.01, 0.2, 1, 0)
    assert ref.delay == pytest.approx(cost / (1 - e), rel=1e-12)
    assert ref.delay_sd == pytest.approx(cost * math.sqrt(e) / (1 - e), rel=1e-9)


def test_fully_erased_trace_is_na():
    pe = np.ones(12)
    for sizing in (None, pe):
        table = reference.batch_table(sizing, 3, pe.size)
        ref = reference.solve(pe, table, 0.01, 0.2, 1, 0)
        assert ref.na_ok and ref.delay is None
        assert reference.na_justified(pe, table, 1)


def test_erased_cycle_off_the_start_is_na_but_solvable():
    # The non-adaptive sender at one DoF steps j -> j + 2, so the fully
    # erased odd slots form a cycle that a start on an even slot never meets.
    pe = np.full(16, 0.1)
    pe[1::2] = 1.0
    table = reference.batch_table(None, 1, pe.size)
    ref = reference.solve(pe, table, 0.01, 0.2, 1, 0)
    assert ref.na_ok
    assert ref.delay is not None


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    """A 3-receiver, 120-slot cut of the trend scenario at one point."""
    sc = replace(load_scenario(TREND), receivers=3, trace_length=120,
                 eb_n0_db=[7.0], trials=400)
    traces = runner.build_traces(sc)
    p = replace(check.Params.from_yaml(TREND), receivers=3)
    out = {}
    for engine in ("analytic", "montecarlo"):
        path = tmp_path_factory.mktemp(engine) / "results.csv"
        runner.write_results_csv(path, runner.run_scenario(sc, engine, traces=traces))
        out[engine] = check.read_csv(path)
    return p, [tr.gains_db for tr in traces], out


def _verdict(small_sweep, engine, rows):
    p, gains, _ = small_sweep
    return check.check_sweep(rows, p, gains, [7.0], engine, trials=400)


@pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
def test_program_output_passes(small_sweep, engine):
    v = _verdict(small_sweep, engine, small_sweep[2][engine])
    assert v.attempted == 3 * 4 + 4
    assert v.failed == 0
    assert v.problems == []


def _find(rows, receiver, scheme):
    return next(i for i, r in enumerate(rows)
                if r["receiver"] == receiver and r["scheme"] == scheme)


def test_rejects_perturbed_analytic_delay(small_sweep):
    rows = [dict(r) for r in small_sweep[2]["analytic"]]
    i = _find(rows, "2", "anc")
    rows[i]["delay_s"] *= 1 + 1e-6
    rows[i]["throughput_pps"] = 10 / rows[i]["delay_s"]
    v = _verdict(small_sweep, "analytic", rows)
    assert v.failed == 0
    assert any("('2', 'anc', 7.0): delay" in m for m in v.problems)


def test_rejects_perturbed_montecarlo_delay(small_sweep):
    rows = [dict(r) for r in small_sweep[2]["montecarlo"]]
    i = _find(rows, "1", "nc")
    rows[i]["delay_s"] *= 1.5
    v = _verdict(small_sweep, "montecarlo", rows)
    assert any("('1', 'nc', 7.0): delay" in m for m in v.problems)


def test_rejects_broken_property(small_sweep):
    rows = [dict(r) for r in small_sweep[2]["analytic"]]
    i = _find(rows, "V-MaxCT", "anc")
    rows[i]["delay_s"] *= 1 + 1e-12
    rows[i]["throughput_pps"] = 10 / rows[i]["delay_s"]
    v = _verdict(small_sweep, "analytic", rows)
    assert any("V-MaxCT anc" in m for m in v.problems)


@pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
def test_counts_duplicated_cell_as_failed(small_sweep, engine):
    rows = [dict(r) for r in small_sweep[2][engine]]
    i = _find(rows, "3", "maxpe")
    rows.append(dict(rows[i], delay_s=None, throughput_pps=None,
                     avg_packets=None, se_delay=None))
    v = _verdict(small_sweep, engine, rows)
    assert v.failed == 1
    assert v.problems == []


def test_counts_missing_cell_as_failed(small_sweep):
    rows = [dict(r) for r in small_sweep[2]["analytic"]]
    del rows[_find(rows, "V-MaxPe", "nc")]
    v = _verdict(small_sweep, "analytic", rows)
    assert v.failed == 1


@pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
def test_rejects_na_where_reference_is_finite(small_sweep, engine):
    rows = [dict(r) for r in small_sweep[2][engine]]
    i = _find(rows, "1", "anc")
    rows[i].update(delay_s=None, throughput_pps=None, avg_packets=None, se_delay=None)
    v = _verdict(small_sweep, engine, rows)
    assert v.failed == 0
    assert any("NA where the reference is finite" in m for m in v.problems)


def test_rejects_rows_for_unrequested_points(small_sweep):
    p, gains, out = small_sweep
    rows = [dict(r) for r in out["analytic"]]
    rows.append(dict(rows[0], eb_n0_db=8.0))
    v = check.check_workload(rows, [(p, gains, [7.0], "analytic", None, False)])
    assert v.problems
