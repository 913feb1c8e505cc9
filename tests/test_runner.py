import hashlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncmcast import completion, runner
from ncmcast.channel import ErasureTrace, to_erasure_trace
from ncmcast.completion import (AdaptivePolicy, ModelParams, NonAdaptivePolicy,
                                expected_delay_packets)
from ncmcast.gf import FieldSpec
from ncmcast.runner import (_cell_seed, _mc_summary_row, build_traces, model_params,
                            run_scenario, write_results_csv)
from ncmcast.scenario import load_scenario
from ncmcast.simkit import SimConfig, run_single
from ncmcast.virtualize import MulticastGroup, build_maxpe, maxct_reference

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# SHA-256 of the analytic results CSV on the scenario's own seed.  An
# analytic change must leave these bytes as they are; a deliberate change
# of results re-records them and says why.
ANALYTIC_CSV_SHA256 = {
    ("geo-trend-demo.yaml", 7.0):
        "54d0baaf73ea7dedf1687631d77c4daaa82c999ff4501ab20c27b4c401ea4df0",
    ("geo-iv-defaults.yaml", 7.0):
        "7f5727c89b3361cde8ced8fe74b1e9c19e42624738ff256b4c55a0c9ebaf0785",
    ("geo-iv-defaults.yaml", 10.0):
        "195fb12aa3828ffb68c7a0a3a294411a1444b3390f313358145ca5a2c7c07018",
}

# SHA-256 of the analytic results CSV of each shipped scenario's full
# sweep, under the same rule.
FULL_SWEEP_SHA256 = {
    "geo-trend-demo.yaml":
        "85655a80308556becaffccb7c0bdb2f6d03b1d2e6652ffa113c871d99ee92bab",
    "geo-iv-defaults.yaml":
        "c8acc18b67aac0a31d8fdf1c3ef4705018efad4309a3e9e5d1fe3fd352ff2e9e",
}

# SHA-256 of Monte Carlo results CSVs of geo-trend-demo at 7.0 dB on the
# scenario's seed, every scheme, under RLNC and under idealized decoding.
# Every trial draws from its counter streams, so a change to the simulator
# must leave these bytes as they are.
MONTECARLO_CSV_SHA256 = {
    "rlnc": (dict(decoding="rlnc", trials=5),
             "feb919d2d1d00181062f9a2a7024205c7d1f436be0acc118c42c2e5f431506d5"),
    "ideal": (dict(trials=2000),
              "6ce06e918a3070258e4efc6977bcae7757b432bba301724f80539dfb4333db64"),
}

# SHA-256 of the GF(2^4) trial records of one anc receiver, then of each
# receiver of a three-receiver group run alone under the group's maxpe
# policy.  Over so small a field about 100 of the received packets are not
# innovative, so the gate covers the dependent branch of elimination that
# the GF(2^8) hash above almost never reaches.
SMALL_FIELD_RECORDS_SHA256 = \
    "fffb57babaef3ff7816fb8680d40e69444ed326eff3429e1e7261420a0cb99c6"


def point(name, ebn0, **changes):
    return replace(load_scenario(SCENARIOS / name), eb_n0_db=[ebn0], **changes)


def cell_keys(rows):
    return [(r["receiver"], r["scheme"], r["eb_n0_db"], r["engine"]) for r in rows]


@pytest.mark.parametrize("name, ebn0", sorted(ANALYTIC_CSV_SHA256))
def test_analytic_csv_is_byte_identical(name, ebn0, tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(path, run_scenario(point(name, ebn0)))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ANALYTIC_CSV_SHA256[name, ebn0]


@pytest.mark.parametrize("name", sorted(FULL_SWEEP_SHA256))
def test_full_analytic_sweep_is_byte_identical(name, tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(path, run_scenario(load_scenario(SCENARIOS / name)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_SWEEP_SHA256[name]


def test_analytic_point_solves_each_own_channel_once(monkeypatch):
    # 10 receivers: nc 10 (also giving V-MaxCT nc), anc 10 (also ranking
    # maxct and giving the reference receiver's maxct cell and V-MaxCT
    # anc), maxpe 10 + 2, maxct 9
    calls = []
    solve = completion._expected_cost

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(completion, "_expected_cost", counted)
    rows = run_scenario(point("geo-trend-demo.yaml", 7.0))
    assert len(rows) == 44
    assert all(row["delay_s"] is not None for row in rows)
    assert len(calls) == 41


@pytest.fixture()
def sizing_tables(monkeypatch):
    """Counts of the sizing tables built, by their number of rows."""
    tables = Counter()

    def counted(pe, dof, original=completion._sizing_table):
        tables[dof] += 1
        return original(pe, dof)

    monkeypatch.setattr(completion, "_sizing_table", counted)
    return tables


def test_engines_share_one_plan_per_point(monkeypatch, sizing_tables):
    # one plan per point: the 10 own tables and the V-MaxPe table serve
    # both engines (the V-MaxCT sender reuses its reference's own table),
    # and the 10 own solves that rank maxct serve the analytic cells too.
    # Each sizing table is counted by its rows: an analytic solve checks
    # a one-row table before the full one, Monte Carlo reads only full
    # tables.  Monte Carlo answers the point in one pass of nc 10, anc 10,
    # maxpe 10, the two V-MaxPe cells and maxct 9 (41 questions): the
    # reference receiver's maxct cell and the V-MaxCT cells are the
    # reference's own.
    calls = {}
    for module, name in ((completion, "_expected_cost"), (runner, "run_many")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            if name == "run_many":
                calls["questions"] += len(args[1])
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    scenario = point("geo-trend-demo.yaml", 7.0, trials=30)
    expected = {"analytic": (41, {1: 11, 10: 11}, 0, 0),
                "montecarlo": (10, {1: 10, 10: 11}, 1, 41),
                "both": (41, {1: 11, 10: 11}, 1, 41)}
    rows = {}
    for engine, counts in expected.items():
        calls.update(_expected_cost=0, run_many=0, questions=0)
        sizing_tables.clear()
        rows[engine] = run_scenario(scenario, engine=engine)
        assert (calls["_expected_cost"], dict(sizing_tables),
                calls["run_many"], calls["questions"]) == counts
    assert rows["both"] == rows["analytic"] + rows["montecarlo"]


def test_infeasible_models_stop_at_the_one_row_table(sizing_tables):
    # geo-iv at 4 dB: every adaptive model is uncovered at level 1, so no
    # full table is built; at 10 dB three of the 11 stop there
    rows = run_scenario(point("geo-iv-defaults.yaml", 4.0))
    assert dict(sizing_tables) == {1: 11}
    assert len(rows) == 44 and all(row["delay_s"] is None for row in rows)
    sizing_tables.clear()
    run_scenario(point("geo-iv-defaults.yaml", 10.0))
    assert dict(sizing_tables) == {1: 11, 10: 8}


def test_vmaxct_rows_are_the_reference_receivers_own():
    engines = {}  # engine -> {(receiver, scheme): row}
    for row in run_scenario(point("geo-trend-demo.yaml", 7.0, trials=30),
                            engine="both"):
        engines.setdefault(row["engine"], {})[row["receiver"], row["scheme"]] = row
    analytic = engines["analytic"]
    # the reference is the receiver slowest under its own adaptive policy
    ref = max((row for (_, scheme), row in analytic.items()
               if scheme == "anc" and not row["receiver"].startswith("V-")),
              key=lambda row: row["delay_s"])["receiver"]
    for cells in engines.values():
        for scheme in ("nc", "anc"):
            assert cells["V-MaxCT", scheme] == dict(cells[ref, scheme],
                                                    receiver="V-MaxCT")


def test_montecarlo_virtual_cells_are_receiver_local():
    # each receiver's maxpe/maxct row is that receiver run alone under the
    # shared policy, seeded as its own cell
    scenario = point("geo-trend-demo.yaml", 7.0, trials=30)
    params = model_params(scenario)
    traces = [to_erasure_trace(tr, 7.0, scenario.modulation, scenario.bits_per_packet)
              for tr in build_traces(scenario)]
    labels = scenario.receiver_labels()
    ref = maxct_reference(labels, [
        expected_delay_packets(tr, params, AdaptivePolicy(tr), scenario.start_slot)
        for tr in traces])
    shared = {"maxpe": AdaptivePolicy(build_maxpe(MulticastGroup(traces, labels))),
              "maxct": AdaptivePolicy(traces[ref])}
    rows = {(row["receiver"], row["scheme"]): row
            for row in run_scenario(scenario, engine="montecarlo")}
    for scheme, policy in shared.items():
        for k, label in enumerate(labels):
            seeded = "anc" if scheme == "maxct" and k == ref else scheme
            seed = _cell_seed(scenario.seed, 7.0, seeded, label)
            config = SimConfig(trials=30, seed=np.random.SeedSequence(seed),
                               params=params, decoding=scenario.decoding,
                               start_slot=scenario.start_slot)
            alone = run_single(config, traces[k], policy)
            assert rows[str(label), scheme] == _mc_summary_row(label, scheme, 7.0, alone)
    label = str(labels[ref])
    assert rows[label, "maxct"] == dict(rows[label, "anc"], scheme="maxct")


def test_maxct_alone_gives_the_full_runs_maxct_rows():
    full = point("geo-trend-demo.yaml", 7.0, trials=30)
    alone = run_scenario(replace(full, schemes=["maxct"]), engine="both")
    wanted = [row for row in run_scenario(full, engine="both")
              if row["scheme"] == "maxct" or row["receiver"] == "V-MaxCT"]
    assert alone == wanted


@pytest.mark.parametrize("case", sorted(MONTECARLO_CSV_SHA256))
def test_montecarlo_csv_is_byte_identical(case, tmp_path):
    changes, expected = MONTECARLO_CSV_SHA256[case]
    path = tmp_path / "results.csv"
    rows = run_scenario(point("geo-trend-demo.yaml", 7.0, **changes),
                        engine="montecarlo")
    write_results_csv(path, rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_montecarlo_cell_with_a_trial_out_of_rounds_is_na():
    pe = np.full(5, 0.5)
    nc = NonAdaptivePolicy()
    config = SimConfig(trials=200, seed=3, max_rounds=3,
                       params=ModelParams(dof=4, t_p=1e-3, t_w=6e-3))
    cut = run_single(config, pe, nc)
    assert 0 < cut.n_failures < cut.n_trials
    assert _mc_summary_row("1", "nc", 7.0, cut)["delay_s"] is None
    whole = run_single(replace(config, max_rounds=10_000), pe, nc)
    assert whole.n_failures == 0
    assert _mc_summary_row("1", "nc", 7.0, whole)["delay_s"] is not None


def test_montecarlo_virtual_failure_writes_one_row_per_cell(tmp_path):
    # At 10 dB a V-MaxPe anc trial meets a window no batch covers; that
    # cell alone becomes NA, and every other cell keeps its one row.
    rows = run_scenario(point("geo-iv-defaults.yaml", 10.0, trials=50),
                        engine="montecarlo")
    keys = cell_keys(rows)
    assert len(rows) == 44
    assert len(set(keys)) == 44
    by_key = dict(zip(keys, rows))
    assert by_key["V-MaxPe", "anc", 10.0, "montecarlo"]["delay_s"] is None
    assert by_key["V-MaxPe", "nc", 10.0, "montecarlo"]["delay_s"] is not None
    write_results_csv(tmp_path / "results.csv", rows)


def test_write_results_csv_rejects_a_repeated_cell(tmp_path):
    rows = run_scenario(point("geo-iv-defaults.yaml", 7.0))
    path = tmp_path / "results.csv"
    with pytest.raises(ValueError, match="duplicate"):
        write_results_csv(path, rows + rows[3:4])
    assert not path.exists()


def test_small_field_trial_records_are_byte_identical():
    pe = np.array([0.25, 0.15, 0.35, 0.2, 0.1, 0.3, 0.18, 0.22])
    base = dict(trials=400, seed=404, decoding=FieldSpec(4), record_trials=True,
                params=ModelParams(dof=10, t_p=0.67e-3, t_w=0.2388))
    group = MulticastGroup([ErasureTrace(p, eb_n0_db=7.0, bits_per_packet=100)
                            for p in (pe, np.roll(pe, 3), 0.5 * pe)])
    shared = AdaptivePolicy(build_maxpe(group))
    records = run_single(SimConfig(**base), pe, AdaptivePolicy(pe)).records
    for trace in group.receivers:
        records += run_single(SimConfig(**base), trace, shared).records
    text = "".join(f"{r.completion_time!r},{r.packets_sent},{r.rounds},"
                   f"{r.completed},{r.dof_timeline}\n" for r in records)
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_FIELD_RECORDS_SHA256


@pytest.mark.parametrize("decoding", ["ideal", "rlnc"])
def test_workers_split_trials_with_one_pool_per_point(monkeypatch, decoding):
    """--workers splits every question's trials, so rows do not depend on
    it, and a Monte Carlo point starts one process pool for all of them."""
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    scenario = point("geo-trend-demo.yaml", 7.0, trials=30, decoding=decoding)
    serial = run_scenario(scenario, engine="montecarlo", workers=1)
    assert pools == []
    assert run_scenario(scenario, engine="montecarlo", workers=2) == serial
    assert pools == [2]
    pools.clear()
    run_scenario(replace(scenario, eb_n0_db=[6.5, 7.0, 7.5]), engine="montecarlo",
                 workers=2)
    assert pools == [2, 2, 2]
