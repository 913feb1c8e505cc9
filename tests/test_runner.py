import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncmcast import completion, simkit
from ncmcast.channel import ErasureTrace
from ncmcast.completion import AdaptivePolicy, ModelParams, NonAdaptivePolicy
from ncmcast.gf import FieldSpec
from ncmcast.runner import _mc_summary_row, run_scenario, write_results_csv
from ncmcast.scenario import load_scenario
from ncmcast.simkit import SimConfig, run_multicast, run_single
from ncmcast.virtualize import MulticastGroup, build_maxpe

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
# scenario's seed: RLNC decoding on every scheme (generators per trial),
# and nc/anc under idealized decoding (one generator per run, one receiver
# at a time).  A change to the simulator must leave these bytes as they are.
# Ideal maxpe/maxct cells are left out, so that a change in the order of
# their draws, which the statistical tests cover, re-records no hash.
MONTECARLO_CSV_SHA256 = {
    "rlnc": (dict(decoding="rlnc", trials=5),
             "7e149cffd0b3ce83d5ad8a5f3913a496aae89ea7e8f6d1b4081ffa5c9167e7d0"),
    "ideal-nc-anc": (dict(trials=2000, schemes=["nc", "anc"]),
                     "c7018e22a3f6209f842ddb78936e5003f88ae58f55f539665f7b8ad734dbd4e8"),
}

# SHA-256 of the GF(2^4) trial records of one anc receiver and one
# three-receiver maxpe group.  Over so small a field about 100 of the
# received packets are not innovative, so the gate covers the dependent
# branch of elimination that the GF(2^8) hash above almost never reaches.
SMALL_FIELD_RECORDS_SHA256 = \
    "71d05acbdcbbf5ae028c63d89d2ee97257d4384e4a5a2ea30577c9589110412e"


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


def test_engines_share_one_plan_per_point(monkeypatch):
    # one plan per point: the 10 own tables and the V-MaxPe table serve
    # both engines (the V-MaxCT sender reuses its reference's own table),
    # and the 10 own solves that rank maxct serve the analytic cells too.
    # Monte Carlo simulates nc 10, anc 10, one group run per virtual scheme
    # and the two V-MaxPe cells; the V-MaxCT cells are the reference's own.
    calls = {}
    for module, name in ((completion, "_expected_cost"),
                         (completion, "_sizing_table"), (simkit, "_simulate")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    scenario = point("geo-trend-demo.yaml", 7.0, trials=30)
    expected = {"analytic": (41, 11, 0), "montecarlo": (10, 11, 24),
                "both": (41, 11, 24)}
    rows = {}
    for engine, counts in expected.items():
        calls.update(_expected_cost=0, _sizing_table=0, _simulate=0)
        rows[engine] = run_scenario(scenario, engine=engine)
        assert (calls["_expected_cost"], calls["_sizing_table"],
                calls["_simulate"]) == counts
    assert rows["both"] == rows["analytic"] + rows["montecarlo"]


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
    # At 10 dB a V-MaxPe anc trial meets a window no batch covers after the
    # multicast rows are written; that cell alone becomes NA.
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
    shared = AdaptivePolicy(build_maxpe(group).pe)
    records = (run_single(SimConfig(**base), pe, AdaptivePolicy(pe)).records
               + run_multicast(SimConfig(**base), group, shared).records)
    text = "".join(f"{r.completion_time!r},{r.packets_sent},{r.rounds},"
                   f"{r.completed},{r.dof_timeline}\n" for r in records)
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_FIELD_RECORDS_SHA256
