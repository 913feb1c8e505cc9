import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from ncmcast.runner import run_scenario, write_results_csv
from ncmcast.scenario import load_scenario

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


def test_montecarlo_virtual_failure_writes_one_row_per_cell(tmp_path):
    # At 10 dB a V-MaxPe anc trial meets a window no batch covers after the
    # multicast rows are written; that cell alone becomes NA.
    rows = run_scenario(point("geo-iv-defaults.yaml", 10.0, trials=10),
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
