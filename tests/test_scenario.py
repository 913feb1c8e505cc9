import numpy as np
import pytest
import yaml

from ncmcast.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def test_defaults_match_baseline_constants():
    s = Scenario()
    assert s.receivers == 10
    assert s.dof == 10
    assert s.packet_time_s == 0.67e-3
    assert s.ack_wait_s == 0.2388
    assert s.bits_per_packet == 10_000
    assert s.eb_n0_db == [float(x) for x in range(11)]
    assert s.modulation == "bpsk"
    assert s.schemes == ["nc", "anc", "maxpe", "maxct"]


def test_round_robin_initial_states():
    s = Scenario()
    states = [s.initial_state(k) for k in range(6)]
    assert states == ["los", "moderate", "deep", "los", "moderate", "deep"]


def test_save_load_round_trip(tmp_path):
    s = Scenario(name="little", receivers=3, trace_length=50,
                 eb_n0_db=[4.0, 6.0], trials=100)
    path = tmp_path / "s.yaml"
    save_scenario(path, s)
    back = load_scenario(path)
    assert scenario_to_dict(back) == scenario_to_dict(s)


def test_dict_round_trip_preserves_lms():
    s = Scenario()
    back = scenario_from_dict(scenario_to_dict(s))
    assert np.array_equal(back.lms.transition, s.lms.transition)
    assert back.lms.los == s.lms.los


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"receviers": 10})


def test_validation_errors():
    with pytest.raises(ScenarioError):
        Scenario(receivers=0)
    with pytest.raises(ScenarioError):
        Scenario(eb_n0_db=[])
    with pytest.raises(ScenarioError):
        Scenario(schemes=["anc", "turbo"])
    with pytest.raises(ScenarioError):
        Scenario(trace_files=["a.csv"])  # must match receiver count
    with pytest.raises(ScenarioError):
        Scenario(packet_time_s=0.0)


@pytest.mark.parametrize("key, value", [("decoding", "rlcn"), ("decoding", "gf256"),
                                        ("modulation", "qpsk7"), ("modulation", 5)])
def test_unknown_decoding_or_modulation_rejected_on_load(tmp_path, key, value):
    path = tmp_path / "s.yaml"
    path.write_text(f"{key}: {value}\n")
    with pytest.raises(ScenarioError, match=f"unknown {key}"):
        load_scenario(path)


@pytest.mark.parametrize("key, value", [("decoding", "ideal"), ("decoding", "rlnc"),
                                        ("modulation", "bpsk"), ("modulation", "QPSK")])
def test_known_decoding_and_modulation_load(tmp_path, key, value):
    path = tmp_path / "s.yaml"
    path.write_text(f"{key}: {value}\n")
    assert getattr(load_scenario(path), key) == value


def test_missing_file_raises_scenario_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "absent.yaml")


def test_non_mapping_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_shipped_scenarios_load():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("geo-iv-defaults.yaml", "geo-trend-demo.yaml"):
        s = load_scenario(root / name)
        assert s.receivers == 10
        assert s.dof == 10
        assert s.ack_wait_s == 0.2388


@pytest.mark.parametrize("sweep", [[7.0, 7], [1.0, 2.0, 1.0]])
def test_repeated_eb_n0_point_rejected_on_load(tmp_path, sweep):
    path = tmp_path / "s.yaml"
    path.write_text(f"eb_n0_db: {sweep}\n")
    with pytest.raises(ScenarioError, match="eb_n0_db repeats"):
        load_scenario(path)


def test_trace_files_resolve_against_the_scenario_file(tmp_path, monkeypatch):
    folder = tmp_path / "campaign"
    folder.mkdir()
    absolute = str(tmp_path / "elsewhere.csv")
    (folder / "s.yaml").write_text(
        f"receivers: 2\ntrace_files: [traces/a.csv, {absolute}]\n")
    monkeypatch.chdir(tmp_path)
    s = load_scenario("campaign/s.yaml")
    assert s.trace_files == [str(folder.relative_to(tmp_path) / "traces" / "a.csv"),
                             absolute]


def test_trace_files_must_be_paths():
    with pytest.raises(ScenarioError, match="trace_files"):
        Scenario(receivers=2, trace_files=["a.csv", 5])
    # a string of receiver-count length passes the length check
    with pytest.raises(ScenarioError, match="trace_files"):
        Scenario(receivers=2, trace_files="ab")


@pytest.mark.parametrize("key, value", [
    ("receivers", "2.0"), ("dof", "2.5"), ("ack_slot_advance", "0.5"),
    ("bits_per_packet", "100.5"), ("trace_length", "50.5"), ("start_slot", "1.5"),
    ("seed", "1.5"), ("seed", "true"), ("trials", "10.0"), ("dof", "false"),
])
def test_non_integer_field_rejected_on_load(tmp_path, key, value):
    path = tmp_path / "s.yaml"
    path.write_text(f"{key}: {value}\n")
    with pytest.raises(ScenarioError, match=f"{key} must be an integer"):
        load_scenario(path)


@pytest.mark.parametrize("key, value", [
    ("packet_time_s", ".nan"), ("packet_time_s", ".inf"), ("ack_wait_s", ".nan"),
    ("ack_wait_s", ".inf"), ("eb_n0_db", "[.nan]"), ("eb_n0_db", "[7.0, .inf]"),
    ("eb_n0_db", "[-.inf]"),
])
def test_non_finite_float_rejected_on_load(tmp_path, key, value):
    path = tmp_path / "s.yaml"
    path.write_text(f"{key}: {value}\n")
    with pytest.raises(ScenarioError, match=f"{key}.* must be finite"):
        load_scenario(path)


@pytest.mark.parametrize("path, value", [
    (("los", "shadow_std_db"), float("nan")), (("los", "shadow_std_db"), -1.0),
    (("deep", "correlation_distance_m"), float("inf")),
    (("moderate", "mean_gain_db"), float("nan")), (("speed_mps",), float("nan")),
    (("transition",), [[float("nan"), 0.5, 0.5], [0, 1, 0], [0, 0, 1]]),
])
def test_invalid_lms_value_rejected_on_load(tmp_path, path, value):
    data = scenario_to_dict(Scenario())
    section = data["lms"]
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    file = tmp_path / "s.yaml"
    file.write_text(yaml.safe_dump(data))
    with pytest.raises(ScenarioError, match="invalid lms section"):
        load_scenario(file)
