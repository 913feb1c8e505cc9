from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncmcast import cli, simkit
from ncmcast.report import ResultIndex, build_table_ii
from ncmcast.runner import (
    RESULT_FIELDS,
    read_results_csv,
    run_scenario,
    write_results_csv,
)
from ncmcast.scenario import Scenario, save_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def small_scenario(tmp_path):
    s = Scenario(
        name="cli-small",
        receivers=3,
        dof=4,
        trace_length=60,
        bits_per_packet=100,
        eb_n0_db=[5.0, 7.0],
        trials=600,
        seed=11,
    )
    path = tmp_path / "scenario.yaml"
    save_scenario(path, s)
    return s, path


def run_cli(*args):
    return cli.main([str(a) for a in args])


class TestGenTraces:
    def test_writes_files_and_manifest(self, small_scenario, tmp_path):
        s, spath = small_scenario
        out = tmp_path / "traces"
        assert run_cli("gen-traces", "--scenario", spath, "--out", out) == 0
        files = sorted(p.name for p in out.glob("trace-*.csv"))
        assert files == ["trace-001.csv", "trace-002.csv", "trace-003.csv"]
        assert (out / "manifest.yaml").exists()

    def test_rerun_identical(self, small_scenario, tmp_path):
        s, spath = small_scenario
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("gen-traces", "--scenario", spath, "--out", out1)
        run_cli("gen-traces", "--scenario", spath, "--out", out2)
        for name in ("trace-001.csv", "trace-002.csv", "manifest.yaml"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_round_trips_scenario(self, small_scenario, tmp_path):
        import yaml

        from ncmcast.scenario import scenario_from_dict, scenario_to_dict

        s, spath = small_scenario
        out = tmp_path / "traces"
        run_cli("gen-traces", "--scenario", spath, "--out", out)
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        back = scenario_from_dict(manifest["scenario"])
        assert scenario_to_dict(back) == scenario_to_dict(s)


class TestRun:
    def test_analytic_run_deterministic(self, small_scenario, tmp_path):
        s, spath = small_scenario
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli("run", "--scenario", spath, "--out", out1) == 0
        assert run_cli("run", "--scenario", spath, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_montecarlo_run_deterministic(self, small_scenario, tmp_path):
        s, spath = small_scenario
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        code = run_cli("run", "--scenario", spath, "--engine", "montecarlo",
                       "--trials", 200, "--out", out1)
        assert code == 0
        run_cli("run", "--scenario", spath, "--engine", "montecarlo",
                "--trials", 200, "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_cover_requested_cells(self, small_scenario, tmp_path):
        s, spath = small_scenario
        out = tmp_path / "r.csv"
        run_cli("run", "--scenario", spath, "--out", out)
        rows = read_results_csv(out)
        per_receiver = {r["scheme"] for r in rows if not r["receiver"].startswith("V-")}
        assert per_receiver == set(s.schemes)
        virtuals = {r["receiver"] for r in rows if r["receiver"].startswith("V-")}
        assert virtuals == {"V-MaxPe", "V-MaxCT"}
        ebn0s = {r["eb_n0_db"] for r in rows}
        assert ebn0s == set(s.eb_n0_db)

    def test_engines_agree_column_wise(self, small_scenario, tmp_path):
        """Every cell estimates the same receiver-local quantity in both
        engines.  nc/anc and virtual-receiver cells pass a z-test; the
        per-receiver cells of the virtualization schemes get a 0.5 %
        relative slack on top, for rare multi-round tails that a finite
        run does not sample (a cell whose every trial is equal has se 0,
        yet sits a relative 1e-5 below the analytic value)."""
        s, spath = small_scenario
        out = tmp_path / "both.csv"
        assert run_cli("run", "--scenario", spath, "--engine", "both",
                       "--trials", 4000, "--out", out) == 0
        rows = read_results_csv(out)
        analytic = {
            (r["receiver"], r["scheme"], r["eb_n0_db"]): r
            for r in rows if r["engine"] == "analytic"
        }
        checked = 0
        for r in rows:
            if r["engine"] != "montecarlo" or r["delay_s"] is None:
                continue
            ref = analytic[(r["receiver"], r["scheme"], r["eb_n0_db"])]
            if ref["delay_s"] is None or r["se_delay"] is None:
                continue
            diff = abs(r["delay_s"] - ref["delay_s"])
            if r["scheme"] in ("nc", "anc"):
                assert diff <= 4.0 * max(r["se_delay"], 1e-12), (r, ref)
            else:
                assert diff <= 4.0 * r["se_delay"] + 0.005 * ref["delay_s"], (r, ref)
            checked += 1
        assert checked >= 20

    def test_zero_erasure_cells_anchor(self, tmp_path):
        """A loss-free scenario puts 245.50 ms in every delay cell."""
        from ncmcast.channel import LmsParams, StateParams

        lms = LmsParams(
            los=StateParams(100.0, 0.0, 0.5),
            moderate=StateParams(100.0, 0.0, 0.5),
            deep=StateParams(100.0, 0.0, 0.5),
            transition=np.eye(3),
            speed_mps=5.0,
        )
        s = Scenario(name="lossless", receivers=3, dof=10, trace_length=40,
                     eb_n0_db=[100.0], trials=50, seed=5, lms=lms)
        spath = tmp_path / "s.yaml"
        save_scenario(spath, s)
        out = tmp_path / "r.csv"
        assert run_cli("run", "--scenario", spath, "--out", out) == 0
        rows = read_results_csv(out)
        assert rows
        for r in rows:
            assert r["delay_s"] * 1000 == pytest.approx(245.50, abs=0.01)
            assert r["throughput_pps"] == pytest.approx(40.73, abs=0.01)

    def test_all_infeasible_exits_three(self, tmp_path):
        s = Scenario(name="hopeless", receivers=2, dof=4, trace_length=40,
                     bits_per_packet=10_000, eb_n0_db=[0.0], trials=50,
                     schemes=["anc"])
        spath = tmp_path / "s.yaml"
        save_scenario(spath, s)
        out = tmp_path / "r.csv"
        assert run_cli("run", "--scenario", spath, "--out", out) == 3
        rows = read_results_csv(out)
        assert all(r["delay_s"] is None for r in rows)

    def test_bad_scenario_exits_two(self, tmp_path):
        spath = tmp_path / "broken.yaml"
        spath.write_text("receivers: 0\n")
        assert run_cli("run", "--scenario", spath, "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("key, value", [("decoding", "rlcn"),
                                            ("modulation", "qpsk7")])
    def test_unknown_decoding_or_modulation_exits_two(self, small_scenario, tmp_path,
                                                      capsys, engine, key, value):
        _, spath = small_scenario
        spath.write_text(spath.read_text().replace(
            f"{key}: {'ideal' if key == 'decoding' else 'bpsk'}", f"{key}: {value}"))
        out = tmp_path / "x.csv"
        code = run_cli("run", "--scenario", spath, "--engine", engine, "--out", out)
        assert code == 2
        assert f"config error: unknown {key} '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_scenario_field_exits_two(self, small_scenario, tmp_path,
                                                  capsys):
        _, spath = small_scenario
        spath.write_text(spath.read_text().replace("seed: 11", "seed: 1.5"))
        out = tmp_path / "x.csv"
        assert run_cli("run", "--scenario", spath, "--out", out) == 2
        assert "config error: seed must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("key, value", [("packet_time_s", float("nan")),
                                            ("ack_wait_s", float("inf")),
                                            ("eb_n0_db", [float("nan")])])
    def test_non_finite_scenario_float_exits_two(self, small_scenario, tmp_path,
                                                 capsys, engine, key, value):
        import yaml

        _, spath = small_scenario
        data = yaml.safe_load(spath.read_text())
        data[key] = value
        spath.write_text(yaml.safe_dump(data))
        out = tmp_path / "x.csv"
        code = run_cli("run", "--scenario", spath, "--engine", engine, "--out", out)
        assert code == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_exits_two(self, tmp_path):
        assert run_cli("run", "--scenario", tmp_path / "none.yaml",
                       "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("engine", ["analytic", "montecarlo"])
    def test_missing_out_directory_exits_two_before_the_sweep(
            self, small_scenario, tmp_path, capsys, monkeypatch, engine):
        _, spath = small_scenario

        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli.runner, "run_scenario", sweep)
        out = tmp_path / "missing" / "x.csv"
        code = run_cli("run", "--scenario", spath, "--engine", engine, "--out", out)
        assert code == 2
        assert "cannot write results" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("option, value",
                             [("--seed", -5), ("--trials", 0), ("--workers", 0),
                              ("--trials", simkit.MAX_TRIALS + 1)])
    def test_bad_run_option_exits_two(self, small_scenario, tmp_path, capsys,
                                      monkeypatch, option, value):
        s, spath = small_scenario
        out = tmp_path / "x.csv"

        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli.runner, "run_scenario", sweep)
        try:
            code = run_cli("run", "--scenario", spath, option, value, "--out", out)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2
        assert option.lstrip("-") in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_traces(self, small_scenario, tmp_path):
        s, spath = small_scenario
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run_cli("run", "--scenario", spath, "--out", out1)
        run_cli("run", "--scenario", spath, "--seed", 999, "--out", out2)
        assert out1.read_bytes() != out2.read_bytes()


class TestTraceFiles:
    def test_generated_traces_reproduce_the_run(self, small_scenario, tmp_path):
        """A scenario listing the traces gen-traces wrote, by paths relative
        to itself, reproduces the generated run byte for byte."""
        s, spath = small_scenario
        traces = tmp_path / "traces"
        assert run_cli("gen-traces", "--scenario", spath, "--out", traces) == 0
        listed = replace(s, trace_files=[f"trace-{k:03d}.csv"
                                         for k in s.receiver_labels()])
        save_scenario(traces / "listed.yaml", listed)
        generated, read = tmp_path / "generated.csv", tmp_path / "read.csv"
        for scenario, out in ((spath, generated), (traces / "listed.yaml", read)):
            assert run_cli("run", "--scenario", scenario, "--engine", "both",
                           "--trials", 40, "--out", out) == 0
        assert read.read_bytes() == generated.read_bytes()

    @pytest.mark.parametrize("command", ["gen-traces", "run", "report"])
    @pytest.mark.parametrize("content", [None, "slot,gain_db\n0,1.5\n2,1.0\n"])
    def test_unusable_trace_file_is_a_config_error(self, small_scenario, tmp_path,
                                                   capsys, command, content):
        s, _ = small_scenario
        names = ["trace-1.csv", "trace-2.csv", "trace-3.csv"]
        for name in names[:2]:
            (tmp_path / name).write_text("slot,gain_db\n0,1.5\n1,1.0\n")
        if content is not None:
            (tmp_path / names[2]).write_text(content)
        spath = tmp_path / "listed.yaml"
        save_scenario(spath, replace(s, trace_files=names))
        results = tmp_path / "results.csv"
        results.write_text(",".join(RESULT_FIELDS) + "\n")
        args = {"gen-traces": ("--out", tmp_path / "out"),
                "run": ("--out", tmp_path / "out.csv"),
                "report": (results, "--out", tmp_path / "out")}[command]
        assert run_cli(command, "--scenario", spath, *args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "trace-3.csv" in err

    def test_trace_files_of_unequal_lengths_are_a_config_error(self, tmp_path, capsys):
        (tmp_path / "two.csv").write_text("slot,gain_db\n0,1.5\n1,1.0\n")
        (tmp_path / "one.csv").write_text("slot,gain_db\n0,1.5\n")
        spath = tmp_path / "listed.yaml"
        save_scenario(spath, Scenario(name="unequal", receivers=2, dof=2,
                                      trace_files=["two.csv", "one.csv"]))
        assert run_cli("run", "--scenario", spath, "--out", tmp_path / "out.csv") == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "two.csv (length 2)" in err and "one.csv (length 1)" in err
        assert not (tmp_path / "out.csv").exists()


def parse_markdown_table(text):
    lines = [l for l in text.strip().split("\n") if l.strip()]
    rows = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows.append(cells)
    return rows


class TestReport:
    @pytest.fixture()
    def completed_run(self, small_scenario, tmp_path):
        s, spath = small_scenario
        results = tmp_path / "results.csv"
        run_cli("run", "--scenario", spath, "--out", results)
        return s, spath, results

    def test_report_writes_tables_and_figs(self, completed_run, tmp_path):
        s, spath, results = completed_run
        out = tmp_path / "report"
        assert run_cli("report", results, "--scenario", spath, "--out", out) == 0
        assert (out / "table-i.md").exists()
        assert (out / "table-i-alt.md").exists()
        assert (out / "table-ii.md").exists()
        figs = sorted(p.name for p in (out / "figs").glob("*.csv"))
        assert figs == [
            "fig2_delay_maxpe.csv",
            "fig3_throughput_maxpe.csv",
            "fig4_avg_packets_maxpe.csv",
            "fig5_delay_maxct.csv",
            "fig6_throughput_maxct.csv",
            "fig7_avg_packets_maxct.csv",
        ]

    def test_table_i_structure(self, completed_run, tmp_path):
        s, spath, results = completed_run
        out = tmp_path / "report"
        run_cli("report", results, "--scenario", spath, "--out", out)
        rows = parse_markdown_table((out / "table-i.md").read_text())
        assert len(rows) == s.receivers
        assert all(len(r) == 15 for r in rows), "receiver + 14 metric columns"
        assert [r[0] for r in rows] == [str(k + 1) for k in range(s.receivers)]

    def test_gains_recompute_from_delay_columns(self, completed_run, tmp_path):
        s, spath, results = completed_run
        out = tmp_path / "report"
        run_cli("report", results, "--scenario", spath, "--out", out)
        for row in parse_markdown_table((out / "table-i.md").read_text()):
            without, maxpe, maxct = (float(row[i]) for i in (2, 3, 4))
            gain_pe, gain_ct = float(row[11]), float(row[12])
            assert abs(gain_pe - (without - maxpe)) <= 0.0101
            assert abs(gain_ct - (without - maxct)) <= 0.0101

    def test_fig_csv_schema(self, completed_run, tmp_path):
        s, spath, results = completed_run
        out = tmp_path / "report"
        run_cli("report", results, "--scenario", spath, "--out", out)
        lines = (out / "figs" / "fig2_delay_maxpe.csv").read_text().strip().split("\n")
        assert lines[0] == "eb_n0_db,receiver,scheme,value"
        receivers = set()
        for line in lines[1:]:
            ebn0, receiver, scheme, value = line.split(",")
            assert float(ebn0) in s.eb_n0_db
            assert scheme in ("nc", "anc", "maxpe")
            receivers.add(receiver)
            float(value)  # parses (or NA, which would raise)
        assert "V-MaxPe" in receivers

    def test_empty_results_exit_four_no_files(self, small_scenario, tmp_path):
        s, spath = small_scenario
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(RESULT_FIELDS) + "\n")
        out = tmp_path / "report"
        assert run_cli("report", empty, "--scenario", spath, "--out", out) == 4
        assert not out.exists()

    def test_missing_cells_exit_four_with_na(self, small_scenario, tmp_path):
        s, spath = small_scenario
        rows = run_scenario(s, engine="analytic")
        kept = [r for r in rows if not (r["scheme"] == "maxct"
                                        and r["eb_n0_db"] == 5.0)]
        partial = tmp_path / "partial.csv"
        write_results_csv(partial, kept)
        out = tmp_path / "report"
        assert run_cli("report", partial, "--scenario", spath, "--out", out) == 4
        assert (out / "table-i.md").exists()

    def test_unreadable_results_exit_two(self, small_scenario, tmp_path):
        s, spath = small_scenario
        assert run_cli("report", tmp_path / "none.csv", "--scenario", spath,
                       "--out", tmp_path / "r") == 2

    @pytest.mark.parametrize("name, status, row", [
        ("geo-trend-demo.yaml", 0, ["MaxCT", "6,9", "-2.25", "-2.35"]),
        # every geo-iv point has an NA anc cell, so no point has a reference
        ("geo-iv-defaults.yaml", 4, ["MaxCT", "NA", "NA", "NA"]),
    ])
    def test_maxct_references_need_every_anc_cell(self, name, status, row,
                                                  tmp_path):
        results = tmp_path / "results.csv"
        out = tmp_path / "report"
        assert run_cli("run", "--scenario", SCENARIOS / name, "--out", results) == 0
        assert run_cli("report", results, "--scenario", SCENARIOS / name,
                       "--out", out) == status
        table = parse_markdown_table((out / "table-ii.md").read_text())
        assert [r[:4] for r in table if r[0] == "MaxCT"] == [row]

    def test_maxct_reference_is_the_receiver_its_row_repeats(self):
        """Table II names, per point, the receiver whose `anc` row the
        V-MaxCT `anc` row repeats, not the one with the largest `anc`
        delay: a Monte Carlo V-MaxCT row copies the reference the runner
        ranked from analytic solves."""
        def row(receiver, ebn0, delay):
            values = (None,) * 4 if delay is None else (delay, 4 / delay, 6.0, 0.01)
            return dict(zip(RESULT_FIELDS, (str(receiver), "anc", ebn0, *values[:3],
                                            "montecarlo", values[3])))

        anc = {5.0: (0.9, 0.8, 0.7), 7.0: (0.5, 0.6, 0.5), 9.0: (0.5, 0.6, 0.7)}
        copied = {5.0: 1, 7.0: 0, 9.0: None}  # index of the repeated receiver
        rows = [row(k + 1, ebn0, d) for ebn0, ds in anc.items() for k, d in enumerate(ds)]
        rows += [row("V-MaxCT", ebn0, None if k is None else anc[ebn0][k])
                 for ebn0, k in copied.items()]
        table = build_table_ii(ResultIndex(rows, "montecarlo"), [1, 2, 3],
                               {1: -1.0, 2: -2.0, 3: -3.0}, None, ["anc", "maxct"])
        # 5 dB copies receiver 2; 7 dB ties 1 and 3, the smaller label wins
        assert parse_markdown_table(table)[0][:4] == ["MaxCT", "1,2", "-1.00", "-2.00"]

    def test_montecarlo_only_results_reportable(self, small_scenario, tmp_path):
        s, spath = small_scenario
        results = tmp_path / "mc.csv"
        run_cli("run", "--scenario", spath, "--engine", "montecarlo",
                "--trials", 300, "--out", results)
        out = tmp_path / "mc-report"
        assert run_cli("report", results, "--scenario", spath, "--out", out) == 0
        table = (out / "table-i.md").read_text()
        assert "NA" not in table.split("\n")[2]
