"""Command-line front end.

Subcommands: gen-traces (write per-receiver channel traces plus a
manifest), run (sweep all requested cells into a results CSV) and report
(tables and figure series from a results CSV).

Exit codes: 0 success, 2 configuration error, 3 every requested model
cell infeasible, 4 report input empty or cells missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import report as report_mod
from . import runner
from .channel import write_gain_trace
from .scenario import Scenario, ScenarioError, load_scenario, scenario_to_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_REPORT = 4


def _mean_gains(traces) -> dict[int, float]:
    return {tr.receiver_id: float(np.mean(tr.gains_db)) for tr in traces}


def _pointwise_min_gain(traces) -> float:
    stacked = np.vstack([tr.gains_db for tr in traces])
    return float(np.mean(stacked.min(axis=0)))


def cmd_gen_traces(scenario: Scenario, out_dir: str) -> int:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    traces = runner.build_traces(scenario)
    files = []
    for trace in traces:
        name = f"trace-{trace.receiver_id:03d}.csv"
        write_gain_trace(out / name, trace)
        files.append(name)
    manifest = {
        "scenario": scenario_to_dict(scenario),
        "trace_files": files,
        "initial_states": [
            scenario.initial_state(k) for k in range(scenario.receivers)
        ],
    }
    with open(out / "manifest.yaml", "w", newline="\n") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    print(f"wrote {len(files)} traces and manifest.yaml to {out}")
    return EXIT_OK


def cmd_run(scenario: Scenario, engine: str, out_path: str, workers: int) -> int:
    # the file is written only after the sweep, which can take minutes:
    # find an unwritable destination first
    folder = Path(out_path).parent
    if not (folder.is_dir() and os.access(folder, os.W_OK | os.X_OK)):
        print(f"cannot write results: {folder} is not a writable directory",
              file=sys.stderr)
        return EXIT_CONFIG
    rows = runner.run_scenario(scenario, engine=engine, workers=workers)
    produced = [r for r in rows if r["delay_s"] is not None]
    runner.write_results_csv(out_path, rows)
    n_na = len(rows) - len(produced)
    print(f"wrote {len(rows)} rows ({n_na} infeasible) to {out_path}")
    if rows and not produced:
        print("every requested cell was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_report(results_path: str, scenario: Scenario, out_dir: str) -> int:
    try:
        rows = runner.read_results_csv(results_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    traces = runner.build_traces(scenario)
    try:
        missing = report_mod.write_report(
            rows, scenario, _mean_gains(traces), _pointwise_min_gain(traces),
            out_dir
        )
    except report_mod.ReportError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return EXIT_REPORT
    print(f"wrote tables and figure series to {out_dir}")
    if missing:
        print("some requested cells are missing (NA)", file=sys.stderr)
        return EXIT_REPORT
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncmcast",
        description="Coded multicast over time-variant erasure channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-traces", help="write per-receiver channel traces")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("run", help="evaluate the sweep into a results CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--engine", default="analytic",
                   choices=("analytic", "montecarlo", "both"))
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="Monte Carlo trials per cell (default: scenario value)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", required=True, help="results CSV path")

    p = sub.add_parser("report", help="emit tables and figure series")
    p.add_argument("results", help="results CSV from the run command")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if getattr(args, "seed", None) is not None:
            scenario = replace(scenario, seed=args.seed)
        if getattr(args, "trials", None) is not None:
            scenario = replace(scenario, trials=args.trials)
        # unusable trace files surface from runner.build_traces
        if args.command == "gen-traces":
            return cmd_gen_traces(scenario, args.out)
        if args.command == "run":
            try:
                return cmd_run(scenario, args.engine, args.out, args.workers)
            except OSError as exc:
                print(f"cannot write results: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        if args.command == "report":
            return cmd_report(args.results, scenario, args.out)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
