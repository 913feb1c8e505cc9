"""Benchmark of `ncmcast run`: one workload, timed and checked, or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every round of the workload runs in a fresh process (sweep.py) with one
worker.  With --trace 0 the benchmark takes half of its SETUP_SAMPLES
set-up samples in set-up-only processes, runs whole rounds until the
next one, at the pace of the fastest round so far, would end after
--seconds, and tops the set-up samples up after them.  It reports the
fastest round's sweep (and cells per second from it) and the medians of
set-up and peak memory.  The host slows this code by 20 to 60 % in
bursts of a few seconds, as often as not, so a round's time reads how
many bursts it met; the fastest of a run's rounds is the time the code
takes when none slows it.  Set-up is sampled on both sides of the
rounds so that a burst moves its median less.  With --trace 1 it runs a
traced, a plain and a second traced round and reports the per-layer
metrics; the two traced rounds must give identical call counts.

Every round's results CSV must be byte-identical, and the first one is
checked cell by cell (check.py).  An operation is one requested
(receiver, scheme, Eb/N0) cell; it fails when the CSV does not hold
exactly one row for it.  The last line of output is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, scenario_for  # noqa: E402

SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0

PER_LAYER = (
    "scenario.load_scenario.s",
    "channel.generate_trace.calls",
    "channel.generate_trace.s",
    "channel.to_erasure_trace.calls",
    "channel.to_erasure_trace.s",
    "completion.anc_batch_size.calls",
    "completion.anc_batch_size.self_s",
    "completion.AdaptivePolicy.batch_size.calls",
    "completion.AdaptivePolicy.batch_size.self_s",
    "completion.NonAdaptivePolicy.batch_size.calls",
    "completion.CompletionModel.solve.calls",
    "completion.CompletionModel.solve.self_s",
    "completion.CompletionModel.average_packets.calls",
    "completion.CompletionModel.average_packets.self_s",
    "virtualize.build_maxpe.calls",
    "virtualize.build_maxpe.s",
    "virtualize.build_maxct.calls",
    "virtualize.build_maxct.s",
    "simkit.run_single.calls",
    "simkit.run_single.self_s",
    "simkit.run_multicast.calls",
    "simkit.run_multicast.self_s",
    "rlnc.Generation.absorb.calls",
    "rlnc.Generation.absorb.self_s",
    "rlnc.Generation.combine.calls",
    "rlnc.Generation.combine.self_s",
    "gf.GF2m.mul.calls",
    "gf.GF2m.mul.self_s",
    "runner.run_scenario.s",
    "runner.write_results_csv.s",
    "report.write_report.calls",
    "report.write_report.s",
)


class RoundError(RuntimeError):
    pass


def _round(workload: str, seed: int | None, out: Path | None, deadline: float,
           setup_only: bool = False, trace: bool = False) -> dict:
    """Run sweep.py once and return its JSON line plus its wall time."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        cmd += ["--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload}: a round did not end within the time limit") from None
    if proc.returncode != 0:
        raise RoundError(f"{workload}: round exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def _check(workload: str, seed: int | None, results: list[Path]):
    """(attempted, failed, problems) of one round, from the first CSV."""
    sys.path.insert(0, str(ROOT / "src"))
    import check
    from ncmcast import runner
    from ncmcast.scenario import load_scenario

    first = results[0].read_bytes()
    problems = [f"{path} differs from {results[0]}"
                for path in results[1:] if path.read_bytes() != first]
    work = WORKLOADS[workload]
    sc = scenario_for(work, seed, ROOT, load_scenario)
    gains = [tr.gains_db for tr in runner.build_traces(sc)]
    part = (check.Params.from_yaml(ROOT / work.scenario), gains, sc.eb_n0_db,
            work.engine, sc.trials, sc.decoding == "rlnc")
    verdict = check.check_workload(check.read_csv(results[0]), [part])
    return verdict.attempted, verdict.failed, problems + verdict.problems


def _layer_value(layers: dict, name: str) -> float:
    key, stat = name.rsplit(".", 1)
    return layers.get(key, {}).get(stat, 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the one in each scenario file)")
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    needed = [ROOT / "src" / "ncmcast" / "__init__.py",
              ROOT / WORKLOADS[args.workload].scenario]
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"not an ncmcast checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    limit = start + TIME_LIMIT_S
    out = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        traced, setups = [], []
        while not args.trace and len(setups) < SETUP_SAMPLES // 2:
            setups.append(_round(args.workload, args.seed, None, limit,
                                 setup_only=True)["setup_s"])
        rounds_start = time.monotonic()
        if args.trace:
            # Plain round between the traced ones, so drift of the host's
            # speed cancels to first order in trace.overhead_s.
            traced.append(_round(args.workload, args.seed, out / "t0", limit, trace=True))
        plain = [_round(args.workload, args.seed, out / "r0", limit)]
        while not args.trace:
            next_end = time.monotonic() + min(r["wall_s"] for r in plain)
            if next_end > rounds_start + args.seconds:
                break
            plain.append(_round(args.workload, args.seed, out / f"r{len(plain)}", limit))
        if args.trace:
            traced.append(_round(args.workload, args.seed, out / "t1", limit, trace=True))
        setups += [r["setup_s"] for r in plain]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_round(args.workload, args.seed, None, limit,
                                 setup_only=True)["setup_s"])
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1

    results = [out / name / "results.csv" for name in
               [f"r{k}" for k in range(len(plain))] + [f"t{k}" for k in range(len(traced))]]
    cells, failed_cells, problems = _check(args.workload, args.seed, results)
    for problem in problems[:20]:
        print(f"check: {problem}")
    rounds = len(plain) + len(traced)
    sweep_s = min(r["sweep_s"] for r in plain)

    if args.trace:
        layers = [r["trace"]["layers"] for r in traced]
        counts = [{k: v["calls"] for k, v in lay.items()} for lay in layers]
        if counts[0] != counts[1]:
            problems.append("call counts differ between the two traced rounds")
            print("check: call counts differ between the two traced rounds")
        merged = {
            name: {"calls": layers[0].get(name, {}).get("calls", 0),
                   **{stat: statistics.median(lay.get(name, {}).get(stat, 0.0)
                                              for lay in layers)
                      for stat in ("s", "self_s")}}
            for name in sorted(set().union(*layers))
        }
        overhead = statistics.mean(r["sweep_s"] for r in traced) - sweep_s
        (out / "trace.json").write_text(json.dumps(
            {"layers": merged, "edges": [r["trace"]["edges"] for r in traced],
             "overhead_s": overhead}, indent=1))
        print(f"{'layer':48} {'calls':>10} {'s':>10} {'self_s':>10}")
        for name, st in merged.items():
            if st["calls"]:
                print(f"{name:48} {st['calls']:>10} {st['s']:>10.4f} {st['self_s']:>10.4f}")
        print(f"trace overhead {overhead:.3f} s on an untraced sweep of {sweep_s:.3f} s")
        metrics = {name: {"value": _layer_value(merged, name),
                          "unit": "s" if name.endswith((".s", "self_s")) else "count"}
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "sweep_s": {"value": sweep_s, "unit": "s"},
            "cells_per_s": {"value": cells / sweep_s, "unit": "cells/s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in plain),
                             "unit": "MiB"},
        }
        sweeps = ", ".join(f"{r['sweep_s']:.3f}" for r in plain)
        print(f"{args.workload}: {len(plain)} rounds, sweeps {sweeps} s; set-ups "
              f"{', '.join(f'{s:.3f}' for s in setups)} s")
        for name, m in metrics.items():
            print(f"{name:14} {m['value']:.4f} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": cells * rounds,
        "failed": failed_cells * rounds,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
