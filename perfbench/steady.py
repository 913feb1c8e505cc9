"""Steadiness of the benchmark, or a parent/change comparison.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]
    python3 perfbench/steady.py --checkout PARENT --checkout CHANGE [--runs 10]

With one checkout (default: this one) it makes two sets of --runs runs of
every workload, on seeds 1 to --runs and then the next --runs seeds, and
reports for every end-to-end metric each set's median and spread
(quartile distance over median) and how far the second set's median lies
from the first's, against the metric's bound in BENCHMARK.json.  A metric
passes when both spreads and the distance of the medians, in either
direction, stay within the bound.  It also compares the share of failed
operations between the sets, which must not differ, and counts the runs
that reported "correct": false, which must be none.

With two checkouts it runs --runs pairs per workload on seeds 1 to --runs,
alternating which side runs first, and reports each side's median and
quartiles, the change's median against the parent's, and how many pairs
the change won.
To compare with identical benchmark code, copy this directory and
BENCHMARK.json into the parent's checkout first (see README.md).

Everything is printed and also written to out/steady-<time>.json here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        checks = [line for line in proc.stdout.splitlines() if line.startswith("check:")]
        print(f"{workload} seed {seed} in {checkout}: INCORRECT\n"
              + "\n".join(checks[:10]), flush=True)
    result["seed"] = seed
    result["wall_s"] = time.monotonic() - start
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base: float, new: float, better: str) -> float:
    """Share by which `new` is worse than `base` (negative: better)."""
    return (new - base) / base if better == "lower" else (base - new) / base


def steadiness(bench: dict, workloads: list[str], runs: int, checkout: Path) -> dict:
    seconds = bench["run_seconds"]
    data = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(runs):
                seed = 1 + s * runs + i
                data[w][s].append(run_once(checkout, w, seed, seconds))
                last = data[w][s][-1]
                print(f"set {s + 1} {w} seed {seed} ({last['wall_s']:.1f} s): "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in last["metrics"].items()),
                      flush=True)
    summary = {}
    print(f"\n{'workload':15} {'metric':13} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}"
                     for s in range(SETS))
          + f" {'worse':>7}  verdict")
    for w in workloads:
        shares = {round(sum(r["failed"] for r in set_) / sum(r["attempted"] for r in set_), 12)
                  for set_ in data[w]}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for set_ in data[w]:
                q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in set_])
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
            worse = worse_by(medians[0], medians[1], metric["better"])
            ok = abs(worse) <= bound and max(spreads) <= bound
            steady = ok and max(spreads) <= bound / 3
            verdict = "steady" if steady else ("within bound" if ok else "FAILS")
            summary.setdefault(w, {})[name] = {
                "bound": bound, "medians": medians, "spreads": spreads,
                "worse": worse, "verdict": verdict}
            print(f"{w:15} {name:13} {bound:>6.2f} "
                  + " ".join(f"{m:>10.4f} {sp:>8.3f}" for m, sp in zip(medians, spreads))
                  + f" {worse:>7.3f}  {verdict}")
        incorrect = [sum(not r["correct"] for r in set_) for set_ in data[w]]
        summary[w]["failed_share_equal"] = len(shares) == 1
        summary[w]["incorrect_runs"] = incorrect
        print(f"{w:15} failed share per set: {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  DIFFERS'}; incorrect runs per set: "
              f"{incorrect}{'' if not any(incorrect) else '  FAILS'}")
    return {"mode": "steadiness", "runs": data, "summary": summary}


def pairs(bench: dict, workloads: list[str], runs: int, parent: Path,
          change: Path) -> dict:
    seconds = bench["run_seconds"]
    data = {w: {"parent": [], "change": []} for w in workloads}
    for w in workloads:
        for i in range(runs):
            seed = 1 + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                data[w][side].append(run_once(checkout, w, seed, seconds))
            print(f"{w} seed {seed} done", flush=True)
    summary = {}
    print(f"\n{'workload':15} {'metric':13} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'worse':>7} {'wins':>5}")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in data[w]["parent"]]
            c = [r["metrics"][name]["value"] for r in data[w]["change"]]
            qp, qc = quartiles(p), quartiles(c)
            worse = worse_by(qp[1], qc[1], metric["better"])
            wins = sum(worse_by(a, b, metric["better"]) < 0 for a, b in zip(p, c))
            summary.setdefault(w, {})[name] = {
                "parent": qp, "change": qc, "worse": worse, "change_wins": wins,
                "bound": metric["bound"], "parent_spread": (qp[2] - qp[0]) / qp[1]}
            print(f"{w:15} {name:13} "
                  + " ".join(f"{'/'.join(f'{x:.4g}' for x in q):>32}" for q in (qp, qc))
                  + f" {worse:>7.3f} {wins:>2}/{runs}")
    return {"mode": "pairs", "runs": data, "summary": summary}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--checkout", type=Path, action="append", default=[])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown or args.runs < 4 or len(args.checkout) > 2:
        parser.error(f"unknown workloads {sorted(unknown)}, fewer than 4 runs, "
                     "or more than two checkouts")
    if len(args.checkout) == 2:
        report = pairs(bench, workloads, args.runs,
                       args.checkout[0].resolve(), args.checkout[1].resolve())
    else:
        checkout = args.checkout[0].resolve() if args.checkout else ROOT
        report = steadiness(bench, workloads, args.runs, checkout)
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
