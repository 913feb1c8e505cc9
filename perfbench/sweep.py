"""One round of a workload in a fresh process: set-up, sweep, results CSV.

run.py starts this script and passes --t0, the monotonic clock just
before the start, so set-up time includes interpreter start and imports.
Set-up ends when ncmcast is imported, the scenario is loaded and the
channel traces are built; the sweep is run_scenario over the workload's
cells plus writing the results CSV (and, for a workload with
`report`, the report tables).  The last line of output is one JSON
object: setup_s, and unless --setup-only also sweep_s and peak_rss_mib,
and with --trace the per-layer statistics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from ncmcast import report, runner
    from ncmcast import scenario as scenario_mod
    from workloads import WORKLOADS, scenario_for

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    work = WORKLOADS[args.workload]
    sc = scenario_for(work, args.seed, ROOT, scenario_mod.load_scenario)
    traces = runner.build_traces(sc)
    result = {"setup_s": time.monotonic() - args.t0}

    if not args.setup_only:
        start = time.perf_counter()
        rows = runner.run_scenario(sc, engine=work.engine, traces=traces)
        runner.write_results_csv(args.out / "results.csv", rows)
        if work.report:
            gains = np.vstack([tr.gains_db for tr in traces])
            report.write_report(
                rows, sc,
                {tr.receiver_id: float(np.mean(tr.gains_db)) for tr in traces},
                float(np.mean(gains.min(axis=0))), args.out / "report",
            )
        result["sweep_s"] = time.perf_counter() - start
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
