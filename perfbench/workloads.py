"""The benchmark's workloads: which sweep one round of `ncmcast run` covers.

A workload is a shipped scenario file with an engine and, so that a
round stays short, a capped set of Eb/N0 points and trials.  The
benchmark's --seed replaces the scenario seed, except in a workload
marked `fixed_seed`, which always uses the seed in the file.  Why each
workload exists, and why iv-montecarlo was left out, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

TREND = "scenarios/geo-trend-demo.yaml"
IV = "scenarios/geo-iv-defaults.yaml"


@dataclass(frozen=True)
class Workload:
    scenario: str
    engine: str
    points: tuple[float, ...] | None = None  # None: the scenario's sweep
    trials: int | None = None  # None: the scenario's trials
    decoding: str | None = None  # None: the scenario's decoding
    fixed_seed: bool = False
    report: bool = False  # also write the report tables after the CSV


WORKLOADS = {
    # One point of the three: the full sweep takes 13 to 22 s, so a run would
    # hold a single round, and there would be no fastest round to report.
    "trend-analytic": Workload(TREND, "analytic", points=(7.0,), report=True),
    # On the shipped seed: which geo-iv cells are feasible, and so how much
    # of the sweep is solved rather than cut short, depends on the traces;
    # seeded, the sweep took 6.3 to 9.2 s over five seeds.
    "iv-analytic": Workload(IV, "analytic", fixed_seed=True),
    "trend-rlnc": Workload(TREND, "montecarlo", points=(7.0,), trials=30, decoding="rlnc"),
}


def scenario_for(work: Workload, seed: int | None, root, load_scenario):
    """The scenario a workload runs, loaded with the program's own loader."""
    sc = load_scenario(root / work.scenario)
    changes = {}
    if work.points is not None:
        changes["eb_n0_db"] = list(work.points)
    if work.trials is not None:
        changes["trials"] = work.trials
    if work.decoding is not None:
        changes["decoding"] = work.decoding
    if seed is not None and not work.fixed_seed:
        changes["seed"] = seed
    return replace(sc, **changes)
