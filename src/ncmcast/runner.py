"""Sweep orchestration: evaluate every (receiver, scheme, Eb/N0) cell.

Produces flat result rows for the analytic engine, the Monte Carlo
engine, or both.  At each Eb/N0 point every cell asks one question: a
trace and the policy that sizes its batches.  Each engine answers each
distinct question once and writes one row per cell, so the V-MaxCT
cells, which ask their reference receiver's own questions, are that
receiver's rows in both engines.  A receiver's cell under a virtual
scheme asks its own trace under the shared policy, so every cell is one
receiver, and the Monte Carlo engine answers all of a point's questions
in one `simkit.run_many` pass.  Cells whose model is infeasible (the
verdict both engines share, `completion.settle`) are flagged with NA
values and the sweep continues.  So are Monte Carlo cells where any
trial ran out of rounds, since a mean over the trials that completed is
biased low.  Throughput is dof / delay in both engines, over the mean
delay in Monte Carlo.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    ChannelTrace,
    TraceParseError,
    generate_trace,
    read_gain_trace,
    to_erasure_trace,
)
from .completion import (
    AdaptivePolicy,
    InfeasibleModelError,
    ModelParams,
    NonAdaptivePolicy,
    expected_delay_packets,
)
from .scenario import SCHEMES, Scenario, ScenarioError
from .simkit import SimConfig, run_many
from .virtualize import MulticastGroup, build_maxpe, maxct_reference

RESULT_FIELDS = (
    "receiver",
    "scheme",
    "eb_n0_db",
    "delay_s",
    "throughput_pps",
    "avg_packets",
    "engine",
    "se_delay",
)

VIRTUAL_LABELS = {"maxpe": "V-MaxPe", "maxct": "V-MaxCT"}


def build_traces(scenario: Scenario) -> list[ChannelTrace]:
    """Per-receiver gain traces: from files if listed, else seeded generation.

    A trace file that cannot be read or parsed, or files of unequal
    lengths, are a ScenarioError.
    """
    if scenario.trace_files:
        try:
            traces = [
                read_gain_trace(path, slot_duration=scenario.packet_time_s,
                                receiver_id=label)
                for path, label in zip(scenario.trace_files, scenario.receiver_labels())
            ]
        except OSError as exc:
            raise ScenarioError(
                f"cannot read trace file {exc.filename}: {exc.strerror}") from None
        except TraceParseError as exc:
            raise ScenarioError(f"bad trace file {exc}") from None
        if len({len(trace) for trace in traces}) > 1:
            raise ScenarioError("trace files of unequal lengths: " + ", ".join(
                f"{path} (length {len(trace)})"
                for path, trace in zip(scenario.trace_files, traces)))
        return traces
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.receivers)
    return [
        generate_trace(
            scenario.lms,
            scenario.initial_state(k),
            scenario.trace_length,
            children[k],
            slot_duration=scenario.packet_time_s,
            receiver_id=k + 1,
        )
        for k in range(scenario.receivers)
    ]


def model_params(scenario: Scenario) -> ModelParams:
    return ModelParams(
        dof=scenario.dof,
        t_p=scenario.packet_time_s,
        t_w=scenario.ack_wait_s,
        ack_slot_advance=scenario.ack_slot_advance,
    )


def _row(receiver, scheme, ebn0, engine, dof=None, delay=None, packets=None,
         se=None) -> dict:
    """One results row; in both engines the throughput is dof / delay."""
    return {
        "receiver": str(receiver),
        "scheme": scheme,
        "eb_n0_db": float(ebn0),
        "delay_s": delay,
        "throughput_pps": None if delay is None else dof / delay,
        "avg_packets": packets,
        "engine": engine,
        "se_delay": se,
    }


class _Point:
    """One Eb/N0 point: every cell as (label, scheme, question), in row order.

    A question is (trace key, policy key).  The trace key is a receiver
    index or "maxpe"; the policy key is "nc", a receiver index (that
    receiver's own adaptive policy) or "maxpe".  A receiver's cell under
    a virtual scheme asks its own trace under that scheme's policy key:
    "maxpe", or the V-MaxCT reference's index.  `solved` holds the
    analytic answers found while planning: the own solves that rank
    maxct.
    """

    def __init__(self, scenario: Scenario, params: ModelParams,
                 group: MulticastGroup, ebn0: float, analytic: bool,
                 montecarlo: bool):
        schemes = scenario.schemes
        self.ebn0, self.labels = ebn0, group.labels
        self.traces = dict(enumerate(group.receivers))
        own = {k: AdaptivePolicy(trace) for k, trace in self.traces.items()}
        self.policies = {"nc": NonAdaptivePolicy()}
        self.solved = {}
        if "maxct" in schemes or (analytic and "anc" in schemes):
            self.solved = {(k, k): expected_delay_packets(
                self.traces[k], params, own[k], scenario.start_slot) for k in own}
        if "maxpe" in schemes:
            self.traces["maxpe"] = build_maxpe(group)
            self.policies["maxpe"] = AdaptivePolicy(self.traces["maxpe"])
        ref = None
        if "maxct" in schemes:
            try:
                ref = maxct_reference(group.labels, [self.solved[k, k] for k in own])
            except InfeasibleModelError as exc:
                ref = exc.with_traceback(None)
        if montecarlo:
            self.policies.update(own)
        elif isinstance(ref, int):
            # the analytic cells read the own answers from `solved`, so
            # only the V-MaxCT sender's own table is read again
            self.policies[ref] = own[ref]
        self.cells = _cells(schemes, group.labels, ref)

    def rows(self, engine: str, answer, row) -> list[dict]:
        """One row per cell: `row` of its answer, NA for an infeasible one."""
        rows = []
        for label, scheme, question in self.cells:
            got = (question if isinstance(question, InfeasibleModelError)
                   else answer(question))
            rows.append(_row(label, scheme, self.ebn0, engine)
                        if isinstance(got, InfeasibleModelError)
                        else row(label, scheme, self.ebn0, got))
        return rows


def _cells(schemes, labels, ref) -> list[tuple]:
    """A point's cells; `ref` is the V-MaxCT reference receiver's index,
    or the InfeasibleModelError that every cell of maxct then asks."""
    own = list(enumerate(labels))
    cells = []
    if "nc" in schemes:
        cells += [(label, "nc", (k, "nc")) for k, label in own]
    if "anc" in schemes:
        cells += [(label, "anc", (k, k)) for k, label in own]
    for scheme, key in (("maxpe", "maxpe"), ("maxct", ref)):
        if scheme in schemes:
            vlabel = VIRTUAL_LABELS[scheme]
            asked = [(label, scheme, (k, key)) for k, label in own]
            asked += [(vlabel, "nc", (key, "nc")), (vlabel, "anc", (key, key))]
            undefined = isinstance(key, InfeasibleModelError)
            cells += [(label, s, key if undefined else q) for label, s, q in asked]
    return cells


def _analytic_point(scenario: Scenario, params: ModelParams,
                    point: _Point) -> list[dict]:
    def solve(question):
        """The question's answer, solved once per point."""
        if question not in point.solved:
            trace, policy = question
            point.solved[question] = expected_delay_packets(
                point.traces[trace], params, point.policies[policy], scenario.start_slot)
        return point.solved[question]

    def row(label, scheme, ebn0, answer) -> dict:
        delay, packets = answer
        return _row(label, scheme, ebn0, "analytic", params.dof, delay, packets, 0.0)

    return point.rows("analytic", solve, row)


def _mc_summary_row(label, scheme, ebn0, summary, dof) -> dict:
    if summary.n_failures > 0:
        return _row(label, scheme, ebn0, "montecarlo")
    return _row(label, scheme, ebn0, "montecarlo", dof, summary.delay.mean,
                summary.packets.mean, summary.delay.se)


def _cell_seed(scenario_seed: int, ebn0: float, scheme: str,
               receiver: int) -> tuple:
    rk = receiver if receiver >= 0 else 10**6 - receiver
    return (scenario_seed, int(round(ebn0 * 1000)) + 10**6, SCHEMES.index(scheme), rk)


def _mc_point(scenario: Scenario, params: ModelParams, point: _Point,
              trials: int, workers: int) -> list[dict]:
    """Every distinct question of the point in one `run_many` pass,
    each run seeded by its scheme and receiver (the V-MaxPe trace is
    receiver -2)."""
    questions = list(dict.fromkeys(
        question for _, _, question in point.cells
        if not isinstance(question, InfeasibleModelError)))
    asked = []
    for trace, policy in questions:
        scheme = ("nc" if policy == "nc" else "anc" if policy == trace
                  else "maxpe" if policy == "maxpe" else "maxct")
        receiver = -2 if trace == "maxpe" else point.labels[trace]
        seed = np.random.SeedSequence(
            _cell_seed(scenario.seed, point.ebn0, scheme, receiver))
        asked.append((seed, point.traces[trace], point.policies[policy]))
    config = SimConfig(trials=trials, seed=scenario.seed, params=params,
                       decoding=scenario.decoding, start_slot=scenario.start_slot,
                       workers=workers)
    answers = dict(zip(questions, run_many(config, asked)))
    return point.rows("montecarlo", answers.__getitem__,
                      lambda *cell: _mc_summary_row(*cell, params.dof))


def run_scenario(scenario: Scenario, engine: str = "analytic",
                 trials: int | None = None, workers: int = 1,
                 traces: list[ChannelTrace] | None = None) -> list[dict]:
    """All result rows for the scenario under the chosen engine(s)."""
    if engine not in ("analytic", "montecarlo", "both"):
        raise ValueError(f"engine must be analytic, montecarlo or both, got {engine!r}")
    if traces is None:
        traces = build_traces(scenario)
    params = model_params(scenario)
    trials = scenario.trials if trials is None else trials
    analytic = engine in ("analytic", "both")
    montecarlo = engine in ("montecarlo", "both")
    rows: list[dict] = []
    for ebn0 in scenario.eb_n0_db:
        etraces = [
            to_erasure_trace(tr, ebn0, scenario.modulation, scenario.bits_per_packet)
            for tr in traces
        ]
        group = MulticastGroup(etraces, labels=scenario.receiver_labels())
        point = _Point(scenario, params, group, ebn0, analytic, montecarlo)
        if analytic:
            rows.extend(_analytic_point(scenario, params, point))
        if montecarlo:
            rows.extend(_mc_point(scenario, params, point, trials, workers))
    return rows


def _format_value(value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "NA"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_results_csv(path, rows: list[dict]):
    """Write result rows; a repeated (receiver, scheme, Eb/N0, engine) is an error."""
    seen = set()
    for row in rows:
        key = (row["receiver"], row["scheme"], row["eb_n0_db"], row["engine"])
        if key in seen:
            raise ValueError(f"duplicate result row for cell {key}")
        seen.add(key)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(RESULT_FIELDS) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row[f]) for f in RESULT_FIELDS) + "\n")


def read_results_csv(path) -> list[dict]:
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(RESULT_FIELDS):
        raise ValueError(f"{path}: not a results CSV")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(RESULT_FIELDS):
            raise ValueError(f"{path}: malformed row {line!r}")
        row = dict(zip(RESULT_FIELDS, parts))
        row["eb_n0_db"] = float(row["eb_n0_db"])
        for key in ("delay_s", "throughput_pps", "avg_packets", "se_delay"):
            row[key] = None if row[key] == "NA" else float(row[key])
        rows.append(row)
    return rows
