"""Sweep orchestration: evaluate every (receiver, scheme, Eb/N0) cell.

Produces flat result rows for the analytic engine, the Monte Carlo
engine, or both.  At each Eb/N0 point one plan (`_Plan`) decides how
every cell sizes its batches, and both engines read it, so each table
and each own-channel solve is made once.  The per-receiver maxpe/maxct
Monte Carlo cells still simulate the whole group behind one shared
sender.  Cells whose model is infeasible (a trace too erased to cover
the block within the batch cap) are flagged with NA values and the
sweep continues.  So are Monte Carlo cells where any trial ran out of
rounds, since a mean over the trials that completed is biased low.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTrace, generate_trace, read_gain_trace, to_erasure_trace
from .completion import (
    AdaptivePolicy,
    InfeasibleModelError,
    ModelParams,
    NonAdaptivePolicy,
    expected_delay_packets,
)
from .scenario import SCHEMES, Scenario
from .simkit import SimConfig, run_multicast, run_single
from .virtualize import MulticastGroup, build_maxpe, maxct_channel, own_adaptive

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
    """Per-receiver gain traces: from files if listed, else seeded generation."""
    if scenario.trace_files:
        return [
            read_gain_trace(path, slot_duration=scenario.packet_time_s,
                            receiver_id=label)
            for path, label in zip(scenario.trace_files, scenario.receiver_labels())
        ]
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


def _row(receiver, scheme, ebn0, engine, delay=None, thr=None, packets=None,
         se=None) -> dict:
    return {
        "receiver": str(receiver),
        "scheme": scheme,
        "eb_n0_db": float(ebn0),
        "delay_s": delay,
        "throughput_pps": thr,
        "avg_packets": packets,
        "engine": engine,
        "se_delay": se,
    }


def _na_group(labels, scheme, ebn0, engine) -> list[dict]:
    """NA rows for every cell of a virtual scheme whose group step failed."""
    return [_row(label, scheme, ebn0, engine) for label in labels] + [
        _row(VIRTUAL_LABELS[scheme], vscheme, ebn0, engine)
        for vscheme in ("nc", "anc")
    ]


def _analytic_row(label, scheme, ebn0, answer, dof: int) -> dict:
    """Row of one cell from its (delay, packets), NA for an infeasible model."""
    if isinstance(answer, InfeasibleModelError):
        return _row(label, scheme, ebn0, "analytic")
    delay, packets = answer
    return _row(label, scheme, ebn0, "analytic", delay, dof / delay, packets, 0.0)


@dataclass
class _Plan:
    """How each cell of one Eb/N0 point sizes its batches, for every engine.

    `own` holds each receiver's own adaptive policy for the Monte Carlo
    `anc` cells, and is empty when that engine does not run, so their
    tables go once solved.  `answers` holds the receivers' analytic
    (delay, packets) when a cell needs them: the analytic `anc` cells and
    the maxct ranking.  `virtual` maps each requested virtual scheme to
    (reference trace, shared policy, reference label), or to the
    InfeasibleModelError that leaves the scheme undefined.  The V-MaxCT
    trace is the reference receiver's own, so its shared policy is that
    receiver's own policy: one table.
    """

    group: MulticastGroup
    own: list[AdaptivePolicy]
    answers: list
    virtual: dict


def _plan(scenario: Scenario, params: ModelParams, group: MulticastGroup,
          analytic: bool, montecarlo: bool) -> _Plan:
    schemes = scenario.schemes
    own = [AdaptivePolicy(trace) for trace in group.receivers]
    answers = (
        own_adaptive(group, own, params, scenario.start_slot)
        if "maxct" in schemes or (analytic and "anc" in schemes) else []
    )
    virtual = {}
    if "maxpe" in schemes:
        pe = build_maxpe(group).pe
        virtual["maxpe"] = (pe, AdaptivePolicy(pe), None)
    if "maxct" in schemes:
        try:
            ct = maxct_channel(group, answers)
        except InfeasibleModelError as exc:
            virtual["maxct"] = exc.with_traceback(None)
        else:
            ref = ct.reference_receiver
            virtual["maxct"] = (ct.pe, own[group.labels.index(ref)], ref)
    return _Plan(group, own if montecarlo else [], answers, virtual)


def _analytic_point(scenario: Scenario, params: ModelParams, plan: _Plan,
                    ebn0: float) -> list[dict]:
    rows = []
    j0 = scenario.start_slot
    receivers = plan.group.receivers
    labels = plan.group.labels

    def cell(label, scheme, answer) -> dict:
        return _analytic_row(label, scheme, ebn0, answer, params.dof)

    def solved(label, scheme, pe_trace, policy) -> dict:
        return cell(label, scheme,
                    expected_delay_packets(pe_trace, params, policy, j0))

    nc = [expected_delay_packets(trace, params, NonAdaptivePolicy(), j0)
          for trace in receivers] if "nc" in scenario.schemes else []
    rows += [cell(label, "nc", answer) for answer, label in zip(nc, labels)]
    if "anc" in scenario.schemes:
        rows += [cell(label, "anc", answer)
                 for answer, label in zip(plan.answers, labels)]

    for scheme, virtual in plan.virtual.items():
        if isinstance(virtual, InfeasibleModelError):
            rows.extend(_na_group(labels, scheme, ebn0, "analytic"))
            continue
        pe, shared, ref = virtual
        # a reference receiver's own trace sizes the batches, so its cell
        # and the virtual cells are its own answers
        own = None if ref is None else labels.index(ref)
        rows += [cell(label, scheme, plan.answers[own]) if label == ref
                 else solved(label, scheme, trace, shared)
                 for trace, label in zip(receivers, labels)]
        vlabel = VIRTUAL_LABELS[scheme]
        rows.append(cell(vlabel, "nc", nc[own]) if own is not None and nc
                    else solved(vlabel, "nc", pe, NonAdaptivePolicy()))
        rows.append(solved(vlabel, "anc", pe, shared) if own is None
                    else cell(vlabel, "anc", plan.answers[own]))
    return rows


def _mc_summary_row(label, scheme, ebn0, summary) -> dict:
    if summary.n_failures > 0:
        return _row(label, scheme, ebn0, "montecarlo")
    return _row(label, scheme, ebn0, "montecarlo",
                summary.delay.mean, summary.throughput.mean,
                summary.packets.mean, summary.delay.se)


def _cell_seed(scenario_seed: int, ebn0: float, scheme: str,
               receiver: int) -> tuple:
    rk = receiver if receiver >= 0 else 10**6 - receiver
    return (scenario_seed, int(round(ebn0 * 1000)) + 10**6, SCHEMES.index(scheme), rk)


def _mc_point(scenario: Scenario, params: ModelParams, plan: _Plan,
              ebn0: float, trials: int, workers: int) -> list[dict]:
    rows = []
    group = plan.group
    labels = group.labels

    def config(scheme, receiver) -> SimConfig:
        return SimConfig(
            trials=trials,
            seed=np.random.SeedSequence(_cell_seed(scenario.seed, ebn0, scheme,
                                                   receiver)),
            params=params,
            decoding=scenario.decoding,
            start_slot=scenario.start_slot,
            workers=workers,
        )

    def single(label, scheme, trace, policy, receiver) -> dict:
        try:
            summary = run_single(config(scheme, receiver), trace, policy)
        except InfeasibleModelError:
            return _row(label, scheme, ebn0, "montecarlo")
        return _mc_summary_row(label, scheme, ebn0, summary)

    sizing = {"nc": [NonAdaptivePolicy()] * len(labels), "anc": plan.own}
    for scheme, policies in sizing.items():
        if scheme in scenario.schemes:
            rows += [single(label, scheme, trace, policy, label)
                     for trace, policy, label in zip(group.receivers, policies, labels)]

    for scheme, virtual in plan.virtual.items():
        try:
            if isinstance(virtual, InfeasibleModelError):
                raise virtual
            pe, shared, _ = virtual
            result = run_multicast(config(scheme, -1), group, shared)
        except InfeasibleModelError:
            rows.extend(_na_group(labels, scheme, ebn0, "montecarlo"))
            continue
        rows += [_mc_summary_row(label, scheme, ebn0, summary)
                 for label, summary in zip(result.labels, result.per_receiver)]
        vlabel = VIRTUAL_LABELS[scheme]
        rows.append(single(vlabel, "nc", pe, NonAdaptivePolicy(), -2))
        rows.append(single(vlabel, "anc", pe, shared, -2))
    return rows


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
        plan = _plan(scenario, params, group, analytic, montecarlo)
        if analytic:
            rows.extend(_analytic_point(scenario, params, plan, ebn0))
        if montecarlo:
            rows.extend(_mc_point(scenario, params, plan, ebn0, trials, workers))
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
