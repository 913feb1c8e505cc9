"""Emission of summary tables and plot-ready series from result rows.

Produces a per-receiver summary table (sweep-averaged delay, throughput,
packet counts and the gains of each virtualization scheme over the
per-receiver adaptive baseline), a virtual-channel table (max/min over
the sweep for non-adaptive and adaptive coding on each virtual channel),
and one CSV of plot series per figure.  All numbers use dot decimals;
missing cells print as NA.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .completion import InfeasibleModelError
from .runner import VIRTUAL_LABELS
from .scenario import Scenario
from .virtualize import maxct_reference

MS = 1000.0


class ReportError(RuntimeError):
    """The results are unusable (empty or structurally broken)."""


def _fmt(value, scale=1.0) -> str:
    if value is None:
        return "NA"
    return f"{value * scale:.2f}"


class ResultIndex:
    """Cell lookup over flat result rows for one engine."""

    def __init__(self, rows: list[dict], engine: str):
        self.rows = [r for r in rows if r["engine"] == engine]
        self._cells: dict[tuple, dict] = {}
        for r in self.rows:
            self._cells[(r["receiver"], r["scheme"], r["eb_n0_db"])] = r
        self.sweep = sorted({r["eb_n0_db"] for r in self.rows})

    def cell(self, receiver, scheme, ebn0) -> dict | None:
        return self._cells.get((str(receiver), scheme, ebn0))

    def value(self, receiver, scheme, ebn0, metric) -> float | None:
        row = self.cell(receiver, scheme, ebn0)
        return None if row is None else row[metric]

    def sweep_values(self, receiver, scheme, metric) -> list[float]:
        out = []
        for ebn0 in self.sweep:
            v = self.value(receiver, scheme, ebn0, metric)
            if v is not None:
                out.append(v)
        return out

    def sweep_mean(self, receiver, scheme, metric) -> float | None:
        vals = self.sweep_values(receiver, scheme, metric)
        return float(np.mean(vals)) if vals else None

    def sweep_max(self, receiver, scheme, metric) -> float | None:
        vals = self.sweep_values(receiver, scheme, metric)
        return float(np.max(vals)) if vals else None

    def sweep_min(self, receiver, scheme, metric) -> float | None:
        vals = self.sweep_values(receiver, scheme, metric)
        return float(np.min(vals)) if vals else None


def _gain(a: float | None, b: float | None) -> float | None:
    if a is None or b is None:
        return None
    return a - b


def build_table_i(index: ResultIndex, labels: list[int],
                  mean_gains_db: dict[int, float], dof: int,
                  alt_throughput: bool = False) -> str:
    """Per-receiver summary table, sweep-averaged.

    The baseline column is the per-receiver adaptive scheme without
    virtualization.  With alt_throughput, throughput columns use
    dof / mean-delay instead of the mean of per-point throughputs.
    """
    head = (
        "| Rec. No. | Channel gain [dB] "
        "| Delay w/o virt. [ms] | Delay MaxPe [ms] | Delay MaxCT [ms] "
        "| Thr. w/o virt. [pkt/s] | Thr. MaxPe [pkt/s] | Thr. MaxCT [pkt/s] "
        "| Pkts w/o virt. | Pkts MaxPe | Pkts MaxCT "
        "| Delay gain MaxPe [ms] | Delay gain MaxCT [ms] "
        "| Thr. gain MaxPe [pkt/s] | Thr. gain MaxCT [pkt/s] |"
    )
    sep = "|" + "---|" * 15
    lines = [head, sep]
    for label in labels:
        delays = {
            s: index.sweep_mean(label, s, "delay_s")
            for s in ("anc", "maxpe", "maxct")
        }
        if alt_throughput:
            thr = {
                s: (dof / d if d else None) for s, d in delays.items()
            }
        else:
            thr = {
                s: index.sweep_mean(label, s, "throughput_pps")
                for s in ("anc", "maxpe", "maxct")
            }
        pkts = {
            s: index.sweep_mean(label, s, "avg_packets")
            for s in ("anc", "maxpe", "maxct")
        }
        cells = [
            str(label),
            _fmt(mean_gains_db.get(label)),
            _fmt(delays["anc"], MS),
            _fmt(delays["maxpe"], MS),
            _fmt(delays["maxct"], MS),
            _fmt(thr["anc"]),
            _fmt(thr["maxpe"]),
            _fmt(thr["maxct"]),
            _fmt(pkts["anc"]),
            _fmt(pkts["maxpe"]),
            _fmt(pkts["maxct"]),
            _fmt(_gain(delays["anc"], delays["maxpe"]), MS),
            _fmt(_gain(delays["anc"], delays["maxct"]), MS),
            _fmt(_gain(thr["maxpe"], thr["anc"])),
            _fmt(_gain(thr["maxct"], thr["anc"])),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _maxct_references(index: ResultIndex, labels: list[int]) -> dict[float, int | None]:
    """Reference receiver per sweep point, ranked on the `anc` delays by
    `virtualize.maxct_reference`; a point with an NA `anc` has none."""
    refs: dict[float, int | None] = {}
    for ebn0 in index.sweep:
        delays = [index.value(label, "anc", ebn0, "delay_s") for label in labels]
        own = [InfeasibleModelError() if d is None else (d, None) for d in delays]
        try:
            refs[ebn0] = labels[maxct_reference(labels, own)]
        except InfeasibleModelError:
            refs[ebn0] = None
    return refs


def build_table_ii(index: ResultIndex, labels: list[int],
                   mean_gains_db: dict[int, float],
                   pointwise_min_gain_db: float | None,
                   schemes: list[str]) -> str:
    head = (
        "| Virtual channel scheme | Virtual receiver No. "
        "| Gain max [dB] | Gain min [dB] "
        "| NC delay max [ms] | NC delay min [ms] "
        "| NC thr. max [pkt/s] | NC thr. min [pkt/s] "
        "| NC pkts max | NC pkts min "
        "| ANC delay max [ms] | ANC delay min [ms] "
        "| ANC thr. max [pkt/s] | ANC thr. min [pkt/s] "
        "| ANC pkts max | ANC pkts min |"
    )
    sep = "|" + "---|" * 16
    lines = [head, sep]
    refs = _maxct_references(index, labels)
    for scheme in ("maxpe", "maxct"):
        if scheme not in schemes:
            continue
        vlabel = VIRTUAL_LABELS[scheme]
        if scheme == "maxpe":
            who = f"[{labels[0]}..{labels[-1]}]"
            gains = (
                [pointwise_min_gain_db] if pointwise_min_gain_db is not None else []
            )
        else:
            chosen = sorted({r for r in refs.values() if r is not None})
            who = ",".join(str(r) for r in chosen) if chosen else "NA"
            gains = [mean_gains_db[r] for r in refs.values() if r is not None]
        gmax = max(gains) if gains else None
        gmin = min(gains) if gains else None
        cells = ["MaxPe" if scheme == "maxpe" else "MaxCT", who,
                 _fmt(gmax), _fmt(gmin)]
        for vscheme in ("nc", "anc"):
            cells.extend(
                [
                    _fmt(index.sweep_max(vlabel, vscheme, "delay_s"), MS),
                    _fmt(index.sweep_min(vlabel, vscheme, "delay_s"), MS),
                    _fmt(index.sweep_max(vlabel, vscheme, "throughput_pps")),
                    _fmt(index.sweep_min(vlabel, vscheme, "throughput_pps")),
                    _fmt(index.sweep_max(vlabel, vscheme, "avg_packets")),
                    _fmt(index.sweep_min(vlabel, vscheme, "avg_packets")),
                ]
            )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


FIGURES = {
    "fig2_delay_maxpe.csv": ("maxpe", "delay_s"),
    "fig3_throughput_maxpe.csv": ("maxpe", "throughput_pps"),
    "fig4_avg_packets_maxpe.csv": ("maxpe", "avg_packets"),
    "fig5_delay_maxct.csv": ("maxct", "delay_s"),
    "fig6_throughput_maxct.csv": ("maxct", "throughput_pps"),
    "fig7_avg_packets_maxct.csv": ("maxct", "avg_packets"),
}


def build_fig_rows(index: ResultIndex, labels: list[int], virt_scheme: str,
                   metric: str) -> list[str]:
    lines = ["eb_n0_db,receiver,scheme,value"]
    vlabel = VIRTUAL_LABELS[virt_scheme]
    for ebn0 in index.sweep:
        for label in labels:
            for scheme in ("nc", "anc", virt_scheme):
                v = index.value(label, scheme, ebn0, metric)
                if index.cell(label, scheme, ebn0) is not None:
                    out = "NA" if v is None else repr(v)
                    lines.append(f"{ebn0!r},{label},{scheme},{out}")
        for vscheme in ("nc", "anc"):
            v = index.value(vlabel, vscheme, ebn0, metric)
            if index.cell(vlabel, vscheme, ebn0) is not None:
                out = "NA" if v is None else repr(v)
                lines.append(f"{ebn0!r},{vlabel},{vscheme},{out}")
    return lines


def required_cells(scenario: Scenario, sweep: list[float]):
    labels = scenario.receiver_labels()
    for ebn0 in sweep:
        for scheme in scenario.schemes:
            for label in labels:
                yield (str(label), scheme, ebn0)
            if scheme in VIRTUAL_LABELS:
                for vscheme in ("nc", "anc"):
                    yield (VIRTUAL_LABELS[scheme], vscheme, ebn0)


def write_report(rows: list[dict], scenario: Scenario,
                 mean_gains_db: dict[int, float],
                 pointwise_min_gain_db: float | None, out_dir) -> bool:
    """Write tables and figure series; returns True when cells are missing."""
    if not rows:
        raise ReportError("results are empty; nothing to report")
    engine = "analytic" if any(r["engine"] == "analytic" for r in rows) else "montecarlo"
    index = ResultIndex(rows, engine)
    if not index.rows:
        raise ReportError(f"no rows for engine {engine}")
    labels = scenario.receiver_labels()

    missing = False
    for receiver, scheme, ebn0 in required_cells(scenario, index.sweep):
        row = index.cell(receiver, scheme, ebn0)
        if row is None or row["delay_s"] is None:
            missing = True
            break

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table-i.md").write_text(
        build_table_i(index, labels, mean_gains_db, scenario.dof)
    )
    (out / "table-i-alt.md").write_text(
        build_table_i(index, labels, mean_gains_db, scenario.dof,
                      alt_throughput=True)
    )
    (out / "table-ii.md").write_text(
        build_table_ii(index, labels, mean_gains_db, pointwise_min_gain_db,
                       scenario.schemes)
    )
    figs = out / "figs"
    figs.mkdir(exist_ok=True)
    for fname, (virt_scheme, metric) in FIGURES.items():
        if virt_scheme not in scenario.schemes:
            continue
        lines = build_fig_rows(index, labels, virt_scheme, metric)
        (figs / fname).write_text("\n".join(lines) + "\n")
    return missing
