"""Checks every requested cell of a results CSV against the reference.

An operation is one requested (receiver, scheme, Eb/N0) cell.  It fails
when the CSV holds no row or more than one row for it.  Every other cell
is checked, and any finding makes the run incorrect:

- properties: delay >= dof*t_p + t_w, avg_packets >= dof,
  throughput * delay == dof (analytic) or >= dof (Monte Carlo, Jensen),
  V-MaxCT anc == the largest receiver anc delay, V-MaxPe anc >= every
  receiver's maxpe delay (both analytic);
- analytic cells equal the reference delay and packets to 1e-9 relative,
  widened by ROUND_EPS per expected round: cells whose escape from a
  nearly erased cycle takes 1e16 rounds are solved to few digits;
- an NA needs a reference state with no covering window or on a fully
  erased cycle (Monte Carlo also accepts it beyond the round horizon);
- Monte Carlo nc/anc/virtual cells lie within Z standard errors of the
  reference (one-sided for RLNC decoding, which only adds delay), where
  the reference needs at most MC_CHECK_ROUNDS rounds.  Per-receiver
  maxpe/maxct Monte Carlo rows are not value-checked: their sender sizes
  batches on the group's largest deficit, which the reference does not
  model.

Scenario parameters come from the YAML file and erasure probabilities
from reference.erasure_probs; only the gain traces, the sweep's inputs,
come from the program.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

import reference

VIRTUAL = {"maxpe": "V-MaxPe", "maxct": "V-MaxCT"}
FIELDS = ("receiver", "scheme", "eb_n0_db", "delay_s", "throughput_pps",
          "avg_packets", "engine", "se_delay")
MAX_ROUNDS = 10_000  # simkit.SimConfig default, which the runner keeps
MC_CHECK_ROUNDS = MAX_ROUNDS / 100
REL_TOL = 1e-9
ROUND_EPS = 1e-14
PROPERTY_TOL = 1e-12
Z = 6.0


@dataclass(frozen=True)
class Params:
    """The scenario values the checks need, read from the YAML file."""

    receivers: int
    dof: int
    t_p: float
    t_w: float
    ack: int
    bits: int
    start_slot: int
    schemes: tuple[str, ...]

    @classmethod
    def from_yaml(cls, path) -> "Params":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        return cls(
            receivers=int(raw["receivers"]),
            dof=int(raw["dof"]),
            t_p=float(raw["packet_time_s"]),
            t_w=float(raw["ack_wait_s"]),
            ack=int(raw.get("ack_slot_advance", 1)),
            bits=int(raw["bits_per_packet"]),
            start_slot=int(raw.get("start_slot", 0)),
            schemes=tuple(raw["schemes"]),
        )


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def merge(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def read_csv(path) -> list[dict]:
    """Rows of a results CSV; NA becomes None."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(FIELDS):
        raise ValueError(f"{path}: unexpected header")
    rows = []
    for line in lines[1:]:
        row = dict(zip(FIELDS, line.split(",")))
        row["eb_n0_db"] = float(row["eb_n0_db"])
        for key in ("delay_s", "throughput_pps", "avg_packets", "se_delay"):
            row[key] = None if row[key] == "NA" else float(row[key])
        rows.append(row)
    return rows


def requested_cells(p: Params, points) -> list[tuple[str, str, float]]:
    cells = []
    for ebn0 in points:
        for scheme in p.schemes:
            cells += [(str(k), scheme, ebn0) for k in range(1, p.receivers + 1)]
            if scheme in VIRTUAL:
                cells += [(VIRTUAL[scheme], s, ebn0) for s in ("nc", "anc")]
    return cells


class PointReference:
    """Lazily solved references for the cells of one Eb/N0 point."""

    def __init__(self, p: Params, pes: list[np.ndarray]):
        self.p = p
        self.pes = pes
        self.maxpe = np.vstack(pes).max(axis=0)
        self._tables: dict[int, np.ndarray] = {}
        self._refs: dict[tuple, reference.Reference] = {}
        self._na: dict[tuple, bool] = {}

    def _table(self, sizing: np.ndarray | None) -> np.ndarray:
        key = -1 if sizing is None else id(sizing)
        if key not in self._tables:
            self._tables[key] = reference.batch_table(sizing, self.p.dof,
                                                      self.maxpe.size)
        return self._tables[key]

    def solve(self, pe: np.ndarray, sizing: np.ndarray | None) -> reference.Reference:
        """Reference for erasures `pe` sized on `sizing` (None: non-adaptive)."""
        key = (id(pe), -1 if sizing is None else id(sizing))
        if key not in self._refs:
            p = self.p
            self._refs[key] = reference.solve(pe, self._table(sizing), p.t_p,
                                              p.t_w, p.ack, p.start_slot)
        return self._refs[key]

    def na_ok(self, pe: np.ndarray, sizing: np.ndarray | None) -> bool:
        key = (id(pe), -1 if sizing is None else id(sizing))
        if key in self._refs:
            return self._refs[key].na_ok
        if key not in self._na:
            self._na[key] = reference.na_justified(pe, self._table(sizing), self.p.ack)
        return self._na[key]

    @functools.cached_property
    def maxct_trace(self) -> np.ndarray | None:
        """The slowest receiver's trace, or None when one is infeasible."""
        best, best_time = None, -math.inf
        for pe in self.pes:
            ref = self.solve(pe, pe)
            if ref.na_ok:
                return None
            if ref.delay > best_time:
                best, best_time = pe, ref.delay
        return best

    def cell(self, receiver: str, scheme: str):
        """(erasures, sizing) of a cell; None when maxct is undefined."""
        if receiver in VIRTUAL.values():
            pe = self.maxpe if receiver == VIRTUAL["maxpe"] else self.maxct_trace
            if pe is None:
                return None
            return pe, (None if scheme == "nc" else pe)
        pe = self.pes[int(receiver) - 1]
        sizing = {"nc": None, "anc": pe, "maxpe": self.maxpe}.get(scheme)
        if scheme == "maxct":
            sizing = self.maxct_trace
            if sizing is None:
                return None
        return pe, sizing


def check_workload(rows: list[dict], sweeps) -> Verdict:
    """Verdict on one results CSV; `sweeps` holds check_sweep's arguments.

    Each element is (params, gains, points, engine, trials, rlnc).
    """
    verdict = Verdict()
    claimed = set()
    for p, gains, points, engine, trials, rlnc in sweeps:
        mine = [r for r in rows if r["eb_n0_db"] in points]
        claimed.update(map(id, mine))
        verdict.merge(check_sweep(mine, p, gains, points, engine, trials, rlnc))
    stray = [r for r in rows if id(r) not in claimed]
    if stray:
        verdict.problems.append(f"{len(stray)} rows at unrequested Eb/N0 points")
    return verdict


def check_sweep(rows: list[dict], p: Params, gains: list[np.ndarray],
                points, engine: str, trials: int | None = None,
                rlnc: bool = False) -> Verdict:
    """Verdict on the rows of one sweep's Eb/N0 points."""
    verdict = Verdict()
    by_cell: dict[tuple, list[dict]] = {}
    for row in rows:
        by_cell.setdefault((row["receiver"], row["scheme"], row["eb_n0_db"]),
                           []).append(row)
    cells = requested_cells(p, points)
    extra = set(by_cell) - set(cells)
    if extra:
        verdict.problems.append(f"rows for unrequested cells: {sorted(extra)[:3]}")
    verdict.attempted = len(cells)
    for ebn0 in points:
        pes = [reference.erasure_probs(g, ebn0, p.bits) for g in gains]
        point = PointReference(p, pes)
        single = {}
        for cell in requested_cells(p, [ebn0]):
            found = by_cell.get(cell, [])
            if len(found) != 1:
                verdict.failed += 1
                continue
            single[cell[:2]] = found[0]
            problem = _check_cell(found[0], point, cell, engine, trials, rlnc)
            if problem:
                verdict.problems.append(f"{cell}: {problem}")
        if engine == "analytic":
            verdict.problems += [f"{ebn0} dB: {m}" for m in _group_properties(single, p)]
    return verdict


def _check_cell(row, point: PointReference, cell, engine, trials, rlnc):
    p = point.p
    receiver, scheme, _ = cell
    if row["engine"] != engine:
        return f"engine {row['engine']!r}, expected {engine!r}"
    delay, thr, packets, se = (row["delay_s"], row["throughput_pps"],
                               row["avg_packets"], row["se_delay"])
    values = (delay, thr, packets, se)
    if any(v is None for v in values) and any(v is not None for v in values):
        return "NA in some columns only"
    mc = engine == "montecarlo"
    exempt = mc and scheme in VIRTUAL and receiver not in VIRTUAL.values()
    model = point.cell(receiver, scheme)
    if delay is None:
        if model is None or point.na_ok(*model):
            return None
        if mc and point.solve(*model).rounds > MC_CHECK_ROUNDS:
            return None
        return "NA where the reference is finite"

    if not all(math.isfinite(v) for v in values) or delay <= 0 or se < 0:
        return f"non-finite or negative values {values}"
    floor = (p.dof * p.t_p + p.t_w) * (1 - PROPERTY_TOL)
    if delay < floor:
        return f"delay {delay} below one round of dof packets ({floor})"
    if packets < p.dof * (1 - PROPERTY_TOL):
        return f"avg_packets {packets} below dof"
    product = thr * delay / p.dof
    if (mc and product < 1 - PROPERTY_TOL) or (
            not mc and abs(product - 1) > PROPERTY_TOL):
        return f"throughput * delay = {thr * delay}, dof = {p.dof}"
    if model is None:
        return "value where the reference finds a receiver infeasible for maxct"
    if not mc:
        if se != 0.0:
            return f"analytic se_delay {se}"
        ref = point.solve(*model)
        if ref.delay is None:
            return "value where a reachable state is infeasible"
        tol = REL_TOL + ROUND_EPS * ref.rounds
        for name, got, want in (("delay", delay, ref.delay),
                                ("avg_packets", packets, ref.packets)):
            if abs(got - want) > tol * abs(want):
                return f"{name} {got!r}, reference {want!r}"
        return None
    if exempt:
        return None
    ref = point.solve(*model)
    if ref.delay is None or ref.rounds > MC_CHECK_ROUNDS:
        return None
    tol = Z * max(ref.delay_sd / math.sqrt(trials), se)
    low, high = ref.delay - tol, (math.inf if rlnc else ref.delay + tol)
    if not low <= delay <= high:
        return (f"delay {delay!r} outside [{low!r}, {high!r}] "
                f"(reference {ref.delay!r}, sd {ref.delay_sd!r}, se {se!r})")
    return None


def _group_properties(single: dict, p: Params) -> list[str]:
    """Cross-cell properties of one analytic point."""
    problems = []
    labels = [str(k) for k in range(1, p.receivers + 1)]

    def delay(receiver, scheme):
        row = single.get((receiver, scheme))
        return None if row is None else row["delay_s"]

    vct = delay(VIRTUAL["maxct"], "anc")
    anc = [delay(k, "anc") for k in labels]
    if vct is not None and None not in anc and vct != max(anc):
        problems.append(f"V-MaxCT anc {vct!r} != largest receiver anc {max(anc)!r}")
    vpe = delay(VIRTUAL["maxpe"], "anc")
    if vpe is not None:
        for k in labels:
            d = delay(k, "maxpe")
            if d is not None and d > vpe * (1 + PROPERTY_TOL):
                problems.append(f"receiver {k} maxpe {d!r} > V-MaxPe anc {vpe!r}")
    return problems
