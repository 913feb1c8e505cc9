"""Scenario files: the full parameter set of one experiment campaign.

A scenario is a YAML mapping with nested sections; it fixes the receiver
population, timing constants, packet size, Eb/N0 sweep, channel model (or
explicit trace files) and seeds, so a campaign is reproducible from the
file alone.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .channel import (
    LmsParams,
    MODULATIONS,
    STATE_NAMES,
    StateParams,
    low_height_building_default,
)
from .simkit import DECODINGS, MAX_TRIALS

SCHEMES = ("nc", "anc", "maxpe", "maxct")
_INT_FIELDS = ("receivers", "dof", "ack_slot_advance", "bits_per_packet",
               "trace_length", "start_slot", "seed", "trials")


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass
class Scenario:
    name: str = "geo-default"
    receivers: int = 10
    dof: int = 10
    packet_time_s: float = 0.67e-3
    ack_wait_s: float = 0.2388
    ack_slot_advance: int = 1
    bits_per_packet: int = 10_000
    trace_length: int = 1000
    start_slot: int = 0
    modulation: str = "bpsk"
    eb_n0_db: list[float] = field(default_factory=lambda: [float(x) for x in range(11)])
    schemes: list[str] = field(default_factory=lambda: list(SCHEMES))
    seed: int = 20260810
    trials: int = 2000
    decoding: str = "ideal"
    lms: LmsParams = field(default_factory=low_height_building_default)
    trace_files: list[str] | None = None

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            # bool is an int subclass; a float would index or size arrays
            if type(value) is not int:
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if self.receivers < 1:
            raise ScenarioError("receivers must be >= 1")
        if self.dof < 1:
            raise ScenarioError("dof must be >= 1")
        for name in ("packet_time_s", "ack_wait_s"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if self.packet_time_s <= 0 or self.ack_wait_s < 0:
            raise ScenarioError("timing constants must be positive")
        if self.ack_slot_advance < 0:
            raise ScenarioError("ack_slot_advance must be >= 0")
        if self.bits_per_packet < 1:
            raise ScenarioError("bits_per_packet must be >= 1")
        if self.trace_length < 1:
            raise ScenarioError("trace_length must be >= 1")
        if not self.eb_n0_db:
            raise ScenarioError("eb_n0_db sweep must be nonempty")
        self.eb_n0_db = [float(x) for x in self.eb_n0_db]
        if not all(map(math.isfinite, self.eb_n0_db)):
            raise ScenarioError("eb_n0_db points must be finite")
        repeated = sorted({x for x in self.eb_n0_db if self.eb_n0_db.count(x) > 1})
        if repeated:
            raise ScenarioError(f"eb_n0_db repeats {repeated}")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ScenarioError(f"unknown schemes: {sorted(unknown)}")
        if not self.schemes:
            raise ScenarioError("schemes must be nonempty")
        if str(self.modulation).lower() not in MODULATIONS:
            raise ScenarioError(f"unknown modulation {self.modulation!r}, "
                                f"expected one of {list(MODULATIONS)}")
        if self.decoding not in DECODINGS:
            raise ScenarioError(f"unknown decoding {self.decoding!r}, "
                                f"expected one of {list(DECODINGS)}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ScenarioError(f"trials must be in [1, {MAX_TRIALS}]")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if self.trace_files is not None and (
                not isinstance(self.trace_files, list)
                or len(self.trace_files) != self.receivers
                or not all(isinstance(f, str) for f in self.trace_files)):
            raise ScenarioError("trace_files must list one file path per receiver")

    def initial_state(self, receiver_index: int) -> str:
        """Round-robin state assignment over the receiver index."""
        return STATE_NAMES[receiver_index % len(STATE_NAMES)]

    def receiver_labels(self) -> list[int]:
        return list(range(1, self.receivers + 1))


def _lms_to_dict(lms: LmsParams) -> dict:
    out = {"speed_mps": lms.speed_mps,
           "transition": [[float(x) for x in row] for row in lms.transition]}
    for name, sp in zip(STATE_NAMES, lms.states):
        out[name] = {
            "mean_gain_db": sp.mean_gain_db,
            "shadow_std_db": sp.shadow_std_db,
            "correlation_distance_m": sp.correlation_distance_m,
        }
    return out


def _lms_from_dict(data: dict) -> LmsParams:
    try:
        states = {
            name: StateParams(**{k: float(v) for k, v in data[name].items()})
            for name in STATE_NAMES
        }
        return LmsParams(
            los=states["los"],
            moderate=states["moderate"],
            deep=states["deep"],
            transition=np.asarray(data["transition"], dtype=float),
            speed_mps=float(data["speed_mps"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid lms section: {exc}") from exc


def scenario_to_dict(s: Scenario) -> dict:
    """Every field in declaration order, each copied, `lms` as a mapping."""
    out = {f.name: copy.copy(getattr(s, f.name)) for f in fields(s)}
    out["lms"] = _lms_to_dict(s.lms)
    return out


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping")
    known = dict(data)
    lms = known.pop("lms", None)
    kwargs = {}
    valid = set(Scenario.__dataclass_fields__)
    for key, value in known.items():
        if key not in valid:
            raise ScenarioError(f"unknown scenario key {key!r}")
        kwargs[key] = value
    if lms is not None:
        kwargs["lms"] = _lms_from_dict(lms)
    try:
        return Scenario(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    scenario = scenario_from_dict(raw)
    if scenario.trace_files:
        # relative to the scenario file, so the file alone fixes the campaign
        scenario.trace_files = [str(path.parent / f) for f in scenario.trace_files]
    return scenario


def save_scenario(path, scenario: Scenario):
    with open(path, "w", newline="\n") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)
