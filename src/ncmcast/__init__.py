"""Coded multicast over time-variant packet-erasure channels.

Building blocks: finite-field random linear coding, three-state
land-mobile channel traces, an analytic expected-completion-time engine,
virtual reference channels for multicast groups, a Monte Carlo simulator,
and a CLI that sweeps scenarios into result tables.
"""

from .channel import (
    ChannelTrace,
    ErasureTrace,
    LmsParams,
    StateParams,
    bit_error_prob,
    erasure_prob,
    generate_trace,
    low_height_building_default,
    to_erasure_trace,
)
from .completion import (
    AdaptivePolicy,
    CompletionModel,
    ErasedCycleError,
    InfeasibleModelError,
    InfeasibleWindowError,
    ModelParams,
    NonAdaptivePolicy,
    anc_batch_size,
    batch_distribution,
)
from .gf import FieldSpec, GF2m
from .scenario import Scenario, ScenarioError, load_scenario, save_scenario
from .simkit import SimConfig, SimSummary, run_many, run_single
from .virtualize import MulticastGroup, build_maxpe

__version__ = "0.1.0"

__all__ = [
    "AdaptivePolicy",
    "ChannelTrace",
    "CompletionModel",
    "ErasedCycleError",
    "ErasureTrace",
    "FieldSpec",
    "GF2m",
    "InfeasibleModelError",
    "InfeasibleWindowError",
    "LmsParams",
    "ModelParams",
    "MulticastGroup",
    "NonAdaptivePolicy",
    "Scenario",
    "ScenarioError",
    "SimConfig",
    "SimSummary",
    "StateParams",
    "anc_batch_size",
    "batch_distribution",
    "bit_error_prob",
    "build_maxpe",
    "erasure_prob",
    "generate_trace",
    "load_scenario",
    "low_height_building_default",
    "run_many",
    "run_single",
    "save_scenario",
    "to_erasure_trace",
]
