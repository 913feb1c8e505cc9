"""Virtual reference channels standing in for a whole multicast group.

Two constructions: the per-slot worst erasure across all receivers
(max-erasure), and the verbatim trace of the receiver with the largest
expected completion time (max-completion-time).  The sender sizes the
batches for every receiver in the group on the virtual trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ErasureTrace
from .completion import (
    AdaptivePolicy,
    InfeasibleModelError,
    ModelParams,
    expected_delay_packets,
)

MAXPE = "maxpe"
MAXCT = "maxct"


@dataclass
class MulticastGroup:
    """Erasure traces of the receivers sharing one multicast session."""

    receivers: list[ErasureTrace]
    labels: list[int] | None = None

    def __post_init__(self):
        if len(self.receivers) < 1:
            raise ValueError("group must contain at least one receiver")
        lengths = {len(r) for r in self.receivers}
        if len(lengths) != 1:
            raise ValueError("all receiver traces must share one length")
        ebn0 = {r.eb_n0_db for r in self.receivers}
        if len(ebn0) != 1:
            raise ValueError("all receiver traces must share one Eb/N0")
        bits = {r.bits_per_packet for r in self.receivers}
        if len(bits) != 1:
            raise ValueError("all receiver traces must share one packet size")
        if self.labels is None:
            self.labels = list(range(1, len(self.receivers) + 1))
        elif len(self.labels) != len(self.receivers):
            raise ValueError("labels must match receivers one-to-one")

    def __len__(self):
        return len(self.receivers)

    @property
    def trace_length(self) -> int:
        return len(self.receivers[0])


@dataclass
class VirtualChannel:
    """A single reference trace representing the whole group."""

    pe: ErasureTrace
    scheme: str
    reference_receiver: int | None = None


def build_maxpe(group: MulticastGroup) -> VirtualChannel:
    """Virtual channel of per-slot maximum erasure across the group."""
    stacked = np.vstack([r.pe for r in group.receivers])
    first = group.receivers[0]
    pe = ErasureTrace(
        stacked.max(axis=0),
        eb_n0_db=first.eb_n0_db,
        bits_per_packet=first.bits_per_packet,
    )
    return VirtualChannel(pe=pe, scheme=MAXPE, reference_receiver=None)


def maxct_reference(labels: list, own: list) -> int:
    """Index of the receiver with the largest expected completion time.

    `own` holds each receiver's (delay, packets) on its own trace under
    its own adaptive policy, in receiver order; ties break toward the
    smallest label.  Infeasible receivers propagate with their label
    attached.
    """
    best = None
    best_time = -np.inf
    for k in np.argsort(labels):
        answer = own[k]
        if isinstance(answer, InfeasibleModelError):
            raise InfeasibleModelError(f"receiver {labels[k]}: {answer}") from answer
        if answer[0] > best_time:
            best_time = answer[0]
            best = int(k)
    return best


def build_maxct(group: MulticastGroup, params: ModelParams,
                start_slot: int = 0) -> VirtualChannel:
    """Virtual channel of the receiver slowest to complete from `start_slot`."""
    own = [expected_delay_packets(trace, params, AdaptivePolicy(trace), start_slot)
           for trace in group.receivers]
    k = maxct_reference(group.labels, own)
    trace = group.receivers[k]
    pe = ErasureTrace(
        trace.pe.copy(),
        eb_n0_db=trace.eb_n0_db,
        bits_per_packet=trace.bits_per_packet,
        receiver_id=trace.receiver_id,
    )
    return VirtualChannel(pe=pe, scheme=MAXCT, reference_receiver=group.labels[k])
