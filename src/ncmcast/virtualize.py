"""Virtual reference channels standing in for a whole multicast group.

Two constructions: the per-slot worst erasure across all receivers
(max-erasure, `build_maxpe`), and the verbatim trace of the receiver
with the largest expected completion time (max-completion-time, ranked
by `maxct_reference` from each receiver's own solve).  The sender sizes
the batches for every receiver in the group on the virtual trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ErasureTrace
from .completion import InfeasibleModelError


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


def build_maxpe(group: MulticastGroup) -> ErasureTrace:
    """Virtual trace of per-slot maximum erasure across the group."""
    stacked = np.vstack([r.pe for r in group.receivers])
    first = group.receivers[0]
    return ErasureTrace(
        stacked.max(axis=0),
        eb_n0_db=first.eb_n0_db,
        bits_per_packet=first.bits_per_packet,
    )


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
