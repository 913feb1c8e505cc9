"""Expected completion time of batched coded transmission over an erasure trace.

State space: (remaining degrees of freedom, channel slot index), slot
index cyclic over the trace.  Each feedback round transmits a batch of N
coded packets over N consecutive slots, costs N*t_p + t_w, and advances
the slot pointer by N plus an acknowledgment shift.  The per-round batch
size comes from a policy: non-adaptive (send exactly the deficit) or
adaptive (cover the deficit in expectation using a sizing trace).

The expected-cost equations are linear and block-triangular in the
remaining-DoF level; within a level each state couples to exactly one
other state, so levels solve exactly by resolving the cycles of that
successor map and back-substituting.  One fold of per-slot success
counts gives the batch outcomes of every level, and each level is one
walk of its successor map for the three right-hand sides: time, time
at zero acknowledgment wait, and rounds.  Decoding is idealized: every
received packet is innovative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ErasureTrace


class InfeasibleModelError(RuntimeError):
    """The trace cannot deliver the required degrees of freedom."""


class InfeasibleWindowError(InfeasibleModelError):
    """No batch within the size cap covers the deficit from this slot."""

    def __init__(self, start_slot: int, remaining: int):
        super().__init__(
            f"no batch of at most {64 * remaining} packets starting at slot "
            f"{start_slot} covers {remaining} degrees of freedom in expectation"
        )
        self.start_slot = start_slot
        self.remaining = remaining

    def __reduce__(self):
        # a Monte Carlo worker process sends the error back pickled
        return type(self), (self.start_slot, self.remaining)


@dataclass(frozen=True)
class ModelParams:
    """Timing and sizing constants of the transmission model."""

    dof: int
    t_p: float
    t_w: float
    ack_slot_advance: int = 1

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError("dof must be >= 1")
        if not (math.isfinite(self.t_p) and math.isfinite(self.t_w)):
            raise ValueError("t_p and t_w must be finite")
        if self.t_p <= 0:
            raise ValueError("t_p must be > 0")
        if self.t_w < 0:
            raise ValueError("t_w must be >= 0")
        if self.ack_slot_advance < 0:
            raise ValueError("ack_slot_advance must be >= 0")


def _pe_array(trace) -> np.ndarray:
    if isinstance(trace, ErasureTrace):
        return trace.pe
    pe = np.asarray(trace, dtype=float)
    if pe.ndim != 1 or pe.size < 1:
        raise ValueError("erasure trace must be a nonempty 1-D vector")
    return pe


# -- batch outcome distribution ---------------------------------------------


def batch_distribution(pe_trace, start_slot: int, remaining: int,
                       batch: int) -> np.ndarray:
    """Distribution of DoF still missing after a batch of transmissions.

    Entry l is the probability that l of `remaining` degrees of freedom
    are still missing after `batch` packets sent on consecutive cyclic
    slots from `start_slot`.  This folds the per-slot transfer step
    (success moves down one level, level 0 absorbing) across the batch,
    i.e. it is the starting row of the batch-fold transition product.
    """
    pe = _pe_array(pe_trace)
    if remaining < 1:
        raise ValueError("remaining must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    tau = pe.size
    v = np.zeros(remaining + 1)
    v[remaining] = 1.0
    for k in range(batch):
        e = pe[(start_slot + k) % tau]
        s = 1.0 - e
        nxt = v * e
        nxt[0] += v[0] * s
        nxt[:-1] += v[1:] * s
        v = nxt
    return v


def _level_distributions(pe: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Batch outcome distributions of every deficit level, from one fold.

    The last r entries of [r-1, j] are batch_distribution(pe, j, r,
    table[r-1, j])[1:], the chances of deficits 1..r.  Missing l of r
    degrees of freedom means r - l successes, so one fold of success
    counts serves every level: count c sits in column rows-1-c, where
    rows = table.shape[0], and each level takes a snapshot of the counts
    once its own batch has been sent.  Each step is the same two
    products and one add as batch_distribution, so the entries are
    bit-identical; the absorbed deficit 0 is not kept.  Slots are
    stepped in order of their largest batch, so the ones still sending
    are a leading block.
    """
    rows, tau = table.shape
    last = table.max(axis=0, initial=0)
    order = np.argsort(-last, kind="stable")
    where = np.empty(tau, dtype=np.int64)
    where[order] = np.arange(tau)
    steps = int(last.max(initial=0))
    # sending[k-1]: slots whose largest batch has k packets or more
    sending = np.searchsorted(-last[order], -np.arange(1, steps + 1), side="right")
    # flat (level, slot) entries by batch size; batch k is events[bounds[k]:bounds[k+1]]
    events = np.argsort(table, axis=None, kind="stable")
    bounds = np.searchsorted(table.ravel()[events], np.arange(steps + 2))
    counts = np.zeros((tau, rows))
    counts[:, -1:] = 1.0  # no successes yet; empty when no level is covered
    snaps = np.empty((rows, tau, rows))
    for k in range(1, steps + 1):
        n = sending[k - 1]
        sub = counts[:n]
        e = pe[(order[:n] + (k - 1)) % tau][:, None]
        s = 1.0 - e
        nxt = sub * e
        nxt[:, :-1] += sub[:, 1:] * s
        counts[:n] = nxt
        level, slot = np.divmod(events[bounds[k]:bounds[k + 1]], tau)
        snaps[level, slot] = counts[where[slot]]
    return snaps


# -- batch sizing policies ----------------------------------------------------


def anc_batch_size(pe_trace, start_slot: int, remaining: int) -> int:
    """Smallest batch whose expected delivered packets cover the deficit.

    Returns the least N with sum_{k<N} (1 - pe((start_slot+k) mod tau))
    >= remaining, capped at 64*remaining.
    """
    pe = _pe_array(pe_trace)
    if remaining < 1:
        raise ValueError("remaining must be >= 1")
    tau = pe.size
    cap = 64 * remaining
    idx = (start_slot + np.arange(cap)) % tau
    cums = np.cumsum(1.0 - pe[idx])
    pos = int(np.searchsorted(cums, float(remaining), side="left"))
    if pos >= cap:
        raise InfeasibleWindowError(start_slot % tau, remaining)
    return pos + 1


def _sizing_table(pe: np.ndarray, dof: int) -> np.ndarray:
    """anc_batch_size for every (remaining, start slot), 0 where infeasible.

    Entry [r-1, j] is the least N covering r degrees of freedom from slot
    j, or 0 when no N <= 64*r does.  A slot's partial sums of received
    packets go in chunks of 64, and each chunk's cumulative sum starts
    from the previous chunk's last sum: the same sequential sum as the
    scalar rule's, so bit-identical.  The sums never decrease, so chunk c
    (N from 64c+1 to 64c+64) decides each row r > c whose sum first
    reaches r there, and with it the cap of row c+1.  A slot is summed on
    only while its last sum is below dof, so a slot needs as many chunks
    as its largest batch does.  A sum is below r exactly when its floor
    is (the sums are nonnegative, so truncation is the floor), so
    offsetting each slot's floors past the previous slot's lets one
    sorted search count every row's sums below r.  Slots go through in
    blocks of 512, whose chunk sums take 256 KiB and stay in cache.
    """
    tau = pe.size
    received = np.tile(1.0 - pe, -(-(64 * dof + tau) // tau))
    chunks = sliding_window_view(received, 64)
    span = 64 * dof + 1  # above every floor and every r
    table = np.zeros((dof, tau), dtype=np.int64)
    # two block buffers per table, reused: a new array this large per
    # block is often a new memory mapping, page-faulted in again
    block = min(512, tau)
    sums = np.empty((block, 64))
    floors = np.empty(sums.shape, dtype=np.int64)
    for lo in range(0, tau, block):
        slots = np.arange(lo, min(lo + block, tau))
        carry = np.zeros(slots.size)
        for c in range(dof):
            n = slots.size
            if c:
                np.take(chunks, slots + 64 * c, axis=0, out=sums[:n], mode="clip")
                sums[:n, 0] += carry
                np.cumsum(sums[:n], axis=1, out=sums[:n])
            else:  # every slot of the block, read in place
                np.cumsum(chunks[lo:lo + n], axis=1, out=sums[:n])
            rows = np.arange(n)[:, None]
            np.copyto(floors[:n], sums[:n], casting="unsafe")
            floors[:n] += span * rows
            need = np.arange(c + 1, dof + 1)
            below = floors[:n].ravel().searchsorted(span * rows + need) - 64 * rows
            hit = (below < 64) & (carry[:, None] < need)
            table[c:, slots] += np.where(hit, 64 * c + 1 + below, 0).T
            undecided = sums[:n, -1] < dof
            slots, carry = slots[undecided], sums[:n, -1][undecided]
            if not slots.size:
                break
    return table


class NonAdaptivePolicy:
    """Channel-oblivious sizing: each round sends the deficit, uncompensated."""

    def table(self, dof: int, tau: int) -> np.ndarray:
        """Batch for r = 1..dof deficits (rows) at every slot (columns)."""
        return np.repeat(np.arange(1, dof + 1, dtype=np.int64)[:, None], tau, axis=1)


class AdaptivePolicy:
    """Sizing from an erasure trace so expected receptions cover the deficit.

    The sizing trace defaults to the receiver's own channel; passing a
    shared (virtual) trace instead reproduces a sender that plans its
    batches for the whole multicast group.  Sizes come from one table
    per policy, built on first use and rebuilt only for a larger deficit.
    """

    def __init__(self, sizing_trace):
        self.sizing_pe = _pe_array(sizing_trace)
        self._table = np.zeros((0, self.sizing_pe.size), dtype=np.int64)

    def table(self, dof: int, tau: int) -> np.ndarray:
        """Batch for r = 1..dof deficits (rows) at every slot (columns).

        Slot j reads the sizing trace at j mod its length; 0 marks a
        window no batch within 64*r covers.
        """
        if dof > self._table.shape[0]:
            self._table = _sizing_table(self.sizing_pe, dof)
        return self._table[:dof, np.arange(tau) % self.sizing_pe.size]


# -- expected-cost solver -----------------------------------------------------


def _solve_level(b: list, c: list, successor: list) -> list:
    """Solve T[k][j] = b[k][j] + c[j] * T[k][successor[j]] for k = 0, 1, 2.

    Each equation has a single coupling, so the successor map is a
    functional graph: resolve each cycle in closed form, then
    back-substitute along the trees hanging off it.  The three
    right-hand sides share the walk, which visits each slot once.
    Raises when a cycle has unit stay probability everywhere (the batch
    windows on it are fully erased).  Works on Python lists: the walk
    is scalar code.
    """
    b0, b1, b2 = b
    tau = len(c)
    T0, T1, T2 = [0.0] * tau, [0.0] * tau, [0.0] * tau
    walk = [0] * tau  # 0 unseen, else 1 + the slot the walk started from
    for start in range(tau):
        if walk[start]:
            continue
        mark = start + 1
        path = []
        j = start
        while not walk[j]:
            walk[j] = mark
            path.append(j)
            j = successor[j]
        if walk[j] == mark:
            k = path.index(j)
            a0 = a1 = a2 = 0.0
            coef = 1.0
            for node in path[k:]:
                a0 += coef * b0[node]
                a1 += coef * b1[node]
                a2 += coef * b2[node]
                coef *= c[node]
            if coef >= 1.0:
                raise InfeasibleModelError(
                    "batch windows along a slot cycle are fully erased; "
                    "completion is unreachable"
                )
            T0[j] = a0 / (1.0 - coef)
            T1[j] = a1 / (1.0 - coef)
            T2[j] = a2 / (1.0 - coef)
            del path[k]
        for node in reversed(path):
            nxt = successor[node]
            f = c[node]
            T0[node] = b0[node] + f * T0[nxt]
            T1[node] = b1[node] + f * T1[nxt]
            T2[node] = b2[node] + f * T2[nxt]
    return [T0, T1, T2]


def _expected_cost(pe: np.ndarray, params: ModelParams, policy) -> np.ndarray:
    """Expected accumulated per-round costs until absorption, per state.

    Returns an array of shape (3, dof+1, tau), one backward solve with
    three right-hand sides for a round of N packets: [0] the time
    N*t_p + t_w, [1] the time at zero ack wait N*t_p, [2] one round.
    Row 0 of each is the absorbed level.  A window the table leaves
    uncovered raises before any solve, at the first in level-major
    order.  Level 1 is checked first from a one-row table, the full
    table's first row, so a model uncovered there builds no other row.
    One fold gives the batch outcomes of every level, and each level is
    one walk for all three right-hand sides.
    """
    tau = pe.size
    dof = params.dof
    ack = params.ack_slot_advance
    for rows in (1, dof):
        table = policy.table(rows, tau)
        zeros = np.flatnonzero(table == 0)
        if zeros.size:
            level, slot = divmod(int(zeros[0]), tau)
            raise InfeasibleWindowError(slot, level + 1)
    dists = _level_distributions(pe, table)
    T = np.zeros((3, dof + 1, tau))
    slots = np.arange(tau)
    for r in range(1, dof + 1):
        batches = table[r - 1]
        dist = dists[r - 1, :, -r:]
        successor = (slots + batches + ack) % tau
        c = dist[:, -1]
        sent = batches * params.t_p
        b = np.stack((sent + params.t_w, sent, np.ones(tau)))
        if r > 1:
            for k in range(3):
                b[k] += np.einsum("jl,lj->j", dist[:, :-1], T[k][1:r, successor])
        level = np.array(_solve_level(b.tolist(), c.tolist(), successor.tolist()))
        resid = np.abs(level - (b + c * level[:, successor]))
        if np.any(resid > 1e-9 * (1.0 + np.abs(level))):
            raise ArithmeticError("expected-cost solve residual out of tolerance")
        T[:, r] = level
    return T


class CompletionModel:
    """Expected time, packets and rounds over one erasure trace, one solve."""

    def __init__(self, pe_trace, params: ModelParams, policy):
        self.pe = _pe_array(pe_trace)
        self.params = params
        self.policy = policy
        self._costs: np.ndarray | None = None

    def _solved(self) -> np.ndarray:
        if self._costs is None:
            self._costs = _expected_cost(self.pe, self.params, self.policy)
        return self._costs

    def solve(self) -> np.ndarray:
        """Expected completion seconds for every (remaining, slot) state."""
        return self._solved()[0]

    def expected_time(self, remaining: int | None = None,
                      start_slot: int = 0) -> float:
        r = self.params.dof if remaining is None else remaining
        return float(self.solve()[r, start_slot % self.pe.size])

    def average_packets(self, start_slot: int = 0) -> float:
        """Expected transmitted coded packets: delay at zero ack wait / t_p."""
        p = self.params
        return float(self._solved()[1, p.dof, start_slot % self.pe.size] / p.t_p)

    def expected_rounds(self, remaining: int | None = None,
                        start_slot: int = 0) -> float:
        """Expected number of feedback rounds until completion."""
        r = self.params.dof if remaining is None else remaining
        return float(self._solved()[2, r, start_slot % self.pe.size])


def expected_delay_packets(pe_trace, params: ModelParams, policy,
                           start_slot: int = 0):
    """(expected time, average packets) from `start_slot`, one solve.

    Returns the InfeasibleModelError the model raised instead, so that a
    caller can keep an infeasible answer beside the others.  The error
    drops its traceback, which would keep the solver's frames and their
    arrays alive as long as the answer.
    """
    try:
        model = CompletionModel(pe_trace, params, policy)
        return (model.expected_time(start_slot=start_slot),
                model.average_packets(start_slot=start_slot))
    except InfeasibleModelError as exc:
        return exc.with_traceback(None)
