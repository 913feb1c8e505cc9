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
successor map and back-substituting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def batch_distribution_via_success_counts(pe_trace, start_slot: int,
                                          remaining: int,
                                          batch: int) -> np.ndarray:
    """Same distribution through the success-count (Poisson binomial) route.

    Kept as an independent computation for cross-checking the transition
    fold above.
    """
    pe = _pe_array(pe_trace)
    if remaining < 1:
        raise ValueError("remaining must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    tau = pe.size
    counts = np.zeros(batch + 1)
    counts[0] = 1.0
    for k in range(batch):
        e = pe[(start_slot + k) % tau]
        s = 1.0 - e
        nxt = counts * e
        nxt[1:] += counts[:-1] * s
        counts = nxt
    dist = np.zeros(remaining + 1)
    left = np.maximum(remaining - np.arange(batch + 1), 0)
    np.add.at(dist, left, counts)
    return dist


def _batch_distributions_bulk(pe: np.ndarray, remaining: int,
                              batches: np.ndarray) -> np.ndarray:
    """Per-start-slot batch outcome distributions, one row per slot.

    Row j equals batch_distribution(pe, j, remaining, batches[j]); the
    fold runs over all start slots simultaneously, stepping packet k of
    every still-active batch at once.
    """
    tau = pe.size
    v = np.zeros((tau, remaining + 1))
    v[:, remaining] = 1.0
    slots = np.arange(tau)
    for k in range(int(batches.max())):
        active = batches > k
        idx = slots[active]
        e = pe[(idx + k) % tau][:, None]
        s = 1.0 - e
        sub = v[active]
        nxt = sub * e
        nxt[:, 0] += sub[:, 0] * s[:, 0]
        nxt[:, :-1] += sub[:, 1:] * s
        v[active] = nxt
    return v


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


def nc_batch_size(remaining: int) -> int:
    """Non-adaptive benchmark batch: exactly the missing DoF count."""
    if remaining < 1:
        raise ValueError("remaining must be >= 1")
    return remaining


def _sizing_table(pe: np.ndarray, dof: int) -> np.ndarray:
    """anc_batch_size for every (remaining, start slot), 0 where infeasible.

    Entry [r-1, j] is the least N covering r degrees of freedom from slot
    j, or 0 when no N <= 64*r does.  Each slot's column is one cumulative
    sum over 64*dof slots; its prefix is bit-identical to the scalar
    rule's shorter sum, so the table equals anc_batch_size exactly.
    """
    tau = pe.size
    window = 64 * dof
    received = np.tile(1.0 - pe, -(-(window + tau) // tau))
    need = np.arange(1, dof + 1, dtype=float)
    caps = 64 * np.arange(1, dof + 1)
    table = np.empty((dof, tau), dtype=np.int64)
    for j in range(tau):
        pos = received[j:j + window].cumsum().searchsorted(need, side="left")
        table[:, j] = np.where(pos < caps, pos + 1, 0)
    return table


def _require_covered(table: np.ndarray, first_remaining: int = 1) -> None:
    """Raise InfeasibleWindowError at the first 0 entry in level-major order."""
    zeros = np.flatnonzero(table == 0)
    if zeros.size:
        r, j = divmod(int(zeros[0]), table.shape[-1])
        raise InfeasibleWindowError(j, first_remaining + r)


class NonAdaptivePolicy:
    """Channel-oblivious sizing: each round sends the deficit, uncompensated."""

    name = "nc"

    def batch_size(self, remaining: int, slot: int) -> int:
        return nc_batch_size(remaining)

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

    name = "anc"

    def __init__(self, sizing_trace):
        self.sizing_pe = _pe_array(sizing_trace)
        self._table = np.zeros((0, self.sizing_pe.size), dtype=np.int64)

    def _rows(self, dof: int) -> np.ndarray:
        if dof > self._table.shape[0]:
            self._table = _sizing_table(self.sizing_pe, dof)
        return self._table

    def table(self, dof: int, tau: int) -> np.ndarray:
        """Batch for r = 1..dof deficits (rows) at every slot (columns).

        Slot j reads the sizing trace at j mod its length; 0 marks a
        window no batch within 64*r covers.
        """
        return self._rows(dof)[:dof, np.arange(tau) % self.sizing_pe.size]

    def batch_size(self, remaining: int, slot: int) -> int:
        if remaining < 1:
            raise ValueError("remaining must be >= 1")
        slot = slot % self.sizing_pe.size
        n = int(self._rows(remaining)[remaining - 1, slot])
        if n == 0:
            raise InfeasibleWindowError(slot, remaining)
        return n


# -- expected-cost solver -----------------------------------------------------


def _solve_level(b: list, c: list, successor: list) -> list:
    """Solve T[j] = b[j] + c[j] * T[successor[j]] exactly.

    Each equation has a single coupling, so the successor map is a
    functional graph: resolve each cycle in closed form, then
    back-substitute along the trees hanging off it.  Raises when a cycle
    has unit stay probability everywhere (the batch windows on it are
    fully erased).  Works on Python lists: the walk is scalar code.
    """
    tau = len(b)
    UNSEEN, ON_PATH, DONE = 0, 1, 2
    state = [UNSEEN] * tau
    T = [0.0] * tau
    for start in range(tau):
        if state[start] != UNSEEN:
            continue
        path = []
        j = start
        while state[j] == UNSEEN:
            state[j] = ON_PATH
            path.append(j)
            j = successor[j]
        if state[j] == ON_PATH:
            k = path.index(j)
            cycle = path[k:]
            acc = 0.0
            coef = 1.0
            for node in cycle:
                acc += coef * b[node]
                coef *= c[node]
            if coef >= 1.0:
                raise InfeasibleModelError(
                    "batch windows along a slot cycle are fully erased; "
                    "completion is unreachable"
                )
            T[j] = acc / (1.0 - coef)
            state[j] = DONE
            for node in reversed(cycle[1:]):
                T[node] = b[node] + c[node] * T[successor[node]]
                state[node] = DONE
            tail = path[:k]
        else:
            tail = path
        for node in reversed(tail):
            T[node] = b[node] + c[node] * T[successor[node]]
            state[node] = DONE
    return T


def _expected_cost(pe: np.ndarray, params: ModelParams, policy) -> np.ndarray:
    """Expected accumulated per-round costs until absorption, per state.

    Returns an array of shape (3, dof+1, tau), one backward solve with
    three right-hand sides for a round of N packets: [0] the time
    N*t_p + t_w, [1] the time at zero ack wait N*t_p, [2] one round.
    Row 0 of each is the absorbed level.
    """
    tau = pe.size
    dof = params.dof
    ack = params.ack_slot_advance
    table = policy.table(dof, tau)
    T = np.zeros((3, dof + 1, tau))
    slots = np.arange(tau)
    for r in range(1, dof + 1):
        batches = table[r - 1]
        _require_covered(batches, r)
        dists = _batch_distributions_bulk(pe, r, batches)
        successor = (slots + batches + ack) % tau
        c = dists[:, r]
        sent = batches * params.t_p
        for k, b in enumerate((sent + params.t_w, sent, np.ones(tau))):
            if r > 1:
                b = b + np.einsum("jl,lj->j", dists[:, 1:r], T[k][1:r, successor])
            level = np.array(_solve_level(b.tolist(), c.tolist(), successor.tolist()))
            resid = np.abs(level - (b + c * level[successor]))
            if np.any(resid > 1e-9 * (1.0 + np.abs(level))):
                raise ArithmeticError("expected-cost solve residual out of tolerance")
            T[k, r] = level
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


def throughput(delivered_dof: int, completion_time: float) -> float:
    """Delivered packets per second for one solved point."""
    if completion_time <= 0:
        raise ValueError("completion_time must be > 0")
    return delivered_dof / completion_time
