"""Independent analytic reference for the benchmark's cell checks.

Nothing here imports ncmcast.  From a receiver's erasure trace and the
trace its batches are sized on, it recomputes the model the program
implements (README "Conventions"): one round sends N coded packets on
consecutive cyclic slots, costs N*t_p + t_w and moves the slot pointer by
N + ack; adaptive sizing picks the least N whose expected deliveries cover
the deficit, capped at 64 * deficit.

The solve differs from the program's on purpose: it keeps only the states
reachable from (dof, start_slot), folds batch outcomes by counting
successes, and solves each deficit level with a sparse LU factorization,
for four right-hand sides (delay, packets, rounds and the delay's second
moment).  Infeasibility is judged over the whole state space, because the
program reports NA as soon as any (deficit, slot) state lacks a covering
window or sits on a fully erased cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.special import erfc

CAP_PER_DOF = 64


def erasure_probs(gains_db, eb_n0_db: float, bits: int) -> np.ndarray:
    """Packet erasure probability of BPSK/QPSK over AWGN, per slot."""
    snr = 10.0 ** ((np.asarray(gains_db, dtype=float) + eb_n0_db) / 10.0)
    pb = 0.5 * erfc(np.sqrt(snr))
    with np.errstate(divide="ignore"):
        pe = -np.expm1(bits * np.log1p(-pb))
    return np.where(pb >= 1.0, 1.0, pe)


def batch_table(sizing_pe: np.ndarray | None, dof: int, tau: int) -> np.ndarray:
    """Batch size per (deficit r, slot j) as table[r - 1, j]; 0 = no window.

    None sizes non-adaptively (the deficit itself).  Adaptive sizes come
    from a running sum started at each slot, so a sum that lands exactly
    on the deficit is decided the same way for every start slot.
    """
    if sizing_pe is None:
        return np.repeat(np.arange(1, dof + 1)[:, None], tau, axis=1)
    cap = CAP_PER_DOF * dof
    window = (np.arange(tau)[:, None] + np.arange(cap)[None, :]) % tau
    delivered = np.cumsum(1.0 - sizing_pe[window], axis=1)
    table = np.zeros((dof, tau), dtype=np.int64)
    for r in range(1, dof + 1):
        covered = delivered[:, : CAP_PER_DOF * r] >= r
        first = covered.argmax(axis=1)
        table[r - 1] = np.where(covered[np.arange(tau), first], first + 1, 0)
    return table


def remaining_dists(pe: np.ndarray, batches: np.ndarray, r: int) -> np.ndarray:
    """dist[j, l]: probability that l of r DoF are missing after slot j's batch."""
    tau = pe.size
    got = np.zeros((tau, r + 1))  # column s: s successes, capped at r
    got[:, 0] = 1.0
    for k in range(int(batches.max(initial=0))):
        rows = np.nonzero(batches > k)[0]
        q = (1.0 - pe[(rows + k) % tau])[:, None]
        g = got[rows]
        nxt = g * (1.0 - q)
        nxt[:, 1:] += g[:, :-1] * q
        nxt[:, r] += g[:, r] * q[:, 0]
        got[rows] = nxt
    return got[:, ::-1]


def _closure(seed: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Nodes reachable from `seed` along the functional map `step`."""
    reach = seed.copy()
    jump = step.copy()
    span = 1
    while span < step.size:
        reach[jump[reach]] = True
        jump = jump[jump]
        span *= 2
    return reach


def _chase(step: np.ndarray) -> np.ndarray:
    """Where each node ends up after following `step` tau or more times."""
    jump = step.copy()
    span = 1
    while span < step.size:
        jump = jump[jump]
        span *= 2
    return jump


@dataclass(frozen=True)
class Reference:
    """Reference answer for one cell.

    `na_ok` says an NA answer is justified: some state of the model has no
    covering window or lies on a fully erased cycle.  `delay` and the other
    moments are None when a state reachable from the start is such a state.
    """

    na_ok: bool
    delay: float | None = None
    packets: float | None = None
    rounds: float | None = None
    delay_sd: float | None = None


def _levels(pe: np.ndarray, table: np.ndarray, ack: int):
    """Per deficit level: batches, feasibility, successor slot, stuck nodes."""
    tau = pe.size
    slots = np.arange(tau)
    # A window is fully erased when every slot in it has pe == 1 exactly.
    reps = 2 + int(table.max()) // tau
    erased_prefix = np.concatenate(([0], np.cumsum(np.tile(pe == 1.0, reps))))
    levels = []
    for batches in table:
        feasible = batches > 0
        succ = (slots + batches + ack) % tau
        erased = erased_prefix[slots + batches] - erased_prefix[slots] == batches
        # A node is stuck when its chain of fully erased windows never ends.
        escapes = feasible & ~erased
        stuck = feasible & ~escapes[_chase(np.where(escapes, slots, succ))]
        levels.append((batches, feasible, succ, stuck))
    return levels


def _na_ok(table: np.ndarray, levels) -> bool:
    return bool((table == 0).any()) or any(lv[3].any() for lv in levels)


def na_justified(pe: np.ndarray, table: np.ndarray, ack: int) -> bool:
    """True when some state has no covering window or can never progress."""
    return _na_ok(table, _levels(pe, table, ack))


def solve(pe: np.ndarray, table: np.ndarray, t_p: float, t_w: float,
          ack: int, start_slot: int) -> Reference:
    """Reference answer for erasures `pe` under the batch sizes `table`."""
    tau = pe.size
    dof = table.shape[0]
    slots = np.arange(tau)
    levels = _levels(pe, table, ack)
    na_ok = _na_ok(table, levels)

    reach = np.zeros((dof + 1, tau), dtype=bool)
    reach[dof, start_slot % tau] = True
    dists = {}
    for r in range(dof, 0, -1):
        batches, feasible, succ, stuck = levels[r - 1]
        dist = remaining_dists(pe, batches, r)
        dists[r] = dist
        stays = np.where(dist[:, r] > 0, succ, slots)
        reach[r] = _closure(reach[r], stays)
        if (reach[r] & (~feasible | stuck)).any():
            return Reference(na_ok=True)
        src = np.nonzero(reach[r])[0]
        for l in range(1, r):
            reach[l, succ[src[dist[src, l] > 0]]] = True

    # Levels are block triangular: solve them from the lowest deficit up,
    # each with its own sparse LU (one stay coupling per state).
    moments = np.zeros((dof + 1, tau, 4))  # delay, packets, rounds, delay**2
    for r in range(1, dof + 1):
        src = np.nonzero(reach[r])[0]
        if src.size == 0:
            continue
        batches, _, succ, _ = levels[r - 1]
        dist = dists[r][src]
        nxt = succ[src]
        local = np.full(tau, -1, dtype=np.int64)
        local[src] = np.arange(src.size)
        stay = dist[:, r] > 0
        a = sparse.csc_matrix(
            (np.concatenate([np.ones(src.size), -dist[stay, r]]),
             (np.concatenate([np.arange(src.size), np.nonzero(stay)[0]]),
              np.concatenate([np.arange(src.size), local[nxt[stay]]]))),
            shape=(src.size, src.size),
        )
        lu = splu(a)
        n = batches[src].astype(float)
        cost = n * t_p + t_w
        below = np.einsum("jl,ljk->jk", dist[:, 1:r], moments[1:r, nxt])
        first = lu.solve(np.column_stack([cost, n, np.ones(src.size)]) + below[:, :3])
        moments[r, src, :3] = first
        moments[r, src, 3] = lu.solve(2.0 * cost * first[:, 0] - cost**2 + below[:, 3])
    delay, packets, rounds, second = moments[dof, start_slot % tau]
    return Reference(
        na_ok=na_ok,
        delay=float(delay),
        packets=float(packets),
        rounds=float(rounds),
        delay_sd=max(float(second - delay**2), 0.0) ** 0.5,
    )

