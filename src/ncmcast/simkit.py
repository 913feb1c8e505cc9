"""Monte Carlo discrete-event simulation of batched coded transmission.

Every run is one question: a sender sizes each batch from a policy's
table at the largest outstanding deficit in a group of receivers, and
each receiver loses packets on its own erasure trace, with lossless
round-trip acknowledgments.  A single receiver is a group of one.  The
caller hands in the policy (a receiver's own, the non-adaptive one, or
one shared by the group), so the simulator names no scheme.  A
receiver's clock stops at the end of the round that completes it.
Decoding is either idealized (every received packet is one degree of
freedom) or real random linear coding over a configured field, where
dependent combinations waste receptions.  A coded receiver completes
when its coefficient vectors reach full rank, so it tracks only their
span (`rlnc.Span`); payloads play no part, and only `rlnc.Generation`
codes them.

Two kernels run a group:

- the per-trial loop, for any decoding.  Per-trial randomness derives
  from the root seed by seed-sequence splitting, so distributing trials
  across workers never changes results;
- the grouped kernel, for idealized decoding, which advances all trials
  sharing a (largest deficit, slot) state together.  It is statistically
  equivalent but consumes random numbers in a different order.

The per-trial loop runs for RLNC decoding or when trial records are
kept, and the grouped kernel otherwise.  Both read every batch from the
policy's table, taken once per run; a trial raises only when it visits
a window the table marks uncovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .completion import InfeasibleWindowError, ModelParams, _pe_array
from .gf import FieldSpec, field_for
from .rlnc import Span
from .virtualize import MulticastGroup

DRAW_BLOCK = 1 << 16  # uniform draws per call in the grouped kernel


@dataclass
class SimConfig:
    """Knobs of one simulation run."""

    trials: int
    seed: int
    params: ModelParams
    decoding: str | FieldSpec = "ideal"
    start_slot: int = 0
    max_rounds: int = 10_000
    record_trials: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def field_spec(self) -> FieldSpec | None:
        """Decoder field, or None for idealized decoding."""
        if isinstance(self.decoding, FieldSpec):
            return self.decoding
        if self.decoding == "ideal":
            return None
        if self.decoding == "rlnc":
            return FieldSpec(8)
        raise ValueError(f"unknown decoding {self.decoding!r}")


@dataclass
class TrialRecord:
    """Outcome of one receiver in one trial."""

    trial: int
    receiver: int
    completion_time: float
    packets_sent: int
    rounds: int
    completed: bool
    dof_timeline: list[int] = dataclass_field(default_factory=list)


@dataclass(frozen=True)
class StatSummary:
    """Sample mean, variance and standard error of one metric."""

    mean: float
    variance: float
    se: float

    @classmethod
    def from_samples(cls, samples) -> "StatSummary":
        x = np.asarray(samples, dtype=float)
        n = x.size
        if n == 0:
            return cls(math.nan, math.nan, math.nan)
        mean = float(x.mean())
        variance = float(x.var(ddof=1)) if n > 1 else 0.0
        return cls(mean, variance, math.sqrt(variance / n))


@dataclass
class SimSummary:
    """Aggregated trial statistics for one receiver."""

    n_trials: int
    n_completed: int
    n_failures: int
    failure_rate: float
    delay: StatSummary
    throughput: StatSummary
    packets: StatSummary
    rounds: StatSummary
    records: list[TrialRecord] | None = None


@dataclass
class MulticastSummary:
    """Per-receiver statistics plus sender-side totals."""

    labels: list[int]
    per_receiver: list[SimSummary]
    sender_packets: StatSummary
    sender_rounds: StatSummary
    records: list[TrialRecord] | None = None


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass
class _Outcome:
    """Where each receiver of each trial ended; arrays of (trials, receivers).

    A receiver's clock, packets and rounds stop at the end of the round
    that completes it, or at the last round when it never completes.
    `timelines` holds the deficit after each of its rounds, if kept.
    """

    delay: np.ndarray
    packets: np.ndarray
    rounds: np.ndarray
    remaining: np.ndarray
    timelines: np.ndarray

    @classmethod
    def start(cls, trials: int, n_rx: int, dof: int) -> "_Outcome":
        shape = (trials, n_rx)
        return cls(np.zeros(shape), np.zeros(shape, dtype=np.int64),
                   np.zeros(shape, dtype=np.int64),
                   np.full(shape, dof, dtype=np.int64),
                   np.full(shape, None, dtype=object))


def _batch(table: np.ndarray, remaining: int, slot: int) -> int:
    """The sizing table's batch for `remaining` at `slot`; 0 is uncovered."""
    n = int(table[remaining - 1, slot])
    if n == 0:
        raise InfeasibleWindowError(slot, remaining)
    return n


# -- per-trial loop (any decoding) ---------------------------------------------


def _trial_rngs(trial_seed: np.random.SeedSequence):
    erasure_ss, coding_ss = trial_seed.spawn(2)
    return np.random.default_rng(erasure_ss), np.random.default_rng(coding_ss)


def _per_trial(args) -> _Outcome:
    seeds, pes, table, params, field_spec, max_rounds, start_slot, keep_timeline = args
    n_rx, tau = pes.shape
    dof = params.dof
    field = None if field_spec is None else field_for(field_spec)
    out = _Outcome.start(len(seeds), n_rx, dof)
    for i, seed in enumerate(seeds):
        erng, crng = _trial_rngs(seed)
        if field is not None:
            spans = [Span(field, dof) for _ in range(n_rx)]
        if keep_timeline:
            for rx in range(n_rx):
                out.timelines[i, rx] = [dof]
        remaining = out.remaining[i]
        j = start_slot % tau
        t = 0.0
        rounds = 0
        sent = 0
        while remaining.any() and rounds < max_rounds:
            live = remaining > 0
            batch = _batch(table, int(remaining.max()), j)
            slots = (j + np.arange(batch)) % tau
            survive = erng.random((batch, n_rx)) >= pes[:, slots].T
            if field is None:
                remaining[:] = np.maximum(remaining - survive.sum(axis=0), 0)
            else:
                coefs = field.random_symbols(crng, (batch, dof))
                for rx in np.flatnonzero(live):
                    span = spans[rx]
                    for k in np.flatnonzero(survive[:, rx]):
                        span.absorb(coefs[k])
                        if span.is_complete:
                            break
                    remaining[rx] = dof - span.rank
            t += batch * params.t_p + params.t_w
            j = (j + batch + params.ack_slot_advance) % tau
            rounds += 1
            sent += batch
            out.delay[i, live] = t
            out.packets[i, live] = sent
            out.rounds[i, live] = rounds
            if keep_timeline:
                for rx in np.flatnonzero(live):
                    out.timelines[i, rx].append(int(remaining[rx]))
    return out


# -- grouped kernel (idealized decoding) ---------------------------------------


def _grouped(seed, pes: np.ndarray, table: np.ndarray, params: ModelParams,
             trials: int, max_rounds: int, start_slot: int) -> _Outcome:
    rng = np.random.default_rng(_as_seedseq(seed))
    n_rx, tau = pes.shape
    q = 1.0 - pes
    out = _Outcome.start(trials, n_rx, params.dof)
    remaining = out.remaining
    slot = np.full(trials, start_slot % tau, dtype=np.int64)
    t = np.zeros(trials)
    sent = np.zeros(trials, dtype=np.int64)
    for rounds in range(1, max_rounds + 1):
        live = remaining > 0
        active = np.flatnonzero(live.any(axis=1))
        if active.size == 0:
            break
        keys = remaining[active].max(axis=1) * tau + slot[active]
        uniq, inverse = np.unique(keys, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
        for g, key in enumerate(uniq):
            members = active[order[bounds[g]:bounds[g + 1]]]
            r, j = divmod(int(key), tau)
            batch = _batch(table, r, j)
            qs = q[:, (j + np.arange(batch)) % tau].T[:, None, :]
            # packets in blocks of about DRAW_BLOCK draws: the same stream as
            # one (members, receivers) draw per packet, in fewer calls
            step = max(1, DRAW_BLOCK // (members.size * n_rx))
            succ = np.zeros((members.size, n_rx), dtype=np.int64)
            for k in range(0, batch, step):
                u = rng.random((min(step, batch - k), members.size, n_rx))
                succ += (u < qs[k:k + step]).sum(axis=0)
            remaining[members] = np.maximum(remaining[members] - succ, 0)
            t[members] += batch * params.t_p + params.t_w
            sent[members] += batch
            slot[members] = (j + batch + params.ack_slot_advance) % tau
        np.copyto(out.delay, t[:, None], where=live)
        np.copyto(out.packets, sent[:, None], where=live)
        out.rounds[live] = rounds
    return out


# -- one entry for every run ---------------------------------------------------


def _simulate(config: SimConfig, pes: np.ndarray, policy, seed) -> _Outcome:
    """Trials of a sender that sizes each batch from `policy`'s table at
    the largest outstanding deficit, to receivers with erasure rows `pes`
    (receivers, slots); RLNC decoding or kept records take the per-trial
    loop, anything else the grouped kernel."""
    field_spec = config.field_spec
    table = policy.table(config.params.dof, pes.shape[1])
    if field_spec is None and not config.record_trials:
        return _grouped(seed, pes, table, config.params, config.trials,
                        config.max_rounds, config.start_slot)
    seeds = _as_seedseq(seed).spawn(config.trials)
    common = (pes, table, config.params, field_spec, config.max_rounds,
              config.start_slot, config.record_trials)
    if config.workers == 1:
        return _per_trial((seeds,) + common)
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

    bounds = np.linspace(0, config.trials, config.workers + 1).astype(int)
    tasks = [(seeds[a:b],) + common
             for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        parts = list(pool.map(_per_trial, tasks))
    # the chunks' outcomes, joined in trial order
    return _Outcome(*(np.concatenate(a)
                      for a in zip(*(vars(p).values() for p in parts))))


def _summarize(dof: int, out: _Outcome, rx: int) -> SimSummary:
    completed = out.remaining[:, rx] == 0
    n = completed.size
    n_done = int(completed.sum())
    ok_delays = out.delay[completed, rx]
    return SimSummary(
        n_trials=n,
        n_completed=n_done,
        n_failures=n - n_done,
        failure_rate=(n - n_done) / n,
        delay=StatSummary.from_samples(ok_delays),
        throughput=StatSummary.from_samples(
            dof / ok_delays if ok_delays.size else ok_delays
        ),
        packets=StatSummary.from_samples(out.packets[completed, rx]),
        rounds=StatSummary.from_samples(out.rounds[completed, rx]),
    )


def _report(config: SimConfig, out: _Outcome, labels: list):
    """Per-receiver summaries, and the trial records if they are kept."""
    summaries = [_summarize(config.params.dof, out, rx)
                 for rx in range(len(labels))]
    if not config.record_trials:
        return summaries, None
    records = [
        TrialRecord(
            trial=i,
            receiver=label,
            completion_time=float(out.delay[i, rx]),
            packets_sent=int(out.packets[i, rx]),
            rounds=int(out.rounds[i, rx]),
            completed=bool(out.remaining[i, rx] == 0),
            dof_timeline=out.timelines[i, rx] or [],
        )
        for i in range(config.trials)
        for rx, label in enumerate(labels)
    ]
    return summaries, records


def run_single(config: SimConfig, trace, policy) -> SimSummary:
    """Simulate one receiver whose batches `policy` sizes."""
    pe = _pe_array(trace)
    out = _simulate(config, pe[None, :], policy, config.seed)
    summaries, records = _report(config, out, [0])
    summaries[0].records = records
    return summaries[0]


def run_multicast(config: SimConfig, group: MulticastGroup,
                  policy) -> MulticastSummary:
    """Simulate one sender serving the whole group from `policy`'s table.

    Each batch is sized for the largest outstanding deficit in the
    group; the sender stops with the last receiver it completes.
    """
    labels = list(group.labels)
    pes = np.vstack([_pe_array(tr) for tr in group.receivers])
    out = _simulate(config, pes, policy, config.seed)
    per_receiver, records = _report(config, out, labels)
    return MulticastSummary(
        labels=labels,
        per_receiver=per_receiver,
        sender_packets=StatSummary.from_samples(out.packets.max(axis=1)),
        sender_rounds=StatSummary.from_samples(out.rounds.max(axis=1)),
        records=records,
    )
