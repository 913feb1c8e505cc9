"""Monte Carlo discrete-event simulation of batched coded transmission.

Every run is one question: a sender sizes each batch from a policy's
table at the largest outstanding deficit in a group of receivers, and
each receiver loses packets on its own erasure trace, with lossless
round-trip acknowledgments.  A single receiver is a group of one.  The
caller hands in the policy (a receiver's own, the non-adaptive one, or
one shared by the group), so the simulator names no scheme.  Every cell
of the runner is a `run_single`, a receiver under a virtual scheme's
shared policy included; `run_multicast` drives one sender for the whole
group and gives its totals.  A receiver's clock stops at the end of the
round that completes it.
Decoding is either idealized (every received packet is one degree of
freedom) or real random linear coding over a configured field, where
dependent combinations waste receptions.  A coded receiver completes
when its coefficient vectors reach full rank, so it tracks only their
span; payloads play no part.  The spans of every trial and receiver sit
in one array, and each round eliminates packet k of every trial at once,
for each receiver that got it and is short of full rank, in one batched
step (`rlnc.absorb_batch`).  `rlnc.Span` is that step's reference and
`rlnc.Generation`'s base; only `Generation` codes payloads.

One kernel runs every trial of a run together, one round at a time:
each round it reads every active trial's batch from the policy's table,
taken once per run, and draws the round's erasures as one block of
(packets, receivers) in trial order.  A trial raises only when it
visits a window the table marks uncovered.  Which generators draw is
the one choice left:

- idealized decoding without kept records draws from one generator for
  the whole run;
- RLNC decoding or kept records give each trial its own generators,
  derived from the root seed by seed-sequence splitting, which draw
  that trial's share of each round.  A trial then draws as it would run
  alone, so distributing trials across workers never changes results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .completion import InfeasibleWindowError, ModelParams, _pe_array
from .gf import FieldSpec, field_for
from .rlnc import absorb_batch
from .virtualize import MulticastGroup

DRAW_BLOCK = 1 << 16  # most uniform draws per block of trials in one round


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


# -- the kernel ----------------------------------------------------------------


def _trial_rngs(trial_seed: np.random.SeedSequence):
    erasure_ss, coding_ss = trial_seed.spawn(2)
    return np.random.default_rng(erasure_ss), np.random.default_rng(coding_ss)


def _blocks(draws: np.ndarray):
    """Runs [a, b) of consecutive trials of at most DRAW_BLOCK draws in all,
    or of one trial that alone draws more; `draws` counts each trial's."""
    ends = np.cumsum(draws)
    a = 0
    while a < ends.size:
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + DRAW_BLOCK, side="right")))
        yield a, b
        a = b


def _kernel(args) -> _Outcome:
    """Every trial advanced together, one round at a time.

    `seeds` is one seed, whose generator draws every trial's erasures in
    trial order, or one seed per trial, whose `_trial_rngs` pair draws
    that trial's share of each round just as a trial run on its own would.
    """
    seeds, trials, pes, table, params, field_spec, max_rounds, start_slot, keep_timeline = args
    n_rx, tau = pes.shape
    dof = params.dof
    field = None if field_spec is None else field_for(field_spec)
    if isinstance(seeds, np.random.SeedSequence):
        shared, rngs = np.random.default_rng(seeds), None
    else:
        shared, rngs = None, [_trial_rngs(s) for s in seeds]
    if field is not None:  # every trial's receivers' spans, indexed by pivot
        rows = np.zeros((trials, n_rx, dof, dof), dtype=field.dtype)
    out = _Outcome.start(trials, n_rx, dof)
    if keep_timeline:
        for i, rx in np.ndindex(trials, n_rx):
            out.timelines[i, rx] = [dof]
    remaining = out.remaining
    slot = np.full(trials, start_slot % tau, dtype=np.int64)
    t = np.zeros(trials)
    sent = np.zeros(trials, dtype=np.int64)
    for rounds in range(1, max_rounds + 1):
        live = remaining > 0
        active = np.flatnonzero(live.any(axis=1))
        if active.size == 0:
            break
        deficit = remaining[active].max(axis=1)
        batch = table[deficit - 1, slot[active]].astype(np.int64)
        if not batch.all():  # the first trial in an uncovered window
            i = int(np.argmin(batch))
            raise InfeasibleWindowError(int(slot[active[i]]), int(deficit[i]))
        for a, b in _blocks(batch * n_rx):
            members, nb = active[a:b], batch[a:b]
            first = np.cumsum(nb) - nb  # each trial's first packet row
            slots = (np.repeat(slot[members] - first, nb) + np.arange(nb.sum())) % tau
            if shared is not None:
                u = shared.random((slots.size, n_rx))
            else:
                u = np.concatenate([rngs[i][0].random((n, n_rx))
                                    for i, n in zip(members, nb)])
            survive = u >= pes[:, slots].T
            if field is None:
                remaining[members] = np.maximum(
                    remaining[members] - np.add.reduceat(survive, first, axis=0), 0)
                continue
            coefs = np.concatenate([field.random_symbols(rngs[i][1], (n, dof))
                                    for i, n in zip(members, nb)])
            for k in range(int(nb.max())):  # packet k of every trial at once
                has = np.flatnonzero(nb > k)
                j, rx = np.nonzero(survive[first[has] + k]
                                   & (remaining[members[has]] > 0))
                i = members[has[j]]
                new = absorb_batch(field, rows, (i, rx), coefs[first[has[j]] + k])
                remaining[i[new], rx[new]] -= 1
        t[active] += batch * params.t_p + params.t_w
        sent[active] += batch
        slot[active] = (slot[active] + batch + params.ack_slot_advance) % tau
        np.copyto(out.delay, t[:, None], where=live)
        np.copyto(out.packets, sent[:, None], where=live)
        out.rounds[live] = rounds
        if keep_timeline:
            for i, rx in zip(*np.nonzero(live)):
                out.timelines[i, rx].append(int(remaining[i, rx]))
    return out


# -- one entry for every run ---------------------------------------------------


def _simulate(config: SimConfig, pes: np.ndarray, policy, seed) -> _Outcome:
    """Trials of a sender that sizes each batch from `policy`'s table at
    the largest outstanding deficit, to receivers with erasure rows `pes`
    (receivers, slots); RLNC decoding or kept records give each trial its
    own generators, anything else shares one across the run."""
    field_spec = config.field_spec
    table = policy.table(config.params.dof, pes.shape[1])
    seed = _as_seedseq(seed)
    common = (pes, table, config.params, field_spec, config.max_rounds,
              config.start_slot, config.record_trials)
    if field_spec is None and not config.record_trials:
        return _kernel((seed, config.trials) + common)
    seeds = seed.spawn(config.trials)
    if config.workers == 1:
        return _kernel((seeds, config.trials) + common)
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

    bounds = np.linspace(0, config.trials, config.workers + 1).astype(int)
    tasks = [(seeds[a:b], b - a) + common
             for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        parts = list(pool.map(_kernel, tasks))
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
