"""Monte Carlo discrete-event simulation of batched coded transmission.

Every run is one question: one receiver loses packets on its erasure
trace while a sender sizes each batch from a policy's table at the
receiver's outstanding deficit, with lossless round-trip
acknowledgments.  The caller hands in the policy (the receiver's own,
the non-adaptive one, or one a virtual scheme shares across the group),
so the simulator names no scheme; every cell of the runner is a
`run_single`.  The receiver's clock stops at the end of the round that
completes it.
Decoding is either idealized (every received packet is one degree of
freedom) or real random linear coding over a configured field, where
dependent combinations waste receptions.  A coded receiver completes
when its coefficient vectors reach full rank, so it tracks only their
span; payloads play no part.  The spans of every trial sit in one
array, and each round eliminates packet k of every trial that got it
and is short of full rank at once, in one batched step
(`rlnc.absorb_batch`).  `rlnc.Span` is that step's reference and
`rlnc.Generation`'s base; only `Generation` codes payloads.

One kernel runs every trial of a run together, one round at a time:
each round it reads every active trial's batch from the policy's table,
taken once per run, and draws the round's erasures as one block in
trial order.  A trial raises only when it visits a window the table
marks uncovered.  Which generators draw is the one choice left:

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

DRAW_BLOCK = 1 << 16  # most uniform draws per block of trials in one round
DECODINGS = {"ideal": None, "rlnc": FieldSpec(8)}  # decoder field by name


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
        if self.decoding not in DECODINGS:
            raise ValueError(f"unknown decoding {self.decoding!r}")
        return DECODINGS[self.decoding]


@dataclass
class TrialRecord:
    """Outcome of one trial."""

    trial: int
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
    """Aggregated trial statistics of one run."""

    n_trials: int
    n_completed: int
    n_failures: int
    failure_rate: float
    delay: StatSummary
    throughput: StatSummary
    packets: StatSummary
    rounds: StatSummary
    records: list[TrialRecord] | None = None


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass
class _Outcome:
    """Where each trial ended; arrays of (trials,).

    A trial's clock, packets and rounds stop at the end of the round that
    completes it, or at the last round when it never completes.
    `timelines` holds the deficit after each of its rounds, if kept.
    """

    delay: np.ndarray
    packets: np.ndarray
    rounds: np.ndarray
    remaining: np.ndarray
    timelines: np.ndarray

    @classmethod
    def start(cls, trials: int, dof: int) -> "_Outcome":
        return cls(np.zeros(trials), np.zeros(trials, dtype=np.int64),
                   np.zeros(trials, dtype=np.int64),
                   np.full(trials, dof, dtype=np.int64),
                   np.full(trials, None, dtype=object))


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
    seeds, trials, pe, table, params, field_spec, max_rounds, start_slot, keep_timeline = args
    tau, dof = pe.size, params.dof
    field = None if field_spec is None else field_for(field_spec)
    if isinstance(seeds, np.random.SeedSequence):
        shared, rngs = np.random.default_rng(seeds), None
    else:
        shared, rngs = None, [_trial_rngs(s) for s in seeds]
    if field is not None:  # every trial's span, indexed by pivot
        rows = np.zeros((trials, dof, dof), dtype=field.dtype)
    out = _Outcome.start(trials, dof)
    if keep_timeline:
        for i in range(trials):
            out.timelines[i] = [dof]
    remaining = out.remaining
    slot = np.full(trials, start_slot % tau, dtype=np.int64)
    for rounds in range(1, max_rounds + 1):
        active = np.flatnonzero(remaining)
        if active.size == 0:
            break
        deficit = remaining[active]
        batch = table[deficit - 1, slot[active]].astype(np.int64)
        if not batch.all():  # the first trial in an uncovered window
            i = int(np.argmin(batch))
            raise InfeasibleWindowError(int(slot[active[i]]), int(deficit[i]))
        for a, b in _blocks(batch):
            members, nb = active[a:b], batch[a:b]
            first = np.cumsum(nb) - nb  # each trial's first packet
            slots = (np.repeat(slot[members] - first, nb) + np.arange(nb.sum())) % tau
            if shared is not None:
                u = shared.random(slots.size)
            else:
                u = np.concatenate([rngs[i][0].random(n) for i, n in zip(members, nb)])
            survive = u >= pe[slots]
            if field is None:
                remaining[members] = np.maximum(
                    remaining[members] - np.add.reduceat(survive, first), 0)
                continue
            coefs = np.concatenate([field.random_symbols(rngs[i][1], (n, dof))
                                    for i, n in zip(members, nb)])
            for k in range(int(nb.max())):  # packet k of every trial at once
                has = np.flatnonzero(nb > k)
                j = has[survive[first[has] + k] & (remaining[members[has]] > 0)]
                i = members[j]
                new = absorb_batch(field, rows, i, coefs[first[j] + k])
                remaining[i[new]] -= 1
        out.delay[active] += batch * params.t_p + params.t_w
        out.packets[active] += batch
        out.rounds[active] = rounds
        slot[active] = (slot[active] + batch + params.ack_slot_advance) % tau
        if keep_timeline:
            for i in active:
                out.timelines[i].append(int(remaining[i]))
    return out


# -- one entry for every run ---------------------------------------------------


def _simulate(config: SimConfig, pe: np.ndarray, policy) -> _Outcome:
    """Trials of one receiver with erasure trace `pe`, each batch sized from
    `policy`'s table at its outstanding deficit; RLNC decoding or kept
    records give each trial its own generators, anything else shares one
    across the run."""
    field_spec = config.field_spec
    table = policy.table(config.params.dof, pe.size)
    seed = _as_seedseq(config.seed)
    common = (pe, table, config.params, field_spec, config.max_rounds,
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


def run_single(config: SimConfig, trace, policy) -> SimSummary:
    """Simulate one receiver whose batches `policy` sizes."""
    out = _simulate(config, _pe_array(trace), policy)
    completed = out.remaining == 0
    n = completed.size
    n_done = int(completed.sum())
    ok_delays = out.delay[completed]
    records = None
    if config.record_trials:
        records = [
            TrialRecord(
                trial=i,
                completion_time=float(out.delay[i]),
                packets_sent=int(out.packets[i]),
                rounds=int(out.rounds[i]),
                completed=bool(completed[i]),
                dof_timeline=out.timelines[i] or [],
            )
            for i in range(n)
        ]
    return SimSummary(
        n_trials=n,
        n_completed=n_done,
        n_failures=n - n_done,
        failure_rate=(n - n_done) / n,
        delay=StatSummary.from_samples(ok_delays),
        throughput=StatSummary.from_samples(
            config.params.dof / ok_delays if ok_delays.size else ok_delays
        ),
        packets=StatSummary.from_samples(out.packets[completed]),
        rounds=StatSummary.from_samples(out.rounds[completed]),
        records=records,
    )
