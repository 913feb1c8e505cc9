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
(`rlnc.absorb_batch`); `rlnc.Span`, which absorbs one vector at a time,
is that step's reference.

One kernel runs every trial of a run together, one round at a time:
each round it reads every active trial's batch from the policy's table,
taken once per run, and draws the round's erasures as one block in
trial order.  A trial raises only when it visits a window the table
marks uncovered.  Which stream draws is the one choice left:

- idealized decoding without kept records draws from one generator for
  the whole run;
- RLNC decoding or kept records draw from counter-based streams: trial
  i's n-th erasure uniform, and the coefficient vector of its n-th
  packet, are the SplitMix64 outputs (Steele, Lea & Flood, OOPSLA 2014)
  at an injective counter built from (i, n[, coordinate]), under one of
  two keys taken from the run's seed.  No generator is built per trial,
  and every active trial of a round draws in one vectorized step; a
  draw depends only on (seed, i, n), so a trial draws as it would run
  alone, and neither the split of trials over workers nor `DRAW_BLOCK`
  changes results.
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
# A stream counter holds the trial index above a trial's draw index of
# _INDEX_BITS bits: the packet, or packet * dof + coordinate.
_INDEX_BITS = 40
MAX_TRIALS = 1 << (64 - _INDEX_BITS)
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, odd


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
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= {MAX_TRIALS}")
        # a batch at deficit r holds at most 64 r packets
        packets = self.max_rounds * 64 * self.params.dof
        width = 1 if self.field_spec is None else self.params.dof
        if packets * width > 1 << _INDEX_BITS:
            raise ValueError(f"max_rounds * 64 * dof = {packets} packets per "
                             f"trial, {width} draws each, exceed 2^{_INDEX_BITS} "
                             "stream counters")

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


def _splitmix64(key: int, counter) -> np.ndarray:
    """Output `counter` (from 0) of the SplitMix64 generator seeded with
    `key`: its finalizer at key + (counter + 1) * gamma, modulo 2^64.
    Under one key, distinct counters give distinct outputs."""
    z = np.asarray(counter, dtype=np.uint64) * np.uint64(_GAMMA)
    z += np.uint64((key + _GAMMA) % 2**64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _stream_keys(seed: np.random.SeedSequence) -> tuple[int, int]:
    """The run's erasure key and coding key."""
    erasure_key, coding_key = seed.generate_state(2, dtype=np.uint64)
    return int(erasure_key), int(coding_key)


def _counters(trial, index) -> np.ndarray:
    """Stream counters: each trial index above its draw index."""
    return (np.asarray(trial, dtype=np.uint64) << np.uint64(_INDEX_BITS)) \
        | np.asarray(index, dtype=np.uint64)


def _uniforms(key: int, trial, packet) -> np.ndarray:
    """Erasure uniform in [0, 1) of each (trial, packet) pair: the top 53
    bits of its hash, so exactly uniform on the multiples of 2^-53."""
    return (_splitmix64(key, _counters(trial, packet)) >> np.uint64(11)) * 2.0**-53


def _coefficients(key: int, field, trial, packet, dof: int) -> np.ndarray:
    """Coefficient vector of each (trial, packet) pair, one row each;
    coordinate c of packet n is draw n * dof + c of its trial."""
    index = np.asarray(packet, dtype=np.uint64) * np.uint64(dof)
    counters = _counters(trial, index)[:, None] + np.arange(dof, dtype=np.uint64)
    return _symbols(_splitmix64(key, counters), field)


def _symbols(hashes: np.ndarray, field) -> np.ndarray:
    """Uniform GF(2^m) symbols: the top m bits of each hash."""
    return (hashes >> np.uint64(64 - field.m)).astype(field.dtype)


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

    With `offset` None, one generator on `seed` draws every trial's
    erasures in trial order.  Otherwise trial i of this call is trial
    `offset + i` of the run, and draws from the counter streams keyed by
    `seed`, just as it would run on its own.
    """
    seed, offset, trials, pe, table, params, field_spec, max_rounds, start_slot, \
        keep_timeline = args
    tau, dof = pe.size, params.dof
    field = None if field_spec is None else field_for(field_spec)
    if offset is None:
        shared = np.random.default_rng(seed)
    else:
        shared = None
        erasure_key, coding_key = _stream_keys(seed)
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
            step = np.arange(nb.sum()) - np.repeat(first, nb)  # within its batch
            slots = (np.repeat(slot[members], nb) + step) % tau
            if shared is not None:
                u = shared.random(slots.size)
            else:
                trial = np.repeat(offset + members, nb)
                packet = np.repeat(out.packets[members], nb) + step
                u = _uniforms(erasure_key, trial, packet)
            survive = u >= pe[slots]
            if field is None:
                remaining[members] = np.maximum(
                    remaining[members] - np.add.reduceat(survive, first), 0)
                continue
            coefs = _coefficients(coding_key, field, trial, packet, dof)
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
    records draw from per-trial counter streams, anything else from one
    generator across the run."""
    field_spec = config.field_spec
    table = policy.table(config.params.dof, pe.size)
    seed = _as_seedseq(config.seed)
    common = (pe, table, config.params, field_spec, config.max_rounds,
              config.start_slot, config.record_trials)
    if field_spec is None and not config.record_trials:
        return _kernel((seed, None, config.trials) + common)
    if config.workers == 1:
        return _kernel((seed, 0, config.trials) + common)
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

    bounds = np.linspace(0, config.trials, config.workers + 1).astype(int)
    tasks = [(seed, a, b - a) + common
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
