"""Monte Carlo discrete-event simulation of batched coded transmission.

A question is one receiver losing packets on its erasure trace while a
sender sizes each batch from a policy's table at the receiver's
outstanding deficit, with lossless round-trip acknowledgments; the
caller hands in the policy, so the simulator names no scheme.  The
receiver's clock stops at the end of the round that completes it.
Decoding is either idealized (every received packet is one degree of
freedom) or real random linear coding over a configured field, where a
receiver completes when its coefficient vectors reach full rank.

`run_many` answers many questions on traces of one length in one pass
(the runner makes one per Eb/N0 point); `run_single` is its
one-question call.  The pass's lanes are ordered (question, trial), and
one kernel advances the active lanes of every question together, one
round at a time: it reads each lane's batch from one flat array of the
distinct policies' tables and its erasure probabilities from the traces
laid end to end.  Each question is settled first by `completion.settle`,
the analytic engine's verdict: an infeasible one gets its error and runs
no trial, and a pass with no feasible question runs no kernel.  The k-th
received packet of every RLNC lane short of full rank is eliminated in
one batched step (`rlnc.absorb_batch`, whose reference is `rlnc.Span`).

Every trial draws from counter-based streams: trial i's n-th erasure
uniform, and the coefficient vector of its n-th packet, are the
SplitMix64 outputs (Steele, Lea & Flood, OOPSLA 2014) at an injective
counter built from (i, n[, coordinate]), under one of two keys taken
from the question's seed.  A draw depends only on (seed, i, n), so a
trial draws as it would run alone, and neither the other questions of a
pass, kept records, the split of trials over workers nor `DRAW_BLOCK`
changes results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .completion import InfeasibleModelError, ModelParams, _pe_array, settle
from .gf import FieldSpec, field_for
from .rlnc import absorb_batch

DRAW_BLOCK = 1 << 14  # most erasure draws per block of lanes in one round
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
    n_failures: int
    delay: StatSummary
    packets: StatSummary
    rounds: StatSummary
    records: list[TrialRecord] | None = None


@dataclass
class _Outcome:
    """Where each lane ended, over lanes ordered (question, trial): the
    clock, packets and rounds at the end of the round that completes it,
    or of the last round, and, if kept, its deficit after each round
    (else `timelines` is empty)."""

    delay: np.ndarray
    packets: np.ndarray
    rounds: np.ndarray
    remaining: np.ndarray
    timelines: np.ndarray


# -- the kernel ----------------------------------------------------------------


def _splitmix64(key, counter) -> np.ndarray:
    """Output `counter` (from 0) of the SplitMix64 generator seeded with
    `key` (or one key per counter): its finalizer at key + (counter + 1)
    * gamma, modulo 2^64.  Under one key, distinct counters differ."""
    z = np.asarray(counter, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.asarray(key, dtype=np.uint64)
    return _finalize(z)


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on the uint64 array `z`."""
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


def _uniforms(key, trial, packet) -> np.ndarray:
    """Erasure uniform in [0, 1) of each (trial, packet) pair: the top 53
    bits of its hash, so exactly uniform on the multiples of 2^-53."""
    return (_splitmix64(key, _counters(trial, packet)) >> np.uint64(11)) * 2.0**-53


def _coefficients(key, field, trial, packet, dof: int) -> np.ndarray:
    """Coefficient vector of each (trial, packet) pair, one row each;
    coordinate c of packet n is draw n * dof + c of its trial."""
    index = np.asarray(packet, dtype=np.uint64) * np.uint64(dof)
    counters = _counters(trial, index)[:, None] + np.arange(dof, dtype=np.uint64)
    return _symbols(_splitmix64(np.asarray(key)[..., None], counters), field)


def _symbols(hashes: np.ndarray, field) -> np.ndarray:
    """Uniform GF(2^m) symbols: the top m bits of each hash."""
    return (hashes >> np.uint64(64 - field.m)).astype(field.dtype)


def _blocks(draws: np.ndarray):
    """Runs [a, b) of consecutive lanes of at most DRAW_BLOCK draws in all,
    or of one lane that alone draws more; `draws` counts each lane's."""
    ends = np.cumsum(draws)
    a = 0
    while a < ends.size:
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + DRAW_BLOCK, side="right")))
        yield a, b
        a = b


def _kernel(args) -> _Outcome:
    """Every lane of every question advanced together, one round at a time.

    Lane q * trials + i is trial `offset + i` of question q; it reads row
    q of `pe` and table `policy_of[q]` of `tables`, and draws from the
    counter streams of row q of `keys` (erasure key, coding key).  Every
    question is settled, so its table covers each state it can meet.
    The active lanes are carried from round to round in lane order.
    """
    keys, offset, trials, pe, tables, policy_of, params, field_spec, max_rounds, \
        start_slot, keep_timeline = args
    (n_q, span), (_, dof, tau) = pe.shape, tables.shape
    tables, lanes, gamma = tables.ravel(), n_q * trials, np.uint64(_GAMMA)
    # a uniform u = m 2^-53 reaches pe exactly when m >= ceil(pe 2^53)
    threshold = np.ceil(pe.ravel() * 2.0**53).astype(np.uint64)
    field = None if field_spec is None else field_for(field_spec)
    question = np.repeat(np.arange(n_q), trials)
    table_base = np.asarray(policy_of) * (dof * tau)  # of each question
    trial = np.tile(np.arange(offset, offset + trials), n_q)
    # a lane's erasure stream: what `_splitmix64` finalizes for its packet
    # 0, to which packet n adds n * gamma, modulo 2^64
    stream = (_counters(trial, 0) + np.uint64(1)) * gamma + keys[question, 0]
    if field is None:
        trial = None
    else:  # every lane's span, indexed by pivot, and coding key
        rows = np.zeros((lanes, dof, dof), dtype=field.dtype)
        coding_key = keys[question, 1]
    out = _Outcome(np.zeros(lanes), np.zeros(lanes, dtype=np.int64),
                   np.zeros(lanes, dtype=np.int64), np.full(lanes, dof),
                   np.full(lanes if keep_timeline else 0, None, dtype=object))
    if keep_timeline:
        for i in range(lanes):
            out.timelines[i] = [dof]
    remaining = out.remaining
    slot = np.full(lanes, start_slot % tau, dtype=np.int64)
    active = np.arange(lanes)
    # draw k of a block of lanes, and its hash step k * gamma
    draw = np.arange(max(DRAW_BLOCK, int(tables.max())))  # a block's draws, at most
    steps = draw.astype(np.uint64) * gamma

    def arrivals(members, nb, first):
        """Whether each packet of the lanes' batches arrives, lane by lane."""
        n = int(nb.sum())  # packet k of a lane is draw first + k of the block
        # packet n of a lane hashes its stream plus n * gamma, modulo 2^64
        z = np.repeat(stream[members] + (out.packets[members] - first).astype(np.uint64)
                      * gamma, nb)
        z += steps[:n]
        _finalize(z)
        z >>= np.uint64(11)  # its uniform times 2^53
        base = question[members] * span + slot[members]  # row q runs on past tau
        at = np.repeat(base - first, nb)  # each draw's place in threshold
        at += draw[:n]
        return z >= threshold[at]

    for rounds in range(1, max_rounds + 1):
        if active.size == 0:
            break
        batch = tables[table_base[question[active]] + (remaining[active] - 1) * tau
                       + slot[active]].astype(np.int64)
        for a, b in _blocks(batch):
            members, nb = active[a:b], batch[a:b]
            first = np.cumsum(nb) - nb  # each lane's first packet
            survive = arrivals(members, nb, first)
            got = np.add.reduceat(survive, first)  # packets each lane received
            if field is None:
                remaining[members] = np.maximum(remaining[members] - got, 0)
                continue
            # the k-th received packet of every lane short of full rank is
            # eliminated at once; only these packets draw coefficients
            step = np.flatnonzero(survive) - np.repeat(first, got)  # within its batch
            start = np.cumsum(got) - got
            for k in range(int(got.max())):
                j = np.flatnonzero(got > k)
                j = j[remaining[members[j]] > 0]
                if j.size == 0:
                    break
                i = members[j]
                packet = out.packets[i] + step[start[j] + k]
                coefs = _coefficients(coding_key[i], field, trial[i], packet, dof)
                new = absorb_batch(field, rows, i, coefs)
                remaining[i[new]] -= 1
        out.delay[active] += batch * params.t_p + params.t_w
        out.packets[active] += batch
        out.rounds[active] = rounds
        slot[active] = (slot[active] + batch + params.ack_slot_advance) % tau
        if keep_timeline:
            for i in active:
                out.timelines[i].append(int(remaining[i]))
        active = active[remaining[active] > 0]
    return out


# -- one pass for many questions ----------------------------------------------


def run_many(config: SimConfig, questions) -> list:
    """Answer every question (seed, trace, policy) in one pass.

    A question is `config.trials` trials of one receiver on `trace`, each
    batch sized from `policy`'s table, drawn from streams of `seed`
    (`config.seed` is not read); the traces share one length.  Each
    question is settled first (`completion.settle`) and runs no trial
    when infeasible.  Returns, per question, its SimSummary or the
    InfeasibleModelError its verdict raised.
    """
    if not questions:
        return []
    pes = [_pe_array(trace) for _, trace, _ in questions]
    tau, dof = pes[0].size, config.params.dof
    if any(pe.size != tau for pe in pes):
        raise ValueError("the traces of one pass must share one length")
    policies = {id(policy): policy for _, _, policy in questions}
    tables = np.empty((len(policies), dof, tau), np.min_scalar_type(64 * dof))
    for k, policy in enumerate(policies.values()):  # each batch is <= 64 dof
        tables[k] = policy.table(dof, tau)
    answers = []
    for pe, (_, _, policy) in zip(pes, questions):
        try:
            settle(pe, policy, config.params)  # reads views of the tables above
            answers.append(None)
        except InfeasibleModelError as exc:
            answers.append(exc.with_traceback(None))
    live = [q for q, answer in enumerate(answers) if answer is None]
    if not live:
        return answers
    asked = [questions[q] for q in live]
    policy_of = [list(policies).index(id(policy)) for _, _, policy in asked]
    keys = np.array([_stream_keys(seed if isinstance(seed, np.random.SeedSequence)
                                  else np.random.SeedSequence(seed))
                     for seed, _, _ in asked], dtype=np.uint64)
    # each trace runs on past its end, to the end of the longest batch
    pe = np.stack([pes[q] for q in live])[:, np.arange(tau + int(tables.max())) % tau]
    common = (pe, tables, policy_of, config.params, config.field_spec,
              config.max_rounds, config.start_slot, config.record_trials)
    if config.workers == 1:
        parts = [_kernel((keys, 0, config.trials) + common)]
    else:  # the workers split the trials of every question
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

        bounds = np.linspace(0, config.trials, config.workers + 1).astype(int)
        tasks = [(keys, a, b - a) + common
                 for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_kernel, tasks))
    # each live question's lanes of every part, joined in trial order
    out = _Outcome(*(np.concatenate([a.reshape(len(live), -1) for a in arrays], 1)
                     for arrays in zip(*(vars(part).values() for part in parts))))
    for row, q in enumerate(live):
        answers[q] = _summary(config, out, row)
    return answers


def _summary(config: SimConfig, out: _Outcome, q: int) -> SimSummary:
    """Question q's statistics, from row q of the joined outcome."""
    delay, packets, rounds = out.delay[q], out.packets[q], out.rounds[q]
    completed = out.remaining[q] == 0
    n = completed.size
    records = [TrialRecord(i, float(delay[i]), int(packets[i]), int(rounds[i]),
                           bool(completed[i]), out.timelines[q, i] or [])
               for i in range(n)] if config.record_trials else None
    return SimSummary(
        n_trials=n, n_failures=n - int(completed.sum()),
        delay=StatSummary.from_samples(delay[completed]),
        packets=StatSummary.from_samples(packets[completed]),
        rounds=StatSummary.from_samples(rounds[completed]),
        records=records,
    )


def run_single(config: SimConfig, trace, policy) -> SimSummary:
    """Simulate one receiver whose batches `policy` sizes: the one-question
    pass of `run_many`, seeded by `config.seed`, raising its error."""
    answer, = run_many(config, [(config.seed, trace, policy)])
    if isinstance(answer, InfeasibleModelError):
        raise answer
    return answer
