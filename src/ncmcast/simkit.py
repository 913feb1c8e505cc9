"""Monte Carlo discrete-event simulation of batched coded transmission.

Trials simulate rounds of batch transmissions with independent per-slot
erasures and lossless round-trip acknowledgments, for one receiver or a
multicast group.  Decoding is either idealized (every received packet is
one degree of freedom) or real random linear coding over a configured
field, where dependent combinations waste receptions.

Per-trial randomness derives from the root seed by seed-sequence
splitting, so distributing trials across workers never changes results.
An additional vectorized path for idealized decoding advances all trials
occupying the same model state together; it is statistically equivalent
but consumes random numbers in a different order than the per-trial path.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .completion import (
    AdaptivePolicy,
    ModelParams,
    NonAdaptivePolicy,
    _pe_array,
)
from .gf import FieldSpec, field_for
from .rlnc import Generation
from .virtualize import MAXCT, MAXPE, MulticastGroup, build_maxct, build_maxpe

FAILURE_WARNING_RATE = 0.01


@dataclass
class SimConfig:
    """Knobs of one simulation run."""

    trials: int
    seed: int
    params: ModelParams
    scheme: str = "anc"
    decoding: str | FieldSpec = "ideal"
    start_slot: int = 0
    max_rounds: int = 10_000
    payload_symbols: int = 4
    record_trials: bool = False
    method: str = "auto"  # auto | per_trial | grouped
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.method not in ("auto", "per_trial", "grouped"):
            raise ValueError(f"unknown method {self.method!r}")
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
    status: str
    delay: StatSummary
    throughput: StatSummary
    packets: StatSummary
    rounds: StatSummary
    records: list[TrialRecord] | None = None


@dataclass
class MulticastSummary:
    """Per-receiver statistics plus sender-side totals."""

    scheme: str
    reference_receiver: int | None
    labels: list[int]
    per_receiver: list[SimSummary]
    sender_packets: StatSummary
    sender_rounds: StatSummary
    records: list[TrialRecord] | None = None


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _policy_for(scheme: str, own_pe: np.ndarray, sizing_pe=None):
    if scheme == "nc":
        return NonAdaptivePolicy()
    if scheme == "anc":
        return AdaptivePolicy(own_pe if sizing_pe is None else sizing_pe)
    raise ValueError(f"single-receiver scheme must be nc or anc, got {scheme!r}")


def _summarize(dof: int, delays, packets, rounds, completed,
               records=None) -> SimSummary:
    completed = np.asarray(completed, dtype=bool)
    n = completed.size
    n_done = int(completed.sum())
    ok_delays = np.asarray(delays, dtype=float)[completed]
    ok_packets = np.asarray(packets, dtype=float)[completed]
    ok_rounds = np.asarray(rounds, dtype=float)[completed]
    failure_rate = (n - n_done) / n
    return SimSummary(
        n_trials=n,
        n_completed=n_done,
        n_failures=n - n_done,
        failure_rate=failure_rate,
        status="warning" if failure_rate > FAILURE_WARNING_RATE else "ok",
        delay=StatSummary.from_samples(ok_delays),
        throughput=StatSummary.from_samples(
            dof / ok_delays if ok_delays.size else ok_delays
        ),
        packets=StatSummary.from_samples(ok_packets),
        rounds=StatSummary.from_samples(ok_rounds),
        records=records,
    )


def _summarize_records(params: ModelParams, records: list[TrialRecord],
                       keep: bool = False) -> SimSummary:
    return _summarize(
        params.dof,
        [r.completion_time for r in records],
        [r.packets_sent for r in records],
        [r.rounds for r in records],
        [r.completed for r in records],
        records=records if keep else None,
    )


# -- per-trial engine --------------------------------------------------------


def _trial_rngs(trial_seed: np.random.SeedSequence):
    erasure_ss, coding_ss = trial_seed.spawn(2)
    return np.random.default_rng(erasure_ss), np.random.default_rng(coding_ss)


def _single_trial(trial: int, trial_seed, pe: np.ndarray, policy,
                  params: ModelParams, field_spec: FieldSpec | None,
                  payload_symbols: int, max_rounds: int, start_slot: int,
                  receiver: int = 0, keep_timeline: bool = False) -> TrialRecord:
    erng, crng = _trial_rngs(trial_seed)
    tau = pe.size
    dof = params.dof
    gen = None
    field = None
    if field_spec is not None:
        field = field_for(field_spec)
        gen = Generation.random(field, dof, payload_symbols, crng)
    remaining = dof
    j = start_slot % tau
    t = 0.0
    rounds = 0
    packets = 0
    timeline = [dof] if keep_timeline else []
    while remaining > 0 and rounds < max_rounds:
        n = policy.batch_size(remaining, j)
        slots = (j + np.arange(n)) % tau
        survive = erng.random(n) >= pe[slots]
        if gen is None:
            remaining = max(remaining - int(survive.sum()), 0)
        else:
            coefs = field.random_symbols(crng, (n, dof))
            for k in np.nonzero(survive)[0]:
                gen.absorb(gen.combine(coefs[k]))
            remaining = dof - gen.rank
        t += n * params.t_p + params.t_w
        j = (j + n + params.ack_slot_advance) % tau
        rounds += 1
        packets += n
        if keep_timeline:
            timeline.append(remaining)
    return TrialRecord(
        trial=trial,
        receiver=receiver,
        completion_time=t,
        packets_sent=packets,
        rounds=rounds,
        completed=remaining == 0,
        dof_timeline=timeline,
    )


def _single_trial_chunk(args):
    (trials, seeds, pe, sizing_pe, scheme, params, field_spec,
     payload_symbols, max_rounds, start_slot, receiver, keep_timeline) = args
    policy = _policy_for(scheme, pe, sizing_pe)
    return [
        _single_trial(i, s, pe, policy, params, field_spec, payload_symbols,
                      max_rounds, start_slot, receiver, keep_timeline)
        for i, s in zip(trials, seeds)
    ]


def _run_single_per_trial(config: SimConfig, pe: np.ndarray,
                          sizing_pe, receiver: int) -> list[TrialRecord]:
    seeds = _as_seedseq(config.seed).spawn(config.trials)
    indices = list(range(config.trials))
    common = (pe, sizing_pe, config.scheme, config.params, config.field_spec,
              config.payload_symbols, config.max_rounds, config.start_slot,
              receiver, config.record_trials)
    if config.workers == 1:
        return _single_trial_chunk((indices, seeds) + common)
    bounds = np.linspace(0, config.trials, config.workers + 1).astype(int)
    tasks = [
        (indices[a:b], seeds[a:b]) + common
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    records: list[TrialRecord] = []
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        for part in pool.map(_single_trial_chunk, tasks):
            records.extend(part)
    return records


# -- grouped engine (idealized decoding) ---------------------------------------


def _run_single_grouped(config: SimConfig, pe: np.ndarray, sizing_pe):
    policy = _policy_for(config.scheme, pe, sizing_pe)
    rng = np.random.default_rng(_as_seedseq(config.seed))
    params = config.params
    tau = pe.size
    n = config.trials
    remaining = np.full(n, params.dof, dtype=np.int64)
    slot = np.full(n, config.start_slot % tau, dtype=np.int64)
    t = np.zeros(n)
    packets = np.zeros(n, dtype=np.int64)
    rounds = np.zeros(n, dtype=np.int64)
    for _ in range(config.max_rounds):
        active = np.nonzero(remaining > 0)[0]
        if active.size == 0:
            break
        keys = remaining[active] * tau + slot[active]
        uniq, inverse = np.unique(keys, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse)
        stops = np.cumsum(counts)
        starts = stops - counts
        for g, key in enumerate(uniq):
            members = active[order[starts[g]:stops[g]]]
            r = int(key // tau)
            j = int(key % tau)
            batch = policy.batch_size(r, j)
            succ = np.zeros(members.size, dtype=np.int64)
            for k in range(batch):
                q = 1.0 - pe[(j + k) % tau]
                succ += rng.random(members.size) < q
            remaining[members] = np.maximum(r - succ, 0)
            t[members] += batch * params.t_p + params.t_w
            packets[members] += batch
            rounds[members] += 1
            slot[members] = (j + batch + params.ack_slot_advance) % tau
    return t, packets, rounds, remaining == 0


def run_single(config: SimConfig, trace, sizing_trace=None) -> SimSummary:
    """Simulate one receiver; returns aggregate trial statistics.

    `sizing_trace` overrides the adaptive policy's sizing channel, which
    reproduces a receiver following a shared multicast plan.
    """
    pe = _pe_array(trace)
    sizing_pe = None if sizing_trace is None else _pe_array(sizing_trace)
    method = config.method
    if method == "auto":
        method = (
            "grouped"
            if config.field_spec is None and not config.record_trials
            else "per_trial"
        )
    if method == "grouped":
        if config.field_spec is not None:
            raise ValueError("grouped method supports idealized decoding only")
        delays, packets, rounds, completed = _run_single_grouped(
            config, pe, sizing_pe
        )
        return _summarize(config.params.dof, delays, packets, rounds,
                          completed)
    records = _run_single_per_trial(config, pe, sizing_pe, receiver=0)
    return _summarize_records(config.params, records, config.record_trials)


# -- multicast ---------------------------------------------------------------


def _multicast_trial(trial: int, trial_seed, pes: np.ndarray,
                     sizing: AdaptivePolicy, params: ModelParams,
                     field_spec: FieldSpec | None, payload_symbols: int,
                     max_rounds: int, start_slot: int):
    erng, crng = _trial_rngs(trial_seed)
    n_rx, tau = pes.shape
    dof = params.dof
    gens = None
    field = None
    if field_spec is not None:
        field = field_for(field_spec)
        sources = field.random_symbols(crng, (dof, payload_symbols))
        gens = [Generation(field, sources) for _ in range(n_rx)]
    remaining = np.full(n_rx, dof, dtype=np.int64)
    finish_t = np.full(n_rx, np.nan)
    finish_packets = np.zeros(n_rx, dtype=np.int64)
    finish_rounds = np.zeros(n_rx, dtype=np.int64)
    j = start_slot % tau
    t = 0.0
    rounds = 0
    sent = 0
    while np.any(remaining > 0) and rounds < max_rounds:
        need = int(remaining.max())
        batch = sizing.batch_size(need, j)
        coefs = (
            field.random_symbols(crng, (batch, dof)) if field is not None else None
        )
        for k in range(batch):
            s = (j + k) % tau
            u = erng.random(n_rx)
            if gens is None:
                hit = (u >= pes[:, s]) & (remaining > 0)
                remaining[hit] -= 1
            else:
                for rx in range(n_rx):
                    if remaining[rx] > 0 and u[rx] >= pes[rx, s]:
                        gens[rx].absorb(gens[rx].combine(coefs[k]))
                        remaining[rx] = dof - gens[rx].rank
        t += batch * params.t_p + params.t_w
        rounds += 1
        sent += batch
        done_now = (remaining == 0) & np.isnan(finish_t)
        finish_t[done_now] = t
        finish_packets[done_now] = sent
        finish_rounds[done_now] = rounds
        j = (j + batch + params.ack_slot_advance) % tau
    completed = remaining == 0
    return finish_t, finish_packets, finish_rounds, completed, sent, rounds


def run_multicast(config: SimConfig, group: MulticastGroup) -> MulticastSummary:
    """Simulate a multicast session under the configured scheme.

    Virtual-channel schemes drive one shared sender whose batches are
    sized on the virtual trace for the largest outstanding deficit in
    the group; a receiver's clock stops at the end of the round that
    completes it.  The nc/anc benchmarks run each receiver as an
    independent point-to-point session.
    """
    params = config.params
    labels = list(group.labels)
    n_rx = len(group)
    if config.scheme in ("nc", "anc"):
        seqs = _as_seedseq(config.seed).spawn(n_rx)
        per_receiver = []
        all_records: list[TrialRecord] = []
        packets_by_trial = np.zeros(config.trials)
        rounds_by_trial = np.zeros(config.trials)
        for rx, trace in enumerate(group.receivers):
            sub = replace(config, seed=seqs[rx], record_trials=True,
                          method="per_trial")
            records = _run_single_per_trial(
                sub, _pe_array(trace), None, receiver=labels[rx]
            )
            per_receiver.append(_summarize_records(params, records))
            packets_by_trial += [r.packets_sent for r in records]
            rounds_by_trial += [r.rounds for r in records]
            if config.record_trials:
                all_records.extend(records)
        return MulticastSummary(
            scheme=config.scheme,
            reference_receiver=None,
            labels=labels,
            per_receiver=per_receiver,
            sender_packets=StatSummary.from_samples(packets_by_trial),
            sender_rounds=StatSummary.from_samples(rounds_by_trial),
            records=all_records if config.record_trials else None,
        )

    if config.scheme == MAXPE:
        virtual = build_maxpe(group)
    elif config.scheme == MAXCT:
        virtual = build_maxct(group, params, config.start_slot)
    else:
        raise ValueError(f"unknown multicast scheme {config.scheme!r}")
    sizing = AdaptivePolicy(virtual.pe)
    pes = np.vstack([_pe_array(tr) for tr in group.receivers])
    seeds = _as_seedseq(config.seed).spawn(config.trials)
    delays = np.empty((config.trials, n_rx))
    packets = np.empty((config.trials, n_rx), dtype=np.int64)
    rounds = np.empty((config.trials, n_rx), dtype=np.int64)
    completed = np.empty((config.trials, n_rx), dtype=bool)
    sender_packets = np.empty(config.trials, dtype=np.int64)
    sender_rounds = np.empty(config.trials, dtype=np.int64)
    records: list[TrialRecord] = []
    for i, seed in enumerate(seeds):
        ft, fp, fr, done, sent, nrounds = _multicast_trial(
            i, seed, pes, sizing, params, config.field_spec,
            config.payload_symbols, config.max_rounds, config.start_slot
        )
        delays[i] = ft
        packets[i] = fp
        rounds[i] = fr
        completed[i] = done
        sender_packets[i] = sent
        sender_rounds[i] = nrounds
        if config.record_trials:
            for rx in range(n_rx):
                records.append(
                    TrialRecord(
                        trial=i,
                        receiver=labels[rx],
                        completion_time=float(ft[rx]),
                        packets_sent=int(fp[rx]),
                        rounds=int(fr[rx]),
                        completed=bool(done[rx]),
                    )
                )
    per_receiver = [
        _summarize(params.dof, delays[:, rx], packets[:, rx],
                   rounds[:, rx], completed[:, rx])
        for rx in range(n_rx)
    ]
    return MulticastSummary(
        scheme=config.scheme,
        reference_receiver=virtual.reference_receiver,
        labels=labels,
        per_receiver=per_receiver,
        sender_packets=StatSummary.from_samples(sender_packets),
        sender_rounds=StatSummary.from_samples(sender_rounds),
        records=records if config.record_trials else None,
    )


def write_trial_records(path, records: list[TrialRecord]):
    """Dump per-trial outcomes as CSV."""
    with open(path, "w", newline="\n") as fh:
        fh.write("trial,receiver,delay_s,packets,rounds\n")
        for r in records:
            fh.write(
                f"{r.trial},{r.receiver},{r.completion_time!r},"
                f"{r.packets_sent},{r.rounds}\n"
            )
