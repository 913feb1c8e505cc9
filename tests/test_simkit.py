from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncmcast import simkit
from ncmcast.channel import ErasureTrace
from ncmcast.completion import (
    AdaptivePolicy,
    CompletionModel,
    InfeasibleWindowError,
    ModelParams,
    NonAdaptivePolicy,
)
from ncmcast.gf import FieldSpec, field_for
from ncmcast.rlnc import Span
from ncmcast.simkit import SimConfig, run_single
from ncmcast.virtualize import MulticastGroup, build_maxpe

PARAMS = ModelParams(dof=4, t_p=1e-3, t_w=6e-3)


def make_group(pe_rows):
    return MulticastGroup(
        [
            ErasureTrace(np.asarray(r, dtype=float), eb_n0_db=5.0,
                         bits_per_packet=100, receiver_id=k + 1)
            for k, r in enumerate(pe_rows)
        ]
    )


def maxpe_policy(group):
    """The shared policy, sized on the group's max-erasure trace."""
    return AdaptivePolicy(build_maxpe(group))


class TestRunSingle:
    def test_perfect_channel_exact_delay(self):
        pe = np.zeros(6)
        cfg = SimConfig(trials=200, seed=1, params=PARAMS, record_trials=True)
        summary = run_single(cfg, pe, AdaptivePolicy(pe))
        expected = PARAMS.dof * PARAMS.t_p + PARAMS.t_w
        assert summary.n_failures == 0
        assert summary.delay.variance <= 1e-30
        assert summary.delay.mean == pytest.approx(expected, abs=1e-15)
        for rec in summary.records:
            assert rec.rounds == 1
            assert rec.packets_sent == PARAMS.dof
            assert rec.completed

    @pytest.mark.parametrize("scheme", ["anc", "nc"])
    @pytest.mark.parametrize("trials, record", [(60_000, False), (12_000, True)],
                             ids=["grouped", "per_trial"])
    def test_oracle_agreement(self, scheme, trials, record):
        # summaries alone, then with every trial's record kept
        pe = np.array([0.2, 0.35, 0.1, 0.3, 0.05, 0.25])
        policy = AdaptivePolicy(pe) if scheme == "anc" else NonAdaptivePolicy()
        analytic = CompletionModel(pe, PARAMS, policy).expected_time()
        cfg = SimConfig(trials=trials, seed=2, params=PARAMS, record_trials=record)
        summary = run_single(cfg, pe, policy)
        assert summary.n_failures == 0
        z = abs(summary.delay.mean - analytic) / summary.delay.se
        assert z <= 3.5

    def test_reproducible_records(self):
        pe = np.array([0.3, 0.1, 0.4])
        cfg = dict(trials=500, seed=7, params=PARAMS, record_trials=True)
        a = run_single(SimConfig(**cfg), pe, AdaptivePolicy(pe))
        b = run_single(SimConfig(**cfg), pe, AdaptivePolicy(pe))
        assert [r.completion_time for r in a.records] == [
            r.completion_time for r in b.records
        ]
        assert [r.dof_timeline for r in a.records] == [
            r.dof_timeline for r in b.records
        ]

    def test_grouped_reproducible(self):
        pe = np.array([0.3, 0.1, 0.4])
        cfg = dict(trials=5000, seed=8, params=PARAMS)
        a = run_single(SimConfig(**cfg), pe, AdaptivePolicy(pe))
        b = run_single(SimConfig(**cfg), pe, AdaptivePolicy(pe))
        assert a.delay.mean == b.delay.mean
        assert a.packets.mean == b.packets.mean

    def test_workers_do_not_change_results(self):
        pe = np.array([0.25, 0.15, 0.35, 0.1])
        base = dict(trials=400, seed=9, params=PARAMS, record_trials=True)
        policy = AdaptivePolicy(pe)
        serial = run_single(SimConfig(**base, workers=1), pe, policy)
        parallel = run_single(SimConfig(**base, workers=3), pe, policy)
        assert [r.completion_time for r in serial.records] == [
            r.completion_time for r in parallel.records
        ]
        assert [r.packets_sent for r in serial.records] == [
            r.packets_sent for r in parallel.records
        ]

    @pytest.mark.parametrize("decoding", ["ideal", FieldSpec(4)], ids=["ideal", "gf16"])
    def test_kept_records_change_no_draw(self, decoding):
        pe = np.array([0.2, 0.4, 0.1])
        policy = AdaptivePolicy(pe)
        base = dict(trials=5000, seed=10, params=PARAMS, decoding=decoding)
        a = run_single(SimConfig(**base), pe, policy)
        b = run_single(SimConfig(**base, record_trials=True), pe, policy)
        assert (a.delay, a.packets, a.rounds) == (b.delay, b.packets, b.rounds)

    def test_failure_cap_counted_and_warned(self):
        pe = np.ones(3)  # nothing ever arrives
        cfg = SimConfig(trials=50, seed=12, params=PARAMS, max_rounds=20)
        summary = run_single(cfg, pe, NonAdaptivePolicy())
        assert summary.n_failures == 50
        assert summary.failure_rate == 1.0
        assert np.isnan(summary.delay.mean)

    def test_packets_match_planned_batches(self):
        pe = np.array([0.5, 0.2])
        cfg = SimConfig(trials=200, seed=13, params=PARAMS, record_trials=True)
        summary = run_single(cfg, pe, AdaptivePolicy(pe))
        table = AdaptivePolicy(pe).table(PARAMS.dof, pe.size)
        for rec in summary.records:
            # replay the planned batch sizes along the recorded dof timeline
            j = 0
            total = 0
            for remaining in rec.dof_timeline[:-1]:
                n = int(table[remaining - 1, j])
                total += n
                j = (j + n + PARAMS.ack_slot_advance) % 2
            assert rec.packets_sent == total


class TestRlncDecoding:
    def test_large_field_matches_ideal_paired(self):
        pe = np.array([0.3, 0.15, 0.25])
        base = dict(trials=1500, seed=14, params=PARAMS, record_trials=True)
        policy = AdaptivePolicy(pe)
        ideal = run_single(SimConfig(**base, decoding="ideal"), pe, policy)
        real = run_single(SimConfig(**base, decoding=FieldSpec(16)), pe, policy)
        diffs = [
            r.completion_time - i.completion_time
            for r, i in zip(real.records, ideal.records)
        ]
        assert np.all(np.asarray(diffs) >= -1e-15)
        rel = (real.delay.mean - ideal.delay.mean) / ideal.delay.mean
        assert rel < 0.005

    def test_small_field_measurably_slower(self):
        pe = np.array([0.3, 0.15, 0.25])
        base = dict(trials=4000, seed=15, params=PARAMS, record_trials=True)
        policy = AdaptivePolicy(pe)
        ideal = run_single(SimConfig(**base, decoding="ideal"), pe, policy)
        real = run_single(SimConfig(**base, decoding=FieldSpec(4)), pe, policy)
        diffs = np.asarray(
            [
                r.completion_time - i.completion_time
                for r, i in zip(real.records, ideal.records)
            ]
        )
        assert np.all(diffs >= -1e-15)
        assert diffs.mean() > 0
        assert real.packets.mean > ideal.packets.mean

    def test_default_rlnc_field_is_256(self):
        cfg = SimConfig(trials=1, seed=0, params=PARAMS, decoding="rlnc")
        assert cfg.field_spec == FieldSpec(8)


class TestMulticast:
    """Each receiver of a group run alone under the group's shared policy."""

    def test_perfect_receiver_single_round_boundary(self):
        # receiver 1 sees no erasures: under the shared plan it finishes in
        # round one, same round count as its own point-to-point run; delay
        # accrues in round quanta, so it pays the virtual batch length
        group = make_group([np.zeros(4), np.full(4, 0.5)])
        cfg = SimConfig(trials=400, seed=17, params=PARAMS)
        result = run_single(cfg, group.receivers[0], maxpe_policy(group))
        assert result.rounds.mean == 1.0
        expected_round1 = (
            AdaptivePolicy(np.full(4, 0.5)).table(PARAMS.dof, 4)[-1, 0]
            * PARAMS.t_p + PARAMS.t_w
        )
        assert result.delay.mean == pytest.approx(expected_round1, abs=1e-15)

    def test_rank_never_exceeds_block(self):
        group = make_group([[0.3, 0.2], [0.1, 0.4]])
        cfg = SimConfig(trials=200, seed=23, params=PARAMS,
                        decoding=FieldSpec(8), record_trials=True)
        for trace in group.receivers:
            for rec in run_single(cfg, trace, maxpe_policy(group)).records:
                assert rec.completed
                assert rec.packets_sent >= PARAMS.dof

    def test_workers_do_not_change_rlnc_records(self):
        group = make_group([[0.25, 0.15, 0.35], [0.1, 0.4, 0.2]])
        base = dict(trials=60, seed=31, params=PARAMS,
                    decoding=FieldSpec(8), record_trials=True)
        policy = maxpe_policy(group)
        for trace in group.receivers:
            serial = run_single(SimConfig(**base, workers=1), trace, policy)
            parallel = run_single(SimConfig(**base, workers=3), trace, policy)
            assert serial.records == parallel.records

    @pytest.mark.parametrize(
        "decoding, workers",
        [("ideal", 1), (FieldSpec(8), 2)],
        ids=["grouped", "per_trial-workers"],
    )
    def test_uncovered_window_raises_from_workers(self, decoding, workers):
        # 0.05 packets per 8 slots: no batch within the cap covers a deficit,
        # and every trial starts in the state (slot 0, deficit 4)
        group = make_group([np.r_[0.95, np.ones(7)], np.zeros(8)])
        cfg = SimConfig(trials=8, seed=32, params=PARAMS,
                        decoding=decoding, workers=workers)
        for trace in group.receivers:
            with pytest.raises(InfeasibleWindowError) as err:
                run_single(cfg, trace, maxpe_policy(group))
            assert (err.value.start_slot, err.value.remaining) == (0, 4)


class TestDelayBands:
    def test_multicast_delays_group_by_gain_band(self):
        """Three erasure bands must show up as three separated groups of
        per-receiver mean delays (between-band gaps above within-band
        spreads)."""
        rng = np.random.default_rng(25)
        bands = [0.05, 0.3, 0.6]
        rows = []
        membership = []
        for k in range(9):
            base = bands[k % 3]
            rows.append(np.clip(base + rng.normal(0, 0.01, 24), 0.0, 0.9))
            membership.append(k % 3)
        group = make_group(rows)
        params = ModelParams(dof=10, t_p=0.67e-3, t_w=0.2388)
        # each receiver on its own policy, as its own session
        seeds = np.random.SeedSequence(26).spawn(9)
        means = np.array([
            1000 * run_single(SimConfig(trials=3000, seed=seeds[k], params=params),
                              trace, AdaptivePolicy(trace)).delay.mean
            for k, trace in enumerate(group.receivers)
        ])
        grouped = {
            b: means[[k for k in range(9) if membership[k] == b]]
            for b in range(3)
        }
        gap1 = grouped[1].min() - grouped[0].max()
        gap2 = grouped[2].min() - grouped[1].max()
        spread = max(np.ptp(grouped[b]) for b in range(3))
        assert min(gap1, gap2) > spread


def per_trial_records(config, pe, policy):
    """The former one-trial-at-a-time loop, kept as the kernel's reference:
    each trial runs alone to the end, drawing its packets from the
    counter streams one round at a time.  Returns (trial, completion
    time, packets, rounds, completed, dof timeline) per trial."""
    tau = pe.size
    params, dof = config.params, config.params.dof
    table = policy.table(dof, tau)
    field = None if config.field_spec is None else field_for(config.field_spec)
    erasure_key, coding_key = simkit._stream_keys(np.random.SeedSequence(config.seed))
    records = []
    for i in range(config.trials):
        span = Span(field, dof) if field else None
        remaining, timeline = dof, [dof]
        j, t, rounds, sent = config.start_slot % tau, 0.0, 0, 0
        while remaining and rounds < config.max_rounds:
            batch = int(table[remaining - 1, j])
            if batch == 0:
                raise InfeasibleWindowError(j, remaining)
            packets = sent + np.arange(batch)
            trial = np.full(batch, i)
            slots = (j + np.arange(batch)) % tau
            survive = simkit._uniforms(erasure_key, trial, packets) >= pe[slots]
            if field is None:
                remaining = max(remaining - int(survive.sum()), 0)
            else:
                coefs = simkit._coefficients(coding_key, field, trial, packets, dof)
                for k in np.flatnonzero(survive):
                    span.absorb(coefs[k])
                    if span.is_complete:
                        break
                remaining = dof - span.rank
            t += batch * params.t_p + params.t_w
            j = (j + batch + params.ack_slot_advance) % tau
            rounds += 1
            sent += batch
            timeline.append(remaining)
        records.append((i, t, sent, rounds, remaining == 0, timeline))
    return records


def records(summary):
    """A run's records in `per_trial_records`' form."""
    return [(r.trial, r.completion_time, r.packets_sent, r.rounds, r.completed,
             r.dof_timeline) for r in summary.records]


erasure = st.one_of(st.sampled_from([0.0, 1.0, 0.2, 0.5]), st.floats(0.0, 1.0))


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_rx=st.integers(1, 3), tau=st.integers(1, 12),
           trials=st.integers(1, 12), decoding=st.sampled_from(["ideal", FieldSpec(4)]),
           shared=st.booleans(), start_slot=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_kept_records_equal_per_trial_loop(self, data, n_rx, tau, trials,
                                               decoding, shared, start_slot, seed):
        # the receiver is rows[0]; a shared policy is sized on every row
        rows = [np.array(data.draw(st.lists(erasure, min_size=tau, max_size=tau)))
                for _ in range(n_rx)]
        policy = maxpe_policy(make_group(rows)) if shared else NonAdaptivePolicy()
        config = SimConfig(trials=trials, seed=seed, params=PARAMS, decoding=decoding,
                           start_slot=start_slot, max_rounds=30, record_trials=True)
        try:
            want = per_trial_records(config, rows[0], policy)
        except InfeasibleWindowError:
            with pytest.raises(InfeasibleWindowError):
                run_single(config, rows[0], policy)
            return
        assert records(run_single(config, rows[0], policy)) == want

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_shared_generator_ignores_draw_block(self, monkeypatch, block):
        group = make_group([[0.1, 0.3, 0.2, 0.05], [0.4, 0.2, 0.3, 0.5],
                            [0.2, 0.2, 0.6, 0.1]])
        # 0.8 over 30 slots, then nothing arrives: trials left with two or
        # more packets to go at slot 21 meet an uncovered window in round 2;
        # under seed 33 the first of them, in trial order, has three to go
        pe = np.r_[np.full(30, 0.8), np.ones(270)]

        def outcomes():
            cfg = SimConfig(trials=500, seed=33, params=PARAMS)
            runs = [run_single(cfg, trace, maxpe_policy(group))
                    for trace in group.receivers]
            with pytest.raises(InfeasibleWindowError) as err:
                run_single(cfg, pe, AdaptivePolicy(pe))
            return ([(s.delay, s.packets, s.rounds, s.n_failures) for s in runs],
                    (err.value.start_slot, err.value.remaining))

        default = outcomes()
        monkeypatch.setattr(simkit, "DRAW_BLOCK", block)
        assert outcomes() == default
        assert default[1] == (21, 3)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_rlnc_records_ignore_draw_block(self, monkeypatch, block):
        """The batched elimination runs per draw block: splitting a round's
        trials into other blocks keeps every record of a small field."""
        group = make_group([[0.1, 0.3, 0.2, 0.05], [0.4, 0.2, 0.3, 0.5],
                            [0.2, 0.2, 0.6, 0.1]])
        cfg = SimConfig(trials=80, seed=35, params=PARAMS, decoding=FieldSpec(4),
                        record_trials=True)

        def runs():
            return [run_single(cfg, trace, maxpe_policy(group)).records
                    for trace in group.receivers]

        default = runs()
        monkeypatch.setattr(simkit, "DRAW_BLOCK", block)
        assert runs() == default

    @pytest.mark.parametrize("alphabet", ["uniform", "0-1-top"])
    def test_large_field_records_equal_per_trial_loop(self, monkeypatch, alphabet):
        """The uint16 symbols of GF(2^16) go through the batched elimination
        with every record equal to the one-trial-at-a-time loop's.  Uniform
        draws are almost never dependent, so a second run draws every
        coefficient from {0, 1, q - 1}, on both sides, to make them common."""
        if alphabet != "uniform":
            field = field_for(FieldSpec(16))
            symbols = np.array([0, 1, field.q - 1], dtype=field.dtype)
            monkeypatch.setattr(simkit, "_symbols",
                                lambda hashes, field: symbols[hashes % np.uint64(3)])
        rows = [[0.1, 0.3, 0.2, 0.05, 0.5], [0.4, 0.2, 0.3, 0.5, 0.1],
                [0.2, 0.2, 0.6, 0.1, 0.3]]
        group = make_group(rows)
        policy = maxpe_policy(group)
        config = SimConfig(trials=50, seed=37, params=PARAMS, decoding=FieldSpec(16),
                           record_trials=True)
        for row, trace in zip(rows, group.receivers):
            want = per_trial_records(config, np.array(row), policy)
            assert records(run_single(config, trace, policy)) == want


class TestRunMany:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_rx=st.integers(1, 3), tau=st.integers(1, 40),
           dof=st.integers(1, 4), trials=st.integers(1, 8),
           decoding=st.sampled_from(["ideal", FieldSpec(4)]), record=st.booleans(),
           max_rounds=st.integers(1, 12), start_slot=st.integers(0, 40),
           block=st.sampled_from([None, 1, 7]), seed=st.integers(0, 2**32 - 1))
    def test_pass_answers_each_question_as_it_runs_alone(
            self, data, n_rx, tau, dof, trials, decoding, record, max_rounds,
            start_slot, block, seed):
        """A shuffled pass over nc, own and shared policies, with one question
        that meets an uncovered window and one that never completes, gives
        each question the summary and records of its run alone."""
        rows = [np.array(data.draw(st.lists(erasure, min_size=tau, max_size=tau)))
                for _ in range(n_rx)]
        policies = [NonAdaptivePolicy(), maxpe_policy(make_group(rows))]
        questions = [(rows[k], policy) for k in range(n_rx)
                     for policy in policies + [AdaptivePolicy(rows[k])]]
        questions += [(rows[0], AdaptivePolicy(np.full(tau, 0.99))),  # uncovered
                      (np.ones(tau), policies[0])]  # never completes
        questions = data.draw(st.permutations(
            [(seed + k, trace, policy) for k, (trace, policy) in enumerate(questions)]))
        config = SimConfig(trials=trials, seed=0, decoding=decoding,
                           params=ModelParams(dof=dof, t_p=1e-3, t_w=6e-3),
                           start_slot=start_slot, max_rounds=max_rounds,
                           record_trials=record)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(simkit, "DRAW_BLOCK", block)
            answers = simkit.run_many(config, questions)
        outcomes = set()
        for (q_seed, trace, policy), got in zip(questions, answers):
            try:
                want = run_single(replace(config, seed=q_seed), trace, policy)
            except InfeasibleWindowError as exc:
                assert isinstance(got, InfeasibleWindowError)
                assert (got.start_slot, got.remaining) == (exc.start_slot, exc.remaining)
                outcomes.add("uncovered")
                continue
            assert repr(got) == repr(want)  # NaN means of a question never completed
            outcomes.add("cut" if got.n_failures else "done")
        assert {"uncovered", "cut"} <= outcomes

    def test_traces_of_one_pass_share_one_length(self):
        config = SimConfig(trials=2, seed=0, params=PARAMS)
        policy = NonAdaptivePolicy()
        with pytest.raises(ValueError, match="one length"):
            simkit.run_many(config, [(1, np.zeros(3), policy), (2, np.zeros(4), policy)])
        assert simkit.run_many(config, []) == []


def splitmix64_reference(key, counter):
    """SplitMix64's output `counter` for seed `key`, in Python integers."""
    mask = (1 << 64) - 1
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestStreams:
    def test_mixer_matches_published_splitmix64_outputs(self):
        assert simkit._splitmix64(1234567, np.arange(3)).tolist() == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]

    @settings(max_examples=200, deadline=None)
    @given(key=st.integers(0, 2**64 - 1),
           counters=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
    def test_mixer_matches_scalar_reference(self, key, counters):
        got = simkit._splitmix64(key, np.array(counters, dtype=np.uint64))
        assert got.tolist() == [splitmix64_reference(key, c) for c in counters]

    @settings(max_examples=25, deadline=None)
    @given(trials=st.integers(1, 8), more=st.integers(0, 8),
           spread=st.sampled_from([(1, None), (1, 1), (1, 7), (2, None), (3, None)]),
           decoding=st.sampled_from(["ideal", FieldSpec(4)]),
           seed=st.integers(0, 2**32 - 1))
    def test_trial_record_ignores_trial_count_workers_and_draw_block(
            self, trials, more, spread, decoding, seed):
        """Trial i draws only from (seed, i, packet): more trials after it,
        another split over workers or another DRAW_BLOCK keep its record."""
        workers, block = spread
        pe = np.array([0.3, 0.1, 0.4, 0.2, 0.6])
        policy = AdaptivePolicy(pe)
        base = dict(seed=seed, params=PARAMS, decoding=decoding, record_trials=True)
        want = run_single(SimConfig(trials=trials, **base), pe, policy).records
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(simkit, "DRAW_BLOCK", block)
            got = run_single(SimConfig(trials=trials + more, workers=workers, **base),
                             pe, policy).records
        assert got[:trials] == want

    def test_symbol_and_erasure_frequencies(self):
        erasure_key, coding_key = simkit._stream_keys(np.random.SeedSequence(41))
        trial, packet = np.divmod(np.arange(40_000), 200)
        field = field_for(FieldSpec(4))
        symbols = simkit._coefficients(coding_key, field, trial, packet, 4).ravel()
        counts = np.bincount(symbols, minlength=field.q)
        n, p = symbols.size, 1 / field.q
        assert counts.size == field.q
        assert np.all(np.abs(counts - n * p) <= 5 * np.sqrt(n * p * (1 - p)))
        u = simkit._uniforms(erasure_key, trial, packet)
        assert np.all((u >= 0) & (u < 1))  # pe = 0 always arrives, pe = 1 never
        assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))
        arrived = np.mean(u >= 0.3)
        assert abs(arrived - 0.7) <= 5 * np.sqrt(0.7 * 0.3 / u.size)

    @pytest.mark.parametrize("decoding", ["ideal", FieldSpec(4)])
    def test_fully_erased_trace_never_delivers(self, decoding):
        # the per-trial streams' twin of test_failure_cap_counted_and_warned
        cfg = SimConfig(trials=60, seed=42, params=PARAMS, decoding=decoding,
                        max_rounds=5, record_trials=True)
        summary = run_single(cfg, np.ones(3), NonAdaptivePolicy())
        assert summary.n_completed == 0
        assert all(r.dof_timeline == [PARAMS.dof] * 6 for r in summary.records)


class TestCounterBounds:
    def test_trial_count_beyond_the_counter_layout_rejected(self):
        SimConfig(trials=simkit.MAX_TRIALS, seed=0, params=PARAMS)
        with pytest.raises(ValueError, match="trials"):
            SimConfig(trials=simkit.MAX_TRIALS + 1, seed=0, params=PARAMS)

    @pytest.mark.parametrize("decoding, width", [("ideal", 1), ("rlnc", PARAMS.dof)])
    def test_packet_count_beyond_the_counter_layout_rejected(self, decoding, width):
        most = (1 << simkit._INDEX_BITS) // (64 * PARAMS.dof * width)
        SimConfig(trials=1, seed=0, params=PARAMS, decoding=decoding, max_rounds=most)
        with pytest.raises(ValueError, match="max_rounds"):
            SimConfig(trials=1, seed=0, params=PARAMS, decoding=decoding,
                      max_rounds=most + 1)
