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
from ncmcast.simkit import SimConfig, run_multicast, run_single
from ncmcast.virtualize import MulticastGroup, build_maxct, build_maxpe

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
    """The shared sender's policy, sized on the group's max-erasure trace."""
    return AdaptivePolicy(build_maxpe(group).pe)


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
    @pytest.mark.parametrize("kernel", ["grouped", "per_trial"])
    def test_oracle_agreement(self, scheme, kernel):
        pe = np.array([0.2, 0.35, 0.1, 0.3, 0.05, 0.25])
        policy = AdaptivePolicy(pe) if scheme == "anc" else NonAdaptivePolicy()
        analytic = CompletionModel(pe, PARAMS, policy).expected_time()
        per_trial = kernel == "per_trial"
        trials = 12_000 if per_trial else 60_000
        # kept records take the per-trial loop on ideal decoding
        cfg = SimConfig(trials=trials, seed=2, params=PARAMS,
                        record_trials=per_trial)
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

    def test_grouped_and_per_trial_statistically_equal(self):
        pe = np.array([0.2, 0.4, 0.1])
        policy = AdaptivePolicy(pe)
        a = run_single(SimConfig(trials=40_000, seed=10, params=PARAMS), pe,
                       policy)
        b = run_single(
            SimConfig(trials=40_000, seed=11, params=PARAMS, record_trials=True),
            pe, policy,
        )
        z = abs(a.delay.mean - b.delay.mean) / np.hypot(a.delay.se, b.delay.se)
        assert z <= 3.5

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
    def test_all_perfect_one_round_equal_delays(self):
        group = make_group([np.zeros(5)] * 3)
        cfg = SimConfig(trials=100, seed=16, params=PARAMS)
        result = run_multicast(cfg, group, maxpe_policy(group))
        expected = PARAMS.dof * PARAMS.t_p + PARAMS.t_w
        for summary in result.per_receiver:
            assert summary.delay.mean == pytest.approx(expected, abs=1e-15)
            assert summary.rounds.mean == 1.0
        assert result.sender_rounds.mean == 1.0

    def test_perfect_receiver_single_round_boundary(self):
        # receiver 1 sees no erasures: under the shared plan it finishes in
        # round one, same round count as its own point-to-point run; delay
        # accrues in round quanta, so it pays the virtual batch length
        group = make_group([np.zeros(4), np.full(4, 0.5)])
        cfg = SimConfig(trials=400, seed=17, params=PARAMS)
        result = run_multicast(cfg, group, maxpe_policy(group))
        assert result.per_receiver[0].rounds.mean == 1.0
        expected_round1 = (
            AdaptivePolicy(np.full(4, 0.5)).table(PARAMS.dof, 4)[-1, 0]
            * PARAMS.t_p + PARAMS.t_w
        )
        assert result.per_receiver[0].delay.mean == pytest.approx(
            expected_round1, abs=1e-15
        )

    def test_maxct_reference_delay_matches_own_anc(self):
        rng = np.random.default_rng(18)
        rows = [rng.random(8) * 0.25 for _ in range(3)]
        rows.append(np.minimum(np.maximum.reduce(rows) + 0.35, 0.9))
        group = make_group(rows)
        virtual = build_maxct(group, PARAMS)
        assert virtual.reference_receiver == 4
        cfg = SimConfig(trials=30_000, seed=19, params=PARAMS)
        result = run_multicast(cfg, group, AdaptivePolicy(virtual.pe))
        ref = result.per_receiver[3]
        own = run_single(
            SimConfig(trials=30_000, seed=20, params=PARAMS),
            group.receivers[3], AdaptivePolicy(group.receivers[3]),
        )
        z = abs(ref.delay.mean - own.delay.mean) / np.hypot(ref.delay.se,
                                                            own.delay.se)
        assert z <= 3.5

    def test_reproducible(self):
        group = make_group([[0.2, 0.3], [0.4, 0.1]])
        cfg = dict(trials=300, seed=22, params=PARAMS, record_trials=True)
        a = run_multicast(SimConfig(**cfg), group, maxpe_policy(group))
        b = run_multicast(SimConfig(**cfg), group, maxpe_policy(group))
        assert [r.completion_time for r in a.records] == [
            r.completion_time for r in b.records
        ]

    def test_rank_never_exceeds_block(self):
        group = make_group([[0.3, 0.2], [0.1, 0.4]])
        cfg = SimConfig(trials=200, seed=23, params=PARAMS,
                        decoding=FieldSpec(8), record_trials=True)
        result = run_multicast(cfg, group, maxpe_policy(group))
        for rec in result.records:
            assert rec.completed
            assert rec.packets_sent >= PARAMS.dof


    @pytest.mark.parametrize("decoding", ["ideal", FieldSpec(8)])
    def test_group_of_one_is_a_single_receiver(self, decoding):
        pe = np.array([0.3, 0.1, 0.45, 0.2, 0.05])
        base = dict(trials=300, seed=27, params=PARAMS, decoding=decoding,
                    record_trials=True)
        group = make_group([pe])
        multicast = run_multicast(SimConfig(**base), group, maxpe_policy(group))
        single = run_single(SimConfig(**base), pe, AdaptivePolicy(pe))

        def outcomes(records):
            return [(r.trial, r.completion_time, r.packets_sent, r.rounds,
                     r.completed, r.dof_timeline) for r in records]

        assert outcomes(multicast.records) == outcomes(single.records)
        assert multicast.sender_packets.mean == single.packets.mean

    def test_grouped_group_of_one_is_a_single_receiver(self):
        pe = np.array([0.3, 0.1, 0.45, 0.2, 0.05])
        base = dict(trials=3000, seed=28, params=PARAMS)
        group = make_group([pe])
        multicast = run_multicast(SimConfig(**base), group, maxpe_policy(group))
        single = run_single(SimConfig(**base), pe, AdaptivePolicy(pe))
        (own,) = multicast.per_receiver
        assert own.delay.mean == single.delay.mean
        assert own.packets.mean == single.packets.mean
        assert own.rounds.mean == single.rounds.mean

    def test_grouped_and_per_trial_multicast_agree(self):
        group = make_group([[0.1, 0.3, 0.2, 0.05], [0.4, 0.2, 0.3, 0.5],
                            [0.2, 0.2, 0.6, 0.1]])
        policy = maxpe_policy(group)
        grouped = run_multicast(SimConfig(trials=30_000, seed=29, params=PARAMS),
                                group, policy)
        per_trial = run_multicast(
            SimConfig(trials=6000, seed=30, params=PARAMS, record_trials=True),
            group, policy,
        )
        pairs = [(g.delay, p.delay) for g, p in zip(grouped.per_receiver,
                                                    per_trial.per_receiver)]
        pairs.append((grouped.sender_packets, per_trial.sender_packets))
        for a, b in pairs:
            assert abs(a.mean - b.mean) / np.hypot(a.se, b.se) <= 3.5

    def test_workers_do_not_change_rlnc_records(self):
        group = make_group([[0.25, 0.15, 0.35], [0.1, 0.4, 0.2]])
        base = dict(trials=60, seed=31, params=PARAMS,
                    decoding=FieldSpec(8), record_trials=True)
        policy = maxpe_policy(group)
        serial = run_multicast(SimConfig(**base, workers=1), group, policy)
        parallel = run_multicast(SimConfig(**base, workers=3), group, policy)
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
        with pytest.raises(InfeasibleWindowError) as err:
            run_multicast(cfg, group, maxpe_policy(group))
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


def per_trial_records(config, pes, policy):
    """The former one-trial-at-a-time loop, kept as the kernel's reference:
    each trial runs alone to the end on its own `_trial_rngs` pair.
    Returns (trial, receiver index, completion time, packets, rounds,
    completed, dof timeline) per receiver per trial."""
    n_rx, tau = pes.shape
    params, dof = config.params, config.params.dof
    table = policy.table(dof, tau)
    field = None if config.field_spec is None else field_for(config.field_spec)
    records = []
    for i, seed in enumerate(np.random.SeedSequence(config.seed).spawn(config.trials)):
        erng, crng = simkit._trial_rngs(seed)
        spans = [Span(field, dof) for _ in range(n_rx)] if field else None
        remaining = np.full(n_rx, dof)
        timelines = [[dof] for _ in range(n_rx)]
        end = np.zeros((3, n_rx))  # delay, packets, rounds
        j, t, rounds, sent = config.start_slot % tau, 0.0, 0, 0
        while remaining.any() and rounds < config.max_rounds:
            live = remaining > 0
            batch = int(table[remaining.max() - 1, j])
            if batch == 0:
                raise InfeasibleWindowError(j, int(remaining.max()))
            slots = (j + np.arange(batch)) % tau
            survive = erng.random((batch, n_rx)) >= pes[:, slots].T
            if field is None:
                remaining = np.maximum(remaining - survive.sum(axis=0), 0)
            else:
                coefs = field.random_symbols(crng, (batch, dof))
                for rx in np.flatnonzero(live):
                    for k in np.flatnonzero(survive[:, rx]):
                        spans[rx].absorb(coefs[k])
                        if spans[rx].is_complete:
                            break
                    remaining[rx] = dof - spans[rx].rank
            t += batch * params.t_p + params.t_w
            j = (j + batch + params.ack_slot_advance) % tau
            rounds += 1
            sent += batch
            end[:, live] = np.array([[t], [sent], [rounds]])
            for rx in np.flatnonzero(live):
                timelines[rx].append(int(remaining[rx]))
        records += [(i, rx, float(end[0, rx]), int(end[1, rx]), int(end[2, rx]),
                     bool(remaining[rx] == 0), timelines[rx]) for rx in range(n_rx)]
    return records


erasure = st.one_of(st.sampled_from([0.0, 1.0, 0.2, 0.5]), st.floats(0.0, 1.0))


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_rx=st.integers(1, 3), tau=st.integers(1, 12),
           trials=st.integers(1, 12), decoding=st.sampled_from(["ideal", FieldSpec(4)]),
           shared=st.booleans(), start_slot=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_kept_records_equal_per_trial_loop(self, data, n_rx, tau, trials,
                                               decoding, shared, start_slot, seed):
        rows = [np.array(data.draw(st.lists(erasure, min_size=tau, max_size=tau)))
                for _ in range(n_rx)]
        group = make_group(rows)
        policy = maxpe_policy(group) if shared else NonAdaptivePolicy()
        config = SimConfig(trials=trials, seed=seed, params=PARAMS, decoding=decoding,
                           start_slot=start_slot, max_rounds=30, record_trials=True)
        try:
            want = per_trial_records(config, np.vstack(rows), policy)
        except InfeasibleWindowError:
            with pytest.raises(InfeasibleWindowError):
                run_multicast(config, group, policy)
            return
        runs = [(run_multicast(config, group, policy), group.labels)]
        if n_rx == 1:  # labelled receiver 0
            runs.append((run_single(config, rows[0], policy), [0]))
        for run, labels in runs:
            assert [(r.trial, labels.index(r.receiver), r.completion_time,
                     r.packets_sent, r.rounds, r.completed, r.dof_timeline)
                    for r in run.records] == want

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_shared_generator_ignores_draw_block(self, monkeypatch, block):
        group = make_group([[0.1, 0.3, 0.2, 0.05], [0.4, 0.2, 0.3, 0.5],
                            [0.2, 0.2, 0.6, 0.1]])
        # 0.8 over 30 slots, then nothing arrives: trials left with two or
        # more packets to go at slot 21 meet an uncovered window in round 2
        pe = np.r_[np.full(30, 0.8), np.ones(270)]

        def outcomes():
            cfg = SimConfig(trials=500, seed=33, params=PARAMS)
            run = run_multicast(cfg, group, maxpe_policy(group))
            with pytest.raises(InfeasibleWindowError) as err:
                run_single(cfg, pe, AdaptivePolicy(pe))
            return ([(s.delay, s.packets, s.rounds, s.n_failures)
                     for s in run.per_receiver]
                    + [run.sender_packets, run.sender_rounds],
                    (err.value.start_slot, err.value.remaining))

        default = outcomes()
        monkeypatch.setattr(simkit, "DRAW_BLOCK", block)
        assert outcomes() == default
        assert default[1] == (21, 2)
