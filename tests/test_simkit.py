import numpy as np
import pytest

from ncmcast.channel import ErasureTrace
from ncmcast.completion import (
    AdaptivePolicy,
    CompletionModel,
    InfeasibleWindowError,
    ModelParams,
    NonAdaptivePolicy,
)
from ncmcast.gf import FieldSpec
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
