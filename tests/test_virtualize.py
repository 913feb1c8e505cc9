import numpy as np
import pytest

from ncmcast.channel import ErasureTrace
from ncmcast.completion import (AdaptivePolicy, CompletionModel, InfeasibleWindowError,
                                ModelParams, anc_batch_size, expected_delay_packets)
from ncmcast.virtualize import MulticastGroup, build_maxpe, maxct_reference

PARAMS = ModelParams(dof=10, t_p=0.67e-3, t_w=0.2388)


def make_group(pe_rows, tau=None):
    traces = [
        ErasureTrace(np.asarray(row, dtype=float), eb_n0_db=5.0,
                     bits_per_packet=100, receiver_id=k + 1)
        for k, row in enumerate(pe_rows)
    ]
    return MulticastGroup(traces)


def maxct_index(group, params=PARAMS):
    """The V-MaxCT reference receiver's index, ranked as the runner ranks it."""
    return maxct_reference(group.labels, [
        expected_delay_packets(trace, params, AdaptivePolicy(trace))
        for trace in group.receivers])


def maxct_trace(group, params=PARAMS):
    return group.receivers[maxct_index(group, params)]


class TestGroup:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            make_group([[0.1, 0.2], [0.1, 0.2, 0.3]])

    def test_requires_matching_ebn0(self):
        traces = [
            ErasureTrace(np.array([0.1]), eb_n0_db=5.0, bits_per_packet=100),
            ErasureTrace(np.array([0.1]), eb_n0_db=6.0, bits_per_packet=100),
        ]
        with pytest.raises(ValueError):
            MulticastGroup(traces)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            MulticastGroup([])

    def test_default_labels(self):
        group = make_group([[0.1], [0.2], [0.3]])
        assert group.labels == [1, 2, 3]


class TestMaxPe:
    def test_elementwise_maximum(self):
        group = make_group([[0.1, 0.4], [0.3, 0.2]])
        virtual = build_maxpe(group)
        assert np.array_equal(virtual.pe, [0.3, 0.4])
        assert (virtual.eb_n0_db, virtual.bits_per_packet) == (5.0, 100)

    def test_single_receiver_identity(self):
        group = make_group([[0.25, 0.5, 0.75]])
        virtual = build_maxpe(group)
        assert np.array_equal(virtual.pe, [0.25, 0.5, 0.75])

    def test_dominates_every_receiver_with_attained_max(self):
        rng = np.random.default_rng(0)
        rows = rng.random((10, 32))
        group = make_group(rows)
        virtual = build_maxpe(group).pe
        for row in rows:
            assert np.all(virtual >= row)
        stacked = np.vstack(rows)
        assert np.all(np.any(stacked == virtual[None, :], axis=0))


class TestMaxCt:
    def test_single_receiver_is_reference(self):
        group = make_group([[0.3, 0.1, 0.2, 0.25]])
        assert maxct_index(group) == 0

    def test_dominating_receiver_selected(self):
        rng = np.random.default_rng(1)
        rows = [rng.random(16) * 0.3 for _ in range(9)]
        worst = np.maximum.reduce(rows) + 0.3  # strictly dominates all others
        rows.append(np.minimum(worst, 0.9))
        group = make_group(rows)
        assert group.labels[maxct_index(group)] == 10

    def test_tie_breaks_to_smallest_label(self):
        group = make_group([[0.4, 0.2], [0.4, 0.2], [0.1, 0.1]])
        assert maxct_index(group) == 0

    def test_infeasible_receiver_names_label(self):
        group = make_group([[0.1, 0.1], [1.0, 1.0]])
        with pytest.raises(Exception) as err:
            maxct_index(group)
        assert "receiver 2" in str(err.value)

    def test_self_consistency_reference_delay_exact(self):
        """The reference receiver sized on its own trace must reproduce its
        per-receiver adaptive delay bit-for-bit."""
        rng = np.random.default_rng(2)
        rows = [rng.random(24) * 0.5 for _ in range(6)]
        group = make_group(rows)
        ref_trace = maxct_trace(group)
        own = CompletionModel(ref_trace, PARAMS, AdaptivePolicy(ref_trace))
        shared = CompletionModel(ref_trace, PARAMS, AdaptivePolicy(ref_trace.pe.copy()))
        a = own.expected_time()
        b = shared.expected_time()
        assert abs(a - b) <= 1e-9 * abs(a)


def shared_table(virtual):
    """The batches the sender sizes on a virtual trace for every receiver."""
    return AdaptivePolicy(virtual).table(PARAMS.dof, len(virtual))


def virtual_delay(virtual):
    """Adaptive expected completion time of the virtual receiver itself."""
    return CompletionModel(virtual, PARAMS, AdaptivePolicy(virtual)).expected_time()


class TestPlan:
    def test_perfect_channel_single_batch(self):
        group = make_group([np.zeros(12)])
        virtual = build_maxpe(group)
        table = shared_table(virtual)
        assert table[9, 0] == 10
        assert np.all(table[9] == 10)
        assert virtual_delay(virtual) * 1000 == pytest.approx(245.50, abs=0.01)

    def test_plan_batches_dominate_per_receiver_sizes(self):
        rng = np.random.default_rng(3)
        rows = rng.random((5, 20)) * 0.8
        group = make_group(rows)
        table = shared_table(build_maxpe(group))
        for trace in group.receivers:
            for r in (1, 4, 10):
                for j in range(20):
                    own = anc_batch_size(trace, j, r)
                    assert table[r - 1, j] >= own >= r

    def test_maxpe_batches_dominate_maxct_batches(self):
        rng = np.random.default_rng(4)
        rows = rng.random((6, 18)) * 0.7
        group = make_group(rows)
        pe_table = shared_table(build_maxpe(group))
        ct_table = shared_table(maxct_trace(group))
        assert ct_table.min() >= 1  # every window covered
        assert np.all(pe_table >= ct_table)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        rows = rng.random((4, 10)) * 0.6
        v1 = build_maxpe(make_group(rows))
        v2 = build_maxpe(make_group(rows))
        assert np.array_equal(shared_table(v1), shared_table(v2))
        assert virtual_delay(v1) == virtual_delay(v2)

    def test_uncovered_window_names_first_state(self):
        # slots 10..73 are fully erased, so from slot 10 no batch of at
        # most 64 packets delivers a single degree of freedom
        pe = np.ones(100)
        pe[:10] = 0.0
        with pytest.raises(InfeasibleWindowError) as err:
            virtual_delay(build_maxpe(make_group([pe])))
        assert (err.value.start_slot, err.value.remaining) == (10, 1)


class TestDomination:
    def test_virtual_delay_upper_bounds_group(self):
        """Worst-case design: the virtual receiver's adaptive delay is at
        least every receiver's own-trace adaptive delay."""
        rng = np.random.default_rng(6)
        for _ in range(10):
            rows = rng.random((4, 12)) * 0.7
            group = make_group(rows)
            virtual = build_maxpe(group)
            v_model = CompletionModel(virtual, PARAMS, AdaptivePolicy(virtual))
            v_delay = v_model.expected_time()
            for trace in group.receivers:
                own = CompletionModel(trace, PARAMS, AdaptivePolicy(trace))
                assert v_delay >= own.expected_time() - 1e-12

    def test_virtual_delay_upper_bounds_group_nonadaptive(self):
        """Same worst-case property for deficit-only batches: slot
        alignment matches (batches depend on the deficit alone), so the
        pointwise-worse virtual trace can only slow completion."""
        from ncmcast.completion import NonAdaptivePolicy

        rng = np.random.default_rng(7)
        for _ in range(10):
            rows = rng.random((4, 12)) * 0.7
            group = make_group(rows)
            virtual = build_maxpe(group)
            v_delay = CompletionModel(
                virtual, PARAMS, NonAdaptivePolicy()
            ).expected_time()
            for trace in group.receivers:
                own = CompletionModel(trace, PARAMS, NonAdaptivePolicy())
                assert v_delay >= own.expected_time() - 1e-12

    def test_maxct_virtual_delay_is_group_maximum(self):
        rng = np.random.default_rng(8)
        rows = rng.random((5, 10)) * 0.6
        group = make_group(rows)
        virtual = maxct_trace(group)
        v_delay = CompletionModel(
            virtual, PARAMS, AdaptivePolicy(virtual)
        ).expected_time()
        per_receiver = [
            CompletionModel(t, PARAMS, AdaptivePolicy(t)).expected_time()
            for t in group.receivers
        ]
        assert v_delay == pytest.approx(max(per_receiver), rel=1e-12)
