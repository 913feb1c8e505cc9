import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncmcast import completion
from ncmcast.completion import (
    AdaptivePolicy,
    CompletionModel,
    ErasedCycleError,
    InfeasibleModelError,
    InfeasibleWindowError,
    ModelParams,
    NonAdaptivePolicy,
    anc_batch_size,
    batch_distribution,
)
from ncmcast.channel import ParameterError
from ncmcast.simkit import SimConfig, run_single

GEO = ModelParams(dof=10, t_p=0.67e-3, t_w=0.2388)


def brute_force_distribution(pe, start, remaining, batch):
    """Enumerate all 2^batch erasure patterns."""
    tau = len(pe)
    dist = np.zeros(remaining + 1)
    slots = [(start + k) % tau for k in range(batch)]
    for pattern in itertools.product([0, 1], repeat=batch):
        prob = 1.0
        for s, received in zip(slots, pattern):
            prob *= (1.0 - pe[s]) if received else pe[s]
        left = max(remaining - sum(pattern), 0)
        dist[left] += prob
    return dist


def batch_distribution_via_success_counts(pe, start_slot, remaining, batch):
    """`batch_distribution` through the success-count (Poisson binomial)
    route, an independent computation of the transition fold."""
    tau = pe.size
    counts = np.zeros(batch + 1)
    counts[0] = 1.0
    for k in range(batch):
        e = pe[(start_slot + k) % tau]
        s = 1.0 - e
        nxt = counts * e
        nxt[1:] += counts[:-1] * s
        counts = nxt
    dist = np.zeros(remaining + 1)
    left = np.maximum(remaining - np.arange(batch + 1), 0)
    np.add.at(dist, left, counts)
    return dist


def dense_solve(pe, params, policy):
    """Independent oracle: assemble the full linear system, solve densely."""
    tau = len(pe)
    dof = params.dof
    ack = params.ack_slot_advance
    n = dof * tau
    A = np.eye(n)
    b = np.zeros(n)
    table = policy.table(dof, tau)

    def sid(r, j):
        return (r - 1) * tau + j

    for r in range(1, dof + 1):
        for j in range(tau):
            batch = int(table[r - 1, j])
            dist = batch_distribution(pe, j, r, batch)
            jn = (j + batch + ack) % tau
            b[sid(r, j)] = batch * params.t_p + params.t_w
            for l in range(1, r + 1):
                A[sid(r, j), sid(l, jn)] -= dist[l]
    return np.linalg.solve(A, b).reshape(dof, tau)


class TestBatchDistribution:
    def test_no_erasures_mass_on_zero(self):
        dist = batch_distribution(np.zeros(4), 0, 3, 3)
        assert dist[0] == pytest.approx(1.0)
        assert np.all(dist[1:] == 0)

    def test_single_bernoulli(self):
        dist = batch_distribution(np.array([0.3, 0.9]), 0, 1, 1)
        assert dist == pytest.approx([0.7, 0.3])

    def test_binomial_example(self):
        # 2 needed, 3 sent at loss 1/2: successes ~ Binomial(3, 1/2)
        dist = batch_distribution(np.full(3, 0.5), 0, 2, 3)
        assert dist == pytest.approx([4 / 8, 3 / 8, 1 / 8])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            tau = int(rng.integers(1, 9))
            pe = rng.random(tau)
            remaining = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 13))
            start = int(rng.integers(0, tau))
            got = batch_distribution(pe, start, remaining, batch)
            want = brute_force_distribution(pe, start, remaining, batch)
            assert got == pytest.approx(want, abs=1e-12)
            assert abs(got.sum() - 1.0) <= 1e-12

    def test_both_routes_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            tau = int(rng.integers(1, 12))
            pe = rng.random(tau)
            remaining = int(rng.integers(1, 8))
            batch = int(rng.integers(1, 40))
            start = int(rng.integers(0, tau))
            a = batch_distribution(pe, start, remaining, batch)
            b = batch_distribution_via_success_counts(pe, start, remaining, batch)
            assert a == pytest.approx(b, abs=1e-13)


class TestAncBatchSize:
    def test_perfect_channel(self):
        assert anc_batch_size(np.zeros(5), 0, 10) == 10

    def test_half_erasures(self):
        assert anc_batch_size(np.full(4, 0.5), 0, 10) == 20

    def test_mixed_prefix(self):
        pe = np.array([0.0] + [0.5] * 9)
        # cumulative expected receptions: 1, 1.5, 2.0, 2.5, 3.0 -> N = 5
        assert anc_batch_size(pe, 0, 3) == 5

    def test_minimality_probes(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            tau = int(rng.integers(1, 30))
            pe = rng.random(tau) * 0.95
            i = int(rng.integers(1, 9))
            j = int(rng.integers(0, tau))
            n = anc_batch_size(pe, j, i)
            window = 1.0 - pe[(j + np.arange(n)) % tau]
            cums = np.cumsum(window)
            assert cums[-1] >= i
            if n > 1:
                assert cums[-2] < i

    def test_dominance_monotonicity(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            tau = int(rng.integers(1, 20))
            pe = rng.random(tau) * 0.8
            worse = np.minimum(pe + rng.random(tau) * 0.15, 0.95)
            i = int(rng.integers(1, 8))
            j = int(rng.integers(0, tau))
            assert anc_batch_size(worse, j, i) >= anc_batch_size(pe, j, i)

    def test_cap_exceeded_names_state(self):
        pe = np.full(6, 1.0)
        with pytest.raises(InfeasibleWindowError) as err:
            anc_batch_size(pe, 4, 7)
        assert err.value.start_slot == 4
        assert err.value.remaining == 7

    def test_cap_boundary_allowed(self):
        # exactly 64*i slots needed
        i = 2
        pe = np.full(1, 1.0 - i / (64 * i))
        assert anc_batch_size(pe, 0, i) == 64 * i


class TestSolve:
    def test_single_deterministic_round(self):
        params = ModelParams(dof=2, t_p=1.0, t_w=10.0)
        pe = np.zeros(5)
        model = CompletionModel(pe, params, AdaptivePolicy(pe))
        times = model.solve()
        assert times[2] == pytest.approx(np.full(5, 12.0), abs=1e-12)

    def test_zero_erasure_geo_anchor(self):
        pe = np.zeros(16)
        for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
            model = CompletionModel(pe, GEO, policy)
            assert model.expected_time() * 1000 == pytest.approx(245.50, abs=0.01)

    def test_zero_erasure_closed_form_residual(self):
        pe = np.zeros(7)
        expected = GEO.dof * GEO.t_p + GEO.t_w
        for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
            model = CompletionModel(pe, GEO, policy)
            assert abs(model.expected_time() - expected) <= 1e-12

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            tau = int(rng.integers(1, 9))
            dof = int(rng.integers(1, 4))
            pe = rng.random(tau) * 0.85
            params = ModelParams(
                dof=dof,
                t_p=0.5 + rng.random(),
                t_w=rng.random() * 5,
                ack_slot_advance=int(rng.integers(0, 3)),
            )
            for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
                got = CompletionModel(pe, params, policy).solve()[1:]
                want = dense_solve(pe, params, policy)
                assert got == pytest.approx(want, rel=1e-10)

    def test_equations_hold(self):
        rng = np.random.default_rng(16)
        pe = rng.random(10) * 0.7
        params = ModelParams(dof=4, t_p=1e-3, t_w=8e-3, ack_slot_advance=1)
        policy = AdaptivePolicy(pe)
        times = CompletionModel(pe, params, policy).solve()
        table = policy.table(params.dof, pe.size)
        for r in range(1, 5):
            for j in range(10):
                n = int(table[r - 1, j])
                dist = batch_distribution(pe, j, r, n)
                jn = (j + n + 1) % 10
                rhs = n * params.t_p + params.t_w
                rhs += sum(dist[l] * times[l, jn] for l in range(1, r + 1))
                assert times[r, j] == pytest.approx(rhs, rel=1e-9)

    def test_monotone_in_remaining_adaptive(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            tau = int(rng.integers(1, 12))
            pe = rng.random(tau) * 0.7
            params = ModelParams(dof=5, t_p=1.0, t_w=3.0)
            times = CompletionModel(pe, params, AdaptivePolicy(pe)).solve()
            assert np.all(np.diff(times[1:], axis=0) >= -1e-12)

    def test_monotone_in_remaining_constant_traces(self):
        for p in (0.0, 0.2, 0.5, 0.8):
            pe = np.full(5, p)
            params = ModelParams(dof=5, t_p=1.0, t_w=3.0)
            for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
                times = CompletionModel(pe, params, policy).solve()
                assert np.all(np.diff(times[1:], axis=0) >= -1e-12)

    def test_nonadaptive_can_break_monotonicity_on_cyclic_traces(self):
        """Needing more blocks can finish sooner under deficit-only batches:
        the larger batch reaches better slots.  Verified against simulation;
        kept as a regression pin of that behavior."""
        pe = np.array([0.441, 0.335, 0.457, 0.380, 0.085,
                       0.636, 0.012, 0.218, 0.120, 0.240])
        params = ModelParams(dof=3, t_p=1.0, t_w=3.0)
        times = CompletionModel(pe, params, NonAdaptivePolicy()).solve()
        assert times[3, 2] < times[2, 2]

    def test_strictly_increasing_in_ack_wait(self):
        pe = np.array([0.2, 0.5, 0.1])
        lo = CompletionModel(pe, ModelParams(3, 1.0, 1.0), NonAdaptivePolicy())
        hi = CompletionModel(pe, ModelParams(3, 1.0, 2.0), NonAdaptivePolicy())
        assert np.all(hi.solve()[1:] > lo.solve()[1:])

    def test_all_erased_trace_infeasible(self):
        pe = np.ones(4)
        with pytest.raises(InfeasibleWindowError):
            CompletionModel(pe, ModelParams(2, 1.0, 1.0), AdaptivePolicy(pe)).solve()
        with pytest.raises(ErasedCycleError) as err:
            CompletionModel(pe, ModelParams(2, 1.0, 1.0), NonAdaptivePolicy()).solve()
        assert (err.value.start_slot, err.value.remaining) == (0, 1)

    def test_erased_cycle_infeasible_nonadaptive(self):
        # single-packet batches starting at slot 0 advance two slots per
        # round, so the orbit {0, 2} never leaves the erased slots
        pe = np.array([1.0, 0.0, 1.0, 0.0])
        params = ModelParams(dof=1, t_p=1.0, t_w=0.0, ack_slot_advance=1)
        model = CompletionModel(pe, params, NonAdaptivePolicy())
        with pytest.raises(ErasedCycleError) as err:
            model.solve()
        assert (err.value.start_slot, err.value.remaining) == (0, 1)
        assert "slot 0 with 1 degrees of freedom" in str(err.value)

    def test_adaptive_rounds_never_exceed_nonadaptive(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            tau = int(rng.integers(2, 16))
            pe = rng.random(tau) * 0.6 + 0.05
            params = ModelParams(dof=int(rng.integers(1, 6)), t_p=1.0, t_w=1.0)
            anc = CompletionModel(pe, params, AdaptivePolicy(pe)).expected_rounds()
            ncr = CompletionModel(pe, params, NonAdaptivePolicy()).expected_rounds()
            assert anc <= ncr + 1e-9


class TestDerivedMetrics:
    def test_average_packets_perfect_channel(self):
        pe = np.zeros(8)
        model = CompletionModel(pe, GEO, AdaptivePolicy(pe))
        assert model.average_packets() == pytest.approx(10.0, abs=1e-9)

    def test_average_packets_half_loss_at_least_batch(self):
        pe = np.full(6, 0.5)
        model = CompletionModel(pe, GEO, AdaptivePolicy(pe))
        avg = model.average_packets()
        assert avg >= 20.0
        # cross-check against simulation
        params = ModelParams(dof=10, t_p=GEO.t_p, t_w=0.0)
        sim = run_single(
            SimConfig(trials=60_000, seed=21, params=params), pe, AdaptivePolicy(pe)
        )
        se = sim.packets.se
        assert abs(avg - sim.packets.mean) <= 3 * max(se, 1e-9)

    def test_average_packets_deep_fade_batch_of_forty(self):
        # mean loss 3/4: the first adaptive batch carries 40 packets for
        # 10 blocks, so the average transmitted count starts there
        pe = np.full(9, 0.75)
        model = CompletionModel(pe, GEO, AdaptivePolicy(pe))
        avg = model.average_packets()
        assert 40.0 <= avg <= 48.0

    def test_expected_rounds_perfect_channel(self):
        pe = np.zeros(4)
        model = CompletionModel(pe, GEO, AdaptivePolicy(pe))
        assert model.expected_rounds() == pytest.approx(1.0, abs=1e-12)

    def test_remaining_outside_zero_to_dof_rejected(self):
        pe = np.full(20, 0.3)
        params = ModelParams(dof=3, t_p=GEO.t_p, t_w=GEO.t_w)
        model = CompletionModel(pe, params, AdaptivePolicy(pe))
        for remaining in (-1, -2, 4):
            with pytest.raises(ValueError, match="remaining"):
                model.expected_time(remaining=remaining)
            with pytest.raises(ValueError, match="remaining"):
                model.expected_rounds(remaining=remaining)
        assert model.expected_time(remaining=0) == 0.0
        assert model.expected_time(remaining=3) == model.expected_time()
        assert model.expected_rounds(remaining=3) == model.expected_rounds()


class TestRawErasureVectors:
    @pytest.mark.parametrize("pe", [[0.2, float("nan"), 0.1], [0.2, float("inf"), 0.1],
                                    [0.2, 1.5, 0.1], [0.2, -0.5, 0.1], [], [[0.1, 0.2]]])
    def test_checked_by_the_trace_rule(self, pe):
        # the rule of ErasureTrace, whose ParameterError is a ValueError
        params = ModelParams(dof=2, t_p=GEO.t_p, t_w=GEO.t_w)
        with pytest.raises(ParameterError):
            CompletionModel(pe, params, NonAdaptivePolicy())
        with pytest.raises(ParameterError):
            AdaptivePolicy(pe)
        with pytest.raises(ParameterError):
            run_single(SimConfig(trials=2, seed=0, params=params), pe, NonAdaptivePolicy())


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(dof=0, t_p=1.0, t_w=0.0)
        with pytest.raises(ValueError):
            ModelParams(dof=1, t_p=0.0, t_w=0.0)
        with pytest.raises(ValueError):
            ModelParams(dof=1, t_p=1.0, t_w=-1.0)
        with pytest.raises(ValueError):
            ModelParams(dof=1, t_p=1.0, t_w=0.0, ack_slot_advance=-1)

    @pytest.mark.parametrize("t_p, t_w", [(float("nan"), 0.0), (float("inf"), 0.0),
                                          (1.0, float("nan")), (1.0, float("inf"))])
    def test_non_finite_times_rejected(self, t_p, t_w):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(dof=1, t_p=t_p, t_w=t_w)


# Repeated tenths and quarters make cumulative sums land near integers.
erasure = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9]),
                    st.floats(0.0, 1.0))
traces = st.lists(erasure, min_size=1, max_size=24).map(np.array)


def scalar_table(pe, dof):
    """anc_batch_size at every (remaining, slot), 0 where it raises."""
    table = np.zeros((dof, pe.size), dtype=np.int64)
    for r, j in itertools.product(range(1, dof + 1), range(pe.size)):
        try:
            table[r - 1, j] = anc_batch_size(pe, j, r)
        except InfeasibleWindowError:
            pass
    return table


def reaching(tau, r, n):
    """A trace on which the r-th expected reception from slot 0 falls on
    packet n, or None.

    A slot receives w = 2^-k of a packet, or w * 2^-12 (at most 640 of
    them add up to less than w), so every partial sum is exact and the
    (r/w)-th w-slot decides the entry.  Write n - 1 = q*tau + m: a w-slots
    ending at slot m and b right after it put (q + 1)*a + q*b of them in
    the first n packets.
    """
    q, m = divmod(n - 1, tau)
    for k in range(7):
        w = 2.0**-k
        need = r << k
        for a in range(1, min(need, m + 1) + 1):
            b, rest = divmod(need - (q + 1) * a, q) if q else (0, need - a)
            if rest == 0 and 0 <= b < tau - m:
                pe = np.full(tau, 1.0 - w * 2.0**-12)
                pe[m - a + 1:m + 1 + b] = 1.0 - w
                return pe
    return None


class TestSizingTable:
    @settings(max_examples=150, deadline=None)
    @given(pe=traces, dof=st.integers(1, 8), first=st.integers(1, 8))
    def test_table_equals_scalar_rule(self, pe, dof, first):
        policy = AdaptivePolicy(pe)
        policy.table(first, pe.size)  # grown later when dof > first
        table = policy.table(dof, pe.size)
        assert table.shape == (dof, pe.size)
        for r in range(1, dof + 1):
            for j in range(pe.size):
                try:
                    want = anc_batch_size(pe, j, r)
                except InfeasibleWindowError as exc:
                    assert table[r - 1, j] == 0
                    assert (exc.start_slot, exc.remaining) == (j, r)
                else:
                    assert table[r - 1, j] == want

    @pytest.mark.parametrize("tau", [48, 100])
    def test_table_at_chunk_edges(self, tau):
        # partial sums go in chunks of 64: put the r-th reception on each
        # side of a chunk edge, on the cap 64*r and one packet past it;
        # at tau 48 every window wraps the trace several times
        placed = set()
        for r in range(1, 11):
            for n in (63, 64, 65, 128, 129, 64 * r, 64 * r + 1):
                pe = reaching(tau, r, n)
                if pe is None:
                    continue
                placed.add({64 * r: "cap", 64 * r + 1: "past"}.get(n, n))
                table = AdaptivePolicy(pe).table(10, tau)
                assert table[r - 1, 0] == (n if n <= 64 * r else 0)
                assert np.array_equal(table, scalar_table(pe, 10))
        assert placed == {63, 64, 65, 128, 129, "cap", "past"}

    @settings(max_examples=60, deadline=None)
    @given(pe=traces, dof=st.integers(1, 5))
    def test_model_raises_at_first_zero_level_major(self, pe, dof):
        table = AdaptivePolicy(pe).table(dof, pe.size)
        zeros = np.argwhere(table == 0)
        params = ModelParams(dof=dof, t_p=1.0, t_w=0.5)
        model = CompletionModel(pe, params, AdaptivePolicy(pe))
        if zeros.size == 0:
            return
        r, j = zeros[0] + (1, 0)
        # every zero is checked before any fold or walk
        with pytest.raises(InfeasibleWindowError) as err:
            model.solve()
        assert (err.value.start_slot, err.value.remaining) == (j, r)

    def test_table_at_own_length_is_a_read_only_view(self):
        pe = np.array([0.1, 0.5, 0.0])
        policy = AdaptivePolicy(pe)
        table = policy.table(2, pe.size)
        assert np.shares_memory(table, policy.table(1, pe.size))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 7
        longer = policy.table(2, 5)  # a copy: slot j reads j mod 3
        assert longer.tolist() == [[2, 2, 1, 2, 2], [3, 3, 3, 3, 3]]

    def test_nonadaptive_table_is_the_deficit(self):
        table = NonAdaptivePolicy().table(4, 3)
        assert table.tolist() == [[1] * 3, [2] * 3, [3] * 3, [4] * 3]


class TestSingleSolve:
    def test_one_solve_answers_time_packets_and_rounds(self, monkeypatch):
        calls = []
        solve = completion._expected_cost

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(completion, "_expected_cost", counted)
        pe = np.array([0.1, 0.4, 0.0, 0.7, 0.2])
        model = CompletionModel(pe, GEO, AdaptivePolicy(pe))
        model.expected_time()
        model.average_packets()
        model.expected_rounds()
        assert len(calls) == 1


def single_rhs_solve(b, c, successor):
    """One right-hand side per walk: the solver's former form, its reference."""
    tau = len(b)
    UNSEEN, ON_PATH, DONE = 0, 1, 2
    state = [UNSEEN] * tau
    T = [0.0] * tau
    for start in range(tau):
        if state[start] != UNSEEN:
            continue
        path = []
        j = start
        while state[j] == UNSEEN:
            state[j] = ON_PATH
            path.append(j)
            j = successor[j]
        if state[j] == ON_PATH:
            k = path.index(j)
            cycle = path[k:]
            acc = 0.0
            coef = 1.0
            for node in cycle:
                acc += coef * b[node]
                coef *= c[node]
            if coef >= 1.0:
                raise InfeasibleModelError("fully erased cycle")
            T[j] = acc / (1.0 - coef)
            state[j] = DONE
            for node in reversed(cycle[1:]):
                T[node] = b[node] + c[node] * T[successor[node]]
                state[node] = DONE
            tail = path[:k]
        else:
            tail = path
        for node in reversed(tail):
            T[node] = b[node] + c[node] * T[successor[node]]
            state[node] = DONE
    return T


@st.composite
def functional_graphs(draw):
    """A successor map with its stay probabilities and three right-hand sides.

    Arbitrary successors give self-loops, several cycles and trees hanging
    off them; a stay probability of 1.0 can make a cycle fully erased.
    """
    tau = draw(st.integers(1, 30))
    successor = draw(st.lists(st.integers(0, tau - 1), min_size=tau, max_size=tau))
    stay = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 0.999))
    c = draw(st.lists(stay, min_size=tau, max_size=tau))
    cost = st.floats(0.0, 1e3)
    b = [draw(st.lists(cost, min_size=tau, max_size=tau)) for _ in range(3)]
    return b, c, successor


def slot_cycles(successor):
    """The cycles of a successor map, each as a list of its nodes."""
    cycles = {}
    for j in range(len(successor)):
        for _ in range(len(successor)):  # tau steps from any node end on a cycle
            j = successor[j]
        cycle = [j]
        while successor[cycle[-1]] != j:
            cycle.append(successor[cycle[-1]])
        cycles[min(cycle)] = cycle
    return list(cycles.values())


class TestOnePassSolve:
    @settings(max_examples=150, deadline=None)
    @given(pe=traces, dof=st.integers(1, 6))
    def test_shared_fold_snapshots_equal_batch_distribution(self, pe, dof):
        for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
            table = policy.table(dof, pe.size)
            covered = table.all(axis=1)
            table = table[:dof if covered.all() else covered.argmin()]
            snaps = completion._level_distributions(pe, table)
            for r in range(1, table.shape[0] + 1):
                for j in range(pe.size):
                    want = batch_distribution(pe, j, r, int(table[r - 1, j]))[1:]
                    assert snaps[r - 1, j, -r:].tolist() == want.tolist()

    @settings(max_examples=300, deadline=None)
    @given(system=functional_graphs())
    def test_one_walk_equals_three_single_walks(self, system):
        b, c, successor = system
        try:
            want = [single_rhs_solve(col, c, successor) for col in b]
        except InfeasibleModelError:
            with pytest.raises(InfeasibleModelError):
                completion._solve_level(b, c, successor)
            return
        assert completion._solve_level(b, c, successor) == want

    @settings(max_examples=300, deadline=None)
    @given(system=functional_graphs())
    def test_residual_is_exact_off_the_closed_forms(self, system):
        # the full-level residual the solve once checked at every node:
        # exactly 0.0 but at the one node per cycle that gets a closed
        # form, and within tolerance everywhere
        b, c, successor = system
        try:
            T = np.array(completion._solve_level(b, c, successor))
        except InfeasibleModelError:
            return
        b, c = np.array(b), np.array(c)
        resid = np.abs(T - (b + c * T[:, successor]))
        assert not np.any(resid > 1e-9 * (1.0 + np.abs(T)))
        missed = resid.any(axis=0)
        cycles = slot_cycles(successor)
        on_cycle = np.zeros(len(successor), dtype=bool)
        for cycle in cycles:
            on_cycle[cycle] = True
            assert missed[cycle].sum() <= 1
        assert not missed[~on_cycle].any()

    def test_sizing_table_equals_scalar_rule_across_blocks(self):
        # 512 slots fill one block
        pe = np.random.default_rng(5).random(1100) ** 3
        assert np.array_equal(AdaptivePolicy(pe).table(10, pe.size), scalar_table(pe, 10))


# 1.0 twice: erased slots are what the verdict looks at
edgy_erasure = st.one_of(st.sampled_from([1.0, 1.0, 0.0]), erasure)


@st.composite
def edgy_traces(draw):
    """Up to 40 slots with pe of exactly 0.0 and 1.0 common.  A short
    pattern repeated, with a few slots redrawn, makes fully erased slot
    cycles common too."""
    pattern = draw(st.lists(edgy_erasure, min_size=1, max_size=4))
    pe = np.resize(np.array(pattern), draw(st.integers(1, 40)))
    for j in draw(st.lists(st.integers(0, pe.size - 1), max_size=3)):
        pe[j] = draw(edgy_erasure)
    return pe


def fold_and_walk(pe, params, table):
    """_expected_cost level by level from batch_distribution and one
    single_rhs_solve per right-hand side; raises where a walk does."""
    tau, dof = pe.size, params.dof
    T = np.zeros((3, dof + 1, tau))
    for r in range(1, dof + 1):
        batches = [int(n) for n in table[r - 1]]
        dists = [batch_distribution(pe, j, r, batches[j]) for j in range(tau)]
        successor = [(j + batches[j] + params.ack_slot_advance) % tau for j in range(tau)]
        c = [dist[r] for dist in dists]
        sent = [n * params.t_p for n in batches]
        for k, rhs in enumerate(([n + params.t_w for n in sent], sent, [1.0] * tau)):
            if r > 1:
                rhs = [rhs[j] + sum(dists[j][l] * T[k, l, successor[j]] for l in range(1, r))
                       for j in range(tau)]
            T[k, r] = single_rhs_solve(rhs, c, successor)
    return T


def first_stuck_state(pe, params, table):
    """(slot, deficit) of the first state, level-major, whose every next
    window is fully erased, as long as it is followed; or None."""
    tau = pe.size
    for r, batches in enumerate(table, 1):
        for start in range(tau):
            j = start
            for _ in range(tau + 1):
                n = int(batches[j])
                if not (pe[(j + np.arange(n)) % tau] == 1.0).all():
                    break
                j = (j + n + params.ack_slot_advance) % tau
            else:
                return start, r
    return None


class TestErasedCycleVerdict:
    @settings(max_examples=400, deadline=None)
    @given(pe=edgy_traces(), foreign=edgy_traces(), dof=st.integers(1, 5),
           ack=st.integers(0, 2), kind=st.sampled_from(["nc", "own", "foreign"]))
    def test_verdict_equals_the_walk(self, pe, foreign, dof, ack, kind):
        policy = {"nc": NonAdaptivePolicy(), "own": AdaptivePolicy(pe),
                  "foreign": AdaptivePolicy(foreign)}[kind]
        params = ModelParams(dof=dof, t_p=GEO.t_p, t_w=GEO.t_w, ack_slot_advance=ack)
        table = policy.table(dof, pe.size)
        if not table.all():
            with pytest.raises(InfeasibleWindowError):
                completion._expected_cost(pe, params, policy)
            return
        try:
            want = fold_and_walk(pe, params, table)
        except InfeasibleModelError:
            with pytest.raises(ErasedCycleError) as err:
                completion._expected_cost(pe, params, policy)
            assert (err.value.start_slot, err.value.remaining) == \
                first_stuck_state(pe, params, table)
            return
        assert first_stuck_state(pe, params, table) is None
        got = completion._expected_cost(pe, params, policy)
        # level 1 has no lower levels to sum: the same bits.  Above it,
        # einsum adds the lower levels' terms in an order that depends on
        # the shapes (tau against dof), so those match to rounding; every
        # term is nonnegative, so nothing cancels
        assert got[:, :2].tolist() == want[:, :2].tolist()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(pe=edgy_traces(), foreign=edgy_traces(), dof=st.integers(1, 4),
           ack=st.integers(0, 2), kind=st.sampled_from(["nc", "own", "foreign"]))
    def test_montecarlo_settles_as_the_solve(self, pe, foreign, dof, ack, kind):
        # both engines reach the one verdict, at the same state
        policy = {"nc": NonAdaptivePolicy(), "own": AdaptivePolicy(pe),
                  "foreign": AdaptivePolicy(foreign)}[kind]
        params = ModelParams(dof=dof, t_p=GEO.t_p, t_w=GEO.t_w, ack_slot_advance=ack)
        config = SimConfig(trials=2, seed=0, params=params, max_rounds=3)
        try:
            CompletionModel(pe, params, policy).solve()
        except InfeasibleModelError as exc:
            with pytest.raises(InfeasibleModelError) as err:
                run_single(config, pe, policy)
            assert (type(err.value), err.value.start_slot, err.value.remaining) == \
                (type(exc), exc.start_slot, exc.remaining)
            return
        assert run_single(config, pe, policy).n_trials == 2
