import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncmcast import completion
from ncmcast.completion import (
    AdaptivePolicy,
    CompletionModel,
    InfeasibleModelError,
    InfeasibleWindowError,
    ModelParams,
    NonAdaptivePolicy,
    anc_batch_size,
    batch_distribution,
)
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
        with pytest.raises(InfeasibleModelError):
            CompletionModel(pe, ModelParams(2, 1.0, 1.0), NonAdaptivePolicy()).solve()

    def test_erased_cycle_infeasible_nonadaptive(self):
        # single-packet batches starting at slot 0 advance two slots per
        # round, so the orbit {0, 2} never leaves the erased slots
        pe = np.array([1.0, 0.0, 1.0, 0.0])
        params = ModelParams(dof=1, t_p=1.0, t_w=0.0, ack_slot_advance=1)
        model = CompletionModel(pe, params, NonAdaptivePolicy())
        with pytest.raises(InfeasibleModelError):
            model.solve()

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
        try:
            model.solve()
        except InfeasibleWindowError as exc:
            assert (exc.start_slot, exc.remaining) == (j, r)
        except InfeasibleModelError:
            pass  # a fully erased cycle at a lower level ends the solve first
        else:
            pytest.fail("a zero sizing entry must make the model infeasible")

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

    def test_sizing_table_equals_scalar_rule_across_blocks(self):
        # 512 slots fill one block
        pe = np.random.default_rng(5).random(1100) ** 3
        assert np.array_equal(AdaptivePolicy(pe).table(10, pe.size), scalar_table(pe, 10))
