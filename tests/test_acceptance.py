"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from pathlib import Path

import numpy as np
import pytest

from ncmcast import cli
from ncmcast.channel import ErasureTrace, to_erasure_trace
from ncmcast.completion import (
    AdaptivePolicy,
    CompletionModel,
    ModelParams,
    NonAdaptivePolicy,
    anc_batch_size,
    expected_delay_packets,
)
from ncmcast.gf import FieldSpec
from ncmcast.runner import build_traces, model_params
from ncmcast.scenario import Scenario, load_scenario, save_scenario
from ncmcast.simkit import SimConfig, run_single
from ncmcast.virtualize import MulticastGroup, build_maxpe, maxct_reference

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GEO = ModelParams(dof=10, t_p=0.67e-3, t_w=0.2388)


def maxct_trace(group, params):
    """The V-MaxCT reference receiver's trace, ranked as the runner ranks it."""
    k = maxct_reference(group.labels, [
        expected_delay_packets(trace, params, AdaptivePolicy(trace))
        for trace in group.receivers])
    return group.receivers[k]


def announce(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def trend_scenario() -> Scenario:
    return load_scenario(SCENARIOS / "geo-trend-demo.yaml")


def test_criterion_1_zero_erasure_anchor():
    """Loss-free baseline: 245.50 ms delay and 40.73 packets/s."""
    pe = np.zeros(16)
    for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
        model = CompletionModel(pe, GEO, policy)
        delay = model.expected_time()
        assert delay * 1000 == pytest.approx(245.50, abs=0.01)
        assert GEO.dof / delay == pytest.approx(40.73, abs=0.01)
    announce("zero-erasure-anchor",
             "delay 245.50 ms and throughput 40.73 pkt/s for both policies")


def test_criterion_2_oracle_equivalence():
    """Analytic expected delay vs >= 1e5-trial simulation on a randomized
    corpus: within 3 standard errors in at least 99% of cases."""
    rng = np.random.default_rng(20260810)
    n_pass = n_total = 0
    for _ in range(100):
        tau = int(rng.integers(1, 33))
        dof = int(rng.integers(1, 6))
        pe = rng.random(tau) * 0.6
        params = ModelParams(
            dof=dof,
            t_p=1e-3,
            t_w=float(rng.uniform(0.0, 10e-3)),
            ack_slot_advance=int(rng.integers(0, 3)),
        )
        start = int(rng.integers(0, tau))
        for scheme in ("anc", "nc"):
            policy = AdaptivePolicy(pe) if scheme == "anc" else NonAdaptivePolicy()
            analytic = CompletionModel(pe, params, policy).expected_time(
                start_slot=start
            )
            cfg = SimConfig(
                trials=100_000,
                seed=int(rng.integers(2**31)),
                params=params,
                start_slot=start,
            )
            summary = run_single(cfg, pe, policy)
            n_total += 1
            if summary.delay.se == 0.0:
                n_pass += abs(summary.delay.mean - analytic) <= 1e-12
            else:
                n_pass += (
                    abs(summary.delay.mean - analytic) / summary.delay.se <= 3.0
                )
    assert n_total >= 200
    assert n_pass / n_total >= 0.99
    announce("oracle-equivalence",
             f"{n_pass}/{n_total} cases within 3 SE at 1e5 trials")


def test_criterion_3_batch_size_law():
    """Minimality bracketing on 1e4 probes; dominance on 1e3 pairs."""
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        tau = int(rng.integers(1, 40))
        pe = rng.random(tau) * 0.97
        i = int(rng.integers(1, 11))
        j = int(rng.integers(0, tau))
        n = anc_batch_size(pe, j, i)
        window = 1.0 - pe[(j + np.arange(n)) % tau]
        cums = np.cumsum(window)
        assert cums[-1] >= i
        if n > 1:
            assert cums[-2] < i
    for _ in range(1000):
        tau = int(rng.integers(1, 30))
        pe = rng.random(tau) * 0.8
        worse = np.minimum(pe + rng.random(tau) * 0.19, 0.99)
        i = int(rng.integers(1, 11))
        j = int(rng.integers(0, tau))
        assert anc_batch_size(worse, j, i) >= anc_batch_size(pe, j, i)
    announce("batch-size-law",
             "cumsum bracketing on 1e4 probes, dominance on 1e3 pairs")


def test_criterion_4_virtualization_structure():
    rng = np.random.default_rng(41)
    rows = rng.random((8, 24)) * 0.7
    group = MulticastGroup(
        [
            ErasureTrace(row, eb_n0_db=5.0, bits_per_packet=100,
                         receiver_id=k + 1)
            for k, row in enumerate(rows)
        ]
    )
    # (a) pointwise maximum, exactly
    virtual_pe = build_maxpe(group)
    assert np.array_equal(virtual_pe.pe, rows.max(axis=0))
    # (b) plan batches dominate per-receiver adaptive batches, never below
    # the outstanding block count
    tau = rows.shape[1]
    plan_pe = AdaptivePolicy(virtual_pe).table(GEO.dof, tau)
    for r in range(1, GEO.dof + 1):
        for j in range(tau):
            shared = plan_pe[r - 1, j]
            for trace in group.receivers:
                own = anc_batch_size(trace, j, r)
                assert shared >= own >= r
    # (c) reference receiver of the completion-time scheme reproduces its
    # own per-receiver adaptive delay
    ref = maxct_trace(group, GEO)
    own_delay = CompletionModel(ref, GEO, AdaptivePolicy(ref)).expected_time()
    shared_delay = CompletionModel(
        ref, GEO, AdaptivePolicy(ref.pe.copy())
    ).expected_time()
    assert abs(shared_delay - own_delay) <= 1e-9 * abs(own_delay)
    # (d) worst-erasure plan batches dominate worst-receiver plan batches
    plan_ct = AdaptivePolicy(ref).table(GEO.dof, tau)
    assert plan_ct.min() >= 1  # every window covered
    assert np.all(plan_pe >= plan_ct)
    announce("virtualization-structure",
             "pointwise max exact; batch dominance; reference delay exact")


def band_of(scenario, index):
    return scenario.initial_state(index)


def test_criterion_5_trend_reproduction():
    """Ten receivers in gain bands {0, -1, -2.3} dB: virtualization delay
    gains are nonnegative for the two better bands and the receivers split
    into three delay clusters (gaps exceed within-band spreads).

    Delays are trace-wide expectations (averaged over start slots), which
    removes the arbitrary choice of a single starting slot."""
    scenario = trend_scenario()
    traces = build_traces(scenario)
    params = model_params(scenario)
    K = scenario.receivers
    bands = [band_of(scenario, k) for k in range(K)]
    acc = {k: {"anc": [], "maxpe": [], "maxct": []} for k in range(K)}
    for ebn0 in scenario.eb_n0_db:
        etraces = [
            to_erasure_trace(t, ebn0, scenario.modulation,
                             scenario.bits_per_packet)
            for t in traces
        ]
        group = MulticastGroup(etraces, labels=scenario.receiver_labels())
        shared_pe = AdaptivePolicy(build_maxpe(group))
        shared_ct = AdaptivePolicy(maxct_trace(group, params))
        for k, trace in enumerate(etraces):
            for key, policy in (
                ("anc", AdaptivePolicy(trace)),
                ("maxpe", shared_pe),
                ("maxct", shared_ct),
            ):
                times = CompletionModel(trace, params, policy).solve()
                acc[k][key].append(times[params.dof].mean())
    anc = np.array([np.mean(acc[k]["anc"]) for k in range(K)])
    gain_pe = anc - np.array([np.mean(acc[k]["maxpe"]) for k in range(K)])
    gain_ct = anc - np.array([np.mean(acc[k]["maxct"]) for k in range(K)])
    better = [k for k in range(K) if bands[k] != "deep"]
    assert np.all(gain_pe[better] >= 0.0)
    assert np.all(gain_ct[better] >= 0.0)
    groups = {
        s: 1000 * anc[[k for k in range(K) if bands[k] == s]]
        for s in ("los", "moderate", "deep")
    }
    gap_lo = groups["moderate"].min() - groups["los"].max()
    gap_hi = groups["deep"].min() - groups["moderate"].max()
    spread = max(np.ptp(groups[s]) for s in groups)
    assert min(gap_lo, gap_hi) > spread
    announce(
        "trend-reproduction",
        f"better-band gains >= 0 (min {1000*min(gain_pe[better].min(), gain_ct[better].min()):.2f} ms); "
        f"cluster gaps {gap_lo:.1f}/{gap_hi:.1f} ms exceed spread {spread:.1f} ms",
    )


def test_criterion_6_adaptive_vs_nonadaptive_on_virtuals():
    scenario = trend_scenario()
    traces = build_traces(scenario)
    params = model_params(scenario)
    delays = {"nc": {"maxpe": [], "maxct": []}, "anc": {"maxpe": [], "maxct": []}}
    for ebn0 in scenario.eb_n0_db:
        etraces = [
            to_erasure_trace(t, ebn0, scenario.modulation,
                             scenario.bits_per_packet)
            for t in traces
        ]
        group = MulticastGroup(etraces, labels=scenario.receiver_labels())
        virtuals = {
            "maxpe": build_maxpe(group),
            "maxct": maxct_trace(group, params),
        }
        for name, vpe in virtuals.items():
            delays["nc"][name].append(
                CompletionModel(vpe, params, NonAdaptivePolicy()).expected_time()
            )
            delays["anc"][name].append(
                CompletionModel(vpe, params, AdaptivePolicy(vpe)).expected_time()
            )
    for name in ("maxpe", "maxct"):
        assert max(delays["anc"][name]) <= max(delays["nc"][name])
    # deficit-only batches never need fewer feedback rounds when losses exist
    rng = np.random.default_rng(61)
    for _ in range(30):
        tau = int(rng.integers(1, 20))
        pe = rng.random(tau) * 0.7 + 0.01
        params_r = ModelParams(dof=int(rng.integers(1, 8)), t_p=1e-3, t_w=5e-3)
        anc_rounds = CompletionModel(
            pe, params_r, AdaptivePolicy(pe)
        ).expected_rounds()
        nc_rounds = CompletionModel(
            pe, params_r, NonAdaptivePolicy()
        ).expected_rounds()
        assert nc_rounds >= anc_rounds - 1e-9
    announce("adaptive-vs-nonadaptive",
             "ANC max delay <= NC max delay on both virtual channels; "
             "NC rounds >= ANC rounds on 30 lossy traces")


def test_criterion_7_rlnc_realism():
    """Real random-linear decoding over a 2^16 field is indistinguishable
    from idealized decoding (paired seeds, < 0.5%); a 2^4 field pays a
    measurable dependence penalty."""
    pe = np.array([0.25, 0.15, 0.35, 0.2, 0.1, 0.3, 0.18, 0.22])
    base = dict(trials=10_000, seed=303, params=GEO, record_trials=True)
    policy = AdaptivePolicy(pe)
    ideal = run_single(SimConfig(**base, decoding="ideal"), pe, policy)
    real16 = run_single(SimConfig(**base, decoding=FieldSpec(16)), pe, policy)
    rel16 = abs(real16.delay.mean - ideal.delay.mean) / ideal.delay.mean
    assert rel16 < 0.005
    real4 = run_single(SimConfig(**base, decoding=FieldSpec(4)), pe, policy)
    diffs = np.array(
        [
            r.completion_time - i.completion_time
            for r, i in zip(real4.records, ideal.records)
        ]
    )
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert np.all(diffs >= -1e-15)
    assert diffs.mean() > 3 * se > 0
    announce(
        "rlnc-realism",
        f"q=2^16 differs from ideal by {100*rel16:.4f}% (<0.5%); "
        f"q=2^4 slower by {100*diffs.mean()/ideal.delay.mean:.2f}% "
        f"({diffs.mean()/se:.0f} SE)",
    )


def test_criterion_8_run_determinism(tmp_path):
    scenario = Scenario(
        name="det",
        receivers=3,
        dof=4,
        trace_length=60,
        bits_per_packet=100,
        eb_n0_db=[5.0, 7.0],
        trials=300,
        seed=88,
    )
    spath = tmp_path / "s.yaml"
    save_scenario(spath, scenario)
    outputs = []
    for engine in ("analytic", "montecarlo"):
        pair = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{engine}-{run_id}.csv"
            code = cli.main(
                ["run", "--scenario", str(spath), "--engine", engine,
                 "--out", str(out)]
            )
            assert code == 0
            pair.append(out.read_bytes())
        assert pair[0] == pair[1]
        outputs.append(pair[0])
    assert outputs[0] != outputs[1]  # the engines genuinely differ
    announce("run-determinism",
             "byte-identical results CSVs for repeated analytic and "
             "Monte Carlo runs")
