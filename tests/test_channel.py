import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncmcast
from ncmcast.channel import (
    _erfc,
    ChannelTrace,
    ErasureTrace,
    LmsParams,
    ParameterError,
    StateParams,
    TraceParseError,
    bit_error_prob,
    erasure_prob,
    generate_trace,
    low_height_building_default,
    read_erasure_trace,
    read_gain_trace,
    to_erasure_trace,
    write_erasure_trace,
    write_gain_trace,
)

# frozen 50-digit evaluations of 1 - (1 - p_b)^B at the float64 inputs
EXPECTED_PE = {
    (1e-4, 100): 0.009950661308629186,
    (1e-5, 10_000): 0.09516303438565249,
}
# frozen 50-digit evaluation of Q(sqrt(2 * 10^(9.6/10)))
EXPECTED_PB_0DB_96 = 9.736176018578605e-06


def flat_params(mean=(0.0, -10.0, -20.0), std=(0.0, 0.0, 0.0),
                transition=None):
    if transition is None:
        transition = np.eye(3)
    return LmsParams(
        los=StateParams(mean[0], std[0], 1.0),
        moderate=StateParams(mean[1], std[1], 1.0),
        deep=StateParams(mean[2], std[2], 1.0),
        transition=transition,
        speed_mps=5.0,
    )


class TestLmsParams:
    def test_row_sums_validated(self):
        bad = np.array([[0.5, 0.5, 0.1], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ParameterError):
            flat_params(transition=bad)

    def test_negative_probability_rejected(self):
        bad = np.array([[1.2, -0.2, 0.0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ParameterError):
            flat_params(transition=bad)

    def test_speed_positive(self):
        with pytest.raises(ParameterError):
            LmsParams(
                los=StateParams(0, 0, 1),
                moderate=StateParams(0, 0, 1),
                deep=StateParams(0, 0, 1),
                transition=np.eye(3),
                speed_mps=0.0,
            )

    def test_default_set_means(self):
        lms = low_height_building_default()
        assert [s.mean_gain_db for s in lms.states] == [0.0, -1.0, -2.3]
        assert lms.speed_mps == 5.0


class TestGenerateTrace:
    def test_degenerate_variance_constant_trace(self):
        trace = generate_trace(flat_params(), "los", 500, seed=1)
        assert np.all(trace.gains_db == 0.0)

    def test_identity_transitions_keep_state(self):
        # distinct means and zero variance expose any state change
        for state, mean in zip(("los", "moderate", "deep"), (0.0, -10.0, -20.0)):
            trace = generate_trace(flat_params(), state, 2000, seed=2)
            assert np.all(trace.gains_db == mean)

    def test_uniform_rows_reach_stationary_occupancy(self):
        third = np.full((3, 3), 1.0 / 3.0)
        trace = generate_trace(flat_params(transition=third), "los", 10**6, seed=3)
        for mean in (0.0, -10.0, -20.0):
            freq = np.mean(trace.gains_db == mean)
            assert abs(freq - 1.0 / 3.0) <= 0.01

    def test_reproducible(self):
        lms = low_height_building_default()
        a = generate_trace(lms, "moderate", 400, seed=42)
        b = generate_trace(lms, "moderate", 400, seed=42)
        assert np.array_equal(a.gains_db, b.gains_db)
        c = generate_trace(lms, "moderate", 400, seed=43)
        assert not np.array_equal(a.gains_db, c.gains_db)

    def test_validation(self):
        with pytest.raises(ParameterError):
            generate_trace(flat_params(), "los", 0, seed=1)
        with pytest.raises(ParameterError):
            generate_trace(flat_params(), "sunny", 10, seed=1)


class TestBitErrorProb:
    def test_asymptote(self):
        assert bit_error_prob(100.0, 100.0) < 1e-15

    def test_zero_snr_limit(self):
        assert bit_error_prob(0.0, -1000.0) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_probe(self):
        got = bit_error_prob(0.0, 9.6)
        assert got == pytest.approx(EXPECTED_PB_0DB_96, rel=1e-11)

    def test_qpsk_matches_bpsk_per_bit(self):
        assert bit_error_prob(1.3, 4.2, "qpsk") == bit_error_prob(1.3, 4.2, "bpsk")

    def test_unknown_modulation(self):
        with pytest.raises(ValueError):
            bit_error_prob(0.0, 0.0, "16qam")

    def test_vectorized(self):
        gains = np.array([-3.0, 0.0, 3.0])
        out = bit_error_prob(gains, 5.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestErfc:
    """The Cephes port against SciPy's erfc, which runs the same C code:
    equal bits, not just close values."""

    EDGES = [0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0, np.nextafter(8.0, 0.0),
             8.0, *np.linspace(26.5, 27.3, 801), np.inf, np.nan]

    @staticmethod
    def reference():
        return pytest.importorskip("scipy.special").erfc

    def test_edges_and_dense_grid(self):
        # NumPy's vectorized exp can round thousands of this grid's
        # exponents differently from libm's (it does on AVX-512 hosts)
        x = np.concatenate((self.EDGES, np.linspace(-40.0, 40.0, 80_001)))
        np.testing.assert_array_equal(_erfc(x), self.reference()(x))

    def test_scalar_and_zero_dim_inputs(self):
        erfc = self.reference()
        for v in self.EDGES[:6] + self.EDGES[-2:]:
            for arg in (v, np.array(v)):
                got = _erfc(arg)
                assert np.ndim(got) == 0
                np.testing.assert_array_equal(got, erfc(arg))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=64))
    def test_random_inputs(self, xs):
        x = np.array(xs)
        np.testing.assert_array_equal(_erfc(x), self.reference()(x))


def test_fresh_import_loads_no_scipy_or_process_pool():
    code = (
        "import sys\n"
        "import ncmcast\n"
        "from ncmcast import report, runner, scenario\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m == 'concurrent.futures.process'))\n"
    )
    src = str(Path(ncmcast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "[]"


class TestErasureProb:
    def test_endpoints(self):
        assert erasure_prob(0.0, 100) == 0.0
        assert erasure_prob(1.0, 100) == 1.0

    def test_frozen_probes(self):
        for (pb, bits), expected in EXPECTED_PE.items():
            assert erasure_prob(pb, bits) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_pb_and_bits(self):
        rng = np.random.default_rng(4)
        pb = np.sort(rng.random(50))
        pe = erasure_prob(pb, 64)
        assert np.all(np.diff(pe) >= 0)
        for p in (1e-6, 1e-3, 0.2):
            values = [erasure_prob(p, b) for b in (1, 10, 100, 1000)]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            erasure_prob(-0.1, 10)
        with pytest.raises(ValueError):
            erasure_prob(1.1, 10)
        with pytest.raises(ValueError):
            erasure_prob(0.5, 0)

    def test_tiny_pb_stability(self):
        # naive 1 - (1-p)^B would round to 0 here
        got = erasure_prob(1e-300, 10)
        assert got == pytest.approx(1e-299, rel=1e-10)


class TestToErasureTrace:
    def test_perfect_channel_all_zero(self):
        trace = ChannelTrace(np.full(64, 100.0))
        et = to_erasure_trace(trace, 100.0, "bpsk", 10_000)
        assert np.all(et.pe == 0.0)

    def test_pointwise_definition(self):
        rng = np.random.default_rng(5)
        trace = ChannelTrace(rng.normal(0, 3, 100))
        et = to_erasure_trace(trace, 6.0, "bpsk", 500)
        expected = erasure_prob(bit_error_prob(trace.gains_db, 6.0), 500)
        assert np.array_equal(et.pe, expected)
        assert et.eb_n0_db == 6.0
        assert et.bits_per_packet == 500

    def test_ebn0_monotonicity(self):
        rng = np.random.default_rng(6)
        trace = ChannelTrace(rng.normal(0, 2, 200))
        lo = to_erasure_trace(trace, 4.0, "bpsk", 1000)
        hi = to_erasure_trace(trace, 7.0, "bpsk", 1000)
        assert np.all(hi.pe <= lo.pe)

    def test_commutes_with_concatenation(self):
        rng = np.random.default_rng(7)
        g1, g2 = rng.normal(0, 2, 40), rng.normal(0, 2, 60)
        whole = to_erasure_trace(ChannelTrace(np.concatenate([g1, g2])), 5.0,
                                 "bpsk", 100)
        part1 = to_erasure_trace(ChannelTrace(g1), 5.0, "bpsk", 100)
        part2 = to_erasure_trace(ChannelTrace(g2), 5.0, "bpsk", 100)
        assert np.array_equal(whole.pe, np.concatenate([part1.pe, part2.pe]))

    def test_erasure_trace_validation(self):
        with pytest.raises(ParameterError):
            ErasureTrace(np.array([0.5, 1.2]))
        with pytest.raises(ParameterError):
            ErasureTrace(np.array([np.nan]))


class TestTraceIO:
    def test_gain_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        trace = ChannelTrace(rng.normal(0, 5, 300))
        path = tmp_path / "t.csv"
        write_gain_trace(path, trace)
        back = read_gain_trace(path)
        assert np.array_equal(back.gains_db, trace.gains_db)

    def test_erasure_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        et = ErasureTrace(rng.random(128))
        path = tmp_path / "pe.csv"
        write_erasure_trace(path, et)
        back = read_erasure_trace(path, eb_n0_db=3.0, bits_per_packet=64)
        assert np.array_equal(back.pe, et.pe)
        assert back.eb_n0_db == 3.0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceParseError):
            read_gain_trace(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("slot,gain_db\n")
        with pytest.raises(TraceParseError):
            read_gain_trace(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,gain_db\n0,1.5\n1,oops\n")
        with pytest.raises(TraceParseError) as err:
            read_gain_trace(path)
        assert err.value.line_no == 3

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,pe\n0,0.5\n")
        with pytest.raises(TraceParseError):
            read_gain_trace(path)

    def test_out_of_order_slots_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,gain_db\n0,1.0\n2,1.0\n")
        with pytest.raises(TraceParseError) as err:
            read_gain_trace(path)
        assert err.value.line_no == 3

    def test_large_round_trip_under_a_second(self, tmp_path):
        rng = np.random.default_rng(10)
        trace = ChannelTrace(rng.normal(0, 3, 100_000))
        path = tmp_path / "big.csv"
        start = time.perf_counter()
        write_gain_trace(path, trace)
        back = read_gain_trace(path)
        elapsed = time.perf_counter() - start
        assert np.array_equal(back.gains_db, trace.gains_db)
        assert elapsed < 1.0
