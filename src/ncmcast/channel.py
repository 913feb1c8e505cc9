"""Time-variant channel traces for mobile satellite receivers.

Per-slot channel gains follow a three-state land-mobile model (line of
sight, moderate shadowing, deep shadowing): a first-order Markov chain
over the states at packet-slot granularity, plus AR(1) log-normal
shadowing around the state mean.  Gains map to bit error probability
(BPSK/QPSK over AWGN) and then to whole-packet erasure probability.

The bit error rate needs erfc, which is a port of the Cephes `erfc`
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989,
`ndtr.c`): the routine SciPy runs for real doubles, with its branches and
coefficients.  Its exp is libm's (`math.exp`, element by element), as in
the C code; NumPy's vectorized `np.exp` may round differently by an ulp,
and so would move the erasure traces' bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SLOT_SECONDS = 0.67e-3

STATE_NAMES = ("los", "moderate", "deep")


class ParameterError(ValueError):
    """Invalid channel-model parameters."""


class TraceParseError(ValueError):
    """Malformed trace file."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class StateParams:
    """Propagation parameters of one shadowing state."""

    mean_gain_db: float
    shadow_std_db: float
    correlation_distance_m: float

    def __post_init__(self):
        if not math.isfinite(self.mean_gain_db):
            raise ParameterError("mean_gain_db must be finite")
        if self.shadow_std_db < 0:
            raise ParameterError("shadow_std_db must be >= 0")
        if self.correlation_distance_m <= 0:
            raise ParameterError("correlation_distance_m must be > 0")


@dataclass(frozen=True)
class LmsParams:
    """Three-state land-mobile channel parameters."""

    los: StateParams
    moderate: StateParams
    deep: StateParams
    transition: np.ndarray
    speed_mps: float

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        if t.shape != (3, 3):
            raise ParameterError("transition matrix must be 3x3")
        if np.any(t < 0):
            raise ParameterError("transition probabilities must be >= 0")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ParameterError("transition matrix rows must sum to 1")
        object.__setattr__(self, "transition", t)
        if self.speed_mps <= 0:
            raise ParameterError("speed_mps must be > 0")

    @property
    def states(self) -> tuple[StateParams, StateParams, StateParams]:
        return (self.los, self.moderate, self.deep)


def low_height_building_default(speed_mps: float = 5.0) -> LmsParams:
    """Named default parameter set "low-height-building-default".

    State means place receivers into three gain bands around
    {0, -1, -2.3} dB; the transition matrix is strongly persistent so a
    trace stays in its starting band.
    """
    return LmsParams(
        los=StateParams(0.0, 0.30, 0.5),
        moderate=StateParams(-1.0, 0.40, 0.5),
        deep=StateParams(-2.3, 0.50, 0.5),
        transition=np.array(
            [
                [0.998, 0.001, 0.001],
                [0.001, 0.998, 0.001],
                [0.001, 0.001, 0.998],
            ]
        ),
        speed_mps=speed_mps,
    )


@dataclass
class ChannelTrace:
    """Per-slot gain magnitudes (dB) seen by one receiver."""

    gains_db: np.ndarray
    slot_duration: float = DEFAULT_SLOT_SECONDS
    receiver_id: int = 0

    def __post_init__(self):
        g = np.asarray(self.gains_db, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ParameterError("gains_db must be a nonempty 1-D vector")
        if not np.all(np.isfinite(g)):
            raise ParameterError("gains_db entries must be finite")
        self.gains_db = g

    def __len__(self):
        return self.gains_db.size


@dataclass
class ErasureTrace:
    """Per-slot packet erasure probabilities derived from a gain trace."""

    pe: np.ndarray
    eb_n0_db: float | None = None
    bits_per_packet: int | None = None
    receiver_id: int = 0

    def __post_init__(self):
        p = np.asarray(self.pe, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ParameterError("pe must be a nonempty 1-D vector")
        if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
            raise ParameterError("pe entries must lie in [0, 1]")
        self.pe = p

    def __len__(self):
        return self.pe.size


def generate_trace(params: LmsParams, initial_state: str, length: int, seed,
                   slot_duration: float = DEFAULT_SLOT_SECONDS,
                   receiver_id: int = 0) -> ChannelTrace:
    """Sample a gain trace: Markov state sequence + AR(1) shadowing.

    The shadowing autocorrelation per slot is
    exp(-speed * slot_duration / correlation_distance) of the current
    state.  Deterministic for a fixed seed.
    """
    if length < 1:
        raise ParameterError("length must be >= 1")
    if initial_state not in STATE_NAMES:
        raise ParameterError(f"initial_state must be one of {STATE_NAMES}")
    rng = np.random.default_rng(seed)

    means = np.array([s.mean_gain_db for s in params.states])
    stds = np.array([s.shadow_std_db for s in params.states])
    rhos = np.array(
        [
            math.exp(-params.speed_mps * slot_duration / s.correlation_distance_m)
            for s in params.states
        ]
    )
    ar_scale = np.sqrt(1.0 - rhos**2)
    cum = np.cumsum(params.transition, axis=1)

    u_state = rng.random(length)
    innovations = rng.standard_normal(length)

    states = np.empty(length, dtype=np.int8)
    gains = np.empty(length, dtype=float)
    state = STATE_NAMES.index(initial_state)
    shadow = innovations[0]
    states[0] = state
    gains[0] = means[state] + stds[state] * shadow
    for t in range(1, length):
        state = int(np.searchsorted(cum[state], u_state[t], side="right"))
        state = min(state, 2)
        shadow = rhos[state] * shadow + ar_scale[state] * innovations[t]
        states[t] = state
        gains[t] = means[state] + stds[state] * shadow
    return ChannelTrace(gains, slot_duration=slot_duration, receiver_id=receiver_id)


# Cephes ndtr.c: erf on |x| < 1 is x T(x^2) / U(x^2); erfc is
# exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) above, and
# underflows to 0 once x^2 exceeds _MAXLOG.  Highest degree first; the
# leading 1 of Q, S and U is implicit in Cephes (p1evl), and 1 * x is
# exact, so Horner's first step gives the same bits.
_MAXLOG = 7.09782712893383996843e2
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x, coef):
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erfc(a):
    """Complementary error function, elementwise, bit for bit Cephes."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    x = np.abs(flat)
    out = np.full(flat.shape, np.nan)
    small = x < 1.0
    s = flat[small]
    z = s * s
    out[small] = 1.0 - s * _horner(z, _T) / _horner(z, _U)
    under = flat * flat > _MAXLOG
    out[under] = np.where(flat[under] < 0.0, 2.0, 0.0)
    for sel, num, den in (((x >= 1.0) & (x < 8.0), _P, _Q),
                          (x >= 8.0, _R, _S)):
        sel &= ~under
        b = flat[sel]
        e = np.fromiter(map(math.exp, (-b * b).tolist()), float, b.size)
        y = e * _horner(x[sel], num) / _horner(x[sel], den)
        out[sel] = np.where(b < 0.0, 2.0 - y, y)
    return out.reshape(a.shape)[()]


def bit_error_prob(gain_db, eb_n0_db, modulation: str = "bpsk"):
    """Per-bit error probability at the given gain and Eb/N0.

    BPSK: Q(sqrt(2*snr)) with snr = |h|^2 * Eb/N0 linear; QPSK is
    identical per bit.  Accepts scalars or arrays.
    """
    if modulation.lower() not in ("bpsk", "qpsk"):
        raise ValueError(f"unsupported modulation {modulation!r}")
    gain_db = np.asarray(gain_db, dtype=float)
    eb_n0_db = np.asarray(eb_n0_db, dtype=float)
    snr = 10.0 ** ((gain_db + eb_n0_db) / 10.0)
    # Q(sqrt(2x)) = erfc(sqrt(x)) / 2
    out = 0.5 * _erfc(np.sqrt(snr))
    return float(out) if out.ndim == 0 else out


def erasure_prob(p_b, bits: int):
    """Probability that a packet of `bits` bits loses at least one bit.

    Evaluates 1 - (1 - p_b)^bits through expm1/log1p so tiny bit error
    rates do not underflow.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    p = np.asarray(p_b, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("p_b must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        out = -np.expm1(bits * np.log1p(-p))
    out = np.where(p >= 1.0, 1.0, out)
    return float(out) if out.ndim == 0 else out


def to_erasure_trace(trace: ChannelTrace, eb_n0_db: float,
                     modulation: str = "bpsk",
                     bits: int = 10_000) -> ErasureTrace:
    """Pointwise map from a gain trace to a packet-erasure trace."""
    pb = bit_error_prob(trace.gains_db, eb_n0_db, modulation)
    return ErasureTrace(
        pe=np.asarray(erasure_prob(pb, bits), dtype=float),
        eb_n0_db=float(eb_n0_db),
        bits_per_packet=int(bits),
        receiver_id=trace.receiver_id,
    )


# -- CSV trace files -------------------------------------------------------

GAIN_HEADER = "slot,gain_db"
PE_HEADER = "slot,pe"


def _write_columns(path, header: str, values: np.ndarray):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for k, v in enumerate(values):
            fh.write(f"{k},{float(v)!r}\n")


def _read_columns(path, header: str) -> np.ndarray:
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TraceParseError(path, 1, "empty file")
    if lines[0] != header:
        raise TraceParseError(path, 1, f"expected header {header!r}, got {lines[0]!r}")
    if len(lines) == 1:
        raise TraceParseError(path, 2, "no data rows")
    values = np.empty(len(lines) - 1, dtype=float)
    for k, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError(path, k, f"expected 2 fields, got {len(parts)}")
        try:
            slot = int(parts[0])
            value = float(parts[1])
        except ValueError as exc:
            raise TraceParseError(path, k, str(exc)) from None
        if slot != k - 2:
            raise TraceParseError(path, k, f"expected slot {k - 2}, got {slot}")
        if not math.isfinite(value):
            raise TraceParseError(path, k, f"non-finite value {parts[1]!r}")
        values[k - 2] = value
    return values


def write_gain_trace(path, trace: ChannelTrace):
    _write_columns(path, GAIN_HEADER, trace.gains_db)


def read_gain_trace(path, slot_duration: float = DEFAULT_SLOT_SECONDS,
                    receiver_id: int = 0) -> ChannelTrace:
    gains = _read_columns(path, GAIN_HEADER)
    return ChannelTrace(gains, slot_duration=slot_duration, receiver_id=receiver_id)


def write_erasure_trace(path, trace: ErasureTrace):
    _write_columns(path, PE_HEADER, trace.pe)


def read_erasure_trace(path, eb_n0_db: float | None = None,
                       bits_per_packet: int | None = None,
                       receiver_id: int = 0) -> ErasureTrace:
    pe = _read_columns(path, PE_HEADER)
    return ErasureTrace(pe, eb_n0_db=eb_n0_db, bits_per_packet=bits_per_packet,
                        receiver_id=receiver_id)
