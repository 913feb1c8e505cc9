import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncmcast.gf import GF2m
from ncmcast.rlnc import CodedPacket, DimensionError, Generation, Span, absorb_batch


def unit_packet(gen, k):
    coef = np.zeros(gen.size, dtype=gen.field.dtype)
    coef[k] = 1
    return gen.combine(coef)


def ranks_of_batch(gf, mats):
    """Rank of each matrix in a batch, by vectorized Gaussian elimination.

    Independent of Generation.absorb; used as the oracle for rank
    statistics.
    """
    M = mats.copy()
    n, n_rows, n_cols = M.shape
    rank = np.zeros(n, dtype=np.int64)
    rows_idx = np.arange(n_rows)[None, :]
    for col in range(n_cols):
        eligible = (M[:, :, col] != 0) & (rows_idx >= rank[:, None])
        has = eligible.any(axis=1)
        which = np.nonzero(has)[0]
        if which.size == 0:
            continue
        prow = eligible.argmax(axis=1)[which]
        r0 = rank[which]
        tmp = M[which, r0].copy()
        M[which, r0] = M[which, prow]
        M[which, prow] = tmp
        scale = gf.inv(M[which, r0, col])
        M[which, r0] = gf.mul(scale[:, None], M[which, r0])
        f = M[which, :, col].copy()
        f[np.arange(which.size), r0] = 0
        M[which] ^= gf.mul(f[:, :, None], M[which, r0][:, None, :])
        rank[which] += 1
    return rank


def test_single_source_linearity():
    gf = GF2m(8)
    rng = np.random.default_rng(0)
    gen = Generation.random(gf, 1, 10, rng)
    for seed in range(5):
        pkt = gen.encode(np.random.default_rng(seed))
        c = int(pkt.coefficients[0])
        assert np.array_equal(pkt.payload, gf.mul(c, gen.source_payloads[0]))


def test_unit_vector_payload():
    gf = GF2m(8)
    gen = Generation.random(gf, 2, 6, np.random.default_rng(1))
    pkt = gen.combine(np.array([1, 0], dtype=np.uint8))
    assert np.array_equal(pkt.payload, gen.source_payloads[0])


def test_absorb_unit_vectors_and_decode():
    gf = GF2m(8)
    rng = np.random.default_rng(2)
    gen = Generation.random(gf, 5, 8, rng)
    rx = Generation(gf, np.zeros((5, 8), dtype=np.uint8))
    for k in range(5):
        assert rx.absorb(unit_packet(gen, k)) is True
        assert rx.rank == k + 1
    assert rx.is_complete
    assert np.array_equal(rx.decode(), gen.source_payloads)


def test_duplicate_packet_not_innovative():
    gf = GF2m(8)
    rng = np.random.default_rng(3)
    gen = Generation.random(gf, 4, 6, rng)
    rx = Generation(gf, np.zeros((4, 6), dtype=np.uint8))
    pkt = gen.encode(rng)
    first = rx.absorb(pkt)
    again = rx.absorb(CodedPacket(pkt.coefficients.copy(), pkt.payload.copy()))
    assert first is True
    assert again is False
    assert rx.rank == 1


def test_dimension_mismatch_rejected():
    gf = GF2m(8)
    gen = Generation.random(gf, 4, 6, np.random.default_rng(4))
    bad_coef = CodedPacket(np.zeros(3, np.uint8), np.zeros(6, np.uint8))
    with pytest.raises(DimensionError):
        gen.absorb(bad_coef)
    bad_payload = CodedPacket(np.zeros(4, np.uint8), np.zeros(5, np.uint8))
    with pytest.raises(DimensionError):
        gen.absorb(bad_payload)


def test_decode_not_ready_before_full_rank():
    gf = GF2m(8)
    rng = np.random.default_rng(5)
    gen = Generation.random(gf, 3, 4, rng)
    rx = Generation(gf, np.zeros((3, 4), dtype=np.uint8))
    assert rx.decode() is None
    rx.absorb(gen.encode(rng))
    assert rx.decode() is None


def test_rank_monotone_and_bounded():
    gf = GF2m(4)
    rng = np.random.default_rng(6)
    gen = Generation.random(gf, 4, 3, rng)
    rx = Generation(gf, np.zeros((4, 3), dtype=np.uint8))
    innovations = 0
    prev = 0
    for _ in range(60):
        innovations += rx.absorb(gen.encode(rng))
        assert rx.rank >= prev
        prev = rx.rank
    assert rx.rank == 4
    assert innovations == 4


def test_innovation_probability_rank3_gf256():
    """Fresh random packet lands in a fixed 3-dim subspace of GF(256)^4
    with probability q^3 / q^4 = 1/256; empirical rate within 3 sigma."""
    gf = GF2m(8)
    rng = np.random.default_rng(7)
    gen = Generation.random(gf, 4, 2, rng)
    rx = Generation(gf, np.zeros((4, 2), dtype=np.uint8))
    while rx.rank < 3:
        rx.absorb(gen.encode(rng))
    rows = rx.coefficient_rows
    pivots = rx.pivot_columns
    n = 100_000
    M = gf.random_symbols(rng, (n, 4))
    for r in range(3):
        f = M[:, pivots[r]].copy()
        M ^= gf.mul(f[:, None], rows[r][None, :])
    dependent = np.all(M == 0, axis=1)
    p = 1.0 / 256.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(dependent.mean() - p) <= 3 * sigma


def test_full_rank_probability_gf65536():
    """Ten random packets of a 10-packet block are full rank with
    probability prod(1 - q^(k-10)) ~ 0.9999847 >= 0.999 for q = 2^16."""
    gf = GF2m(16)
    rng = np.random.default_rng(8)
    runs = 10_000
    mats = gf.random_symbols(rng, (runs, 10, 10))
    ranks = ranks_of_batch(gf, mats)
    assert (ranks == 10).mean() >= 0.999
    # tie the batch oracle to the incremental absorb path on a subset
    for mat in mats[:50]:
        rx = Generation(gf, np.zeros((10, 1), dtype=np.uint16))
        for row in mat:
            rx.absorb(CodedPacket(row, np.zeros(1, dtype=np.uint16)))
        assert rx.rank == ranks_of_batch(gf, mat[None])[0]


@pytest.mark.parametrize("m", [4, 8, 16])
def test_round_trip_fuzz(m):
    gf = GF2m(m)
    rng = np.random.default_rng(9 + m)
    cases = 1000 if m < 16 else 200
    for _ in range(cases):
        size = int(rng.integers(1, 7))
        width = int(rng.integers(1, 5))
        gen = Generation.random(gf, size, width, rng)
        rx = Generation(gf, np.zeros((size, width), dtype=gf.dtype))
        guard = 0
        while not rx.is_complete:
            rx.absorb(gen.encode(rng))
            guard += 1
            assert guard < 500
        assert np.array_equal(rx.decode(), gen.source_payloads)


def sequential_absorb(gen, packet):
    """Row-by-row elimination: the former body of Generation.absorb, its reference."""
    field = gen.field
    c = np.asarray(packet.coefficients, dtype=field.dtype).copy()
    p = np.asarray(packet.payload, dtype=field.dtype).copy()
    for r in range(gen.rank):
        f = c[gen._pivots[r]]
        if f:
            c ^= field.mul(f, gen._coef[r])
            p ^= field.mul(f, gen._pay[r])
    nonzero = np.nonzero(c)[0]
    if nonzero.size == 0:
        return False
    piv = int(nonzero[0])
    scale = field.inv(c[piv])
    c = field.mul(scale, c)
    p = field.mul(scale, p)
    if gen.rank:
        f = gen._coef[: gen.rank, piv].copy()
        gen._coef[: gen.rank] ^= field.mul(f[:, None], c[None, :])
        gen._pay[: gen.rank] ^= field.mul(f[:, None], p[None, :])
    gen._coef[gen.rank] = c
    gen._pay[gen.rank] = p
    gen._pivots[gen.rank] = piv
    gen.rank += 1
    return True


@pytest.mark.parametrize("m", [4, 8, 16])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_absorb_equals_sequential_elimination(m, data):
    gf = GF2m(m)
    size = data.draw(st.integers(1, 6))
    width = data.draw(st.integers(1, 4))
    # zeros and a two-symbol alphabet make dependent packets common
    symbol = st.one_of(st.just(0), st.sampled_from([1, gf.q - 1]),
                       st.integers(0, gf.q - 1))
    rows = st.lists(symbol, min_size=size + width, max_size=size + width)
    packets = data.draw(st.lists(rows, min_size=1, max_size=3 * size))
    got = Generation(gf, np.zeros((size, width), dtype=gf.dtype))
    want = Generation(gf, np.zeros((size, width), dtype=gf.dtype))
    for row in packets:
        row = np.array(row, dtype=gf.dtype)
        packet = CodedPacket(row[:size], row[size:])
        assert got.absorb(packet) == sequential_absorb(want, packet)
        assert got.rank == want.rank
        assert np.array_equal(got.coefficient_rows, want.coefficient_rows)
        assert np.array_equal(got._pay[: got.rank], want._pay[: want.rank])
        assert np.array_equal(got.pivot_columns, want.pivot_columns)


@pytest.mark.parametrize("m", [4, 8, 16])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_span_tracks_the_codec(m, data):
    """A rank-only receiver fed coefficient vectors keeps the rank and
    pivots of a generation that codes and eliminates whole packets."""
    gf = GF2m(m)
    size = data.draw(st.integers(1, 6))
    width = data.draw(st.integers(1, 4))
    symbol = st.one_of(st.just(0), st.sampled_from([1, gf.q - 1]),
                       st.integers(0, gf.q - 1))
    sources = data.draw(st.lists(st.lists(symbol, min_size=width, max_size=width),
                                 min_size=size, max_size=size))
    rows = data.draw(st.lists(st.lists(symbol, min_size=size, max_size=size),
                              min_size=1, max_size=4 * size))
    gen = Generation(gf, np.array(sources, dtype=gf.dtype))
    rx = Generation(gf, np.zeros((size, width), dtype=gf.dtype))
    span = Span(gf, size)
    for row in rows:
        row = np.array(row, dtype=gf.dtype)
        assert span.absorb(row) == rx.absorb(gen.combine(row))
        assert span.rank == rx.rank
        assert np.array_equal(span.pivot_columns, rx.pivot_columns)
        if rx.is_complete:
            assert np.array_equal(rx.decode(), gen.source_payloads)


def test_span_rejects_a_row_of_the_wrong_width():
    span = Span(GF2m(8), 3)
    with pytest.raises(DimensionError):
        span.absorb(np.ones(1, dtype=np.uint8))


@pytest.mark.parametrize("m", [4, 8, 16])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_absorb_batch_tracks_independent_spans(m, data):
    """A batch of spans, each offered its own vector at some steps, keeps
    the rank, pivot columns and reduced rows of one `Span` per lane."""
    gf = GF2m(m)
    n = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 9))
    symbol = st.one_of(st.just(0), st.sampled_from([1, gf.q - 1]),
                       st.integers(0, gf.q - 1))
    row = st.lists(symbol, min_size=n, max_size=n)
    # a small pool offered again and again makes repeats and dependence common
    pool = data.draw(st.lists(row, min_size=1, max_size=3))
    vector = st.one_of(row, st.just([0] * n), st.sampled_from(pool))
    spans = [Span(gf, n) for _ in range(count)]
    rows = np.zeros((count, n, n), dtype=gf.dtype)
    rank = np.zeros(count, dtype=np.int64)  # counted from the innovative flags
    # up to 3n steps, so lanes are offered vectors after full rank too
    for _ in range(data.draw(st.integers(1, 3 * n))):
        offered = [k for k in range(count) if data.draw(st.booleans())]
        vectors = np.array([data.draw(vector) for _ in offered],
                           dtype=gf.dtype).reshape(len(offered), n)
        at = np.array(offered, dtype=np.int64)
        innovative = absorb_batch(gf, rows, at, vectors)
        assert innovative.tolist() == [spans[k].absorb(v) for k, v in zip(offered, vectors)]
        rank[at] += innovative
        for lane, span in enumerate(spans):
            pivots = np.flatnonzero(rows[lane].any(axis=1))
            assert rank[lane] == span.rank
            assert np.array_equal(pivots, np.sort(span.pivot_columns))
            order = np.argsort(span.pivot_columns)
            assert np.array_equal(rows[lane][pivots], span._rows[: span.rank][order])
