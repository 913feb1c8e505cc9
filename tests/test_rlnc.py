import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncmcast.gf import GF2m
from ncmcast.rlnc import DimensionError, Span, absorb_batch


def ranks_of_batch(gf, mats):
    """Rank of each matrix in a batch, by vectorized Gaussian elimination.

    Independent of Span.absorb; used as the oracle for rank
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


def test_absorb_unit_vectors_and_decode():
    """Unit vectors reach full rank and leave the identity, the form from
    which a decoder reads the sources."""
    gf = GF2m(8)
    span = Span(gf, 5)
    for k in range(5):
        assert span.absorb(np.eye(5, dtype=gf.dtype)[k]) is True
        assert span.rank == k + 1
    assert span.is_complete
    assert np.array_equal(span._rows, np.eye(5, dtype=gf.dtype))


def test_duplicate_packet_not_innovative():
    gf = GF2m(8)
    span = Span(gf, 4)
    vector = np.random.default_rng(3).integers(0, gf.q, 4, dtype=gf.dtype)
    assert span.absorb(vector) is True
    assert span.absorb(vector.copy()) is False
    assert span.rank == 1


def test_dimension_mismatch_rejected():
    span = Span(GF2m(8), 4)
    with pytest.raises(DimensionError):
        span.absorb(np.zeros(5, np.uint8))
    with pytest.raises(DimensionError):
        span.absorb(np.zeros((1, 4), np.uint8))
    assert span.rank == 0


def test_rank_monotone_and_bounded():
    gf = GF2m(4)
    rng = np.random.default_rng(6)
    span = Span(gf, 4)
    innovations = 0
    prev = 0
    for _ in range(60):
        assert span.is_complete == (span.rank == 4)
        innovations += span.absorb(rng.integers(0, gf.q, 4, dtype=gf.dtype))
        assert span.rank >= prev
        prev = span.rank
    assert span.rank == 4
    assert innovations == 4


def test_innovation_probability_rank3_gf256():
    """Fresh random packet lands in a fixed 3-dim subspace of GF(256)^4
    with probability q^3 / q^4 = 1/256; empirical rate within 3 sigma."""
    gf = GF2m(8)
    rng = np.random.default_rng(7)
    span = Span(gf, 4)
    while span.rank < 3:
        span.absorb(rng.integers(0, gf.q, 4, dtype=gf.dtype))
    rows = span._rows[:3]
    pivots = span.pivot_columns
    n = 100_000
    M = rng.integers(0, gf.q, (n, 4), dtype=gf.dtype)
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
    mats = rng.integers(0, gf.q, (runs, 10, 10), dtype=gf.dtype)
    ranks = ranks_of_batch(gf, mats)
    assert (ranks == 10).mean() >= 0.999
    # tie the batch oracle to the incremental absorb path on a subset
    for mat in mats[:50]:
        span = Span(gf, 10)
        for row in mat:
            span.absorb(row)
        assert span.rank == ranks_of_batch(gf, mat[None])[0]


@pytest.mark.parametrize("m", [4, 8, 16])
def test_round_trip_fuzz(m):
    """Random vectors fed until full rank leave the identity in pivot
    order, whatever the block size."""
    gf = GF2m(m)
    rng = np.random.default_rng(9 + m)
    cases = 1000 if m < 16 else 200
    for _ in range(cases):
        size = int(rng.integers(1, 7))
        span = Span(gf, size)
        guard = 0
        while not span.is_complete:
            span.absorb(rng.integers(0, gf.q, size, dtype=gf.dtype))
            guard += 1
            assert guard < 500
        order = np.argsort(span.pivot_columns)
        assert np.array_equal(span._rows[order], np.eye(size, dtype=gf.dtype))


def sequential_absorb(span, row):
    """Elimination one stored row at a time: the reference of Span.absorb."""
    field = span.field
    c = np.asarray(row, dtype=field.dtype).copy()
    for r in range(span.rank):
        f = c[span._pivots[r]]
        if f:
            c ^= field.mul(f, span._rows[r])
    nonzero = np.nonzero(c)[0]
    if nonzero.size == 0:
        return False
    piv = int(nonzero[0])
    c = field.mul(field.inv(c[piv]), c)
    if span.rank:
        f = span._rows[: span.rank, piv].copy()
        span._rows[: span.rank] ^= field.mul(f[:, None], c[None, :])
    span._rows[span.rank] = c
    span._pivots[span.rank] = piv
    span.rank += 1
    return True


@pytest.mark.parametrize("m", [4, 8, 16])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_absorb_equals_sequential_elimination(m, data):
    gf = GF2m(m)
    size = data.draw(st.integers(1, 6))
    # zeros and a two-symbol alphabet make dependent vectors common
    symbol = st.one_of(st.just(0), st.sampled_from([1, gf.q - 1]),
                       st.integers(0, gf.q - 1))
    rows = st.lists(symbol, min_size=size, max_size=size)
    vectors = data.draw(st.lists(rows, min_size=1, max_size=3 * size))
    got = Span(gf, size)
    want = Span(gf, size)
    for row in vectors:
        row = np.array(row, dtype=gf.dtype)
        assert got.absorb(row) == sequential_absorb(want, row)
        assert got.rank == want.rank
        assert np.array_equal(got._rows[: got.rank], want._rows[: want.rank])
        assert np.array_equal(got.pivot_columns, want.pivot_columns)


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
