import numpy as np
import pytest

from ncmcast.gf import GF2m, FieldSpec, SUPPORTED_EXPONENTS


def test_field_spec_validation():
    for m in SUPPORTED_EXPONENTS:
        assert FieldSpec(m).order == 2**m
    for bad in (0, 1, 2, 3, 5, 7, 9, 12, 32):
        with pytest.raises(ValueError):
            FieldSpec(bad)


@pytest.mark.parametrize("m", [4, 8])
def test_mul_matches_reference_poly_mul(m):
    gf = GF2m(m)
    a = np.arange(gf.q, dtype=gf.dtype)
    table = gf.mul(a[:, None], a[None, :])
    assert np.array_equal(table, gf.mul_carryless(a[:, None], a[None, :]))


@pytest.mark.parametrize("m", [4, 8])
def test_field_axioms_exhaustive(m):
    """All pairs for commutativity/identity/inverses, all triples for
    associativity and distributivity."""
    gf = GF2m(m)
    q = gf.q
    a = np.arange(q, dtype=gf.dtype)
    prod = gf.mul(a[:, None], a[None, :])
    assert np.array_equal(prod, prod.T)
    assert np.array_equal(gf.mul(a, 1), a)
    assert np.all(gf.mul(a, 0) == 0)
    nz = a[1:]
    assert np.all(gf.mul(nz, gf.inv(nz)) == 1)
    # exhaustive triples via broadcasting
    x = a[:, None, None]
    y = a[None, :, None]
    z = a[None, None, :]
    assert np.array_equal(gf.mul(gf.mul(x, y), z), gf.mul(x, gf.mul(y, z)))
    assert np.array_equal(
        gf.mul(x, np.bitwise_xor(y, z)),
        np.bitwise_xor(gf.mul(x, y), gf.mul(x, z)),
    )


def test_field_axioms_m16_sampled():
    gf = GF2m(16)
    rng = np.random.default_rng(2)
    n = 100_000
    x, y, z = (rng.integers(0, gf.q, n, dtype=np.uint16) for _ in range(3))
    assert np.array_equal(gf.mul(x, y), gf.mul(y, x))
    assert np.array_equal(gf.mul(gf.mul(x, y), z), gf.mul(x, gf.mul(y, z)))
    assert np.array_equal(
        gf.mul(x, y ^ z), gf.mul(x, y) ^ gf.mul(x, z)
    )
    nz = x[x != 0]
    assert np.all(gf.mul(nz, gf.inv(nz)) == 1)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_inverse_of_zero_rejected(m):
    gf = GF2m(m)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.inv(np.array([1, 0, 2], dtype=gf.dtype))


def test_mul_scalar_returns_int():
    gf = GF2m(8)
    out = gf.mul(3, 7)
    assert isinstance(out, int)
    assert gf.mul(1, 255) == 255


@pytest.mark.parametrize("m", [4, 8, 16])
def test_table_mul_matches_carryless_route(m):
    gf = GF2m(m)
    rng = np.random.default_rng(11)
    a = rng.integers(0, gf.q, 5000, dtype=gf.dtype)
    b = rng.integers(0, gf.q, 5000, dtype=gf.dtype)
    assert np.array_equal(gf.mul(a, b), gf.mul_carryless(a, b))


@pytest.mark.parametrize("m", [4, 8, 16])
def test_mul_by_zero_either_side_matches_carryless(m):
    # a zero operand takes log 2(q - 1) into the zero region of exp
    gf = GF2m(m)
    a = np.arange(gf.q, dtype=gf.dtype)
    zero = np.zeros_like(a)
    for x, y in ((a, zero), (zero, a)):
        got = gf.mul(x, y)
        assert got.dtype == gf.dtype
        assert np.array_equal(got, gf.mul_carryless(x, y))
        assert not got.any()
    assert gf.mul(0, 0) == 0


@pytest.mark.parametrize("m", [4, 8, 16])
def test_mul_at_largest_logs_matches_carryless(m):
    gf = GF2m(m)
    top = int(gf._exp[gf.q - 2])
    assert gf._log[top] == gf.q - 2
    assert gf.mul(top, top) == gf.mul_carryless(top, top)
    assert gf.mul(top, gf.inv(top)) == 1
    for other in (0, 1, top):
        assert gf.mul(top, other) == gf.mul_carryless(top, other)
