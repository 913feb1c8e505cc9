"""Arithmetic over GF(2^m) for m in {4, 8, 16}, vectorized with numpy.

Field elements are integers in [0, 2^m); bit k is the coefficient of x^k
in the polynomial basis.  Addition is XOR.  Multiplication reduces modulo
a fixed primitive polynomial per field size.  Fields up to GF(2^8)
multiply by one gather from a flat q x q product table (64 KiB at
GF(2^8)); GF(2^16) multiplies through log/antilog tables (1 MiB).  A
carryless shift-and-xor multiply is kept as the independent reference
the tables are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SUPPORTED_EXPONENTS = (4, 8, 16)

# Primitive polynomials, bit m set (x is a generator of the nonzero elements).
_PRIMITIVE_POLY = {
    4: 0x13,      # x^4 + x + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


@dataclass(frozen=True)
class FieldSpec:
    """Field size selector: order q = 2^order_exponent."""

    order_exponent: int

    def __post_init__(self):
        if self.order_exponent not in SUPPORTED_EXPONENTS:
            raise ValueError(
                f"order_exponent must be one of {SUPPORTED_EXPONENTS}, "
                f"got {self.order_exponent}"
            )

    @property
    def order(self) -> int:
        return 1 << self.order_exponent


class GF2m:
    """GF(2^m) arithmetic on scalars or numpy arrays of symbols."""

    def __init__(self, spec: FieldSpec | int):
        if isinstance(spec, int):
            spec = FieldSpec(spec)
        self.spec = spec
        self.m = spec.order_exponent
        self.q = spec.order
        self.poly = _PRIMITIVE_POLY[self.m]
        self.dtype = np.uint8 if self.m <= 8 else np.uint16
        self._build_tables()

    # -- setup ---------------------------------------------------------

    def _build_tables(self):
        # log[0] = 2(q - 1) and exp is zero from 2(q - 1) on, so a sum of
        # logs with any zero operand lands in the zero region: one gather
        # multiplies without masking zeros
        q = self.q
        exp = np.zeros(4 * (q - 1) + 1, dtype=self.dtype)
        log = np.full(q, 2 * (q - 1), dtype=np.int32)
        a = 1
        for k in range(q - 1):
            exp[k] = a
            log[a] = k
            a <<= 1  # multiply by x
            if a & q:
                a ^= self.poly
        if a != 1:
            raise ValueError(f"0x{self.poly:X} is not primitive for m={self.m}")
        exp[q - 1:2 * (q - 1)] = exp[: q - 1]
        self._exp = exp
        self._log = log
        # entry (a << m) | b is a * b
        self._prod = exp[log[:, None] + log].ravel() if self.m <= 8 else None

    # -- element ops ---------------------------------------------------

    def mul(self, a, b):
        """a * b, broadcasting over array arguments."""
        if self._prod is None:
            out = self._exp[self._log[a] + self._log[b]]
        else:
            out = self._prod[(np.asarray(a, np.uint16) << self.m) | b]
        return int(out) if out.ndim == 0 else out

    def mul_carryless(self, a, b):
        """Reference multiply: shift-and-xor with polynomial reduction."""
        a = np.asarray(a, self.dtype)
        b = np.asarray(b, self.dtype)
        out = self._clmul_reduce(a, b).astype(self.dtype)
        return int(out) if out.ndim == 0 else out

    def _clmul_reduce(self, a, b):
        a32 = a.astype(np.uint32)
        b32 = b.astype(np.uint32)
        acc = np.zeros(np.broadcast(a32, b32).shape, dtype=np.uint32)
        for k in range(self.m):
            acc ^= (a32 << k) * ((b32 >> k) & 1)
        for k in range(2 * self.m - 2, self.m - 1, -1):
            acc ^= np.uint32(self.poly << (k - self.m)) * ((acc >> k) & 1)
        return acc

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on zero input."""
        if np.count_nonzero(a) != np.size(a):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        out = self._exp[(self.q - 1) - self._log[a]]
        return int(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"GF2m(m={self.m}, q={self.q}, poly=0x{self.poly:X})"


@lru_cache(maxsize=None)
def _field_for_exponent(order_exponent: int) -> GF2m:
    return GF2m(FieldSpec(order_exponent))


def field_for(spec: FieldSpec | int) -> GF2m:
    """Shared field instance per size (table construction is done once)."""
    m = spec.order_exponent if isinstance(spec, FieldSpec) else int(spec)
    return _field_for_exponent(m)
