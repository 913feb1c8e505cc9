"""Random linear coding of packet generations over GF(2^m).

A generation is a block of source packets coded together.  The sender
emits random linear combinations; a receiver eliminates them into reduced
row-echelon form and can reconstruct the sources exactly once it has
collected a full-rank set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF2m


class DimensionError(ValueError):
    """Packet shape does not match the generation."""


def payload_symbols(bits_per_packet: int, order_exponent: int) -> int:
    """Number of field symbols holding a payload of the given bit size.

    The payload must align to whole symbols.
    """
    if bits_per_packet < 1:
        raise ValueError("bits_per_packet must be >= 1")
    if bits_per_packet % order_exponent != 0:
        raise ValueError(
            f"payload of {bits_per_packet} bits does not align to "
            f"{order_exponent}-bit symbols"
        )
    return bits_per_packet // order_exponent


@dataclass
class CodedPacket:
    """A coded packet: combination coefficients plus the combined payload."""

    coefficients: np.ndarray
    payload: np.ndarray


class Generation:
    """Coding state for one block of source packets.

    Holds the source payloads (sender side) and the accumulated
    elimination rows (receiver side).  `rank` equals the row rank of the
    absorbed coefficient matrix at all times.
    """

    def __init__(self, field: GF2m, source_payloads):
        sources = np.asarray(source_payloads, dtype=field.dtype)
        if sources.ndim != 2 or sources.shape[0] < 1:
            raise ValueError("source_payloads must be a nonempty 2-D array")
        if np.any(sources >= field.q):
            raise ValueError("source symbols exceed the field order")
        self.field = field
        self.size = sources.shape[0]
        self.source_payloads = sources
        n_sym = sources.shape[1]
        self._coef = np.zeros((self.size, self.size), dtype=field.dtype)
        self._pay = np.zeros((self.size, n_sym), dtype=field.dtype)
        self._pivots = np.full(self.size, -1, dtype=np.int64)
        self.rank = 0

    @classmethod
    def random(cls, field: GF2m, size: int, n_payload_symbols: int,
               rng: np.random.Generator) -> "Generation":
        """Generation with uniformly random source payloads."""
        return cls(field, field.random_symbols(rng, (size, n_payload_symbols)))

    @property
    def is_complete(self) -> bool:
        return self.rank == self.size

    @property
    def coefficient_rows(self) -> np.ndarray:
        """Copy of the absorbed coefficient rows (reduced echelon form)."""
        return self._coef[: self.rank].copy()

    @property
    def pivot_columns(self) -> np.ndarray:
        return self._pivots[: self.rank].copy()

    # -- sender side -----------------------------------------------------

    def combine(self, coefficients) -> CodedPacket:
        """Packet carrying the given linear combination of the sources."""
        coef = np.asarray(coefficients, dtype=self.field.dtype)
        if coef.shape != (self.size,):
            raise DimensionError(
                f"expected {self.size} coefficients, got shape {coef.shape}"
            )
        terms = self.field.mul(coef[:, None], self.source_payloads)
        payload = np.bitwise_xor.reduce(terms, axis=0)
        return CodedPacket(coef, payload)

    def encode(self, rng) -> CodedPacket:
        """Fresh packet with coefficients drawn uniformly i.i.d. from the field.

        The all-zero draw is permitted; it simply carries no information.
        """
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        return self.combine(self.field.random_symbols(rng, self.size))

    # -- receiver side ----------------------------------------------------

    def absorb(self, packet: CodedPacket) -> bool:
        """Eliminate a received packet into the decode state.

        Returns True iff the packet was innovative (rank increased by one).
        """
        field = self.field
        coef = np.asarray(packet.coefficients, dtype=field.dtype)
        if coef.shape != (self.size,):
            raise DimensionError(
                f"coefficient length {coef.shape} does not match "
                f"generation size {self.size}"
            )
        pay = np.asarray(packet.payload, dtype=field.dtype)
        if pay.shape != (self._pay.shape[1],):
            raise DimensionError(
                f"payload length {pay.shape} does not match generation "
                f"payload width {self._pay.shape[1]}"
            )
        c = coef.copy()
        p = pay.copy()
        if self.rank:
            # stored rows are in reduced echelon form: eliminating one row
            # leaves the other pivot entries alone, so every factor can be
            # read from the packet as received
            f = coef[self._pivots[: self.rank]][:, None]
            c ^= np.bitwise_xor.reduce(field.mul(f, self._coef[: self.rank]), axis=0)
            p ^= np.bitwise_xor.reduce(field.mul(f, self._pay[: self.rank]), axis=0)
        nonzero = np.nonzero(c)[0]
        if nonzero.size == 0:
            return False
        piv = int(nonzero[0])
        scale = field.inv(c[piv])
        c = field.mul(scale, c)
        p = field.mul(scale, p)
        if self.rank:
            f = self._coef[: self.rank, piv].copy()
            self._coef[: self.rank] ^= field.mul(f[:, None], c[None, :])
            self._pay[: self.rank] ^= field.mul(f[:, None], p[None, :])
        self._coef[self.rank] = c
        self._pay[self.rank] = p
        self._pivots[self.rank] = piv
        self.rank += 1
        return True

    def decode(self):
        """Recovered source payloads, or None while rank < size."""
        if self.rank < self.size:
            return None
        order = np.argsort(self._pivots[: self.size])
        return self._pay[order].copy()
