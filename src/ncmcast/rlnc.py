"""Random linear coding of packet generations over GF(2^m).

A generation is a block of source packets coded together.  The sender
emits random linear combinations; a receiver eliminates them into reduced
row-echelon form and can reconstruct the sources exactly once it has
collected a full-rank set.  `Span` is that elimination on its own, and
`Generation` feeds it coefficients and payload as one row.
`absorb_batch` runs the same elimination for many rank-only spans at
once, one vector each; it is the simulator's receivers' path, and
`Span` is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF2m


class DimensionError(ValueError):
    """Packet shape does not match the generation."""


@dataclass
class CodedPacket:
    """A coded packet: combination coefficients plus the combined payload."""

    coefficients: np.ndarray
    payload: np.ndarray


class Span:
    """Span of received rows, kept in reduced row-echelon form.

    Pivots are taken from the first `n_coef` columns only, so a row of
    `width` symbols is a coefficient vector with anything appended that
    must be eliminated alongside it.  `rank` equals the row rank of the
    absorbed coefficient vectors at all times.
    """

    def __init__(self, field: GF2m, n_coef: int, width: int | None = None):
        width = n_coef if width is None else width
        self.field = field
        self.n_coef = n_coef
        self._rows = np.zeros((n_coef, width), dtype=field.dtype)
        self._pivots = np.full(n_coef, -1, dtype=np.int64)
        self.rank = 0

    @property
    def is_complete(self) -> bool:
        return self.rank == self.n_coef

    @property
    def pivot_columns(self) -> np.ndarray:
        return self._pivots[: self.rank].copy()

    def absorb(self, row) -> bool:
        """Eliminate a row into the span.

        Returns True iff its coefficients were innovative (rank increased
        by one).
        """
        field = self.field
        row = np.asarray(row, dtype=field.dtype)
        if row.shape != self._rows.shape[1:]:
            raise DimensionError(
                f"row length {row.shape} does not match span width "
                f"{self._rows.shape[1]}"
            )
        rank = self.rank
        if rank:
            # stored rows are in reduced echelon form: eliminating one row
            # leaves the other pivot entries alone, so every factor can be
            # read from the row as received
            f = row[self._pivots[:rank]][:, None]
            row = row ^ np.bitwise_xor.reduce(field.mul(f, self._rows[:rank]), axis=0)
        nonzero = np.flatnonzero(row[: self.n_coef])
        if nonzero.size == 0:
            return False
        piv = int(nonzero[0])
        row = field.mul(field.inv(row[piv]), row)
        if rank:
            f = self._rows[:rank, piv].copy()
            self._rows[:rank] ^= field.mul(f[:, None], row[None, :])
        self._rows[rank] = row
        self._pivots[rank] = piv
        self.rank += 1
        return True


class Generation(Span):
    """Coding state for one block of source packets.

    Holds the source payloads (sender side) and the accumulated
    elimination rows (receiver side), each coefficient vector followed by
    its payload.  `rank` equals the row rank of the absorbed coefficient
    matrix at all times.
    """

    def __init__(self, field: GF2m, source_payloads):
        sources = np.asarray(source_payloads, dtype=field.dtype)
        if sources.ndim != 2 or sources.shape[0] < 1:
            raise ValueError("source_payloads must be a nonempty 2-D array")
        if np.any(sources >= field.q):
            raise ValueError("source symbols exceed the field order")
        self.size = sources.shape[0]
        super().__init__(field, self.size, self.size + sources.shape[1])
        self.source_payloads = sources
        self._coef = self._rows[:, : self.size]
        self._pay = self._rows[:, self.size:]

    @classmethod
    def random(cls, field: GF2m, size: int, n_payload_symbols: int,
               rng: np.random.Generator) -> "Generation":
        """Generation with uniformly random source payloads."""
        return cls(field, field.random_symbols(rng, (size, n_payload_symbols)))

    @property
    def coefficient_rows(self) -> np.ndarray:
        """Copy of the absorbed coefficient rows (reduced echelon form)."""
        return self._coef[: self.rank].copy()

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
        coef = np.asarray(packet.coefficients, dtype=self.field.dtype)
        if coef.shape != (self.size,):
            raise DimensionError(
                f"coefficient length {coef.shape} does not match "
                f"generation size {self.size}"
            )
        pay = np.asarray(packet.payload, dtype=self.field.dtype)
        if pay.shape != (self._pay.shape[1],):
            raise DimensionError(
                f"payload length {pay.shape} does not match generation "
                f"payload width {self._pay.shape[1]}"
            )
        return super().absorb(np.concatenate((coef, pay)))

    def decode(self):
        """Recovered source payloads, or None while rank < size."""
        if self.rank < self.size:
            return None
        order = np.argsort(self._pivots[: self.size])
        return self._pay[order].copy()


def absorb_batch(field: GF2m, rows: np.ndarray, lanes: np.ndarray,
                 vectors: np.ndarray) -> np.ndarray:
    """Absorb `vectors[j]` into span `lanes[j]` of a batch, every j at once.

    `rows` holds spans over n coefficients, shape (spans, n, n), in
    reduced echelon form indexed by pivot: row p holds the vector whose
    pivot is column p, or zeros if there is none.  `lanes` is an index
    array into the first axis that names each span at most once;
    `vectors` is (lanes, n).  `rows` is updated in place, step for step as
    `Span.absorb` would; returns for each vector whether it was
    innovative (its span's rank increased by one).
    """
    r = rows[lanes]
    # every factor is read from the vector as received, as in Span.absorb
    v = vectors ^ np.bitwise_xor.reduce(field.mul(vectors[:, :, None], r), axis=1)
    innovative = v.any(axis=1)
    if innovative.any():
        r, v = r[innovative], v[innovative]
        at = np.arange(v.shape[0])
        piv = np.argmax(v != 0, axis=1)
        v = field.mul(field.inv(v[at, piv])[:, None], v)
        r ^= field.mul(r[at, :, piv][:, :, None], v[:, None, :])
        r[at, piv] = v
        rows[lanes[innovative]] = r
    return innovative
