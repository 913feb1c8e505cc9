"""Rank-only random linear coding over GF(2^m).

A receiver of a coded block completes when the coefficient vectors it
has collected reach full rank; payloads play no part in when that
happens, so none is coded here.  `Span` eliminates coefficient vectors
one at a time into reduced row-echelon form.  `absorb_batch` runs the
same elimination for many spans at once, one vector each; it is the
simulator's receivers' path, and `Span` is its reference.
"""

from __future__ import annotations

import numpy as np

from .gf import GF2m


class DimensionError(ValueError):
    """Vector length does not match the span."""


class Span:
    """Span of received coefficient vectors, in reduced row-echelon form.

    `rank` equals the row rank of the absorbed vectors at all times.
    """

    def __init__(self, field: GF2m, n_coef: int):
        self.field = field
        self.n_coef = n_coef
        self._rows = np.zeros((n_coef, n_coef), dtype=field.dtype)
        self._pivots = np.full(n_coef, -1, dtype=np.int64)
        self.rank = 0

    @property
    def is_complete(self) -> bool:
        return self.rank == self.n_coef

    @property
    def pivot_columns(self) -> np.ndarray:
        return self._pivots[: self.rank].copy()

    def absorb(self, row) -> bool:
        """Eliminate a coefficient vector into the span.

        Returns True iff it was innovative (rank increased by one).
        """
        field = self.field
        row = np.asarray(row, dtype=field.dtype)
        if row.shape != (self.n_coef,):
            raise DimensionError(
                f"vector shape {row.shape} does not match span length {self.n_coef}"
            )
        rank = self.rank
        if rank:
            # stored rows are in reduced echelon form: eliminating one row
            # leaves the other pivot entries alone, so every factor can be
            # read from the row as received
            f = row[self._pivots[:rank]][:, None]
            row = row ^ np.bitwise_xor.reduce(field.mul(f, self._rows[:rank]), axis=0)
        nonzero = np.flatnonzero(row)
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
