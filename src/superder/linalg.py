"""Exact linear algebra over the rationals for label-indexed sparse matrices.

One elimination routine serves kernels and span membership: a sparse,
fraction-free Gauss-Jordan elimination over integer rows, dicts from column
index to nonzero int at any scale; a row operation ``p*a - q*b`` touches only
the union of the two supports and is divided by its gcd.  The matrices met
here are graded by degree and nearly empty, so the cost follows the nonzero
entries rather than the rows times columns.  The annihilator solve builds its
integer rows straight from the structure table; ``kernel_basis`` reads a
``LabeledMatrix``'s entries into them over one common denominator.
The forward pass takes rows shortest first, so long rows are reduced against
sparse pivots instead of filling in through each other.
Each row is pivoted on its *last* nonzero column, so after back substitution
it has entries only at its pivot and at free columns left of it.  The kernel
vector of a free column f then has its unit leading entry at f, every other
entry at a pivot beyond f, and zeros at the other free columns: these vectors
already are the kernel's reduced echelon basis, which is unique, so no
second elimination is needed and no elimination order can change the output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from .algebra import _Record

IntRow = Dict[int, int]


class LabeledMatrix(_Record):
    """A sparse rational matrix whose rows and columns carry opaque labels.

    ``entries`` maps ``(row_label, col_label)`` to a nonzero Fraction.  The
    label tuples fix the row and column order; rows are typically discovered
    dynamically by the caller and sorted before construction.
    """

    __slots__ = ("row_labels", "col_labels", "entries")

    def __init__(self, row_labels: tuple, col_labels: tuple, entries: Optional[dict] = None):
        entries = {} if entries is None else entries
        rows, cols = set(row_labels), set(col_labels)
        if len(rows) != len(row_labels):
            raise ValueError("duplicate row labels")
        if len(cols) != len(col_labels):
            raise ValueError("duplicate column labels")
        stray = next(((r, c) for r, c in entries if r not in rows or c not in cols), None)
        if stray is not None:
            raise ValueError("entry %r outside the declared labels" % (stray,))
        if not all(entries.values()):
            raise ValueError("stored entries must be nonzero")
        super().__init__(row_labels, col_labels, entries)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))


def _int_rows(m: LabeledMatrix) -> Iterable[IntRow]:
    """The nonzero rows of m as integer rows over column indices, all scaled
    by the lcm of the entries' denominators, gathered in one pass."""
    col_index = {c: j for j, c in enumerate(m.col_labels)}
    den = math.lcm(*(v.denominator for v in m.entries.values()))
    rows: Dict[Hashable, IntRow] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[col_index[c]] = v.numerator * (den // v.denominator)
    return rows.values()


def _eliminate(a: IntRow, b: IntRow, col: int) -> IntRow:
    """``p*a - q*b`` with the entry in ``col`` cancelled, divided by its gcd;
    against a one-entry row, just ``a`` without ``col``."""
    if len(b) == 1:
        out = a.copy()
        del out[col]
        return out
    p, q = b[col], a[col]
    g = math.gcd(p, q)
    p, q = p // g, q // g
    out = {j: p * v for j, v in a.items()}
    for j, v in b.items():
        w = out.get(j, 0) - q * v
        if w:
            out[j] = w
        else:
            del out[j]
    g = math.gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def _echelon(rows: Iterable[IntRow]) -> Dict[int, IntRow]:
    """Forward pass: integer echelon rows keyed by pivot column, each pivot
    the last nonzero column of its row, the rows taken shortest first."""
    pivots: Dict[int, IntRow] = {}
    for work in sorted(rows, key=len):
        while work:
            col = max(work)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = work
                break
            work = _eliminate(work, prow, col)
    return pivots


def _kernel(cols: Sequence[Hashable],
            rows: Iterable[IntRow]) -> Tuple[Dict[Hashable, Fraction], ...]:
    """``kernel_basis`` of integer rows over the indices of the column
    labels ``cols``, taken in any order and at any nonzero scale."""
    pivots = _echelon(rows)
    # Free column f gives e_f minus row[f]/row[pivot] * e_pivot over the
    # reduced rows.  Every such pivot lies beyond f, and the pivots are
    # visited in ascending order, so each vector's keys come in column order.
    vectors = {f: {cols[f]: Fraction(1)} for f in range(len(cols)) if f not in pivots}
    for col in sorted(pivots):
        # Back substitution: the rows of lower pivots are already reduced,
        # so clearing a pivot column of this row brings in free columns only.
        row = pivots[col]
        for j in [j for j in row if j < col and j in pivots]:
            row = _eliminate(row, pivots[j], j)
        pivots[col] = row
        for j, v in row.items():
            if j != col:
                vectors[j][cols[col]] = Fraction(-v, row[col])
    return tuple(vectors.values())


def kernel_basis(m: LabeledMatrix) -> Tuple[Dict[Hashable, Fraction], ...]:
    """Canonical basis of the right kernel, as sparse coefficient vectors.

    Each vector maps column labels to nonzero Fractions.  The basis is the
    reduced echelon basis of the kernel subspace over the column order: every
    vector has a unit pivot coefficient and zeros above and below the pivots
    of the other vectors, which makes the output unique and deterministic.
    Exactness contract: ``m @ v == 0`` holds with no tolerance.
    """
    return _kernel(m.col_labels, _int_rows(m))
