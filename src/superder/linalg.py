"""Exact linear algebra over the rationals for label-indexed sparse matrices.

One elimination routine serves kernels, ranks and span membership: a sparse,
fraction-free Gauss-Jordan elimination over primitive integer rows.  A row is
a dict from column index to a nonzero int, scaled so that its entries have no
common factor; a row operation ``p*a - q*b`` touches only the union of the two
supports and is divided by its gcd again.  The matrices met here are graded
by degree and nearly empty, so the cost follows the nonzero entries rather
than the rows times columns.  The entries are read once into primitive
integer rows, and the forward pass takes them shortest first, so long rows
are reduced against sparse pivots instead of filling in through each other.
Pivots become units only at the end, when the reduced rows are reported as
``Fraction`` values; the reduced row echelon form of a row space is unique,
so the canonical output does not depend on the order of the eliminations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Tuple

IntRow = Dict[int, int]


@dataclass
class LabeledMatrix:
    """A sparse rational matrix whose rows and columns carry opaque labels.

    ``entries`` maps ``(row_label, col_label)`` to a nonzero Fraction.  The
    label tuples fix the row and column order; rows are typically discovered
    dynamically by the caller and sorted before construction.
    """

    row_labels: Tuple[Hashable, ...]
    col_labels: Tuple[Hashable, ...]
    entries: Dict[Tuple[Hashable, Hashable], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        rows, cols = set(self.row_labels), set(self.col_labels)
        if len(rows) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(cols) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        stray = next(((r, c) for r, c in self.entries if r not in rows or c not in cols), None)
        if stray is not None:
            raise ValueError("entry %r outside the declared labels" % (stray,))
        if not all(self.entries.values()):
            raise ValueError("stored entries must be nonzero")

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))


def _primitive(row: Dict[int, Fraction]) -> IntRow:
    """Scale a nonzero sparse rational row to a primitive integer row."""
    den = math.lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = math.gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


def _int_rows(m: LabeledMatrix) -> List[IntRow]:
    """The nonzero rows of m as primitive integer rows over column indices,
    gathered in one pass over the entries."""
    col_index = {c: j for j, c in enumerate(m.col_labels)}
    rows: Dict[Hashable, Dict[int, Fraction]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[col_index[c]] = v
    return [_primitive(row) for row in rows.values()]


def _eliminate(a: IntRow, b: IntRow, col: int) -> IntRow:
    """``p*a - q*b`` with the entry in ``col`` cancelled, divided by its gcd."""
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
    """Forward pass: primitive integer echelon rows keyed by pivot column.

    Rows are taken shortest first, so the long ones are reduced against
    sparse pivots rather than chained through each other.
    """
    pivots: Dict[int, IntRow] = {}
    for work in sorted(rows, key=len):
        while work:
            col = min(work)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = work
                break
            work = _eliminate(work, prow, col)
    return pivots


def _reduced_echelon(rows: Iterable[IntRow]) -> Dict[int, IntRow]:
    """Reduced row echelon form as primitive integer rows, keyed by pivot
    column in ascending order: each row is zero at every other pivot."""
    pivots = _echelon(rows)
    order = sorted(pivots)
    for col in reversed(order):
        # Rows below are already reduced, so clearing one pivot column of
        # this row brings in entries at free columns only.
        row = pivots[col]
        for j in [j for j in row if j > col and j in pivots]:
            row = _eliminate(row, pivots[j], j)
        pivots[col] = row
    return {col: pivots[col] for col in order}


def rank(m: LabeledMatrix) -> int:
    """Exact rank of a labeled matrix."""
    return len(_echelon(_int_rows(m)))


def kernel_basis(m: LabeledMatrix) -> Tuple[Dict[Hashable, Fraction], ...]:
    """Canonical basis of the right kernel, as sparse coefficient vectors.

    Each vector maps column labels to nonzero Fractions.  The basis is the
    reduced echelon basis of the kernel subspace over the column order: every
    vector has a unit pivot coefficient and zeros above and below the pivots
    of the other vectors, which makes the output unique and deterministic.
    Exactness contract: ``m @ v == 0`` holds with no tolerance.
    """
    cols = m.col_labels
    reduced = _reduced_echelon(_int_rows(m))
    # Free column f gives e_f minus row[f]/row[pivot] * e_pivot over the
    # reduced rows.
    vectors = {f: {f: Fraction(1)} for f in range(len(cols)) if f not in reduced}
    for col, row in reduced.items():
        for j, v in row.items():
            if j != col:
                vectors[j][col] = Fraction(-v, row[col])
    return tuple({cols[j]: Fraction(row[j], row[col]) for j in sorted(row)}
                 for col, row in _reduced_echelon(map(_primitive, vectors.values())).items())
