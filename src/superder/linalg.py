"""Exact linear algebra over the rationals for label-indexed sparse matrices.

One elimination routine serves kernels, ranks and span membership: a sparse,
fraction-free Gauss-Jordan elimination over primitive integer rows.  A row is
a dict from column index to a nonzero int, scaled so that its entries have no
common factor; a row operation ``p*a - q*b`` touches only the union of the two
supports and is divided by its gcd again.  The matrices met here are graded
by degree and nearly empty, so the cost follows the nonzero entries rather
than the rows times columns.  Pivots become units only at the end, when the
reduced rows are reported as ``Fraction`` values; the reduced row echelon form
of a row space is unique, so the canonical output does not depend on the
order of the eliminations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

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
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        rows = set(self.row_labels)
        cols = set(self.col_labels)
        for (r, c), v in self.entries.items():
            if r not in rows or c not in cols:
                raise ValueError("entry (%r, %r) outside the declared labels" % (r, c))
            if v == 0:
                raise ValueError("stored entries must be nonzero")

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))


def _sparse_rows(m: LabeledMatrix) -> List[Dict[int, Fraction]]:
    """The nonzero rows of m, as ``{column index: value}`` dicts."""
    col_index = {c: j for j, c in enumerate(m.col_labels)}
    rows: Dict[Hashable, Dict[int, Fraction]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[col_index[c]] = v
    return list(rows.values())


def _primitive(row: Dict[int, Fraction]) -> IntRow:
    """Scale a nonzero sparse rational row to a primitive integer row."""
    den = math.lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = math.gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


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


def _echelon(rows: Iterable[Dict[int, Fraction]]) -> Dict[int, IntRow]:
    """Forward pass: primitive integer echelon rows keyed by pivot column."""
    pivots: Dict[int, IntRow] = {}
    for row in rows:
        work = _primitive(row) if row else {}
        while work:
            col = min(work)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = work
                break
            work = _eliminate(work, prow, col)
    return pivots


def _reduced_echelon(rows: Iterable[Dict[int, Fraction]]
                     ) -> List[Tuple[int, Dict[int, Fraction]]]:
    """Reduced row echelon form with unit pivots, as (pivot, row) in pivot order.

    Each reduced row lists its nonzero entries in ascending column order.
    """
    pivots = _echelon(rows)
    order = sorted(pivots)
    for col in reversed(order):
        # Rows below are already reduced, so clearing one pivot column of
        # this row brings in entries at free columns only.
        row = pivots[col]
        for j in [j for j in row if j > col and j in pivots]:
            row = _eliminate(row, pivots[j], j)
        pivots[col] = row
    out = []
    for col in order:
        row = pivots[col]
        p = row[col]
        out.append((col, {j: Fraction(row[j], p) for j in sorted(row)}))
    return out


def rows_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a dense list of rational rows."""
    return len(_echelon({j: x for j, x in enumerate(row) if x} for row in rows))


def rank(m: LabeledMatrix) -> int:
    """Exact rank of a labeled matrix."""
    return len(_echelon(_sparse_rows(m)))


def kernel_basis(m: LabeledMatrix) -> Tuple[Dict[Hashable, Fraction], ...]:
    """Canonical basis of the right kernel, as sparse coefficient vectors.

    Each vector maps column labels to nonzero Fractions.  The basis is the
    reduced echelon basis of the kernel subspace over the column order: every
    vector has a unit pivot coefficient and zeros above and below the pivots
    of the other vectors, which makes the output unique and deterministic.
    Exactness contract: ``m @ v == 0`` holds with no tolerance.
    """
    cols = m.col_labels
    reduced = _reduced_echelon(_sparse_rows(m))
    pivots = {col for col, _ in reduced}
    # Free column f gives e_f minus row[f] * e_pivot over the reduced rows.
    vectors: Dict[int, Dict[int, Fraction]] = {
        f: {f: Fraction(1)} for f in range(len(cols)) if f not in pivots}
    for col, row in reduced:
        for j, coef in row.items():
            if j != col:
                vectors[j][col] = -coef
    return tuple({cols[j]: val for j, val in row.items()}
                 for _, row in _reduced_echelon(vectors.values()))


def matvec(m: LabeledMatrix, v: Dict[Hashable, Fraction]) -> Dict[Hashable, Fraction]:
    """Apply the matrix to a coefficient vector over the column labels."""
    acc: Dict[Hashable, Fraction] = {}
    for (r, c), value in m.entries.items():
        coef = v.get(c)
        if coef:
            acc[r] = acc.get(r, Fraction(0)) + value * coef
    return {r: val for r, val in acc.items() if val != 0}
