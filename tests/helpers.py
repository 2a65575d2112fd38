"""Independent re-derivations used to cross-check the package.

The package eliminates fraction-free over primitive integer rows; the dense
helpers here are a deliberately different textbook Gauss-Jordan over
Fractions with pivot division.  Agreement between the two on kernels, ranks,
and row spans is what the cross-check tests assert.

``reference_bracket`` transcribes the seven bracket formulas of the README,
one branch per formula, plus graded anti-symmetry for reversed orders; the
package evaluates the same constants from a table of three shapes.
"""

from fractions import Fraction

from superder import AlgebraFamily, BasisVector


def dense_rref(rows):
    """Reduced row echelon form: (nonzero reduced rows, pivot columns)."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    pr = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(pr, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        scale = work[pr][col]
        work[pr] = [v / scale for v in work[pr]]
        for r in range(len(work)):
            if r != pr and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(work):
            break
    return [row for row in work if any(row)], pivots


def dense_rank(rows):
    return len(dense_rref(rows)[0])


def dense_nullspace(rows, ncols):
    """Canonical reduced-echelon basis of {v : rows @ v = 0}, as dense rows."""
    if ncols == 0:
        return []
    reduced, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return dense_rref(vectors)[0]


def same_row_span(rows_a, rows_b):
    """Row-space equality, via uniqueness of the reduced echelon form."""
    return dense_rref(rows_a)[0] == dense_rref(rows_b)[0]


def labeled_dense(m):
    """Dense rows of a LabeledMatrix, reading only its raw entry data."""
    return [[m.entries.get((r, c), Fraction(0)) for c in m.col_labels]
            for r in m.row_labels]


def _listed_bracket(u, v):
    """[u, v] for the seven listed kind orders, as (kind, index, coeff)
    triples (index None for a central charge), or None for any other order."""
    primary = "C1" if u.family is AlgebraFamily.SW22 else "C"
    m, n = u.index, v.index
    delta = m + n == 0
    d = (m ** 3 - m) / 12 if delta else 0     # d(m), times the delta
    e = (m ** 2 - Fraction(1, 4)) / 3 if delta else 0   # e(r), times the delta
    pair = (u.kind, v.kind)
    if pair == ("L", "L"):
        return [("L", m + n, m - n), (primary, None, d)]
    if pair == ("L", "G"):
        return [("G", m + n, m / 2 - n)]
    if pair == ("G", "G"):
        return [("L", m + n, 2), (primary, None, e)]
    if pair == ("L", "I"):
        return [("I", m + n, m - n), ("C2", None, d)]
    if pair == ("L", "Q"):
        return [("Q", m + n, m / 2 - n)]
    if pair == ("G", "Q"):
        return [("I", m + n, 2), ("C2", None, e)]
    if pair == ("I", "G"):
        return [("Q", m + n, m / 2 - n)]
    return None


def reference_bracket(u, v):
    """[u, v] of two basis vectors as {basis vector: nonzero Fraction}."""
    sign = 1
    triples = _listed_bracket(u, v)
    if triples is None:
        triples = _listed_bracket(v, u) or []
        # [u, v] = -(-1)^{|u||v|} [v, u], with G and Q the odd kinds.
        both_odd = u.kind in ("G", "Q") and v.kind in ("G", "Q")
        sign = 1 if both_odd else -1
    out = {}
    for kind, index, coeff in triples:
        if coeff:
            w = BasisVector(u.family, kind, 0 if index is None else index)
            out[w] = Fraction(sign * coeff)
    return out
