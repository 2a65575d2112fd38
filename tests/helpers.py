"""Independent re-derivations used to cross-check the package.

The package eliminates fraction-free over primitive integer rows; the dense
helpers here are a deliberately different textbook Gauss-Jordan over
Fractions with pivot division.  Agreement between the two on kernels, ranks,
and row spans is what the cross-check tests assert.

``reference_bracket`` transcribes the seven bracket formulas of the README,
one branch per formula, plus graded anti-symmetry for reversed orders; the
package evaluates the same constants from a table of three shapes.

``reference_antisymmetry_sweep`` and ``reference_jacobi_sweep`` are the
package's earlier sweeps: one Fraction dict per pair or triple, filled term
by term from ``bracket_terms``; the package sweeps a scaled int table.

``reference_leibniz_defect`` builds the parity components of a linear map
from a per-basis-vector table of same-parity and flipped images; the package
reads them from the map's values on the parity parts of its argument.

``matvec`` applies a ``LabeledMatrix`` to a vector from its raw entries; the
kernel tests check ``m @ v == 0`` with it.
"""

from fractions import Fraction

from superder import AlgebraFamily, BasisVector, Element, GradedWindow, bracket
from superder import algebra


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


def matvec(m, v):
    """A LabeledMatrix applied to a coefficient vector over its column labels,
    as a dict of nonzero entries over the row labels."""
    acc = {}
    for (r, c), value in m.entries.items():
        coef = v.get(c)
        if coef:
            acc[r] = acc.get(r, Fraction(0)) + value * coef
    return {r: val for r, val in acc.items() if val != 0}


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


def reference_leibniz_defect(d, x, y):
    """d([x, y]) minus the sum over parity components d_p of d and x_q of x
    of [d_p(x_q), y] + (-1)^{pq} [x_q, d_p(y)], for any map with ``apply``.

    Each basis vector u in the support of x or y is sent through d; the part
    of its image with u's own parity goes to the table of d_0, the flipped
    part to the table of d_1, and each d_p extends its table linearly.
    """
    family = x.family
    tables = ({}, {})
    for u in {**x.terms, **y.terms}:
        for w, c in d.apply(Element.basis(u)).terms.items():
            flipped = 0 if w.parity == u.parity else 1
            tables[flipped].setdefault(u, []).append((w, c))

    def component(p, z):
        return Element(family, [(w, a * c) for u, a in z.terms.items()
                                for w, c in tables[p].get(u, ())])

    total = d.apply(bracket(x, y))
    for p in (0, 1):
        dp_y = component(p, y)
        for q in (0, 1):
            xq = Element(family, [(u, a) for u, a in x.terms.items() if u.parity == q])
            sign = -1 if (p, q) == (1, 1) else 1
            total = total - bracket(component(p, xq), y) - sign * bracket(xq, dp_y)
    return total


def _accumulate(acc, xs, ys):
    """Add the bracket of two (basis vector, coefficient) sequences into the
    Fraction dict acc.  Reads ``bracket_terms`` from ``superder.algebra`` at
    each call, so a test that rebinds it there is seen here too."""
    for u, cu in xs:
        for v, cv in ys:
            for w, c in algebra.bracket_terms(u, v):
                acc[w] = acc.get(w, 0) + cu * cv * c
    return acc


def reference_antisymmetry_sweep(family, bound):
    """(violations, pairs) of [u,v] + (-1)^{|u||v|} [v,u] = 0 over the window."""
    vecs = GradedWindow(Fraction(bound)).basis_vectors(family)
    violations = 0
    for u in vecs:
        for v in vecs:
            sign = -1 if (u.parity and v.parity) else 1
            acc = _accumulate({}, ((u, 1),), ((v, 1),))
            _accumulate(acc, ((v, sign),), ((u, 1),))
            violations += any(acc.values())
    return violations, len(vecs) ** 2


def reference_jacobi_sweep(family, bound):
    """(violations, triples) of [u,[v,w]] = [[u,v],w] + (-1)^{|u||v|} [v,[u,w]]
    over the window."""
    vecs = GradedWindow(Fraction(bound)).basis_vectors(family)
    violations = 0
    for u in vecs:
        for v in vecs:
            v_signed = ((v, 1 if (u.parity and v.parity) else -1),)
            uv = algebra.bracket_terms(u, v)
            for w in vecs:
                acc = _accumulate({}, ((u, 1),), algebra.bracket_terms(v, w))
                _accumulate(acc, uv, ((w, -1),))
                _accumulate(acc, v_signed, algebra.bracket_terms(u, w))
                violations += any(acc.values())
    return violations, len(vecs) ** 3
