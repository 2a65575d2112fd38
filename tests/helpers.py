"""Independent re-derivations used to cross-check the package, and the
fixtures the test modules share.

``F`` and the four family names abbreviate ``Fraction`` and
``AlgebraFamily``; ``bv`` and ``el`` build a basis vector and an element from
(kind, index, coefficient) triples; ``assert_canonical`` checks that an
element is what the checking ``Element`` constructor makes of its terms.

The package eliminates fraction-free over primitive integer rows; the dense
helpers here are a deliberately different textbook Gauss-Jordan over
Fractions with pivot division.  Agreement between the two on kernels, ranks,
and row spans is what the cross-check tests assert.

``reference_bracket`` transcribes the seven bracket formulas of the README,
one branch per formula, plus graded anti-symmetry for reversed orders; the
package evaluates the same constants from a table of three shapes.

``reference_antisymmetry_sweep`` and ``reference_jacobi_sweep`` are the
package's earlier sweeps: one dict of exact sums per pair or triple, filled
term by term from ``bracket_terms``; the package sweeps one int table read
from it.

``reference_leibniz_defect`` builds the parity components of a linear map
from a per-basis-vector table of same-parity and flipped images; the package
reads them from the map's values on the parity parts of its argument.

``matvec`` applies a ``LabeledMatrix`` to a vector from its raw entries; the
kernel tests check ``m @ v == 0`` with it.  ``assert_reduced_echelon`` checks
the shape of a kernel basis from the vectors alone.

``reference_pair_mask_basis`` solves the honest oracle's pair mask through
``Element``-valued images ``d.apply(y)`` gathered into a ``LabeledMatrix``;
the package builds the same matrix as integer rows straight from the table.
``reference_mask_basis`` adds the zero-argument and bound-0 cases, and
``pair_mask_basis`` turns the package's coordinate form of the mask into
the derivations it spans.  ``reference_combination`` sums c * d by
multiplying every coefficient, with no shortcut for 0 or 1.
``reference_pair_seed`` renders and hashes the whole seed text of one honest
query; the oracle keeps its first argument's part of the text between queries.

``reference_signed_terms`` renders terms through ``abs`` and
``str(Fraction)``; the package writes each coefficient from its ints.
"""

import hashlib
import math
from fractions import Fraction

from superder import (
    AlgebraFamily,
    BasisVector,
    Element,
    GradedWindow,
    SuperDerivation,
    annihilator_basis,
    bracket,
)
from superder import algebra
from superder.derivations import _combination
from superder.linalg import LabeledMatrix, kernel_basis
from superder.annihilator import _mask_base, _pair_mask
from strategies import row

F = Fraction
VIR = AlgebraFamily.VIR
SVIR0 = AlgebraFamily.SVIR0
SVIR12 = AlgebraFamily.SVIR12
SW22 = AlgebraFamily.SW22


def bv(family, kind, index=0):
    return BasisVector(family, kind, F(index))


def el(family, *terms):
    return Element(family, tuple((bv(family, k, i), F(c)) for k, i, c in terms))


def assert_canonical(value):
    """``value`` is exactly what the checking constructor makes of its terms:
    nonzero reduced Fraction coefficients, in canonical term order."""
    rebuilt = Element(value.family, list(value.terms.items()))
    assert value == rebuilt
    assert hash(value) == hash(rebuilt)
    assert list(value.terms) == list(rebuilt.terms)
    assert list(value.terms) == sorted(value.terms)
    for c in value.terms.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


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
    triples (index None for a central charge), or None for any other order.
    [L, L] and [G, G] reach the first central of the family's test row."""
    primary = row(u.family).centrals[0]
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
    dict of exact sums acc.  Reads ``bracket_terms`` from ``superder.algebra``
    at each call, so a test that rebinds it there is seen here too."""
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


def assert_reduced_echelon(vectors, col_labels):
    """Assert that kernel vectors, dicts over ``col_labels``, are in reduced
    echelon form: keys in column order, each leading entry 1 and the only
    nonzero entry of the basis in its column, leading columns ascending."""
    position = {c: i for i, c in enumerate(col_labels)}
    leads = []
    for vec in vectors:
        keys = [position[c] for c in vec]
        assert keys == sorted(keys)
        lead = col_labels[keys[0]]
        assert vec[lead] == 1
        assert all(lead not in other for other in vectors if other is not vec)
        leads.append(keys[0])
    assert leads == sorted(set(leads))


def reference_pair_mask_basis(x, y, window):
    """The derivations of the window that kill x and y, for nonzero x and y:
    x's annihilator basis, then the kernel of the matrix whose column j holds
    the image of y under basis member j, rows sorted."""
    base = annihilator_basis(x, window).basis
    entries = {(w, j): c for j, d in enumerate(base) for w, c in d.apply(y).terms.items()}
    rows = tuple(sorted({w for w, _ in entries}))
    m = LabeledMatrix(rows, tuple(range(len(base))), entries)
    zero = SuperDerivation.zero(x.family)
    return tuple(sum((c * base[j] for j, c in vec.items()), zero) for vec in kernel_basis(m))


def reference_mask_basis(x, y, window, family):
    """The window derivations that kill x and y, for any x and y: none at
    bound 0, every window direction when both are zero, and otherwise
    ``reference_pair_mask_basis`` with a nonzero first argument."""
    if window.bound == 0:
        return ()
    if x.is_zero and y.is_zero:
        return tuple(SuperDerivation.from_coords(family, {tag: 1})
                     for tag in window.directions(family))
    return reference_pair_mask_basis(*((y, x) if x.is_zero else (x, y)), window)


def pair_mask_basis(x, y, window, family):
    """The package's pair mask as derivations: each kernel vector of
    ``_pair_mask`` combined over its base."""
    base, vectors = _pair_mask(_mask_base(x, window), y)
    return tuple(_combination(family, ((c, base[j]) for j, c in vec.items()))
                 for vec in vectors)


def reference_combination(family, pairs):
    """The derivation sum of c * d, every term multiplied by its c."""
    pairs = tuple(pairs)
    inner = Element(family, [(b, c * x) for c, d in pairs for b, x in d.inner.terms.items()])
    return SuperDerivation(family, inner, sum(c * d.outer_lambda for c, d in pairs))


def reference_pair_seed(seed, family, x, y):
    """The seed of the honest oracle's mask draws at (x, y): the first eight
    bytes, big-endian, of the sha256 of "seed|family|x|y"."""
    text = "%d|%s|%s|%s" % (seed, family.value, reference_format_element(x),
                            reference_format_element(y))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def reference_signed_terms(terms):
    """``c*token`` terms joined by their signs, unit coefficients suppressed,
    each size written by ``str`` of its ``abs``."""
    parts = []
    for token, c in terms:
        size = abs(c)
        core = token if size == 1 else "%s*%s" % (size, token)
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + core)
    return " ".join(parts) or "0"


def reference_format_element(e):
    """Canonical text of an element, tokens spelled from kind and index."""
    return reference_signed_terms(
        (b.kind if b.is_central else "%s[%s]" % (b.kind, b.index), c)
        for b, c in e.terms.items())


def reference_format_derivation(d):
    """Canonical text of a superderivation, over ``reference_signed_terms``."""
    terms = [] if d.inner.is_zero else [("ad(%s)" % reference_format_element(d.inner), 1)]
    if d.outer_lambda:
        terms.append(("D", d.outer_lambda))
    return reference_signed_terms(terms)
