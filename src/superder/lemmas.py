"""Named verification suites and whole-family structure sweeps.

The sweeps exhaustively confirm super anti-symmetry and the graded Jacobi
identity over a bounded index range, and the Leibniz rule for the
distinguished outer derivation of sw22.  The first two count exactly, in int
arithmetic on ints 12 times the true structure constants.
``antisymmetry_sweep`` merges each window pair straight from
``bracket_terms``, and only ``jacobi_sweep`` builds the table: it evaluates
one triple per permutation orbit once ``_window_table`` has proved the table
its own graded mirror, and all n^3 triples otherwise.  The named suites
reproduce the annihilator facts that drive globalization: annihilators of
single odd generators, of even-plus-odd probe elements, and of mixed even
elements, each with an exact predicted basis or dimension, written in the
surface grammar of ``expr`` as the paper states them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .algebra import AlgebraFamily, Element, bracket_terms
from .annihilator import GradedWindow, annihilator_basis
from .derivations import leibniz_defect
from .expr import fraction_json, parse_derivation, parse_element


def _window_table(family: AlgebraFamily, bound):
    """The table of structure constants that ``jacobi_sweep`` reads.

    ``antisymmetry_sweep`` merges each window pair straight from
    ``bracket_terms``, and only ``jacobi_sweep`` builds the table.  Each
    unordered pair is read once, in both orders: every pair of window
    vectors, then each window vector against every vector x those brackets
    reach, numbered in the order reached after the window.  Returns ``(n,
    parities, rows, mirrored)``: the window size n, ``parities[i]`` of each
    vector i, ``rows[a][b]`` = [a, b] for a window vector a as ((id, c), ...)
    with c 12 times the true constant, and whether every pair read had [v,u]
    = -(-1)^{|u||v|} [u,v] term by term, each term of parity |u| xor |v|.  If
    not, ``rows[x][w]`` also holds [x,w] for each reached x and window vector
    w; vectors further out get no rows.
    """
    window = GradedWindow(bound).basis_vectors(family)
    n, ids = len(window), {vec: i for i, vec in enumerate(window)}
    parities, mirrored = [u.parity for u in window], True

    def read(u, pu, v, pv):
        nonlocal mirrored
        uv, row = bracket_terms(u, v), []
        for w, c in uv:
            i = ids.get(w)
            if i is None:
                i = ids[w] = len(parities)
                parities.append(w.parity)
            mirrored = mirrored and parities[i] == pu ^ pv
            row.append((i, c))
        mirrored = mirrored and bracket_terms(v, u) == (
            uv if pu and pv else tuple([(w, -c) for w, c in uv]))
        return tuple(row)

    rows = [[()] * n for _ in window]
    for a, u in enumerate(window):
        for b in range(a, n):
            pa, pb = parities[a], parities[b]
            uv = rows[a][b] = read(u, pa, window[b], pb)
            rows[b][a] = (uv if pa and pb else tuple([(i, -c) for i, c in uv])) \
                if mirrored else read(window[b], pb, u, pa)
    reached = tuple(enumerate(tuple(ids)[n:], n))
    for a, u in enumerate(window):
        rows[a] += [read(u, parities[a], x, parities[j]) for j, x in reached]
    if not mirrored:
        rows += [[read(x, parities[j], v, parities[b]) for b, v in enumerate(window)]
                 for j, x in reached]
    return n, parities, rows, mirrored


def antisymmetry_sweep(family: AlgebraFamily, bound) -> Tuple[int, int]:
    """Count violations of [u,v] = -(-1)^{|u||v|} [v,u] over basis pairs."""
    window = GradedWindow(bound).basis_vectors(family)
    violations = 0
    for u in window:
        for v in window:
            # [u,v] + (-1)^{|u||v|} [v,u] must vanish once merged.
            sign = -1 if (u.parity and v.parity) else 1
            acc = {}
            for s, terms in ((1, bracket_terms(u, v)), (sign, bracket_terms(v, u))):
                for w, c in terms:
                    acc[w] = acc.get(w, 0) + s * c
            violations += any(acc.values())
    return violations, len(window) ** 2


def jacobi_sweep(family: AlgebraFamily, bound) -> Tuple[int, int]:
    """Count violations of the graded Jacobi identity over basis triples.

    Uses the ad-Leibniz form [u,[v,w]] = [[u,v],w] + (-1)^{|u||v|} [v,[u,w]],
    accumulating J(u,v,w), the left side minus the right, into one int dict.
    A triple whose brackets [u,v], [v,w] and [u,w] are all zero holds
    trivially; it is counted and not evaluated.

    On a mirrored table (``_window_table``) -[x,w] is (-1)^{|x||w|} [w,x],
    with |x| = |u| xor |v| for x in [u,v], and the dicts obey J(v,u,w) =
    -(-1)^{|u||v|} J(u,v,w) and J(u,w,v) = -(-1)^{|v||w|} J(u,v,w) entry by
    entry.  Whether a triple violates is then constant on its orbit, so only
    u <= v <= w is evaluated and a violation counts once per distinct
    permutation (1, 3 or 6).  Any other table is swept over all n^3 triples,
    so the count is exact for every table.
    """
    n, parities, rows, by_orbit = _window_table(family, bound)
    violations = 0
    for u, ru in enumerate(rows[:n]):
        for v in range(u if by_orbit else 0, n):
            rv, uv, odd = rows[v], ru[v], parities[u] ^ parities[v]
            # The coefficient -(-1)^{|u||v|} of [v,[u,w]] on the left side.
            sign = 1 if (parities[u] and parities[v]) else -1
            for w in range(v if by_orbit else 0, n):
                vw, uw = rv[w], ru[w]
                if not (uv or vw or uw):
                    continue
                acc = {}
                for x, c in vw:
                    for y, d in ru[x]:
                        acc[y] = acc.get(y, 0) + c * d
                flip = 1 if by_orbit and not (odd and parities[w]) else -1
                for x, c in uv:
                    c *= flip
                    for y, d in rows[w][x] if by_orbit else rows[x][w]:
                        acc[y] = acc.get(y, 0) + c * d
                for x, c in uw:
                    c *= sign
                    for y, d in rv[x]:
                        acc[y] = acc.get(y, 0) + c * d
                if any(acc.values()):
                    violations += (1, 3, 6)[(u < v) + (v < w)] if by_orbit else 1
    return violations, n ** 3


def outer_derivation_defect_sweep(bound=3) -> Tuple[int, int]:
    """Leibniz defects of the sw22 outer derivation over basis pairs."""
    family = AlgebraFamily.SW22
    outer = parse_derivation("D", family)
    vecs = [Element.basis(u) for u in GradedWindow(bound).basis_vectors(family)]
    violations = sum(not leibniz_defect(outer, x, y).is_zero for x in vecs for y in vecs)
    return violations, len(vecs) ** 2


# -- named suites ---------------------------------------------------------------


def _basis_case(key: str, value: Fraction, algebra: AlgebraFamily, target: str,
                bound, expected: Tuple[str, ...], **extra) -> dict:
    """One case of a suite that predicts the exact annihilator basis of
    ``target`` in the window of the given bound."""
    space = annihilator_basis(parse_element(target, algebra), GradedWindow(bound))
    basis = tuple(parse_derivation(d, algebra) for d in expected)
    return {key: fraction_json(value), "dim": space.dimension,
            "pass": space.basis == basis, **extra}


def _odd_generator_annihilators() -> List[dict]:
    """Annihilator of one odd generator G_i is spanned by ad(L_{2i}) alone,
    in both super Virasoro sectors."""
    plans = (
        (AlgebraFamily.SVIR0, [Fraction(i) for i in range(-3, 4)]),
        (AlgebraFamily.SVIR12, [Fraction(m, 2) for m in range(-5, 6, 2)]),
    )
    return [_basis_case("i", i, family, "G[%s]" % i, 2 * abs(i) + 2,
                        ("ad(L[%s])" % (2 * i),), family=family.value)
            for family, indices in plans for i in indices]


def _sw22_odd_generator_annihilators() -> List[dict]:
    """In sw22 the annihilator of G_r gains ad(I_{2r}) and the outer direction."""
    return [_basis_case("r", r, AlgebraFamily.SW22, "G[%s]" % r, 2 * abs(r) + 2,
                        ("ad(L[%s])" % (2 * r), "ad(I[%s])" % (2 * r), "D"))
            for r in map(Fraction, range(-2, 3))]


def _even_probe_annihilators() -> List[dict]:
    """The annihilator of I_0 + Q_0 in a window of bound W has dimension
    4W + 4, contains ad(L_0) and ad(L_1 - 1/2 G_1), and meets the outer
    direction trivially."""
    family = AlgebraFamily.SW22
    target = parse_element("I[0] + Q[0]", family)
    members = [parse_derivation(d, family) for d in ("ad(L[0])", "ad(L[1] - 1/2*G[1])")]
    cases = []
    for w in (2, 3, 4):
        space = annihilator_basis(target, GradedWindow(w))
        ok = (space.dimension == 4 * w + 4
              and all(d in space.basis for d in members)
              and all(b.outer_lambda == 0 for b in space.basis))
        cases.append({"bound": w, "dim": space.dimension,
                      "expected_dim": 4 * w + 4, "pass": ok})
    return cases


def _mixed_element_annihilators() -> List[dict]:
    """For odd p, the annihilator of L_p + I_{2p} + Q_{2p} is spanned by
    ad of the element itself and ad(I_p)."""
    targets = [(p, "L[%s] + I[%s] + Q[%s]" % (p, 2 * p, 2 * p))
               for p in map(Fraction, (-3, -1, 1, 3))]
    return [_basis_case("p", p, AlgebraFamily.SW22, t, 3 * abs(p),
                        ("ad(%s)" % t, "ad(I[%s])" % p)) for p, t in targets]


def _outer_derivation_is_derivation() -> List[dict]:
    """The outer direction satisfies the graded Leibniz rule exhaustively."""
    violations, pairs = outer_derivation_defect_sweep(3)
    return [{"bound": 3, "pairs": pairs, "violations": violations,
             "pass": violations == 0}]


_LEMMA_RUNNERS = {
    "lemma3.3": _odd_generator_annihilators,
    "lemma4.4i": _sw22_odd_generator_annihilators,
    "lemma4.4ii": _even_probe_annihilators,
    "lemma4.7": _mixed_element_annihilators,
    "lemma4.1-derivation": _outer_derivation_is_derivation,
}

LEMMA_NAMES = tuple(_LEMMA_RUNNERS)


def run_lemma(name: str) -> dict:
    """Run one named suite and return its JSON-ready report."""
    if name not in _LEMMA_RUNNERS:
        raise ValueError("unknown suite %r (expected one of %s)"
                         % (name, ", ".join(LEMMA_NAMES)))
    cases = _LEMMA_RUNNERS[name]()
    return {"name": name, "cases": cases,
            "verdict": "pass" if all(c["pass"] for c in cases) else "fail"}
