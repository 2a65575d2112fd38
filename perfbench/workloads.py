"""Seeded job streams for the three benchmark workloads.

A job is one ``superder`` CLI invocation (its argv without the program
name) plus what the correctness gate needs to judge its output.  Jobs come
in rounds: every round of a workload has the same fixed template of job
shapes (family, window, term count, oracle kind), and the seed only fills
in the contents (indices, coefficients, kinds, oracle seeds, job order,
output mode).  A run always measures whole rounds, so the mix of cheap and
expensive jobs is identical in every run and from seed to seed, while the
inputs themselves differ.

The generators know nothing of the program: targets and derivations are
written as plain strings of the documented surface grammar, so the program
receives only generated argv lists.  This module imports only the standard
library, because the benchmark times its import as part of set-up.
"""

import random
from fractions import Fraction

WORKLOADS = ("sweep", "annihilate", "globalize")

FAMILY_KINDS = {
    "vir": ("L",),
    "svir0": ("L", "G"),
    "svir12": ("L", "G"),
    "sw22": ("L", "G", "I", "Q"),
}
CENTRAL_COUNT = {"vir": 1, "svir0": 1, "svir12": 1, "sw22": 2}

LEMMA_NAMES = ("lemma3.3", "lemma4.4i", "lemma4.4ii", "lemma4.7",
               "lemma4.1-derivation")
ADVERSARIAL_KINDS = ("coefficient_square", "shift_map", "pairwise_inconsistent")

# sweep: one job per (family, bound) each round, fifteen sizes spread on a
# log scale from about 7 ms to about 280 ms.  With an odd number of sizes
# the median of whole rounds falls in the middle of the eighth-largest
# size's samples, and the 90th percentile in the middle of the two largest
# (sw22 at 2 and svir0 at 4, about the same size), never on the gap between
# two sizes, where it would read the slowest sample of one size or the
# fastest of the next.
SWEEP_TEMPLATE = tuple((family, Fraction(bound)) for family, bound in (
    ("svir12", 1), ("svir0", 1), ("vir", 3), ("svir12", 2), ("svir0", 2),
    ("sw22", 1), ("vir", 5), ("svir12", 3), ("svir0", 3), ("vir", 7),
    ("svir12", "7/2"), ("vir", 8), ("svir12", 4), ("sw22", 2), ("svir0", 4),
))

# annihilate: one homogeneous and one mixed target per (family, window)
# slot.  sw22 at window 32 takes two slots, so that the 90th percentile
# falls among those largest eliminations (whose sizes vary with the target)
# rather than on the gap between them and the next smaller jobs.
# (homogeneous terms, mixed terms) per family.
ANNIHILATE_SLOTS = tuple((f, w) for f in ("vir", "svir0", "svir12", "sw22")
                         for w in (8, 16, 32)) + (("sw22", 32),)
ANNIHILATE_TERMS = {"vir": (1, 2), "svir0": (2, 3), "svir12": (1, 2),
                    "sw22": (3, 3)}
TARGET_DEGREE = 3

# globalize: per anchored family, two honest derivations of each size from
# one to four terms, and each adversarial kind once.
GLOBALIZE_FAMILIES = ("svir0", "svir12", "sw22")
HONEST_TERM_COUNTS = (1, 1, 2, 2, 3, 3, 4, 4)
GENERATOR_BOUND = 5
MASK_BOUND = 4
TEST_BOUND = 3

# Coefficient magnitudes of annihilator targets: n/d for n <= 9, d <= 4.
_MAGNITUDES = tuple(sorted({Fraction(n, d) for n in range(1, 10) for d in range(1, 5)}))
_GENERATOR_COEFFS = (Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2),
                     Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


class Job:
    """One CLI invocation and the facts the correctness gate checks."""

    __slots__ = ("argv", "expect_rc", "tag", "info")

    def __init__(self, argv, expect_rc, tag, info):
        self.argv = argv
        self.expect_rc = expect_rc
        self.tag = tag
        self.info = info


def _window_indices(family, kind, bound):
    """Indices of one tower inside |index| <= bound."""
    if family == "svir12" and kind == "G":
        top = int(2 * bound)
        return [Fraction(m, 2) for m in range(-top, top + 1) if m % 2]
    top = int(bound)
    return [Fraction(k) for k in range(-top, top + 1)]


def _basis_size(family, bound):
    """Number of basis vectors (centrals included) in a window."""
    return (sum(len(_window_indices(family, k, bound)) for k in FAMILY_KINDS[family])
            + CENTRAL_COUNT[family])


def _fmt_q(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _format_terms(terms):
    """Surface string of (kind, index, coeff) terms, in the given order."""
    parts = []
    for i, (kind, index, coeff) in enumerate(terms):
        mag = abs(coeff)
        core = "%s[%s]" % (kind, _fmt_q(index))
        if mag != 1:
            core = "%s*%s" % (_fmt_q(mag), core)
        if i == 0:
            parts.append(("-" if coeff < 0 else "") + core)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + core)
    return " ".join(parts)


def _coeff(rng):
    mag = rng.choice(_MAGNITUDES)
    return mag if rng.random() < 0.5 else -mag


def _degree(rng, half):
    """A degree |d| <= TARGET_DEGREE, half-odd when ``half`` is set."""
    if half:
        return Fraction(rng.choice([m for m in range(-2 * TARGET_DEGREE, 2 * TARGET_DEGREE + 1)
                                    if m % 2]), 2)
    return Fraction(rng.randint(-TARGET_DEGREE, TARGET_DEGREE))


def _homogeneous_target(rng, family, nterms):
    """Terms of one degree: every bracket with a generator lands in one degree."""
    if family == "svir12":
        kind = rng.choice(("L", "G"))
        kinds = [kind]
        degree = _degree(rng, half=(kind == "G"))
    else:
        kinds = rng.sample(FAMILY_KINDS[family], nterms)
        degree = _degree(rng, half=False)
    return [(k, degree, _coeff(rng)) for k in kinds]


def _mixed_target(rng, family, nterms):
    """Terms spread over at least two distinct degrees."""
    while True:
        terms = []
        seen = set()
        while len(terms) < nterms:
            kind = rng.choice(FAMILY_KINDS[family])
            degree = _degree(rng, half=(family == "svir12" and kind == "G"))
            if (kind, degree) not in seen:
                seen.add((kind, degree))
                terms.append((kind, degree, _coeff(rng)))
        if len({d for _, d, _ in terms}) > 1:
            return terms


def _target_key(family, window, terms):
    return (family, window, tuple(sorted((k, d, c) for k, d, c in terms)))


def _sweep_round(rng):
    jobs = []
    for family, bound in SWEEP_TEMPLATE:
        argv = ["jacobi", "--algebra", family, "--bound", str(bound)]
        if rng.random() < 0.5:
            argv.append("--json")
        jobs.append(Job(argv, 0, "jacobi", {"family": family, "bound": bound,
                                            "triples": _basis_size(family, bound) ** 3}))
    rng.shuffle(jobs)
    return jobs


def _annihilate_round(rng, r, seen):
    jobs = []
    for family, window in ANNIHILATE_SLOTS:
        n_homog, n_mixed = ANNIHILATE_TERMS[family]
        for tag, make, n in (("homogeneous", _homogeneous_target, n_homog),
                             ("mixed", _mixed_target, n_mixed)):
            for _ in range(1000):
                terms = make(rng, family, n)
                # The first term carries a positive sign, so that the
                # target never looks like a command-line option.
                kind, degree, coeff = terms[0]
                terms[0] = (kind, degree, abs(coeff))
                key = _target_key(family, window, terms)
                if key not in seen:
                    break
            else:
                raise RuntimeError("no fresh %s target for %s" % (tag, family))
            seen.add(key)
            target = _format_terms(terms)
            argv = ["annihilate", "--algebra", family, "--json",
                    "--bound", str(window), target]
            jobs.append(Job(argv, 0, tag, {"family": family, "target": target,
                                           "bound": window}))
    if r == 0:
        for name in LEMMA_NAMES:
            argv = ["lemma", name] + (["--json"] if rng.random() < 0.5 else [])
            jobs.append(Job(argv, 0, "lemma", {"name": name}))
    rng.shuffle(jobs)
    return jobs


def _honest_derivation(rng, family, nterms):
    """A derivation string shaped like the acceptance suite's generators."""
    pool = [(k, i) for k in FAMILY_KINDS[family]
            for i in _window_indices(family, k, GENERATOR_BOUND)]
    chosen = rng.sample(pool, nterms)
    text = "ad(%s)" % _format_terms(
        [(k, i, rng.choice(_GENERATOR_COEFFS)) for k, i in chosen])
    lam = Fraction(rng.randint(-3, 3)) if family == "sw22" else Fraction(0)
    if lam:
        text += " %s %s*D" % ("+" if lam > 0 else "-", _fmt_q(abs(lam)))
    return text, lam


def _globalize_round(rng):
    jobs = []
    for family in GLOBALIZE_FAMILIES:
        common = ["--mask-bound", str(MASK_BOUND), "--bound", str(TEST_BOUND)]
        for nterms in HONEST_TERM_COUNTS:
            text, lam = _honest_derivation(rng, family, nterms)
            argv = ["globalize", "--algebra", family, "--oracle", "honest:" + text,
                    "--seed", str(rng.randrange(10 ** 6))] + common
            jobs.append(Job(argv, 0, "honest",
                            {"family": family, "derivation": text,
                             "lambda": _fmt_q(lam)}))
        for kind in ADVERSARIAL_KINDS:
            argv = ["globalize", "--algebra", family, "--oracle",
                    "adversarial:" + kind, "--seed", str(rng.randrange(10 ** 6))] + common
            jobs.append(Job(argv, 1, "adversarial", {"family": family, "kind": kind}))
    rng.shuffle(jobs)
    return jobs


def rounds(workload, seed):
    """Endless iterator over the rounds (lists of Jobs) of one workload."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    seen = set()
    r = 0
    while True:
        rng = random.Random("%s:%d:%d" % (workload, seed, r))
        if workload == "sweep":
            yield _sweep_round(rng)
        elif workload == "annihilate":
            yield _annihilate_round(rng, r, seen)
        else:
            yield _globalize_round(rng)
        r += 1


def jobs(workload, seed, count):
    """The first ``count`` jobs of a workload's stream, in order."""
    out = []
    for batch in rounds(workload, seed):
        if len(out) >= count:
            break
        out.extend(batch)
    return out[:count]
