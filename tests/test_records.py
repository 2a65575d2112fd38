"""Value semantics of the package's record classes.

Nine classes hold fields and little else: ``GradedWindow``,
``DerivationSpace``, ``SuperDerivation``, ``RawLinearMap``,
``LabeledMatrix``, ``TwoLocalOracle``, ``TestSet``, ``CheckRecord`` and
``Certificate``.  Each is built positionally or by keyword, compares equal
only to its own type, prints as ``Name(field=value, ...)`` and survives
``copy.deepcopy`` and ``pickle``.  Seven are frozen: they hash their fields
and refuse assignment.  The pins below hold for any implementation of that
behaviour, generated or hand-written.
"""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from superder.algebra import BasisVector, Element, FamilyMismatchError
from superder.annihilator import DerivationSpace, GradedWindow
from superder.derivations import RawLinearMap, SuperDerivation
from superder.linalg import LabeledMatrix
from superder.two_local import (
    MAX_RANDOM_TESTS,
    Certificate,
    CheckRecord,
    OracleAnswer,
    TestSet,
    TwoLocalOracle,
)

from helpers import SW22, VIR

L1 = BasisVector(SW22, "L", 1)
X = Element(SW22, {BasisVector(SW22, "G", 1): 1, BasisVector(SW22, "I", 0): Fraction(1, 2)})
Y = Element(SW22, {L1: -2})
D = SuperDerivation(SW22, X, Fraction(1, 2))
W = GradedWindow(Fraction(5, 2))
CHECK = CheckRecord(X, X, Y, False)


def zero_query(x, y):
    zero = Element(x.family)
    return OracleAnswer(SuperDerivation(x.family, zero), zero, zero)


# (class, field values by name, frozen, repr of the instance)
RECORDS = [
    (GradedWindow, {"bound": Fraction(5, 2)}, True,
     "GradedWindow(bound=Fraction(5, 2))"),
    (DerivationSpace, {"basis": (D,), "window": W, "target": Y}, True,
     "DerivationSpace(basis=(SuperDerivation(family=<AlgebraFamily.SW22: 'sw22'>, "
     "inner=Element(sw22, 1*G[1] + 1/2*I[0]), outer_lambda=Fraction(1, 2)),), "
     "window=GradedWindow(bound=Fraction(5, 2)), target=Element(sw22, -2*L[1]))"),
    (SuperDerivation, {"family": SW22, "inner": X, "outer_lambda": Fraction(1, 2)}, True,
     "SuperDerivation(family=<AlgebraFamily.SW22: 'sw22'>, "
     "inner=Element(sw22, 1*G[1] + 1/2*I[0]), outer_lambda=Fraction(1, 2))"),
    (RawLinearMap, {"family": SW22, "table": {L1: Y}}, False,
     "RawLinearMap(family=<AlgebraFamily.SW22: 'sw22'>, "
     "table={BasisVector(sw22, L[1]): Element(sw22, -2*L[1])})"),
    (LabeledMatrix, {"row_labels": (0, 1), "col_labels": ("a",),
                     "entries": {(1, "a"): Fraction(-1, 3)}}, False,
     "LabeledMatrix(row_labels=(0, 1), col_labels=('a',), "
     "entries={(1, 'a'): Fraction(-1, 3)})"),
    (TwoLocalOracle, {"family": SW22, "query": zero_query}, True,
     "TwoLocalOracle(family=<AlgebraFamily.SW22: 'sw22'>, query=%r)" % (zero_query,)),
    (TestSet, {"basis_bound": W, "random_count": 3, "seed": 7}, True,
     "TestSet(basis_bound=GradedWindow(bound=Fraction(5, 2)), random_count=3, seed=7)"),
    (CheckRecord, {"element": X, "expected": X, "got": Y, "passed": False}, True,
     "CheckRecord(element=Element(sw22, 1*G[1] + 1/2*I[0]), "
     "expected=Element(sw22, 1*G[1] + 1/2*I[0]), got=Element(sw22, -2*L[1]), "
     "passed=False)"),
    (Certificate, {"family": SW22, "candidate": D, "mu": Fraction(1, 2),
                   "checks": (CHECK,), "verdict": "fail", "failure_witness": X}, True,
     "Certificate(family=<AlgebraFamily.SW22: 'sw22'>, "
     "candidate=SuperDerivation(family=<AlgebraFamily.SW22: 'sw22'>, "
     "inner=Element(sw22, 1*G[1] + 1/2*I[0]), outer_lambda=Fraction(1, 2)), "
     "mu=Fraction(1, 2), checks=(CheckRecord(element=Element(sw22, 1*G[1] + 1/2*I[0]), "
     "expected=Element(sw22, 1*G[1] + 1/2*I[0]), got=Element(sw22, -2*L[1]), "
     "passed=False),), verdict='fail', failure_witness=Element(sw22, 1*G[1] + 1/2*I[0]))"),
]

FROZEN = [r for r in RECORDS if r[2]]
# An oracle's query is a closure in practice, so oracles are not pickled.
PICKLED = [r for r in RECORDS if r[0] is not TwoLocalOracle]


def ids(records):
    return [r[0].__name__ for r in records]


@pytest.mark.parametrize("cls, fields, frozen, text", RECORDS, ids=ids(RECORDS))
class TestRecord:
    def test_keyword_construction(self, cls, fields, frozen, text):
        record = cls(**fields)
        assert record == cls(*fields.values())
        for name, value in fields.items():
            assert getattr(record, name) == value

    def test_equality_is_type_strict(self, cls, fields, frozen, text):
        record = cls(**fields)
        look_alike = SimpleNamespace(**fields)
        subclass = type("Sub" + cls.__name__, (cls,), {})
        assert record.__eq__(look_alike) is NotImplemented
        assert record.__eq__(tuple(fields.values())) is NotImplemented
        assert record.__eq__(subclass(**fields)) is NotImplemented
        assert record != look_alike
        assert record != tuple(fields.values())

    def test_repr(self, cls, fields, frozen, text):
        assert repr(cls(**fields)) == text

    def test_deepcopy(self, cls, fields, frozen, text):
        record = cls(**fields)
        again = copy.deepcopy(record)
        assert type(again) is cls
        assert again == record
        assert copy.copy(record) == record


@pytest.mark.parametrize("cls, fields, frozen, text", FROZEN, ids=ids(FROZEN))
class TestFrozenRecord:
    def test_equal_records_hash_equal(self, cls, fields, frozen, text):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(fields.values()))

    def test_fields_refuse_assignment_and_deletion(self, cls, fields, frozen, text):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == value


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls, fields, frozen, text", PICKLED, ids=ids(PICKLED))
def test_pickle_round_trip(cls, fields, frozen, text, protocol):
    """Every record whose fields pickle at a protocol pickles there to an
    equal record; ``Element`` has no state for protocols 0 and 1, so a
    record holding one refuses those protocols like its field does."""
    record = cls(**fields)
    try:
        pickle.dumps(tuple(fields.values()), protocol)
    except TypeError:
        with pytest.raises(TypeError):
            pickle.dumps(record, protocol)
        return
    again = pickle.loads(pickle.dumps(record, protocol))
    assert type(again) is cls
    assert again == record


def test_pickling_covers_every_record_from_protocol_2():
    for cls, fields, _, _ in PICKLED:
        assert pickle.loads(pickle.dumps(cls(**fields), 2)) == cls(**fields)


class TestDefaultsAndNormalisation:
    def test_outer_lambda_defaults_to_zero(self):
        d = SuperDerivation(SW22, X)
        assert d.outer_lambda == 0 and type(d.outer_lambda) is Fraction
        assert d == SuperDerivation(family=SW22, inner=X, outer_lambda=0)

    def test_empty_table_and_entries_by_default(self):
        assert RawLinearMap(SW22).table == {}
        assert RawLinearMap(SW22) == RawLinearMap(SW22, {})
        m = LabeledMatrix((0,), ("a",))
        assert m.entries == {}
        assert m.shape == (1, 1)

    def test_bound_becomes_a_fraction(self):
        assert type(GradedWindow(2).bound) is Fraction
        assert GradedWindow(2) == GradedWindow(Fraction(2))
        assert hash(GradedWindow(2)) == hash(GradedWindow(Fraction(4, 2)))

    def test_central_terms_stripped_and_lambda_exact(self):
        central = Element(SW22, {BasisVector(SW22, "C1"): 3, L1: 1})
        d = SuperDerivation(SW22, central, 2)
        assert d.inner == Element(SW22, {L1: 1})
        assert type(d.outer_lambda) is Fraction

    def test_raw_table_drops_zero_images_and_sorts(self):
        g = BasisVector(SW22, "G", 0)
        raw = RawLinearMap(SW22, {g: Y, L1: Y, BasisVector(SW22, "I", 1): Element(SW22)})
        assert list(raw.table) == [L1, g]

    def test_test_set_is_not_collected(self):
        assert TestSet.__test__ is False


LARGE = MAX_RANDOM_TESTS + 1
VIR_L1 = Element(VIR, {BasisVector(VIR, "L", 1): 1})


@pytest.mark.parametrize("make, error, message", [
    (lambda: GradedWindow(-1), ValueError, "window bound must be non-negative"),
    (lambda: GradedWindow(0.5), TypeError, "expected an int or a Fraction, got 0.5"),
    (lambda: SuperDerivation(SW22, VIR_L1), FamilyMismatchError,
     "inner element belongs to a different family"),
    (lambda: SuperDerivation(VIR, VIR_L1, 1), ValueError,
     "only the sw22 family has an outer derivation direction"),
    (lambda: RawLinearMap(VIR, {L1: Y}), FamilyMismatchError, "raw map table mixes families"),
    (lambda: LabeledMatrix((0, 0), ("a",)), ValueError, "duplicate row labels"),
    (lambda: LabeledMatrix((0,), ("a", "a")), ValueError, "duplicate column labels"),
    (lambda: LabeledMatrix((0,), ("a",), {(1, "a"): Fraction(1)}), ValueError,
     "entry (1, 'a') outside the declared labels"),
    (lambda: LabeledMatrix((0,), ("a",), {(0, "a"): Fraction(0)}), ValueError,
     "stored entries must be nonzero"),
    (lambda: TestSet(W, -1, 0), ValueError, "the random test count must be non-negative"),
    (lambda: TestSet(W, LARGE, 0), ValueError,
     "the random test count must be at most %d" % MAX_RANDOM_TESTS),
], ids=["window-negative", "window-float", "derivation-family", "derivation-outer",
        "raw-family", "matrix-rows", "matrix-cols", "matrix-stray", "matrix-zero",
        "tests-negative", "tests-large"])
def test_validation_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("args, kwargs", [
    ((X, X, Y), {}),
    ((X, X, Y, False, 1), {}),
    ((X, X, Y), {"passed": False, "extra": 1}),
    ((X,), {"element": X, "expected": X, "got": Y, "passed": False}),
], ids=["missing", "extra-positional", "unknown-keyword", "given-twice"])
def test_wrong_fields_are_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CheckRecord(*args, **kwargs)
