"""Kernel, rank, and canonical-form behaviour of the exact sparse solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder.algebra import AlgebraFamily
from superder.annihilator import GradedWindow, evaluation_matrix
from superder.expr import parse_element
from superder.linalg import LabeledMatrix, kernel_basis, rank

from helpers import dense_nullspace, dense_rank, labeled_dense, matvec

F = Fraction


def mat(rows, ncols=None):
    """Dense constructor with positional integer labels."""
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    entries = {(r, c): F(v) for r, row in enumerate(rows)
               for c, v in enumerate(row) if v}
    return LabeledMatrix(tuple(range(nrows)), tuple(range(ncols)), entries)


class TestValidation:
    def test_duplicate_row_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledMatrix((0, 0), (0,), {})

    def test_duplicate_column_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledMatrix((0,), ("a", "a"), {})

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            LabeledMatrix((0,), (0,), {(0, 0): F(0)})

    def test_entry_outside_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledMatrix((0,), (0,), {(1, 0): F(1)})

    def test_shape(self):
        assert mat([[1, 2], [3, 4], [5, 6]]).shape == (3, 2)


class TestKernelBasis:
    def test_identity_kernel_is_trivial(self):
        assert kernel_basis(mat([[1, 0], [0, 1]])) == ()

    def test_rank_one_matrix_canonical_kernel_line(self):
        m = mat([[1, 2], [2, 4]])
        vecs = kernel_basis(m)
        assert vecs == ({0: F(1), 1: F(-1, 2)},)
        assert matvec(m, vecs[0]) == {}

    def test_zero_matrix_kernel_is_everything(self):
        m = LabeledMatrix((0, 1), ("a", "b", "c"), {})
        assert kernel_basis(m) == ({"a": F(1)}, {"b": F(1)}, {"c": F(1)})

    def test_no_columns_gives_empty_kernel(self):
        assert kernel_basis(LabeledMatrix((0,), (), {})) == ()

    def test_no_rows_gives_full_kernel(self):
        m = LabeledMatrix((), ("x", "y"), {})
        assert kernel_basis(m) == ({"x": F(1)}, {"y": F(1)})

    def test_kernel_vectors_are_reduced_echelon(self):
        vecs = kernel_basis(mat([[1, 1, 1, 1]]))
        assert vecs == ({0: F(1), 3: F(-1)},
                        {1: F(1), 3: F(-1)},
                        {2: F(1), 3: F(-1)})

    def test_fractional_entries(self):
        m = mat([[F(1, 2), F(1, 3)]])
        (vec,) = kernel_basis(m)
        assert vec == {0: F(1), 1: F(-3, 2)}
        assert matvec(m, vec) == {}


class TestRank:
    def test_identity(self):
        assert rank(mat([[1, 0], [0, 1]])) == 2

    def test_rank_deficient(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_empty_matrix(self):
        assert rank(LabeledMatrix((), (), {})) == 0

    def test_rank_plus_nullity(self):
        m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert rank(m) + len(kernel_basis(m)) == 3


def assert_matches_dense(m):
    """Kernel, its dict key order, and rank agree with the dense helpers."""
    ncols = len(m.col_labels)
    expected = [{m.col_labels[j]: v for j, v in enumerate(row) if v}
                for row in dense_nullspace(labeled_dense(m), ncols)]
    got = kernel_basis(m)
    assert list(got) == expected
    assert [list(vec) for vec in got] == [list(vec) for vec in expected]
    assert rank(m) == dense_rank(labeled_dense(m))


def _index_labeled(draw_entries, nrows, ncols):
    entries = {k: v for k, v in draw_entries.items()
               if k[0] < nrows and k[1] < ncols and v}
    return LabeledMatrix(tuple(range(nrows)), tuple(range(ncols)), entries)


sparse_matrices = st.builds(
    _index_labeled,
    st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    st.sampled_from([F(n, d) for n in range(-4, 5)
                                     for d in (1, 2, 3)]),
                    max_size=24),
    st.integers(0, 8),
    st.integers(0, 8),
)


class TestProperties:
    @given(sparse_matrices)
    def test_kernel_vectors_are_exact_solutions(self, m):
        for vec in kernel_basis(m):
            assert matvec(m, vec) == {}

    @given(sparse_matrices)
    def test_rank_nullity(self, m):
        assert rank(m) + len(kernel_basis(m)) == len(m.col_labels)

    @given(sparse_matrices)
    def test_deterministic(self, m):
        assert kernel_basis(m) == kernel_basis(m)

    @given(sparse_matrices)
    def test_matches_dense_elimination(self, m):
        assert_matches_dense(m)

    def test_forty_by_forty_random(self):
        rng = random.Random(406)
        entries = {}
        for _ in range(320):
            r, c = rng.randrange(40), rng.randrange(40)
            entries[(r, c)] = F(rng.choice([-3, -2, -1, 1, 2, 3]),
                                rng.choice([1, 2]))
        m = LabeledMatrix(tuple(range(40)), tuple(range(40)), entries)
        vecs = kernel_basis(m)
        assert rank(m) + len(vecs) == 40
        assert rank(m) == dense_rank(labeled_dense(m))
        for vec in vecs:
            assert matvec(m, vec) == {}


@st.composite
def shaped_sparse_matrices(draw):
    """Tall, wide and empty shapes with zero rows, all-zero columns and
    duplicate rows."""
    nrows = draw(st.integers(0, 10), label="nrows")
    ncols = draw(st.integers(0, 10), label="ncols")
    if not nrows or not ncols:
        return LabeledMatrix(tuple(range(nrows)), tuple(range(ncols)), {})
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols),
                     label="zero_cols")
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        st.sampled_from([F(n, d) for n in range(-6, 7) if n
                         for d in (1, 2, 5, 7)]),
        max_size=3 * ncols), label="cells")
    entries = {k: v for k, v in cells.items() if k[1] not in zero_cols}
    copies = draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                     st.integers(0, nrows - 1)),
                           max_size=3), label="duplicate_rows")
    for src, dst in copies:
        row = {c: v for (r, c), v in entries.items() if r == src}
        entries = {k: v for k, v in entries.items() if k[0] != dst}
        entries.update({(dst, c): v for c, v in row.items()})
    return LabeledMatrix(tuple(range(nrows)), tuple(range(ncols)), entries)


class TestDenseCrossCheck:
    @given(shaped_sparse_matrices())
    def test_random_shapes_match_dense_elimination(self, m):
        assert_matches_dense(m)

    def test_sw22_mixed_target_matches_dense_elimination(self):
        target = parse_element("L[1] + G[-2] + I[3] + Q[0]", AlgebraFamily.SW22)
        m = evaluation_matrix(target, GradedWindow(F(16)))
        assert m.shape == (150, 133)
        assert_matches_dense(m)

