from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasharcs.errors import DimensionMismatch, NotSymmetric
from nasharcs.rational import RationalMatrix, require_symmetric

from oracles import cofactor_determinant


def test_identity():
    m = RationalMatrix.identity(3)
    assert m[0, 0] == 1 and m[0, 1] == 0
    assert m @ m == m


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        RationalMatrix([[1, 2], [3, 4], [5, 6]])


def test_determinant_matches_cofactor_oracle():
    rows = [
        [Q(2), Q(-1), Q(0), Q(1, 2)],
        [Q(-1), Q(3), Q(1), Q(0)],
        [Q(0), Q(1), Q(5, 2), Q(-1)],
        [Q(1, 2), Q(0), Q(-1), Q(4)],
    ]
    m = RationalMatrix(rows)
    assert m.determinant() == cofactor_determinant(rows)


def test_leading_principal_minors():
    m = RationalMatrix([[2, -1], [-1, 2]])
    assert m.leading_principal_minors() == [2, 3]


def test_symmetry_check():
    require_symmetric(RationalMatrix([[1, 2], [2, 1]]))
    with pytest.raises(NotSymmetric):
        require_symmetric(RationalMatrix([[1, 2], [3, 1]]))


def test_apply_dimension_check():
    with pytest.raises(DimensionMismatch):
        RationalMatrix([[1]]).apply([1, 2])


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fractions, min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_determinant_matches_oracle(rows):
    assert RationalMatrix(rows).determinant() == cofactor_determinant(
        [[Q(x) for x in row] for row in rows]
    )
