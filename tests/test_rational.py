"""The dense `Fraction` reference in `oracles` against cofactor expansion.

The differential tests of the integer tree kernels trust these dense
determinants, so they are pinned here to a second, naive reference.
"""
from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_determinant, gaussian_determinant, leading_principal_minors


def test_determinant_matches_cofactor_oracle():
    rows = [
        [Q(2), Q(-1), Q(0), Q(1, 2)],
        [Q(-1), Q(3), Q(1), Q(0)],
        [Q(0), Q(1), Q(5, 2), Q(-1)],
        [Q(1, 2), Q(0), Q(-1), Q(4)],
    ]
    assert gaussian_determinant(rows) == cofactor_determinant(rows)


def test_leading_principal_minors():
    assert leading_principal_minors([[2, -1], [-1, 2]]) == [2, 3]
    # a zero leading entry needs a row swap in the full determinant only
    assert leading_principal_minors([[0, 1], [1, 0]]) == [0, -1]


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
    assert gaussian_determinant(rows) == cofactor_determinant(
        [[Q(x) for x in row] for row in rows]
    )
