"""Exact rational matrices.

Entries are `fractions.Fraction` with arbitrary-precision integers; no
floating point.  The graph layers compute on the tree itself; a dense
matrix here holds the ray basis and serves as the independent cross-check
(Sylvester minors, matrix products).
"""
from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSymmetric


class RationalMatrix:
    """Immutable square matrix of exact rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence]) -> None:
        data = tuple(tuple(Q(x) for x in row) for row in rows)
        n = len(data)
        if any(len(row) != n for row in data):
            raise DimensionMismatch("matrix must be square")
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Q(int(i == j)) for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self._rows)

    def __getitem__(self, ij: tuple[int, int]) -> Q:
        i, j = ij
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Q, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Q, ...]:
        return tuple(row[j] for row in self._rows)

    def rows(self) -> tuple[tuple[Q, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self._rows]})"

    def is_symmetric(self) -> bool:
        n = self.n
        return all(
            self._rows[i][j] == self._rows[j][i] for i in range(n) for j in range(i)
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in row] for row in self._rows])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix product dimension mismatch")
        cols = [other.column(j) for j in range(other.n)]
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def apply(self, vec: Sequence) -> tuple[Q, ...]:
        """Matrix-vector product, exact."""
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.n}")
        v = [Q(x) for x in vec]
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._rows)

    def submatrix(self, k: int) -> "RationalMatrix":
        """Leading principal k x k block."""
        return RationalMatrix([row[:k] for row in self._rows[:k]])

    def determinant(self) -> Q:
        """Determinant by fraction-exact Gaussian elimination."""
        n = self.n
        a = [list(row) for row in self._rows]
        det = Q(1)
        for i in range(n):
            pivot_row = next((r for r in range(i, n) if a[r][i] != 0), None)
            if pivot_row is None:
                return Q(0)
            if pivot_row != i:
                a[i], a[pivot_row] = a[pivot_row], a[i]
                det = -det
            det *= a[i][i]
            inv = 1 / a[i][i]
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    factor = a[r][i] * inv
                    a[r] = [x - factor * y for x, y in zip(a[r], a[i])]
        return det

    def leading_principal_minors(self) -> list[Q]:
        """Determinants of the leading principal blocks, sizes 1..n."""
        return [self.submatrix(k).determinant() for k in range(1, self.n + 1)]


def require_symmetric(m: RationalMatrix) -> None:
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
