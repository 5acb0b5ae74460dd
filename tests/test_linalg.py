import random
from fractions import Fraction

import pytest

from qtorus import _linalg


def sparse_matrix(rng, nrows, ncols, density):
    """A seeded Fraction matrix with about ``density`` of its entries nonzero."""
    def entry():
        if rng.random() < density:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return Fraction(0)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


SHAPES = [(1, 1), (3, 5), (6, 6), (8, 4), (12, 20), (20, 12)]


@pytest.mark.parametrize("density", [0.1, 0.3, 0.7])
def test_rref_matches_sympy_oracle(density):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(int(density * 10))
    for nrows, ncols in SHAPES:
        for _ in range(4):
            rows = sparse_matrix(rng, nrows, ncols, density)
            got, pivots = _linalg.rref(rows)
            want, want_pivots = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
            ).rref()
            assert pivots == list(want_pivots)
            assert got == [
                [Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(nrows)
            ]


class Counted:
    """A Fraction scalar that counts every product with a zero factor."""

    zero_products = 0

    def __init__(self, value):
        self.value = Fraction(value)

    @staticmethod
    def _value(other):
        return other.value if isinstance(other, Counted) else Fraction(other)

    def __mul__(self, other):
        o = self._value(other)
        if not self.value or not o:
            Counted.zero_products += 1
        return Counted(self.value * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Counted(self.value / self._value(other))

    def __rtruediv__(self, other):
        return Counted(self._value(other) / self.value)

    def __sub__(self, other):
        return Counted(self.value - self._value(other))

    def __bool__(self):
        return bool(self.value)


def test_rref_makes_no_product_with_a_zero_factor():
    # zero entries are skipped when a row is scaled and when it is eliminated
    rng = random.Random(7)
    for nrows, ncols in SHAPES:
        rows = [[Counted(x) for x in r] for r in sparse_matrix(rng, nrows, ncols, 0.3)]
        Counted.zero_products = 0
        got, pivots = _linalg.rref(rows)
        assert Counted.zero_products == 0
        want, want_pivots = _linalg.rref([[x.value for x in r] for r in rows])
        assert pivots == want_pivots
        assert [[x.value for x in r] for r in got] == want
