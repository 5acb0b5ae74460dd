"""Twisted Laurent polynomial algebras L_Q[x1^(+-1), ..., xn^(+-1)].

The commutation data is an n x n matrix Q of units of a number field with
q[i][j] * q[j][i] == 1 and q[i][i] == 1.  Elements are finite sums of
normal-ordered monomials x^m = x1^m1 * ... * xn^mn, m in Z^n, with field
coefficients.  Multiplication uses the normal-ordering constant

    c(m, k) = prod_{i > j} q[i][j]^(m_i * k_j),

which counts the swaps needed to move the right factor's generators into
place; it satisfies x^m * x^k = c(m, k) * x^(m+k), the two-cocycle
identity, and c(m, k) / c(k, m) = Q(m, k) with

    Q(m, k) = prod_{i,j} q[i][j]^(m_i * k_j),

so monomials commute exactly by x^m x^k = Q(m, k) x^k x^m.  Since c is
bimultiplicative, powers of a monomial follow one rule for every integer e:

    (g x^v)^e = g^e * c(v, v)^(e(e-1)/2) * x^(ev),

and ``QMatrix.power_product`` normal-orders any product of such powers.
"""

from __future__ import annotations

from fractions import Fraction

from .numfield import FieldElement, unit_order


class QMatrix:
    """Commutation matrix with optional declared orders or root-of-unity data.

    ``root_of_unity`` is a triple (l, epsilon, S) asserting that epsilon
    has exact order l and q[i][j] = epsilon^S[i][j]; when present it also
    fixes the declared orders of all entries.
    """

    __slots__ = ("field", "n", "entries", "declared_orders", "root_of_unity", "_pow_cache")

    def __init__(self, field, entries, declared_orders=None, root_of_unity=None):
        n = len(entries)
        rows = []
        for i in range(n):
            if len(entries[i]) != n:
                raise ValueError("commutation matrix must be square")
            rows.append(tuple(field.element(x) for x in entries[i]))
        self.field = field
        self.n = n
        self.entries = tuple(rows)
        one = field.one()
        for i in range(n):
            if self.entries[i][i] != one:
                raise ValueError(f"q[{i}][{i}] != 1")
            for j in range(n):
                if self.entries[i][j] * self.entries[j][i] != one:
                    raise ValueError(f"q[{i}][{j}] * q[{j}][{i}] != 1")
        if root_of_unity is not None:
            l, eps, S = root_of_unity
            eps = field.element(eps)
            if unit_order(eps, l) != l:
                raise ValueError(f"epsilon does not have exact order {l}")
            for i in range(n):
                for j in range(n):
                    if S[i][j] != -S[j][i]:
                        raise ValueError("exponent matrix must be antisymmetric")
                    if self.entries[i][j] != eps ** S[i][j]:
                        raise ValueError(f"q[{i}][{j}] != epsilon^S[{i}][{j}]")
            S = tuple(tuple(int(x) for x in row) for row in S)
            root_of_unity = (l, eps, S)
            if declared_orders is None:
                from math import gcd

                declared_orders = [[l // gcd(S[i][j], l) for j in range(n)] for i in range(n)]
        if declared_orders is not None:
            declared_orders = tuple(tuple(int(x) for x in row) for row in declared_orders)
            for i in range(n):
                for j in range(n):
                    o = declared_orders[i][j]
                    if unit_order(self.entries[i][j], o) != o:
                        raise ValueError(f"declared order of q[{i}][{j}] is wrong")
        self.declared_orders = declared_orders
        self.root_of_unity = root_of_unity
        self._pow_cache = {}

    @classmethod
    def from_root_of_unity(cls, field, l, epsilon, S):
        eps = field.element(epsilon)
        entries = [[eps ** S[i][j] for j in range(len(S))] for i in range(len(S))]
        return cls(field, entries, root_of_unity=(l, eps, S))

    def qpow(self, i, j, e):
        """q[i][j]^e with caching; hot path of every product."""
        key = (i, j, e)
        got = self._pow_cache.get(key)
        if got is None:
            got = self.entries[i][j] ** e
            self._pow_cache[key] = got
        return got

    def bihom(self, m, k):
        """Q(m, k): the pairing that controls commutation of x^m and x^k."""
        out = self.field.one()
        for i in range(self.n):
            mi = m[i]
            if not mi:
                continue
            for j in range(self.n):
                if i == j or not k[j]:
                    continue
                out = out * self.qpow(i, j, mi * k[j])
        return out

    def is_central_exponent(self, m):
        """Whether x^m is central, that is Q(m, e_j) == 1 for every generator x_j."""
        one = self.field.one()
        n = self.n
        return all(
            self.bihom(m, tuple(1 if t == j else 0 for t in range(n))) == one for j in range(n)
        )

    def cocycle(self, m, k):
        """c(m, k): the normal-ordering constant with x^m x^k = c(m,k) x^(m+k)."""
        out = self.field.one()
        for i in range(1, self.n):
            mi = m[i]
            if not mi:
                continue
            for j in range(i):
                if k[j]:
                    out = out * self.qpow(i, j, mi * k[j])
        return out

    def power_product(self, factors):
        """(exponent, coefficient) of the ordered product of (g x^v)^e over (g, v, e)."""
        one = self.field.one()
        exp = (0,) * self.n
        coeff = one
        for g, v, e in factors:
            if not e:
                continue
            if g != one:
                coeff = coeff * g ** e
            half = e * (e - 1) // 2
            if half:
                coeff = coeff * self.cocycle(v, v) ** half
            part = tuple(e * a for a in v)
            coeff = coeff * self.cocycle(exp, part)
            exp = tuple(a + b for a, b in zip(exp, part))
        return exp, coeff

    def __repr__(self):
        return f"QMatrix(n={self.n} over {self.field!r})"


class TwistedLaurentElement:
    """Finite L-linear combination of normal-ordered Laurent monomials."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms):
        self.q = q
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, q):
        return cls(q, {})

    @classmethod
    def one(cls, q):
        return cls.monomial(q, (0,) * q.n)

    @classmethod
    def monomial(cls, q, exp, coeff=None):
        exp = tuple(int(e) for e in exp)
        if len(exp) != q.n:
            raise ValueError("exponent length mismatch")
        coeff = q.field.one() if coeff is None else q.field.element(coeff)
        return cls(q, {exp: coeff})

    @classmethod
    def generator(cls, q, i, power=1):
        exp = tuple(power if j == i else 0 for j in range(q.n))
        return cls.monomial(q, exp)

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def as_monomial(self):
        if not self.is_monomial():
            raise ValueError("element is not a monomial")
        return next(iter(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: term_key(t[0]))

    def grading(self):
        """Split into homogeneous components keyed by degree in Z^n.

        This is the diagonal coaction read as a grading: a monomial of
        degree m is tagged by the character t^m.
        """
        return {
            m: TwistedLaurentElement(self.q, {m: c})
            for m, c in self.terms.items()
        }

    # -- arithmetic -------------------------------------------------------

    def _coerce_scalar(self, other):
        if isinstance(other, FieldElement) or isinstance(other, (int, Fraction)):
            return self.q.field.element(other)
        return None

    def __add__(self, other):
        if isinstance(other, TwistedLaurentElement):
            out = dict(self.terms)
            for m, c in other.terms.items():
                s = out.get(m)
                out[m] = c if s is None else s + c
            return TwistedLaurentElement(self.q, out)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self + TwistedLaurentElement.monomial(self.q, (0,) * self.q.n, scalar)

    __radd__ = __add__

    def __neg__(self):
        return TwistedLaurentElement(self.q, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, TwistedLaurentElement) else -self._as_elt(other))

    def __rsub__(self, other):
        return (-self) + other

    def _as_elt(self, other):
        scalar = self._coerce_scalar(other)
        if scalar is None:
            raise TypeError(f"cannot coerce {other!r}")
        return TwistedLaurentElement.monomial(self.q, (0,) * self.q.n, scalar)

    def __mul__(self, other):
        if isinstance(other, TwistedLaurentElement):
            q = self.q
            out = {}
            for m, c in self.terms.items():
                for k, d in other.terms.items():
                    exp = tuple(a + b for a, b in zip(m, k))
                    coeff = c * d * q.cocycle(m, k)
                    s = out.get(exp)
                    out[exp] = coeff if s is None else s + coeff
            return TwistedLaurentElement(q, out)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return TwistedLaurentElement(self.q, {m: c * scalar for m, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars are central, so left and right scaling agree
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __truediv__(self, other):
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self * scalar.inverse()

    def commutator(self, other):
        return self * other - other * self

    def inverse(self):
        """Two-sided inverse; only monomials are invertible."""
        m, c = self.as_monomial()
        return TwistedLaurentElement.monomial(self.q, *self.q.power_product([(c, m, -1)]))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = TwistedLaurentElement.one(self.q)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TwistedLaurentElement):
            return self.terms == other.terms
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self == self._as_elt(other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}"
                for i, e in enumerate(m)
                if e
            )
            bits.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def term_key(m):
    """Degree-lexicographic order on Laurent exponents, used everywhere

    a deterministic term order is needed.
    """
    return (sum(abs(e) for e in m), m)
