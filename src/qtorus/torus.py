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

Both c and Q are products of the q[i][j] with i > j only, since
q[j][i] = q[i][j]^-1: c(m, k) has the exponent m_i k_j at (i, j), and
Q(m, k) has m_i k_j - m_j k_i.  So ``QMatrix`` builds every such product
as an integer exponent vector over those pairs (a whole ``power_product``
adds into one vector) and evaluates it in the field once, in
``QMatrix.evaluate``, as one exponent per generating unit: epsilon for
root-of-unity data q[i][j] = epsilon^S[i][j], one unit u of infinite order
from ``QMatrix.from_unit_powers``, else each q[i][j] itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import OrderUndeclared, VerificationFailed
from .numfield import FieldElement, unit_order


class QMatrix:
    """Commutation matrix from its entries, with optional declared orders, or from one unit's powers.

    ``from_root_of_unity`` (q[i][j] = epsilon^S[i][j], epsilon of exact
    order l, checked on ``eps_pows``) and ``from_unit_powers`` (u^S[i][j]
    for any unit u) read their entries from the unit's powers in one
    builder, ``_from_exponents``.  Declared orders are verified one way:
    ``unit_order`` on each q[i][j] with i < j, the rest as integers, since
    q[i][i] == 1 and q[j][i] = q[i][j]^-1; construction then calls
    ``synthesize_root_of_unity``.  So a matrix has root-of-unity data
    (l, epsilon, S) exactly when the orders of its entries are known, and
    ``root_of_unity_data()`` is the one place that reads it or raises
    ``OrderUndeclared``.

    Every product of entries is held as an integer exponent vector indexed
    by ``pairs``, the strictly lower pairs (i, j) with i > j, and turned
    into a field element once, by ``evaluate``: ``cocycle``, ``bihom`` and
    ``power_product`` only add and multiply integers before that call.
    ``units`` presents the matrix, whatever its spelling, by generating
    units u, each a triple (column, order, store): the nonzero (t, a) with
    u^a a factor of q at ``pairs[t]``, the order l (0 unless known finite)
    and the powers of u.  ``_present`` is the one writer of a presentation
    by one unit; otherwise each entry is its own unit.  Stores other than
    ``eps_pows`` are caches seeded with u^0, the field's shared one, and u^1 = u.
    """

    __slots__ = ("field", "n", "entries", "root_of_unity", "pairs", "eps_pows", "units")

    def __init__(self, field, entries, declared_orders=None):
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
        self.pairs = pairs = tuple((i, j) for i in range(1, n) for j in range(i))
        self.root_of_unity = self.eps_pows = None
        self.units = tuple((((t, 1),), 0, {0: one, 1: self.entries[i][j]}) for t, (i, j) in enumerate(pairs))
        if declared_orders is not None:
            declared_orders = [[int(o) for o in row] for row in declared_orders]
            for i in range(n):
                for j in range(n):
                    o = declared_orders[i][j]
                    if i >= j:
                        # q[i][i] == 1, and q[i][j] = q[j][i]^-1 has the order verified at (j, i)
                        exact = 1 if i == j else declared_orders[j][i]
                    else:
                        exact = unit_order(self.entries[i][j], o)
                    if exact != o:
                        raise ValueError(f"declared order of q[{i}][{j}] is wrong")
            (l, eps, S), pows = synthesize_root_of_unity(self.entries, declared_orders)
            self._present(S, l, pows, eps)

    def _present(self, S, order, store, eps):
        """Present q[i][j] = u^S[i][j] for one unit u of order ``order`` (0: infinite) with powers ``store``.

        Given ``eps`` = u, this is root-of-unity data and ``store`` is ``eps_pows``.
        """
        self.root_of_unity = None if eps is None else (order, eps, S)
        self.eps_pows = None if eps is None else store
        self.units = ((tuple((t, S[i][j]) for t, (i, j) in enumerate(self.pairs) if S[i][j]), order, store),)

    @classmethod
    def _from_exponents(cls, field, S, order, store, eps=None):
        """q[i][j] = u^S[i][j] as ``_present`` takes it; the entries are checked before S's antisymmetry."""
        S = tuple(tuple(int(s) for s in row) for row in S)
        Q = cls(field, [[store[s % order] if order else store[s] for s in row] for row in S])
        if any(S[i][j] != -S[j][i] for i in range(Q.n) for j in range(Q.n)):
            raise ValueError("exponent matrix must be antisymmetric")
        Q._present(S, order, store, eps)
        return Q

    def root_of_unity_data(self):
        """(l, epsilon, S) as construction resolved them; ``OrderUndeclared`` if the orders are unknown."""
        if self.root_of_unity is None:
            raise OrderUndeclared("entry orders are unknown; declare them or give the root-of-unity form")
        return self.root_of_unity

    @classmethod
    def from_root_of_unity(cls, field, l, epsilon, S):
        eps = field.element(epsilon)
        return cls._from_exponents(field, S, l, epsilon_powers(eps, l), eps)

    @classmethod
    def from_unit_powers(cls, field, u, S):
        """q[i][j] = u^S[i][j] for one unit u; a u of finite order is root-of-unity data.

        For u of infinite order, q[i][i] == 1 and q[i][j] * q[j][i] == 1,
        checked by the plain constructor, hold exactly when S is antisymmetric.
        """
        u = field.element(u)
        l = unit_order(u, 2 * field.degree ** 2)
        if l is not None:
            return cls.from_root_of_unity(field, l, u, S)
        store = {0: field.one(), 1: u}
        for s in set().union(*S) - store.keys():
            store[s] = u ** s
        return cls._from_exponents(field, S, 0, store)

    def evaluate(self, exps):
        """prod_t q[i][j]^exps[t] over the strictly lower pairs (i, j) = self.pairs[t].

        The one place where an exponent vector becomes a field element: per
        unit, the exponent sum of its column, reduced mod a finite order, and
        one read of its store; powers that are the shared one are skipped.
        """
        one = self.field.one()
        out = one
        for column, order, store in self.units:
            s = sum(a * exps[t] for t, a in column)
            p = store[s % order] if order else store.get(s)
            if p is None:
                p = store[s] = store[1] ** s
            if p is not one:
                out = p if out is one else out * p
        return out

    def bihom(self, m, k):
        """Q(m, k): the pairing that controls commutation of x^m and x^k.

        Since q[j][i] = q[i][j]^-1, its exponent at (i, j) is m_i k_j - m_j k_i.
        """
        return self.evaluate([m[i] * k[j] - m[j] * k[i] for i, j in self.pairs])

    def is_central_exponent(self, m):
        """Whether x^m is central, that is Q(m, e_j) == 1 for every generator x_j."""
        one = self.field.one()
        n = self.n
        return all(
            self.bihom(m, tuple(1 if t == j else 0 for t in range(n))) == one for j in range(n)
        )

    def cocycle(self, m, k):
        """c(m, k): the normal-ordering constant with x^m x^k = c(m,k) x^(m+k)."""
        return self.evaluate([m[i] * k[j] for i, j in self.pairs])

    def power_product(self, factors):
        """(exponent, coefficient) of the ordered product of (g x^v)^e over (g, v, e).

        Each factor contributes c(v, v)^half * c(exp, e v), with half = e(e-1)/2
        and exp the exponent of the factors before it: the exponent
        (half v_i + e exp_i) v_j at each pair (i, j).  These add up in one
        integer vector, evaluated once at the end.
        """
        one = self.field.one()
        pairs = self.pairs
        exp = [0] * self.n
        total = [0] * len(pairs)
        coeff = one
        for g, v, e in factors:
            if not e:
                continue
            if g != one:
                coeff = coeff * g ** e
            half = e * (e - 1) // 2
            for t, (i, j) in enumerate(pairs):
                if v[j]:
                    total[t] += (half * v[i] + e * exp[i]) * v[j]
            for i, a in enumerate(v):
                exp[i] += e * a
        unit = self.evaluate(total)
        return tuple(exp), unit if coeff is one else coeff * unit

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
            one = q.field.one()
            out = {}
            for m, c in self.terms.items():
                for k, d in other.terms.items():
                    exp = tuple(a + b for a, b in zip(m, k))
                    coeff, unit = c * d, q.cocycle(m, k)
                    if unit is not one:
                        coeff = coeff * unit
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


def epsilon_powers(eps, l):
    """(epsilon^0, ..., epsilon^(l-1)), epsilon^0 the field's shared one; ValueError unless epsilon has order l."""
    one = eps.field.one()
    out, power = [one], eps
    if 1 <= l <= 2 * eps.field.degree ** 2:  # no root of unity of higher order, as in unit_order
        while power != one and len(out) < l:
            out.append(power)
            power = power * eps
    if power != one or len(out) != l:
        raise ValueError(f"epsilon does not have exact order {l}")
    return tuple(out)


def synthesize_root_of_unity(entries, orders):
    """((l, epsilon, S), epsilon_powers(epsilon, l)) with entries[i][j] == epsilon^S[i][j].

    With verified exact orders, the entries generate a cyclic subgroup G of L*
    of order l, the lcm of the orders: G grows from {1} by the cosets G x^k of
    each entry x until x^k is in G, at most about 2 l products per entry.  epsilon
    is G's first element of exact order l by coefficients, and S[i][j] (i < j)
    the discrete log of entries[i][j] to base epsilon in (-l/2, l/2].
    """
    l = lcm(*(o for row in orders for o in row))
    group = {entries[0][0].field.one()}
    for x in dict.fromkeys(x for row in entries for x in row):
        base, power = list(group), x
        while power not in group:  # the first such x^k already lies in the G it started from
            group.update(g * power for g in base)
            power = power * x
    eps = next((x for x in sorted(group, key=lambda x: x.coeffs) if unit_order(x, l) == l), None)
    if eps is None:
        raise VerificationFailed("finite subgroup of a field without a generator", witness={"l": l})
    pows = epsilon_powers(eps, l)
    dlog = {p: e for e, p in enumerate(pows)}
    c = (l - 1) // 2  # (s + c) % l - c is s's residue in [-c, l - 1 - c] = (-l/2, l/2]
    upper = [[(dlog[x] + c) % l - c for x in row] for row in entries]
    S = [[s if i <= j else -upper[j][i] for j, s in enumerate(row)] for i, row in enumerate(upper)]
    return (l, eps, tuple(map(tuple, S))), pows


def term_key(m):
    """Degree-lexicographic order on Laurent exponents, used everywhere

    a deterministic term order is needed.
    """
    return (sum(abs(e) for e in m), m)
