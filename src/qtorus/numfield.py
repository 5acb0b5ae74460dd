"""Exact arithmetic in number fields L = Q[t]/(f) with explicit Galois groups.

A field is described by a monic minimal polynomial over Q.  Three
constructors are provided: ``NumberField.quadratic(D)`` for Q(sqrt(D)),
``NumberField.cyclotomic(l)`` for the l-th cyclotomic field, and
``NumberField.custom(...)`` where the caller supplies every automorphism.

An element is stored as integer numerators over one positive integer
denominator, ``num / den`` with ``num`` a tuple of deg(f) ints, reduced
so that gcd(den, *num) == 1 (Cohen, GTM 138, section 4.2).  Equal
elements therefore have equal ``(num, den)``.  Products reduce modulo f
with an integer table over one common denominator, which is 1 whenever
f has integer coefficients, and inverses come from the product of the
nontrivial conjugates, so the arithmetic runs on Python ints only.
Each field builds its multiply once, at construction, from that table:
in degree 2 it is the closed form of (a0 + a1 t)(b0 + b1 t), and
``FieldElement.__mul__`` is the one entry point that calls it.
``FieldElement.coeffs`` is the same element as a tuple of
``fractions.Fraction``, for linear algebra over Q and for reports.

Irreducibility of a custom polynomial is not certified up front.  If an
inversion ever exposes a nontrivial factor of f, the operation raises
``FieldAssumptionViolated`` carrying the factor.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import _linalg
from .errors import FieldAssumptionViolated, SearchExhausted, VerificationFailed

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense polynomial helpers over Q (coefficient lists, index = degree)

def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


def _poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        f = a[-1] * inv_lead
        d = len(a) - len(b)
        q[d] = f
        for i, bi in enumerate(b):
            a[d + i] -= f * bi
        _trim(a)
        if not a:
            break
    return _trim(q), a


def _poly_ext_gcd(a, b):
    """Return (g, u, v) with u*a + v*b = g, g monic (or zero)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], []
    t0, t1 = [], [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


_cyclotomic_cache = {1: [Fraction(-1), _ONE]}


def _cyclotomic_poly(l):
    if l in _cyclotomic_cache:
        return _cyclotomic_cache[l]
    num = [_ZERO] * (l + 1)
    num[0], num[l] = Fraction(-1), _ONE
    num = _trim(num)
    for d in _divisors(l):
        if d < l:
            num, rem = _poly_divmod(num, _cyclotomic_poly(d))
            if rem:
                raise VerificationFailed(
                    f"Phi_{d} does not divide t^{l} - 1", witness={"l": l, "d": d}
                )
    _cyclotomic_cache[l] = num
    return num


# the largest |D| that ``NumberField.quadratic`` accepts: ``_is_squarefree``
# trial-divides up to the cube root of |D|, about 0.5 s at this bound
QUADRATIC_D_BOUND = 10 ** 18

# the largest l that ``NumberField.cyclotomic`` accepts, checked before phi(l)
# is counted; the field's cost follows its degree phi(l), which
# ``FIELD_DEGREE_BOUND`` bounds
CYCLOTOMIC_L_BOUND = 100

# the largest degree of a cyclotomic or custom field: validate --degree-bound 0
# on one generator with the trivial action took 1.7 s at degree 24 (Q(zeta84)),
# 3.3 s at 32 (Q(zeta96)), 4.5 s at 36 (Q(zeta37)) and 77 s at 96 (Q(zeta97))
# on a 2-core machine with Python 3.11
FIELD_DEGREE_BOUND = 32


def check_field_size(degree, automorphisms=0):
    """Refuse, before the field is built, a degree above ``FIELD_DEGREE_BOUND``
    or more automorphisms than the degree (a longer list can only repeat one).
    A degree below 1 is left to ``NumberField``'s own check."""
    if degree > FIELD_DEGREE_BOUND:
        raise ValueError(f"the field has degree {degree}, above the bound {FIELD_DEGREE_BOUND}")
    if automorphisms > degree >= 1:
        raise ValueError(f"{automorphisms} automorphisms for a field of degree {degree}, which has at most {degree}")


def _is_squarefree(n):
    """Trial division while p^3 <= the cofactor r, which then has at most two prime factors."""
    n = abs(n)
    p = 2
    while p * p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return n == 1 or isqrt(n) ** 2 != n


def _common_denominator(vectors):
    """(den, int rows) with row / den == vector for each vector of Fractions."""
    den = lcm(*(c.denominator for vec in vectors for c in vec))
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in vec) for vec in vectors)


def _product_kernel(field):
    """The field's product of two of its elements, built once from its reduction data.

    Degree 2 is the closed form of (a0 + a1 t)(b0 + b1 t) with
    t^2 = (r0 + r1 t) / rden; other degrees convolve and reduce with the
    table (at degree 1 the convolution has no term to reduce).
    """
    d = field.degree
    red, rden = field._red, field._red_den
    if d == 2:
        ((r0, r1),) = red

        def mul(a, b):
            a0, a1 = a.num
            b0, b1 = b.num
            hi = a1 * b1
            c0 = a0 * b0 * rden + hi * r0
            c1 = (a0 * b1 + a1 * b0) * rden + hi * r1
            return field._make((c0, c1), a.den * b.den * rden)
    else:
        def mul(a, b):
            conv = [0] * (2 * d - 1)
            for i, ai in enumerate(a.num):
                if ai:
                    for j, bj in enumerate(b.num, i):
                        conv[j] += ai * bj
            out = conv[:d] if rden == 1 else [c * rden for c in conv[:d]]
            for c, row in zip(conv[d:], red):
                if c:
                    for i, r in enumerate(row):
                        out[i] += c * r
            return field._make(out, a.den * b.den * rden)
    return mul


# ---------------------------------------------------------------------------


class NumberField:
    """Q[t]/(f) together with its reduction data and (optionally) Gal(L/Q)."""

    __slots__ = (
        "min_poly", "kind", "param", "degree", "_red", "_red_den", "_mul", "galois", "_zero",
        "_one",
    )

    def __init__(self, min_poly, kind, param=None):
        coeffs = tuple(Fraction(c) for c in min_poly)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.min_poly = coeffs
        self.kind = kind
        self.param = param
        self.degree = len(coeffs) - 1
        d = self.degree
        # reduction table: t^(d+k) mod f == _red[k] / _red_den, k = 0 .. d-2
        red = []
        base = [-c for c in coeffs[:d]]
        red.append(tuple(base))
        for _ in range(d - 2):
            prev = red[-1]
            shifted = [_ZERO] + list(prev)
            top = shifted.pop()
            if top:
                shifted = [s + top * b for s, b in zip(shifted, base)]
            red.append(tuple(shifted))
        self._red_den, self._red = _common_denominator(red)
        self._mul = _product_kernel(self)
        # elements are immutable, so every caller can share these two
        self._zero = FieldElement(self, (0,) * d, 1)
        self._one = FieldElement(self, (1,) + (0,) * (d - 1), 1)
        self.galois = None

    # -- constructors -------------------------------------------------

    @classmethod
    def quadratic(cls, D):
        """Q(sqrt(D)) for a squarefree integer D not in {0, 1}, |D| <= 10^18."""
        if abs(D) > QUADRATIC_D_BOUND:
            raise ValueError("|D| must be at most 10^18")
        if D in (0, 1) or not _is_squarefree(D):
            raise ValueError("D must be a squarefree integer, not 0 or 1")
        field = cls([-D, 0, 1], "quadratic", D)
        ident = FieldAutomorphism(field, field.gen())
        conj = FieldAutomorphism(field, -field.gen())
        field.galois = GaloisGroup(field, [ident, conj])
        return field

    @classmethod
    def cyclotomic(cls, l):
        """The l-th cyclotomic field with the full automorphism group, 2 <= l <= 100
        and phi(l) <= ``FIELD_DEGREE_BOUND``."""
        if l < 2:
            raise ValueError("l must be at least 2")
        if l > CYCLOTOMIC_L_BOUND:
            raise ValueError(f"l must be at most {CYCLOTOMIC_L_BOUND}")
        units = [j for j in range(1, l + 1) if gcd(j, l) == 1]
        check_field_size(len(units))
        field = cls(_cyclotomic_poly(l), "cyclotomic", l)
        zeta = field.gen()
        field.galois = GaloisGroup(field, [FieldAutomorphism(field, zeta ** j) for j in units])
        return field

    @classmethod
    def custom(cls, min_poly, automorphisms):
        """Field from a monic polynomial plus the images of t under Gal(L/Q).

        ``automorphisms`` is an iterable of coefficient vectors g with
        f(g) = 0; the identity (g = t) may be included or not.  The sizes
        are checked by ``check_field_size`` first.
        """
        automorphisms = list(automorphisms)
        check_field_size(len(min_poly) - 1, len(automorphisms))
        field = cls(min_poly, "custom")
        auts = [FieldAutomorphism(field, field.gen())]
        seen = {auts[0].t_image}
        for g in automorphisms:
            aut = FieldAutomorphism(field, field.element(g))
            if aut.t_image not in seen:
                seen.add(aut.t_image)
                auts.append(aut)
        field.galois = GaloisGroup(field, auts)
        return field

    @classmethod
    def rationals(cls):
        """Degree-1 field Q itself, used as a coefficient field."""
        field = cls([0, 1], "rational")
        field.galois = GaloisGroup(field, [FieldAutomorphism(field, field.gen())])
        return field

    # -- element factories --------------------------------------------

    def element(self, coeffs):
        if isinstance(coeffs, FieldElement):
            if coeffs.field.min_poly != self.min_poly:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, (int, Fraction)):
            return self.from_rational(coeffs)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        vec += [_ZERO] * (self.degree - len(vec))
        den, (num,) = _common_denominator([vec])
        return FieldElement(self, num, den)

    def from_rational(self, c):
        c = Fraction(c)
        return FieldElement(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def gen(self):
        if self.degree == 1:
            # t reduces to the root of the degree-1 polynomial
            return self.from_rational(-self.min_poly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def basis(self):
        """Powers of t below the degree, a Q-basis of the field."""
        d = self.degree
        return [FieldElement(self, tuple(int(i == j) for i in range(d)), 1) for j in range(d)]

    # -- internals -----------------------------------------------------

    def _make(self, num, den):
        """The element num / den, brought to the reduced form."""
        if den == 1:
            return FieldElement(self, tuple(num), 1)
        g = gcd(den, *num)
        if den < 0:
            g = -g
        return FieldElement(self, tuple(c // g for c in num), den // g)

    def same_field(self, other):
        return self is other or self.min_poly == other.min_poly

    def __repr__(self):
        if self.kind == "quadratic":
            return f"NumberField(quadratic, D={self.param})"
        if self.kind == "cyclotomic":
            return f"NumberField(cyclotomic, l={self.param})"
        if self.kind == "rational":
            return "NumberField(Q)"
        return f"NumberField(custom, degree={self.degree})"


class FieldElement:
    """Residue class ``num / den`` in a NumberField; immutable, exact.

    ``num`` is a tuple of ints, one per power of t, and ``den`` a positive
    int with gcd(den, *num) == 1.  Build elements through the field's
    factories, which establish that form.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The coefficient vector over Q, as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not a rational element")
        return Fraction(self.num[0], self.den)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if not self.field.same_field(other.field):
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return self.field._make([a + b for a, b in zip(self.num, o.num)], da)
        return self.field._make([a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return self.field._make([a - b for a, b in zip(self.num, o.num)], da)
        return self.field._make([a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        # an element of this very field object goes straight to the field's kernel
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def inverse(self):
        """The inverse, as (product of the other conjugates) / norm.

        The norm a * rest is checked to be a nonzero rational before it
        is divided by, so the result is a certified inverse.  When the
        check fails, which needs a reducible custom polynomial, the
        extended gcd with f gives the inverse or exposes a factor.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if self.is_rational():
            return field._make((self.den,) + self.num[1:], self.num[0])
        if field.galois is not None:
            conjugates = [sigma(self) for sigma in field.galois.elements[1:]]
            rest = conjugates[0]
            for c in conjugates[1:]:
                rest = rest * c
            n = self * rest
            if n and n.is_rational():
                # n == p / q, so the inverse is rest * q / p
                p, q = n.num[0], n.den
                return field._make([c * q for c in rest.num], rest.den * p)
        poly = _trim(list(self.coeffs))
        g, u, _ = _poly_ext_gcd(poly, list(field.min_poly))
        if len(g) != 1:
            raise FieldAssumptionViolated(
                "inversion exposed a factor of the minimal polynomial",
                factor=tuple(g),
            )
        inv_c = 1 / g[0]
        return field.element([c * inv_c for c in u])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.inverse() if other == 1 else o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return self.field.one()
        base = self if e > 0 else self.inverse()
        result = base
        for bit in bin(abs(e))[3:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if type(other) is FieldElement and other.field is self.field:
            return self.den == other.den and self.num == other.num
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        # equal elements have equal (num, den); the field is left to __eq__
        return hash((self.num, self.den))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = f"{mag}*t" if mag != 1 else "t"
            else:
                body = f"{mag}*t^{i}" if mag != 1 else f"t^{i}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts) if parts else "0"


class FieldAutomorphism:
    """Field automorphism determined by the image of t; f(image) must vanish.

    sigma(t^j) == _cols[j] / _den, so sigma(a) is one integer
    matrix-vector product.  ``is_identity`` is decided at construction;
    the identity returns its argument, the value that product would give.
    """

    __slots__ = ("field", "t_image", "is_identity", "_cols", "_den")

    def __init__(self, field, t_image):
        t_image = field.element(t_image)
        f_at_g = field.zero()
        power = field.one()
        for c in field.min_poly:
            if c:
                f_at_g = f_at_g + power * c
            power = power * t_image
        if f_at_g:
            raise ValueError("t_image is not a root of the minimal polynomial")
        self.field = field
        self.t_image = t_image
        self.is_identity = t_image == field.gen()
        pows = [field.one()]
        for _ in range(field.degree - 1):
            pows.append(pows[-1] * t_image)
        self._den, self._cols = _common_denominator([p.coeffs for p in pows])

    def __call__(self, a):
        field = self.field
        a = field.element(a)
        if self.is_identity:
            return a
        out = [0] * field.degree
        for c, col in zip(a.num, self._cols):
            if c:
                for i, x in enumerate(col):
                    out[i] += c * x
        return field._make(out, a.den * self._den)

    def __eq__(self, other):
        return (
            isinstance(other, FieldAutomorphism)
            and self.field.same_field(other.field)
            and self.t_image == other.t_image
        )

    def __hash__(self):
        return hash(self.t_image)

    def __repr__(self):
        return f"Aut(t -> {self.t_image!r})"


class GaloisGroup:
    """All automorphisms of L/Q with their composition table.

    Construction fails unless the supplied automorphisms are distinct,
    closed under composition and as many as the field degree, so that
    the extension is certified Galois.
    """

    __slots__ = ("field", "elements", "compose_table")

    def __init__(self, field, automorphisms):
        elements = list(automorphisms)
        ident = [a for a in elements if a.is_identity]
        if not ident:
            raise ValueError("identity automorphism missing")
        elements.sort(key=lambda a: (not a.is_identity, a.t_image.coeffs))
        index = {}
        for i, a in enumerate(elements):
            if a.t_image in index:
                raise ValueError("duplicate automorphism")
            index[a.t_image] = i
        if len(elements) != field.degree:
            raise ValueError(
                f"got {len(elements)} automorphisms for degree {field.degree};"
                " the extension is not Galois over Q"
            )
        table = []
        for a in elements:
            row = []
            for b in elements:
                image = a(b.t_image)
                k = index.get(image)
                if k is None:
                    raise ValueError("automorphisms are not closed under composition")
                row.append(k)
            table.append(tuple(row))
        if any(0 not in row for row in table):
            raise ValueError("automorphism without inverse")
        self.field = field
        self.elements = tuple(elements)
        self.compose_table = tuple(table)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def identity_index(self):
        return 0

    def compose_idx(self, i, j):
        """Index of elements[i] composed after elements[j]."""
        return self.compose_table[i][j]


# ---------------------------------------------------------------------------
# operations


def norm(a):
    """Product of all conjugates; lands in Q for a Galois field."""
    group = a.field.galois
    out = a.field.one()
    for sigma in group:
        out = out * sigma(a)
    return out.as_fraction()


def trace(a):
    """Sum of all conjugates; lands in Q for a Galois field."""
    group = a.field.galois
    out = a.field.zero()
    for sigma in group:
        out = out + sigma(a)
    return out.as_fraction()


def norm_trace(a):
    return norm(a), trace(a)


def unit_order(a, bound):
    """Smallest e <= bound with a^e == 1, or None.

    A root of unity of order k in a field of degree d has phi(k) <= d, and
    phi(k) >= sqrt(k / 2), so k <= 2 d^2: no power past that is tried.
    """
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    one = a.field.one()
    power = a
    for e in range(1, min(bound, 2 * a.field.degree ** 2) + 1):
        if power == one:
            return e
        power = power * a
    return None


def find_normal_basis(field, seed=0, attempts=500):
    """An element whose Galois conjugates form a Q-basis of the field.

    Deterministic small-coefficient candidates are tried first, then a
    seeded random tail; the certificate is that the d conjugates have rank d.
    """
    group = field.galois
    d = field.degree

    def certifies(a):
        rows = [list(sigma(a).coeffs) for sigma in group]
        return _linalg.rank(rows) == d

    small = [0, 1, -1, 2, -2]
    tried = 0
    for vec in itertools.product(small, repeat=d):
        if not any(vec):
            continue
        tried += 1
        if tried > attempts:
            break
        a = field.element(vec)
        if certifies(a):
            return a
    rng = random.Random(seed)
    for _ in range(attempts):
        a = field.element([Fraction(rng.randint(-9, 9)) for _ in range(d)])
        if a and certifies(a):
            return a
    raise SearchExhausted("no normal basis generator found in the candidate pool")
