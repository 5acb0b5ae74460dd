"""The four rank-2 forms and their crossed-product witnesses.

Each case fixes how the order-2 Galois group acts on exponents; the
generator presentations of the fixed rings are verified relation by
relation by exact expansion.
"""

from fractions import Fraction

from qtorus import NumberField
from qtorus.specialization import catalog_case, crossed_product_witness

corpus = [
    ("trivial module, q rational", 1, 5, [7]),
    ("sign module, q = 9 + 4a of norm one", 2, 5, [9, 4]),
    ("negation module, q rational", 3, 5, [7]),
    ("swap module, q a cube root of unity", 4, -3, [Fraction(-1, 2), Fraction(1, 2)]),
    ("swap module, q = -1", 4, 5, [-1]),
]

for title, case, D, q in corpus:
    rep = catalog_case(case, NumberField.quadratic(D), q)
    print(f"--- case {case}: {title}")
    print(rep.render_text())
    print()

Z = NumberField.cyclotomic(3)
for case in (1, 2, 4):
    rep = crossed_product_witness(case, Z, Z.gen())
    print(f"--- witness, case {case}")
    print(rep.render_text())
    print()
