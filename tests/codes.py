"""Classical codes, their products and the decoder budgets that several
test modules share; conftest.py holds the fixtures built from them."""

import math

from homprod import bounds, decoder, gf2, product
from homprod.chain import ChainComplex, Distance

REP2 = gf2.as_bin([[1, 1]])
REP3 = gf2.as_bin([[1, 1, 0], [0, 1, 1]])
CYC3 = gf2.as_bin([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def complex_of(h):
    return ChainComplex([gf2.as_bin(h)], j_min=0)


def single(h):
    return product.single_product(complex_of(h))


def double(h):
    return product.double_product(single(h))


def budget33():
    return decoder.single_shot_budget(
        Distance(math.inf, "exact"),  # no finite single-shot distance
        Distance(2, "exact"),  # soundness threshold of the rep-2 input
        Distance(4, "exact"),  # exact distance, enumerated on 33 qubits
        bounds.CUBIC_OVER_4,
    )


def budget241():
    return decoder.single_shot_budget(
        Distance(math.inf, "exact"),
        Distance(3, "exact"),
        Distance(9, "external"),  # witnessed <= 9; equality is an external result
        bounds.CUBIC_OVER_4,
    )
