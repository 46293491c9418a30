import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homprod import chain, cli, gf2, product
from homprod.chain import ChainComplex

from codes import CYC3, REP2, REP3, complex_of
from dense_reference import cobetti

REP4 = gf2.as_bin([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
SIX_TWO = gf2.as_bin(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 1, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
    ]
)

# a spread of small classical codes for the Kunneth / duality sweeps
KUNNETH_CODES = {
    "rep2": REP2,
    "rep3": REP3,
    "rep4": REP4,
    "cyc3": CYC3,
    "cyc4": gf2.as_bin([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]),
    "parity4": gf2.as_bin([[1, 1, 1, 1]]),
    "hamming74": gf2.as_bin(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
    ),
    "six_two": SIX_TWO,
    "five_two": gf2.as_bin(
        [[1, 1, 0, 1, 0], [0, 1, 1, 0, 1], [1, 0, 1, 1, 1]]
    ),
    "eight_four": gf2.as_bin(
        [
            [1, 1, 1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 1, 0, 1, 0],
        ]
    ),
    "redundant5": gf2.as_bin(
        [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, 1, 0, 0], [0, 0, 0, 1, 1]]
    ),
}

SMALL_DOUBLE = ["rep2", "rep3", "cyc3", "parity4", "five_two", "redundant5"]


class TestMinimalComplex:
    def test_rep3(self):
        c = product.minimal_complex(REP3)
        assert c.size(0) == 3 and c.size(1) == 2
        assert chain.betti_number(c, 0) == 1
        assert chain.betti_number(c, 1) == 0
        assert math.isinf(chain.cohomological_distance(c, 0, 4).value)
        assert product.redundancy(product.single_product(c)) == 1

    def test_rep4(self):
        c = product.minimal_complex(REP4)
        assert c.size(0) == 4 and c.size(1) == 3
        assert chain.betti_number(c, 0) == 1

    def test_rejects_redundant(self):
        with pytest.raises(ValueError, match="not minimal"):
            product.minimal_complex(CYC3)


class TestSingleProduct:
    def test_rep3_sizes(self):
        s = product.single_product(product.minimal_complex(REP3))
        assert [s.size(j) for j in s.levels()] == [6, 13, 6]
        assert chain.betti_number(s, 0) == 1

    def test_rep2_surface_patch(self):
        s = product.single_product(product.minimal_complex(REP2))
        assert s.size(0) == 5
        assert chain.betti_number(s, 0) == 1

    def test_block_layout(self):
        # the level-0 block ordering puts the bit-bit tensor factor first
        c = product.minimal_complex(REP3)
        s = product.single_product(c)
        h = c.delta(0)
        expected_high = np.hstack(
            [np.kron(h, gf2.identity(3)), np.kron(gf2.identity(2), h.T)]
        )
        assert (s.delta(0) == expected_high).all()
        expected_low = np.vstack(
            [np.kron(gf2.identity(3), h.T), np.kron(h, gf2.identity(2))]
        )
        assert (s.delta(-1) == expected_low).all()

    def test_generic_rate_formula(self):
        # [n, k] input without redundancy gives 2n(n-k)+k^2 qubits, k^2 logical
        for h in (REP2, REP3, REP4, KUNNETH_CODES["eight_four"]):
            n = h.shape[1]
            k = n - gf2.rank(h)
            s = product.single_product(product.minimal_complex(h))
            assert s.size(0) == 2 * n * (n - k) + k * k
            assert chain.betti_number(s, 0) == k * k

    def test_two_argument_product(self):
        # the products square one factor; _tensor behind them takes two
        s = product._tensor(product.minimal_complex(REP2), product.minimal_complex(REP3))
        assert chain.validate(s) is None
        assert s.size(0) == 2 * 3 + 1 * 2
        assert chain.betti_number(s, 0) == 1

    def test_rejects_wrong_length(self):
        s = product.single_product(product.minimal_complex(REP2))
        with pytest.raises(ValueError):
            product.single_product(s)

    def test_a_product_records_the_complex_it_squares(self):
        a = complex_of(REP3)
        tilde = product.single_product(a)
        assert a.factor is None
        assert tilde.factor is a
        assert product.double_product(tilde).factor is tilde
        # a product of two different complexes squares neither
        assert product._tensor(a, complex_of(REP2)).factor is None
        with pytest.raises(AttributeError):
            tilde.factor = a


class TestDoubleProduct:
    def test_rep3(self):
        d = product.double_product(product.single_product(complex_of(REP3)))
        assert [d.size(j) for j in d.levels()] == [36, 156, 241, 156, 36]
        assert chain.betti_number(d, 0) == 1

    def test_cyclic(self):
        d = product.double_product(product.single_product(complex_of(CYC3)))
        assert d.size(0) == 486
        assert d.size(1) == d.size(-1) == 324
        assert chain.betti_number(d, 0) == 6

    def test_rep2(self):
        d = product.double_product(product.single_product(complex_of(REP2)))
        assert d.size(0) == 33
        assert d.size(1) == d.size(-1) == 20
        assert chain.betti_number(d, 0) == 1

    def test_symmetry_of_sizes(self):
        d = product.double_product(product.single_product(complex_of(CYC3)))
        assert d.size(1) == d.size(-1)
        assert chain.betti_number(d, 1) == chain.betti_number(d, -1)
        assert d.size(2) == d.size(-2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            product.double_product(complex_of(REP3))

    def test_rejects_invalid_factor(self):
        # an invalid factor cannot be built, so no product is taken of one
        with pytest.raises(chain.ValidationError, match="composition d_0 d_-1 is nonzero"):
            product.double_product(ChainComplex([gf2.identity(2), gf2.identity(2)], j_min=-1))



def dense_tensor(x, y):
    """Reference x (x) y*: the block rule of product's docstring, with each
    block written as a dense np.kron into a zeroed map."""
    levels = {}
    for i in x.levels():
        for j in y.levels():
            levels.setdefault(i - j, []).append((i, j))
    span, size = {}, {}
    for m, components in levels.items():
        size[m] = 0
        for i, j in components:
            n = x.size(i) * y.size(j)
            span[i, j] = slice(size[m], size[m] + n)
            size[m] += n
    maps = []
    for m in range(min(levels), max(levels)):
        d = gf2.zeros(size[m + 1], size[m])
        for i, j in levels[m]:
            if x.has_level(i + 1):
                d[span[i + 1, j], span[i, j]] = np.kron(x.delta(i), gf2.identity(y.size(j)))
            if y.has_level(j - 1):
                d[span[i, j - 1], span[i, j]] = np.kron(
                    gf2.identity(x.size(i)), y.delta(j - 1).T
                )
        maps.append(d)
    return maps


def check_matrices():
    """Check matrices with 0-4 rows and 0-5 columns, empty shapes included."""
    return st.tuples(st.integers(0, 4), st.integers(0, 5)).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
    )


@settings(max_examples=60, deadline=None)
@given(check_matrices(), check_matrices())
def test_maps_equal_the_dense_kron_blocks(h_a, h_b):
    a, b = complex_of(h_a), complex_of(h_b)
    x, y = product._tensor(a, b), product._tensor(b, a)
    for built, left, right in ((x, a, b), (product._tensor(x, y), x, y)):
        expected = dense_tensor(left, right)
        assert built.j_min == -(len(expected) // 2) and built.length == len(expected)
        for d, e in zip(built.boundaries, expected):
            assert d.shape == e.shape and np.array_equal(d, e)
            # the memoised supports are the maps' own
            for view, dense in ((d, e), (d.T, e.T)):
                got = gf2._support(view)
                assert [s.tolist() for s in got] == [s.tolist() for s in np.nonzero(dense)]


# first 16 hex digits of the sha256 over every map of a product, each fed
# as "j:rowsxcols:" and its bytes; recorded from the hand-written kron blocks
PINNED_PRODUCTS = [
    (("rep2",), 1, "de769f3c27df4afb"),
    (("rep2",), 2, "4b6b1d014a5384c7"),
    (("rep3",), 1, "3e3582f72da23dc8"),
    (("rep3",), 2, "18f89638a9f0374e"),
    (("cyc3",), 1, "60375d2ceb02a337"),
    (("cyc3",), 2, "00d52198dd842650"),
    (("six_two",), 1, "91aeafcce68302d9"),
    (("six_two",), 2, "e597a6e1269a9d3f"),
    (("rep2", "rep3"), 1, "e7937e003e27049a"),
    (("rep2", "rep3"), 2, "900197127fe9ff1f"),
]


@pytest.mark.parametrize(
    "factors, stages, digest",
    PINNED_PRODUCTS,
    ids=[
        "x".join(f) + ("-single" if s == 1 else "-double")
        for f, s, _ in PINNED_PRODUCTS
    ],
)
def test_product_maps_are_pinned(factors, stages, digest):
    bases = [complex_of(KUNNETH_CODES[name]) for name in factors]
    if stages == 1:
        c = product._tensor(*bases) if len(bases) == 2 else product.single_product(*bases)
    elif len(bases) == 2:
        c = product._tensor(*(product._tensor(b, b) for b in bases))
    else:
        c = product.double_product(product.single_product(*bases))
    h = hashlib.sha256()
    for j in range(c.j_min, c.j_max):
        d = c.delta(j)
        h.update(f"{j}:{d.shape[0]}x{d.shape[1]}:".encode())
        h.update(np.ascontiguousarray(d).tobytes())
    assert h.hexdigest()[:16] == digest


class TestPredictions:
    @pytest.mark.parametrize("name", sorted(KUNNETH_CODES))
    def test_single_product_kunneth(self, name):
        c = complex_of(KUNNETH_CODES[name])
        pred = product.product_params(c, stages=1)
        s = product.single_product(c)
        for j in s.levels():
            assert s.size(j) == pred.level_sizes[j]
            assert chain.betti_number(s, j) == pred.level_bettis[j]
            assert chain.betti_number(s, j) == cobetti(s, j)
        assert pred.redundancy == product.redundancy(s)

    @pytest.mark.parametrize("name", SMALL_DOUBLE)
    def test_double_product_kunneth(self, name):
        c = complex_of(KUNNETH_CODES[name])
        pred = product.product_params(c)
        d = product.double_product(product.single_product(c))
        for j in d.levels():
            assert d.size(j) == pred.level_sizes[j]
            assert chain.betti_number(d, j) == pred.level_bettis[j]
            assert chain.betti_number(d, j) == cobetti(d, j)
        assert pred.redundancy == product.redundancy(d)

    def test_rep3_double_closed_form(self):
        c = complex_of(REP3)
        pred = product.product_params(c)
        assert pred.level_sizes[0] == 3**4 + 4 * 3**2 * 2**2 + 2**4 == 241
        assert pred.level_bettis[0] == 1
        assert pred.level_bettis[1] == pred.level_bettis[-1] == 0
        assert pred.distances["d_0"] == chain.Distance(9, "exact")
        assert pred.distances["d_-1^T"] == chain.Distance(9, "exact")
        assert math.isinf(pred.distances["d_1"].value)
        assert math.isinf(pred.distances["d_-2^T"].value)
        d = product.double_product(product.single_product(c))
        assert pred.redundancy == product.redundancy(d) == Fraction(13, 10)

    def test_six_two_closed_form(self):
        c = complex_of(SIX_TWO)
        pred = product.product_params(c)
        assert pred.level_sizes[0] == 3856
        assert pred.level_bettis[0] == 16
        d = product.double_product(product.single_product(c))
        assert product.redundancy(d) == Fraction(4992, 3840) == Fraction(13, 10)
        assert pred.redundancy == product.redundancy(d)

    def test_redundancy_preserved_when_minimal(self):
        c = product.minimal_complex(REP3)
        pred = product.product_params(c, stages=1)
        assert pred.redundancy == product.redundancy(product.single_product(c)) == 1

    def test_single_redundancy_closed_form(self):
        # direct cyclic input carries redundancy 3/2; the product's follows
        # the update rule u*n/(u*(n-k)+k)
        c = complex_of(CYC3)
        pred = product.product_params(c, stages=1)
        u = Fraction(3, 2)
        expected = u * 3 / (u * 2 + 1)
        assert pred.redundancy == expected
        s = product.single_product(c)
        assert product.redundancy(s) == expected

    def test_double_redundancy_bound_strict(self):
        for name in SMALL_DOUBLE:
            c = complex_of(KUNNETH_CODES[name])
            s = product.single_product(c)
            d = product.double_product(s)
            assert product.redundancy(d) < 2 * product.redundancy(s)
            assert product.product_params(c).redundancy == product.redundancy(d)

    def test_product_params_stages(self):
        c = complex_of(REP3)
        assert product.product_params(c, stages=1).level_sizes[0] == 13
        assert product.product_params(c, stages=2).level_sizes[0] == 241
        assert product.product_params(c).level_sizes[0] == 241
        with pytest.raises(ValueError):
            product.product_params(product.single_product(c))


class TestDistanceIdentities:
    def test_cyclic_product_identity(self):
        # the two product-identity distances equal d_0 * d_0^T = 9
        s = product.single_product(complex_of(CYC3))
        assert chain.homological_distance(s, -1, 9).value == 9
        assert chain.cohomological_distance(s, 0, 9).value == 9

    def test_cyclic_product_bounds(self):
        s = product.single_product(complex_of(CYC3))
        assert chain.homological_distance(s, 0, 4).value == 3
        assert chain.cohomological_distance(s, -1, 4).value == 3

    def test_rep_product_identities_infinite(self):
        # with no input redundancy the identity sides are infinite
        for h in (REP2, REP3):
            s = product.single_product(complex_of(h))
            assert math.isinf(chain.homological_distance(s, -1, 6).value)
            assert math.isinf(chain.cohomological_distance(s, 0, 6).value)

    def test_rep_product_min_bounds(self):
        for h, d in ((REP2, 2), (REP3, 3)):
            s = product.single_product(complex_of(h))
            assert chain.homological_distance(s, 0, 6).value == d
            assert chain.cohomological_distance(s, -1, 6).value == d

    def test_double_product_bounds_respected(self):
        # exact small-instance distances equal the closed form
        c = complex_of(REP2)
        closed = product.product_params(c).distances
        d = product.double_product(product.single_product(c))
        d0 = chain.homological_distance(d, 0, 4)
        assert d0.is_exact() and d0.value == 4
        assert d0.value == closed["d_0"].value
        dm1t = chain.cohomological_distance(d, -1, 4)
        assert dm1t.is_exact() and dm1t.value == 4
        assert dm1t.value == closed["d_-1^T"].value

    def test_cyclic_double_meta_bounds(self):
        c = complex_of(CYC3)
        closed = product.product_params(c).distances
        d = product.double_product(product.single_product(c))
        d1 = chain.homological_distance(d, 1, 3)
        assert d1.is_exact() and d1.value == 3
        assert d1.value == closed["d_1"].value
        dm2t = chain.cohomological_distance(d, -2, 3)
        assert dm2t.is_exact() and dm2t.value == 3
        assert dm2t.value == closed["d_-2^T"].value


def _enumerated(complex_, key, value):
    """Exact enumeration of the distance named key, searched up to value."""
    j = int(key[2:].removesuffix("^T"))
    w = 1 if math.isinf(value) else int(value)
    if key.endswith("^T"):
        return chain.cohomological_distance(complex_, j, w)
    return chain.homological_distance(complex_, j, w)


class TestProductDistances:
    @pytest.mark.parametrize("name", sorted(KUNNETH_CODES))
    def test_single_product_matches_enumeration(self, name):
        c = complex_of(KUNNETH_CODES[name])
        closed = product.product_params(c, stages=1).distances
        s = product.single_product(c)
        assert len(closed) == 6  # d_j for j = -1..1, d_j^T for j = -2..0
        for key, dist in closed.items():
            got = _enumerated(s, key, dist.value)
            assert dist.is_exact()
            assert got.is_exact() and got.value == dist.value, key

    def test_rep2_double_product_every_level(self):
        c = complex_of(REP2)
        closed = product.product_params(c).distances
        d = product.double_product(product.single_product(c))
        assert closed["d_0"].value == closed["d_-1^T"].value == 4
        for key, dist in closed.items():
            got = _enumerated(d, key, dist.value)
            assert got.is_exact() and got.value == dist.value, key

    @pytest.mark.parametrize("name, d_ss", [("cyc3", 3), ("five_two", 2)])
    def test_double_product_single_shot_distance(self, name, d_ss):
        c = complex_of(KUNNETH_CODES[name])
        closed = product.product_params(c).distances
        d = product.double_product(product.single_product(c))
        for key in ("d_1", "d_-2^T"):
            assert closed[key].value == d_ss
            got = _enumerated(d, key, d_ss)
            assert got.is_exact() and got.value == d_ss

    @pytest.mark.parametrize(
        "name, d_q",
        [("rep2", 4), ("rep3", 9), ("rep4", 16), ("cyc3", 9), ("cyc4", 16),
         ("parity4", 4), ("hamming74", 9), ("six_two", 16), ("five_two", 4)],
    )
    def test_double_product_qubit_distance(self, name, d_q):
        closed = product.product_params(complex_of(KUNNETH_CODES[name])).distances
        assert closed["d_0"] == closed["d_-1^T"] == chain.Distance(d_q, "exact")

    def test_full_rank_input_gives_d_squared(self):
        for h in (REP3, REP4, KUNNETH_CODES["hamming74"], SIX_TWO):
            d = chain.homological_distance(complex_of(h), 0, h.shape[1]).value
            closed = product.product_params(complex_of(h)).distances
            assert closed["d_0"].value == closed["d_-1^T"].value == d * d
            assert math.isinf(closed["d_1"].value) and math.isinf(closed["d_-2^T"].value)

    @pytest.mark.parametrize("name", sorted(cli.TABLE1_INPUTS))
    def test_equals_table1_witness(self, name):
        base = complex_of(cli.TABLE1_INPUTS[name])
        breve = cli.build_stages(base)
        d = chain.homological_distance(base, 0, base.size(0))
        witness = product.double_distance_witness(breve, max_weight=int(d.value))
        assert witness is not None
        closed = product.product_params(base).distances
        assert closed["d_0"].value == closed["d_-1^T"].value == gf2.weight(witness)

    def test_rejects_wrong_input(self):
        s = product.single_product(complex_of(REP3))
        with pytest.raises(ValueError):
            product.product_params(s)
        with pytest.raises(ValueError):
            product.product_params(complex_of(REP3), stages=3)


class TestRedundancy:
    def test_rep3_single(self):
        s = product.single_product(complex_of(REP3))
        assert product.redundancy(s) == Fraction(12, 12) == 1

    def test_rep3_double(self):
        d = product.double_product(product.single_product(complex_of(REP3)))
        assert product.redundancy(d) == Fraction(312, 240) == Fraction(13, 10)

    def test_rep4_double(self):
        d = product.double_product(product.single_product(complex_of(REP4)))
        assert product.redundancy(d) == Fraction(1200, 912)
        assert abs(float(product.redundancy(d)) - 1.31579) < 1e-5

    def test_rejects_without_check_levels(self):
        with pytest.raises(ValueError):
            product.redundancy(complex_of(REP3))
