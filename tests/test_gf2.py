import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homprod import gf2

from codes import cols_of, rows_of, solutions_up_to_weight
from dense_reference import dense_kernel, dense_rref


def bits(rows):
    return np.array(rows, dtype=np.uint8)


@st.composite
def bin_matrix(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return bits(data)


class TestRank:
    def test_independent_rows(self):
        assert gf2.rank(bits([[1, 1, 0], [0, 1, 1]])) == 2

    def test_zero_matrix(self):
        assert gf2.rank(gf2.zeros(3, 4)) == 0

    def test_identity(self):
        for n in (1, 4, 7):
            assert gf2.rank(gf2.identity(n)) == n

    @given(bin_matrix())
    def test_rank_nullity(self, m):
        assert gf2.rank(m) + len(gf2.cokernel_rows(m.T)) == m.shape[1]

    @given(bin_matrix())
    def test_rank_transpose(self, m):
        assert gf2.rank(m) == gf2.rank(m.T)


class TestKernel:
    """The kernel {v : m v = 0}, read as the rows y with y m^T = 0."""

    def test_forced_by_dimension(self):
        assert gf2.cokernel_rows(bits([[1, 1]]).T).tolist() == [[1, 1]]

    def test_identity_empty(self):
        assert gf2.cokernel_rows(gf2.identity(3).T).shape == (0, 3)

    def test_repetition_codeword(self):
        assert gf2.cokernel_rows(bits([[1, 1, 0], [0, 1, 1]]).T).tolist() == [[1, 1, 1]]

    @given(bin_matrix())
    def test_members_annihilate(self, m):
        for v in gf2.cokernel_rows(m.T):
            assert not gf2.mat_vec(m, v).any()


@st.composite
def product_pair(draw):
    """(a, b, kind) with 0-20 rows and columns each.

    a gets some rows with no ones.  kind "random" draws b freely, so a @ b
    is almost always nonzero; "zero" builds b's columns from ker(a), so
    a @ b = 0; "last_column" then flips one bit of b's last column under
    a nonzero column of a, so a @ b is nonzero in its last column only.
    """
    r, k, c = (draw(st.integers(0, 20)) for _ in range(3))
    a = draw(arrays(np.uint8, (r, k), elements=st.integers(0, 1)))
    a[draw(arrays(np.bool_, r))] = 0
    kind = draw(st.sampled_from(["random", "zero", "last_column"]))
    if kind == "random":
        return a, draw(arrays(np.uint8, (k, c), elements=st.integers(0, 1))), kind
    basis = dense_kernel(a)
    coeffs = draw(arrays(np.uint8, (basis.shape[0], c), elements=st.integers(0, 1)))
    b = np.ascontiguousarray(gf2.mat_mul(basis.T, coeffs))
    if kind == "last_column" and c and a.any():
        b[np.flatnonzero(a.any(axis=0))[0], -1] ^= 1
    return a, b, kind


class TestProductIsZero:
    @given(product_pair())
    @settings(max_examples=300)
    def test_agrees_with_mat_mul(self, pair):
        a, b, kind = pair
        product = gf2.mat_mul(a, b)
        assert gf2.product_is_zero(a, b) == (not product.any())
        if kind == "zero":
            assert gf2.product_is_zero(a, b)
        if kind == "last_column" and b.shape[1] and a.any():
            assert not gf2.product_is_zero(a, b)
            assert not product[:, :-1].any()

    @pytest.mark.parametrize("cols", [1, 7, 8, 9, 15, 17])
    def test_nonzero_only_in_last_column(self, cols):
        # a = [1 1], b's rows agree except in the last column
        b = np.zeros((2, cols), dtype=np.uint8)
        b[:, : cols - 1] = 1
        b[0, -1] = 1
        a = bits([[0, 0], [1, 1]])
        assert not gf2.product_is_zero(a, b)
        b[1, -1] = 1
        assert gf2.product_is_zero(a, b)
        # transposed views are read the same way
        assert gf2.product_is_zero(a.T.copy().T, b.T.copy().T)

    def test_empty_and_zero(self):
        assert gf2.product_is_zero(gf2.zeros(0, 3), gf2.zeros(3, 4))
        assert gf2.product_is_zero(gf2.zeros(2, 0), gf2.zeros(0, 4))
        assert gf2.product_is_zero(gf2.identity(3), gf2.zeros(3, 0))
        assert gf2.product_is_zero(gf2.zeros(2, 3), bits([[1], [1], [1]]))
        assert not gf2.product_is_zero(gf2.identity(3), gf2.identity(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gf2.product_is_zero(gf2.zeros(2, 3), gf2.zeros(2, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            gf2.product_is_zero(gf2.zeros(0, 1), gf2.zeros(0, 1))


class TestSolve:
    def test_identity(self):
        b = bits([1, 0, 1])
        assert gf2.Gf2Solver(gf2.identity(3)).solve(b).tolist() == [1, 0, 1]

    def test_free_variables_zero(self):
        x = gf2.Gf2Solver(bits([[1, 1]])).solve(bits([1]))
        assert x.tolist() == [1, 0]

    def test_no_solution(self):
        assert gf2.Gf2Solver(gf2.zeros(2, 3)).solve(bits([1, 0])) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.Gf2Solver(gf2.zeros(2, 3)).solve(bits([1, 0, 1]))

    @given(bin_matrix(), st.data())
    def test_solution_when_consistent(self, m, data):
        x0 = bits(data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])))
        b = gf2.mat_vec(m, x0)
        x = gf2.Gf2Solver(m).solve(b)
        assert x is not None
        assert (gf2.mat_vec(m, x) == b).all()


@st.composite
def wide_matrix(draw):
    """A sparse, dense or low-rank matrix with 0-70 rows and 0-70 columns, so
    widths land on and off byte boundaries."""
    rows, cols = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    kind = draw(st.sampled_from(["sparse", "dense", "low_rank"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "low_rank":
        k = draw(st.integers(0, 6))
        a = rng.integers(0, 2, (rows, k))
        return ((a @ rng.integers(0, 2, (k, cols))) % 2).astype(np.uint8)
    density = 0.05 if kind == "sparse" else 0.5
    return (rng.random((rows, cols)) < density).astype(np.uint8)


@st.composite
def bin_system(draw):
    """(M, b) with M one of wide_matrix's, possibly empty, zero or rank
    deficient, so that its rows and b reach past one byte and past 64 bits,
    and b a random vector or an image of M (so both verdicts of in_image
    are drawn)."""
    m = draw(wide_matrix())
    rows, cols = m.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, 2, cols, dtype=np.uint8)
        b = gf2.mat_vec(m, x) if rows else np.zeros(0, dtype=np.uint8)
    else:
        b = rng.integers(0, 2, rows, dtype=np.uint8)
    return m, b.reshape(-1)


def reference_solution(m, b):
    """Solution of Mx = b with free variables zero, by RREF of [M | b]."""
    rows, cols = m.shape
    red, pivots = gf2._rref(np.hstack([m, b.reshape(rows, 1)]))
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = red[i, cols]
    return x


class TestSolverMembership:
    @settings(deadline=None)
    @given(bin_system())
    @example((gf2.zeros(0, 5), np.zeros(0, dtype=np.uint8)))
    @example((gf2.zeros(5, 0), bits([0, 1, 0, 0, 1])))
    def test_in_image_agrees_with_solve(self, system):
        m, b = system
        solver = gf2.Gf2Solver(m)
        x = solver.solve(b)
        assert solver.in_image(b) == (x is not None)
        expected = reference_solution(m, b)
        if expected is None:
            assert x is None
        else:
            assert x.dtype == np.uint8 and x.tolist() == expected.tolist()

    @settings(deadline=None)
    @given(bin_system(), st.sampled_from([-1, 1]))
    def test_wrong_length_rejected_by_both(self, system, delta):
        m, _ = system
        solver = gf2.Gf2Solver(m)
        length = m.shape[0] + delta
        assume(length >= 0)
        b = np.zeros(length, dtype=np.uint8)
        with pytest.raises(ValueError):
            solver.in_image(b)
        with pytest.raises(ValueError):
            solver.solve(b)

    def test_no_rows(self):
        # every x solves the empty system, and the free variables are zero
        solver = gf2.Gf2Solver(gf2.zeros(0, 70))
        empty = np.zeros(0, dtype=np.uint8)
        assert solver.in_image(empty)
        assert solver.solve(empty).tolist() == [0] * 70

    def test_no_columns(self):
        # the image is {0}, and its one preimage is the empty vector
        solver = gf2.Gf2Solver(gf2.zeros(70, 0))
        zero, one = np.zeros(70, dtype=np.uint8), np.eye(1, 70, 69, dtype=np.uint8)[0]
        assert solver.in_image(zero) and solver.solve(zero).shape == (0,)
        assert not solver.in_image(one) and solver.solve(one) is None

    def test_in_image_builds_no_solution(self, monkeypatch):
        m = bits([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        solver = gf2.Gf2Solver(m)

        def refuse(self, b):
            raise AssertionError("in_image called solve")

        monkeypatch.setattr(gf2.Gf2Solver, "solve", refuse)
        assert solver.in_image(bits([1, 1, 0]))
        assert not solver.in_image(bits([1, 0, 0]))


class TestCokernelRows:
    def test_known_rows_leave_nothing(self):
        h = bits([[1, 1, 0], [0, 1, 1]]).T
        assert gf2.cokernel_rows(h, bits([[1, 1, 1]])).shape == (0, 3)

    @settings(max_examples=150, deadline=None)
    @given(wide_matrix(), st.integers(0, 2**32 - 1))
    @example(gf2.zeros(0, 5), 0)
    @example(gf2.zeros(5, 0), 0)
    @example(np.ones((4, 0), dtype=np.uint8), 1)
    def test_against_dense_reference(self, h, seed):
        # known: None, or random sums of the reference left null space,
        # as many as its dimension plus two, so some depend on others
        null = dense_kernel(h.T)
        rng = np.random.default_rng(seed)
        known = None
        if seed % 3:
            mix = rng.integers(0, 2, (int(rng.integers(0, len(null) + 3)), len(null)), dtype=np.uint8)
            known = gf2.mat_mul(mix, null)
        rows = gf2.cokernel_rows(h, known)
        assert rows.dtype == np.uint8 and rows.shape[1] == h.shape[0]
        assert rows.base is None and not rows.flags.writeable
        assert not gf2.mat_mul(rows, h).any()
        known = gf2.zeros(0, h.shape[0]) if known is None else known
        # with known, they span the left null space, of dimension rows(h) - rank(h)
        dim = h.shape[0] - len(dense_rref(h)[1])
        assert len(null) == dim
        spanned = np.vstack([known, rows])
        assert gf2.rank(spanned) == gf2.rank(np.vstack([spanned, null])) == dim
        # independent of each other and of known's span
        assert gf2.rank(spanned) == gf2.rank(known) + len(rows)


class TestEliminationAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(wide_matrix(), st.integers(0, 2**32 - 1))
    def test_every_output_matches(self, m, seed):
        rows, cols = m.shape
        _, pivots = dense_rref(m)
        assert gf2.rank(m) == len(pivots) == gf2.rank(m.T)
        # the kernel, as rows that annihilate m's transpose, spans the reference's
        kernel = dense_kernel(m)
        got = gf2.cokernel_rows(m.T)
        assert len(got) == len(kernel) == gf2.rank(np.vstack([got, kernel]))
        solver = gf2.Gf2Solver(m)
        assert solver.rank == len(pivots)
        assert solver.pivot_index == pivots
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, cols, dtype=np.uint8)
        for b in (rng.integers(0, 2, rows, dtype=np.uint8), gf2.mat_vec(m, x)):
            aug_red, aug_pivots = dense_rref(np.hstack([m, b.reshape(rows, 1)]))
            if cols in aug_pivots:
                expected = None
            else:
                expected = np.zeros(cols, dtype=np.uint8)
                expected[aug_pivots] = aug_red[:, cols]
            got = solver.solve(b)
            assert solver.in_image(b) == (expected is not None)
            if expected is None:
                assert got is None
            else:
                assert np.array_equal(got, expected)


class TestSolveIntCore:
    """_solve_int, the core every solver query runs through, on int rows."""

    @settings(max_examples=150, deadline=None)
    @given(bin_system())
    @example((gf2.zeros(0, 0), np.zeros(0, dtype=np.uint8)))
    @example((gf2.zeros(0, 70), np.zeros(0, dtype=np.uint8)))
    @example((gf2.zeros(70, 0), np.zeros(70, dtype=np.uint8)))
    @example((gf2.zeros(70, 0), np.eye(1, 70, 69, dtype=np.uint8)[0]))
    def test_against_dense_reference(self, system):
        m, b = system
        rows, cols = m.shape
        solver = gf2.Gf2Solver(m)
        got = solver._solve_int(gf2._target_int(b))
        aug_red, aug_pivots = dense_rref(np.hstack([m, b.reshape(rows, 1)]))
        if cols in aug_pivots:
            assert got is None
        else:
            # x's ones: the pivots whose reduced row ends in a one, ascending
            assert got == [p for k, p in enumerate(aug_pivots) if aug_red[k, cols]]
        # solve's ones are the core's
        x = solver.solve(b)
        assert (x is None) == (got is None)
        if x is not None:
            assert np.flatnonzero(x).tolist() == got


def read_only(m):
    m = m.copy()
    m.setflags(write=False)
    return m


def listed(support):
    return [a.tolist() for a in support]


def packed_row_ints(m):
    """Reference int rows: the packed rows of the dense matrix, big-endian,
    less the padding bits of their last byte."""
    pad = -m.shape[1] % 8
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in np.packbits(m, axis=1)]


@st.composite
def word_edge_matrix(draw):
    """A 0/1 matrix of 0-8 rows and 0-130 columns, drawn often at widths
    around a byte or a 64-bit word, with all-zero and all-one rows."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.one_of(
        st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130]), st.integers(0, 130)
    ))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((rows, cols)) < density).astype(np.uint8)


class TestIntRows:
    """_row_ints and _int_matrix, both ways, against ints built bit by bit."""

    @settings(max_examples=300, deadline=None)
    @example(np.ones((3, 64), dtype=np.uint8), False)
    @example(np.ones((2, 65), dtype=np.uint8), True)
    @given(word_edge_matrix(), st.booleans())
    def test_round_trip_against_dense_reference(self, m, writable):
        width = m.shape[1]
        # column j at bit width - 1 - j, no padding bit
        want = [sum(int(b) << (width - 1 - j) for j, b in enumerate(row)) for row in m]
        ints = gf2._row_ints(m if writable else read_only(m))
        assert ints == want and all(type(v) is int for v in ints)
        back = gf2._int_matrix(ints, m.shape[1])
        assert back.dtype == np.uint8 and back.shape == m.shape
        assert back.base is None and back.flags.c_contiguous and back.flags.writeable
        assert back.tolist() == m.tolist()

    @settings(max_examples=200, deadline=None)
    @example(np.ones((1, 9), dtype=np.uint8))
    @given(word_edge_matrix())
    def test_vector_packer_matches_row_packer(self, m):
        # a vector of c entries is one c-bit int, laid out as a row of a matrix
        for v in m:
            packed = gf2._target_int(v)
            assert packed == gf2._row_ints(v[np.newaxis])[0]
            assert packed.bit_length() <= len(v)

    @settings(max_examples=100, deadline=None)
    @example(np.ones((9, 3), dtype=np.uint8))
    @given(wide_matrix())
    def test_transform_fits_in_the_row_count(self, m):
        # T's rows hold one bit per row of M and nothing above
        assert all(v.bit_length() <= m.shape[0] for v in gf2.Gf2Solver(m).transform)

    def test_searcher_shares_the_column_cache(self):
        m = read_only(bits([[1, 0, 1], [0, 1, 1]]))
        assert gf2._searcher(m).cols is gf2._rows(m.T) == [0b10, 0b01, 0b11]
        # a writable matrix is packed afresh on every call, as it stands
        w = bits([[1, 0, 1], [0, 1, 1]])
        first = gf2._rows(w)
        assert gf2._rows(w) is not first and first == [0b101, 0b011]
        w[0, 0] = 0
        assert gf2._rows(w) == [0b001, 0b011]


class TestSupportLayer:
    """Facts read from supports equal the same facts read from dense arrays."""

    @staticmethod
    def forms(m, seed):
        """m as a writable array, a read-only owner, and an owner built from
        its support in shuffled order, each with its full transpose."""
        rows, cols = np.nonzero(m)
        order = np.random.default_rng(seed).permutation(rows.size)
        built = gf2._from_support(m.shape, rows[order], cols[order])
        assert built.base is None and not built.flags.writeable
        for a in (m, read_only(m), built):
            yield a, m
            yield a.T, m.T

    @settings(max_examples=100, deadline=None)
    @given(wide_matrix(), st.integers(0, 2**32 - 1))
    def test_memoised_support_equals_nonzero(self, m, seed):
        for view, dense in self.forms(m, seed):
            support = gf2._support(view)
            assert listed(support) == listed(np.nonzero(dense))
            if not view.flags.writeable:
                # read-only: memoised, shared by every view of all of the owner
                assert gf2._support(view.T.T) is support

    def test_writable_matrix_gets_a_fresh_support(self):
        m = bits([[1, 0, 0], [0, 1, 0]])
        for view in (m, m.T):
            first = listed(gf2._support(view))
            m[0] = [0, 0, 1]
            assert listed(gf2._support(view)) == listed(np.nonzero(view)) != first
            m[0] = [1, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(wide_matrix(), st.integers(0, 2**32 - 1))
    def test_consumers_agree_with_dense_references(self, m, seed):
        rng = np.random.default_rng(seed)
        kernel = dense_kernel(m)
        coeffs = rng.integers(0, 2, (kernel.shape[0], 5), dtype=np.uint8)
        # m @ in_kernel = 0, and in_kernel.T @ m.T = 0
        in_kernel = gf2.mat_mul(kernel.T, coeffs)
        for view, dense in self.forms(m, seed):
            assert gf2._row_ints(view) == packed_row_ints(dense)
            v = rng.integers(0, 2, dense.shape[1], dtype=np.uint8)
            expected = (dense.astype(np.int64) @ v.astype(np.int64)) & 1
            got = gf2.mat_vec(view, v)
            assert got.dtype == np.uint8 and got.tolist() == expected.tolist()
            b = rng.integers(0, 2, (dense.shape[1], rng.integers(0, 20)), dtype=np.uint8)
            assert gf2.product_is_zero(view, b) == (not gf2.mat_mul(dense, b).any())
        assert gf2.product_is_zero(gf2._from_support(m.shape, *np.nonzero(m)), in_kernel)
        assert gf2.product_is_zero(in_kernel.T, read_only(m).T)


class TestMinWeightSolution:
    def test_zero_target(self):
        x, w = gf2.min_weight_solution(bits([[1, 1, 0], [0, 1, 1]]), bits([0, 0]), 3)
        assert w == 0 and not x.any()

    def test_unit_solution(self):
        x, w = gf2.min_weight_solution(bits([[1, 1, 0], [0, 1, 1]]), bits([1, 0]), 3)
        assert w == 1 and x.tolist() == [1, 0, 0]

    def test_tie_break_brute_force(self):
        # expected value computed by scanning all 8 vectors in (weight, lex) order
        m = bits([[1, 1, 0], [0, 1, 1]])
        b = bits([1, 1])
        best = None
        for code in range(8):
            v = bits([(code >> i) & 1 for i in range(3)])
            if (gf2.mat_vec(m, v) == b).all():
                key = (int(v.sum()), tuple(np.nonzero(v)[0]))
                if best is None or key < best[0]:
                    best = (key, v)
        x, w = gf2.min_weight_solution(m, b, 1)
        assert w == best[0][0] == 1
        assert (x == best[1]).all()
        assert x.tolist() == [0, 1, 0]

    def test_budget_exceeded(self):
        m = bits([[1, 0], [0, 1]])
        assert gf2.min_weight_solution(m, bits([1, 1]), 1) is None

    @given(bin_matrix(max_rows=4, max_cols=5), st.data())
    @settings(max_examples=60)
    def test_minimality_exhaustive(self, m, data):
        x0 = bits(data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])))
        b = gf2.mat_vec(m, x0)
        got = gf2.min_weight_solution(m, b, m.shape[1])
        assert got is not None
        x, w = got
        assert (gf2.mat_vec(m, x) == b).all()
        n = m.shape[1]
        brute = min(
            int(bin(code).count("1"))
            for code in range(2**n)
            if (gf2.mat_vec(m, bits([(code >> i) & 1 for i in range(n)])) == b).all()
        )
        assert w == brute

    def test_all_solutions_listing(self):
        m = bits([[1, 1, 0], [0, 1, 1]])
        sols = solutions_up_to_weight(m, bits([0, 0]), 3)
        assert [s.tolist() for s in sols] == [[0, 0, 0], [1, 1, 1]]


class TestSearchInputs:
    """The weight searches share one length and one budget check."""

    M = bits([[1, 1, 0], [0, 1, 1]])

    @pytest.mark.parametrize("b", [[1], [1, 0, 0]], ids=["short", "long"])
    @pytest.mark.parametrize("search", [gf2.min_weight_solution])
    def test_wrong_length_target(self, search, b):
        with pytest.raises(ValueError, match="dimension mismatch"):
            search(self.M, bits(b), 3)

    def test_negative_budget(self):
        for call in (
            lambda: gf2.min_weight_solution(self.M, bits([1, 0]), -1),
            lambda: list(gf2.kernel_vectors_by_weight(self.M, -1)),
        ):
            with pytest.raises(ValueError, match="max_weight"):
                call()


def _brute_supports(m: np.ndarray, b: np.ndarray, w: int) -> list[tuple[int, ...]]:
    """Size-w column sets summing to b, by filtering itertools.combinations."""
    cols = [int("".join(map(str, col)) or "0", 2) for col in m.T]
    target = int("".join(map(str, b)) or "0", 2)
    out = []
    for combo in itertools.combinations(range(m.shape[1]), w):
        acc = 0
        for j in combo:
            acc ^= cols[j]
        if acc == target:
            out.append(combo)
    return out  # combinations come in lex order


@st.composite
def search_case(draw):
    """A matrix of up to 8 x 12 and a target: a sum of columns or random bits."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    m = draw(arrays(np.uint8, (rows, cols), elements=st.integers(0, 1)))
    if draw(st.booleans()):
        x = draw(arrays(np.uint8, (cols,), elements=st.integers(0, 1)))
        b = gf2.mat_vec(m, x)
    else:
        b = draw(arrays(np.uint8, (rows,), elements=st.integers(0, 1)))
    return m, b


def _zero_sketch(packed):
    return np.zeros(len(packed), dtype=np.uint64)


def _first_bit_sketch(packed):
    """A linear sketch of one bit: the vector's first bit, in the top bit.

    Every pair of halves that differ on that bit then matches a target that
    has it, so the nonzero-target join meets colliding pairs in both
    orders, and a target without it runs the zero-target join."""
    out = np.zeros(len(packed), dtype=np.uint64)
    if packed.shape[1]:
        out[packed[:, 0] >= 0x80] = 1 << 63
    return out


@st.composite
def sparse_search_case(draw):
    """A matrix of up to 8 x 12 with at most 4 ones a column, and a nonzero
    target: a sum of columns or random bits."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    m = np.zeros((rows, cols), dtype=np.uint8)
    for j in range(cols):
        m[draw(st.lists(st.integers(0, rows - 1), max_size=4, unique=True)), j] = 1
    if draw(st.booleans()):
        b = gf2.mat_vec(m, draw(arrays(np.uint8, (cols,), elements=st.integers(0, 1))))
    else:
        b = draw(arrays(np.uint8, (rows,), elements=st.integers(0, 1)))
    assume(b.any())
    return m, b


class _CountingDict(dict):
    """A dict that counts its get calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


class TestWeightSearch:
    """Both half-table representations give the brute-force supports in lex
    order; the sorted arrays stay exact when every sketch collides."""

    @pytest.mark.parametrize(
        "patches",
        [
            {"_DRAW_MAX_COLUMNS": -1},
            {"_DRAW_MAX_COLUMNS": 1 << 62},
            {"_DRAW_MAX_COLUMNS": -1, "_sketch": _zero_sketch},
            {"_DRAW_MAX_COLUMNS": -1, "_sketch": _first_bit_sketch},
            {"_DRAW_MAX_COLUMNS": -1, "_QUERY_BLOCK_HALVES": 1},
        ],
        ids=[
            "arrays",
            "draws",
            "arrays-colliding-sketch",
            "arrays-first-bit-sketch",
            "arrays-one-half-blocks",
        ],
    )
    @given(search_case())
    @settings(max_examples=60)
    # three equal columns: the zero target's weight-2 supports are a run of
    # three equal keys, and its weight-4 ones pair the run's pairs
    @example(case=(bits([[1, 1, 1, 0], [0, 0, 0, 1]]), bits([0, 0])))
    # four equal columns and one that is the target with any of them
    @example(case=(bits([[1, 1, 1, 1, 0], [0, 0, 0, 0, 1]]), bits([1, 1])))
    # seven zero columns: every sum is zero, one run per table, each pair
    # of halves from one key to a later one, across blocks of one key
    @example(case=(gf2.zeros(2, 7), bits([0, 0])))
    def test_equals_brute_force(self, patches, case):
        m, b = case
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patches.items():
                mp.setattr(gf2, name, value)
            search = gf2._WeightSearch(m)
            target = gf2._target_int(b)
            expected = [_brute_supports(m, b, w) for w in range(7)]
            for w in range(7):
                assert search.supports(w, target) == expected[w]
            listed = solutions_up_to_weight(m, b, 6)
            assert [tuple(np.flatnonzero(v)) for v in listed] == [
                s for per_weight in expected for s in per_weight
            ]
            first = next((s for per_weight in expected for s in per_weight), None)
            found = gf2.min_weight_solution(m, b, 6)
            if first is None:
                assert found is None
            else:
                assert tuple(np.flatnonzero(found[0])) == first
                assert found[1] == len(first)

    def test_queries_add_no_attribute(self):
        # an attribute added after __init__ slows every later attribute read
        # of that searcher, so what the queries make lazily fills attributes
        # that __init__ already set
        m = np.random.default_rng(7).integers(0, 2, size=(12, 40), dtype=np.uint8)
        search = gf2._WeightSearch(m)
        before = list(vars(search))
        assert search.n <= gf2._DRAW_MAX_COLUMNS
        search.supports(4, 0)  # the array path
        search.supports(3, gf2._target_int(m[:, 0] ^ m[:, 1] ^ m[:, 2]))  # drawn
        assert search._words is not None and search._pair_reach is not None
        assert search._index is not None
        assert list(vars(search)) == before

    def test_241_qubit_blocks_equal_one_block(self):
        # the deep queries of the benchmark's seed-1 rounds run: the first
        # round's residual is one X error, decoded from a flip of check bit
        # 120; its X side has a nonzero target, its Z side the target zero
        from homprod import chain, css, decoder, product

        tilde = product.single_product(chain.ChainComplex([bits([[1, 1, 0], [0, 1, 1]])], j_min=0))
        code = css.from_complex(product.double_product(tilde))
        u = np.zeros(code.num_z_checks + code.num_x_checks, dtype=np.uint8)
        u[119] = 1
        residual = decoder.single_shot_decode(
            code, decoder.split_measurement_error(code, u), 6
        ).e_rec
        for side, v, count in (("x", residual.e, 90), ("z", residual.f, 116)):
            ann = code.coset_annihilator(side)
            search = gf2._WeightSearch(ann)
            target = gf2._target_int(gf2.mat_vec(ann, v))
            assert (target == 0) == (side == "z")
            blocks = math.comb(code.n, 3) // gf2._QUERY_BLOCK_HALVES
            assert blocks > 100  # the weight-6 queries span many blocks
            blockwise = search.supports(6, target)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gf2, "_QUERY_BLOCK_HALVES", math.comb(code.n, 3))
                assert search.supports(6, target) == blockwise
            assert len(blockwise) == count

    def test_sketch_is_linear_and_blockwise(self, monkeypatch):
        rng = np.random.default_rng(2)
        a, b = (rng.integers(0, 256, (40, 19), dtype=np.uint8) for _ in range(2))
        whole = gf2._sketch(a)
        assert (gf2._sketch(a ^ b) == whole ^ gf2._sketch(b)).all()
        assert len(set(whole.tolist())) == 40  # distinct vectors, distinct sketches
        monkeypatch.setattr(gf2, "_SKETCH_BLOCK_BYTES", 8)  # one row per block
        assert (gf2._sketch(a) == whole).all()

    def test_path_follows_right_half_count(self):
        # only one-column right halves (weight 2 and 3) are ever drawn or
        # paired through the index; a zero weight-3 target runs on the arrays
        search = gf2._WeightSearch(gf2.identity(6))
        search.supports(3, 0)
        assert sorted(search._sorted) == [1, 2] and search._index is None
        search.supports(1, 1)  # always an index lookup
        assert sorted(search._sorted) == [1, 2] and search._index == {
            1 << (5 - j): [j] for j in range(6)
        }


    @pytest.mark.parametrize(
        "threshold", [-1, 1 << 62], ids=["arrays", "draws"]
    )
    @given(sparse_search_case())
    @settings(max_examples=60)
    # the target's highest bit on an all-zero row: no support reaches it
    @example(case=(bits([[0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 1]]), bits([1, 1, 0])))
    # columns 0, 1 and 2 all on the target's highest bit: one support, drawn 3 times
    @example(case=(bits([[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]]), bits([1, 1, 1])))
    # column 0 is the target and columns 1 and 2 are equal: {0, 1, 2} leaves
    # rest = 0 after column 0, a pair of equal columns
    @example(case=(bits([[1, 0, 0], [1, 1, 1], [0, 1, 1]]), bits([1, 1, 0])))
    # column 1 is zero: {1, 2, 4} and {1, 3, 4} look it up; {0, 2, 3} leaves rest = 0
    @example(case=(bits([[1, 0, 0, 0, 1], [1, 0, 1, 1, 0], [0, 0, 1, 1, 1]]), bits([1, 1, 0])))
    # {0, 1, 2} has three columns on the target's highest bit; {3, 4, 5}
    # leaves rest = 0 after column 3
    @example(
        case=(bits([[1, 1, 1, 1, 0, 0], [1, 0, 1, 0, 1, 1], [0, 1, 1, 0, 1, 1]]), bits([1, 0, 0]))
    )
    # {0, 1, 2}: columns 1 and 2 are disjoint and as heavy as any, so the
    # rest after column 0 has twice the heaviest column's ones
    @example(
        case=(bits([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]), bits([1, 1, 1, 1, 1]))
    )
    def test_sparse_nonzero_targets_equal_brute_force(self, threshold, case):
        m, b = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_DRAW_MAX_COLUMNS", threshold)
            search = gf2._WeightSearch(m)
            target = gf2._target_int(b)
            expected = [_brute_supports(m, b, w) for w in range(7)]
            for w in range(7):
                assert search.supports(w, target) == expected[w]
            first = next((s for per_weight in expected for s in per_weight), None)
            found = gf2.min_weight_solution(m, b, 6)
            assert (found is None) == (first is None)
            if found is not None:
                assert (tuple(np.flatnonzero(found[0])), found[1]) == (first, len(first))

    def test_pivot_row_bounds_the_lookups(self):
        # a nonzero weight-2 query on the 241-qubit Z checks looks up only
        # the columns on the target's highest set bit, not all 241; a
        # weight-3 one draws from two pivot rows and builds no pair table
        from homprod import chain, css, product

        tilde = product.single_product(chain.ChainComplex([bits([[1, 1, 0], [0, 1, 1]])], j_min=0))
        z = css.from_complex(product.double_product(tilde)).z_checks
        assert z.shape[1] == 241
        search = gf2._WeightSearch(z)
        v = np.zeros(241, dtype=np.uint8)
        v[[17, 200]] = 1
        target = gf2._target_int(gf2.mat_vec(z, v))
        search.supports(1, target)  # builds the index
        index = search._index = _CountingDict(search._index)
        assert (17, 200) in search.supports(2, target)
        row_weight = int(z.sum(axis=1).max())
        assert 0 < index.gets <= row_weight
        v[100] = 1
        target = gf2._target_int(gf2.mat_vec(z, v))
        index.gets = 0
        assert (17, 100, 200) in search.supports(3, target)
        assert 0 < index.gets <= row_weight**2
        assert not search._sorted

    def test_weights_above_the_column_count_find_nothing(self):
        # a support of w > n columns cannot exist; its half codes would not
        # fit the sketch's low bits either
        search = gf2._WeightSearch(gf2.zeros(2, 13))
        assert search.supports(26, 0) == [] and not search._sorted
        assert search.supports(13, 0) == [tuple(range(13))]

    def test_kernel_supports_are_kept_and_handed_out_fresh(self):
        m = bits([[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 1, 1, 1]])
        search = gf2._WeightSearch(m)
        first = search.supports(3, 0)
        assert first == _brute_supports(m, bits([0, 0, 0]), 3) and first
        second = search.supports(3, 0)
        assert second == first and second is not first
        first.sort(reverse=True)
        first.append((9, 9, 9))
        assert search.supports(3, 0) == second


class TestMemoryCap:
    """A half table over the byte cap raises BudgetExhausted before it is built."""

    def test_table_over_cap_raises(self, monkeypatch):
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 4)
        m = bits([[1, 1, 0], [0, 1, 1]])
        # weight 0 needs no table
        assert gf2.min_weight_solution(m, bits([0, 0]), 3)[1] == 0
        with pytest.raises(gf2.BudgetExhausted, match=r"C\(3, 1\) = 3 entries"):
            gf2.min_weight_solution(m, bits([1, 0]), 3)

    def test_sorted_table_over_cap_raises(self, monkeypatch):
        search = gf2._WeightSearch(gf2.identity(6))
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 15 * gf2._ARRAY_ENTRY_BYTES - 1)
        with pytest.raises(gf2.BudgetExhausted, match=r"C\(6, 2\) = 15 entries"):
            search._sorted_table(2)
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 15 * gf2._ARRAY_ENTRY_BYTES)
        assert search._sorted_table(2).size == 15

    def test_query_over_cap_raises(self, monkeypatch):
        # the weight-2 table takes 780 entries, but on an all-zero row they
        # are one run of equal sketches, and the weight-4 query pairs each
        # with every later one: C(780, 2) candidates
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 1 << 20)
        search = gf2._WeightSearch(gf2.zeros(1, 40))
        search._sorted_table(2)
        with pytest.raises(gf2.BudgetExhausted, match="303810 candidates"):
            search.supports(4, 0)

    def test_zero_target_weight_3_output_is_capped(self, monkeypatch):
        # every triple of an all-zero row sums to zero: the C(60, 2) pair
        # table is small, but its 106200 candidates are not
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 1 << 20)
        with pytest.raises(gf2.BudgetExhausted, match="106200 candidates"):
            gf2._WeightSearch(gf2.zeros(1, 60)).supports(3, 0)

    def test_weight_3_draw_output_is_capped(self, monkeypatch):
        # 40 columns each of 100, 010 and 001: every triple of one of each
        # sums to 111, 64000 supports drawn from pivot rows, charged as they
        # are found (an all-ones row stops earlier, at its pairs of equal
        # columns; see below)
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 1 << 20)
        search = gf2._WeightSearch(np.repeat(gf2.identity(3), 40, axis=1))
        with pytest.raises(gf2.BudgetExhausted, match="weight-3 pivot draw"):
            search.supports(3, 0b111)

    @pytest.mark.parametrize("row", [0, 1], ids=["zeros", "ones"])
    def test_equal_column_pairs_are_capped(self, monkeypatch, row):
        # 120 equal columns: C(120, 2) = 7140 pairs sum to zero, counted
        # before they are listed
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 1 << 20)
        search = gf2._WeightSearch(np.full((1, 120), row, dtype=np.uint8))
        with pytest.raises(gf2.BudgetExhausted, match="7140 pairs of equal columns"):
            search.supports(2, 0)

    def test_weight_2_draw_output_is_capped(self, monkeypatch):
        # 70 ones then 70 zeros: each one column pairs with each zero column
        # to sum to the one bit: 4900 supports, charged once drawn
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 1 << 20)
        search = gf2._WeightSearch(bits([[1] * 70 + [0] * 70]))
        with pytest.raises(gf2.BudgetExhausted, match="weight-2 pivot draw"):
            search.supports(2, 1)

    def test_array_peaks_stay_within_the_entry_estimate(self):
        # the cap's estimate is an upper bound: building a table of 161700
        # entries, and its heaviest query (target zero, which pairs the
        # halves inside each run of equal sketches), each peak below the
        # estimated bytes per entry
        m = np.random.default_rng(1).integers(0, 2, (20, 100), dtype=np.uint8)
        search = gf2._WeightSearch(m)
        entries = math.comb(100, 3)
        peaks = []
        for step in (lambda: search._sorted_table(3), lambda: search.supports(6, 0)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= entries * gf2._ARRAY_ENTRY_BYTES, peaks

    def test_default_cap_admits_the_241_qubit_tables(self):
        # C(241, 3) entries as arrays: the deep coset search of the 241-qubit code
        gf2._reserve(241, 3, gf2._ARRAY_ENTRY_BYTES)

    def test_decoder_raises_the_same_class(self):
        from homprod import decoder

        assert decoder.BudgetExhausted is gf2.BudgetExhausted


class TestReshape:
    def test_unit_vector_placement(self):
        # entry (i, j) of a rows x cols matrix flattens to index i*cols + j,
        # where kron puts the product of the i-th and j-th unit vectors
        m = gf2.zeros(2, 3)
        m[1, 2] = 1
        v = gf2.flatten_matrix(m)
        assert (v == np.kron(np.eye(2, dtype=np.uint8)[1], np.eye(3, dtype=np.uint8)[2])).all()

    def test_round_trip(self):
        v = bits([1, 0, 1, 1, 0, 0])
        assert (gf2.flatten_matrix(v.reshape(2, 3)) == v).all()

    @given(st.integers(0, 2**24 - 1), st.integers(0, 2**11 - 1), st.integers(0, 2**15 - 1))
    @settings(max_examples=40)
    def test_kron_action(self, vcode, acode, bcode):
        # flatten(A @ reshape(v) @ B.T) == kron(A, B) @ v on random small inputs
        a = bits([[(acode >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)])[:2, :]
        b = bits([[(bcode >> (5 * i + j)) & 1 for j in range(5)] for i in range(3)])[:, :4]
        v = bits([(vcode >> i) & 1 for i in range(12)])  # 3 cols of a * 4 cols of b
        lhs = gf2.flatten_matrix(gf2.mat_mul(gf2.mat_mul(a, v.reshape(3, 4)), b.T))
        rhs = gf2.mat_vec(np.kron(a, b), v)
        assert (lhs == rhs).all()


class TestSupports:
    # the row and column supports that the partial-decode support conditions
    # compare (tests/codes.py): a swapped axis would weaken that check
    def test_worked_example(self):
        x = bits(
            [
                [1, 0, 0, 1, 1, 0],
                [0, 1, 0, 1, 1, 0],
                [0, 0, 0, 1, 1, 0],
            ]
        )
        assert cols_of(x) == {0, 1, 3, 4}
        assert rows_of(x) == {0, 1, 2}

    def test_zero(self):
        assert cols_of(gf2.zeros(2, 3)) == rows_of(gf2.zeros(2, 3)) == set()

    def test_identity(self):
        assert cols_of(gf2.identity(3)) == rows_of(gf2.identity(3)) == {0, 1, 2}

    @given(bin_matrix())
    def test_support_bounded_by_weight(self, m):
        assert len(cols_of(m)) <= gf2.weight(m)
        assert len(rows_of(m)) <= gf2.weight(m)


class TestPcmFormat:
    def test_round_trip(self, tmp_path):
        m = bits([[1, 0, 1], [0, 1, 1]])
        p = tmp_path / "m.pcm"
        gf2.write_pcm(p, m)
        assert (gf2.read_pcm(p) == m).all()

    def test_exact_text(self):
        assert gf2.format_pcm(bits([[1, 0], [0, 1]])) == "2 2\n10\n01\n"

    @staticmethod
    def per_entry_writer(m):
        """The writer as it was, one generator step per entry: the reference."""
        lines = [f"{m.shape[0]} {m.shape[1]}"]
        for row in m:
            lines.append("".join("1" if x else "0" for x in row))
        return "\n".join(lines) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(wide_matrix())
    def test_text_equals_per_entry_writer_and_round_trips(self, m):
        text = gf2.format_pcm(m)
        assert text == self.per_entry_writer(m)
        assert gf2.parse_pcm(text).tolist() == m.tolist()
        assert gf2.format_pcm(m.T) == self.per_entry_writer(m.T)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (1, 1), (2, 8), (2, 9)])
    def test_text_of_edge_shapes(self, shape):
        m = np.random.default_rng(sum(shape)).integers(0, 2, shape, dtype=np.uint8)
        assert gf2.format_pcm(m) == self.per_entry_writer(m)
        assert gf2.parse_pcm(gf2.format_pcm(m)).shape == shape

    def test_zero_rows(self, tmp_path):
        p = tmp_path / "z.pcm"
        gf2.write_pcm(p, gf2.zeros(0, 4))
        m = gf2.read_pcm(p)
        assert m.shape == (0, 4)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            gf2.parse_pcm("2 2\n10\n2x\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # a 10^18-entry matrix is never allocated for a one-row file
            ("1000000000 1000000000\n0101\n", "expected 1000000000 rows, found 1"),
            ("-1 2\n", "bad .pcm header: '-1 2'"),
        ],
        ids=["more_rows_than_lines", "negative_rows"],
    )
    def test_header_is_checked_against_the_rows_before_allocating(self, text, message):
        with pytest.raises(ValueError, match=message):
            gf2.parse_pcm(text)

    def test_blank_lines_after_the_rows_parse(self):
        assert gf2.parse_pcm("2 0\n\n\n").shape == (2, 0)
        assert gf2.parse_pcm("1 2\n10\n\n  \n").tolist() == [[1, 0]]
        assert gf2.parse_pcm("2 2\n10\n01").tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("text", ["1 2\n10\n01\n", "1 2\n10\n\n01\n", "0 2\n10\n"])
    def test_rejects_rows_beyond_the_header(self, text):
        with pytest.raises(ValueError, match="unexpected .pcm line"):
            gf2.parse_pcm(text)


class TestMemo:
    """Facts about a matrix are memoised only while the matrix cannot change."""

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_mutation_between_calls_gives_fresh_answers(self, read_only_view):
        rows = [[1, 0, 0], [0, 1, 0]]
        if read_only_view:
            # the full transpose of a writable owner, itself read-only
            owner = bits(rows).T.copy()
            m = owner.T
            m.setflags(write=False)
            writer = owner.T
        else:
            m = writer = bits(rows)
        b = bits([1, 0])

        def answers():
            return (
                gf2.min_weight_solution(m, b, 3)[0].tolist(),
                [v.tolist() for v in solutions_up_to_weight(m, b, 1)],
                gf2.get_solver(m).solve(b).tolist(),
            )

        assert answers() == ([1, 0, 0], [[1, 0, 0]], [1, 0, 0])
        writer[0] = [0, 0, 1]
        assert answers() == ([0, 0, 1], [[0, 0, 1]], [0, 0, 1])

    def test_read_only_matrix_and_transpose_build_once(self, monkeypatch):
        m = bits([[1, 1, 0], [0, 1, 1]])
        m.setflags(write=False)
        builds = {"solver": 0, "search": 0}
        for name, cls in (("solver", gf2.Gf2Solver), ("search", gf2._WeightSearch)):
            def counting(self, a, _name=name, _real=cls.__init__):
                builds[_name] += 1
                _real(self, a)

            monkeypatch.setattr(cls, "__init__", counting)
        for _ in range(5):
            # a fresh transpose view on every call shares the one "T" entry
            for mat, b in ((m, bits([1, 0])), (m.T, bits([1, 0, 1]))):
                gf2.get_solver(mat).solve(b)
                gf2.min_weight_solution(mat, b, 3)
                solutions_up_to_weight(mat, b, 3)
                list(gf2.kernel_vectors_by_weight(mat, 3))
        assert builds == {"solver": 2, "search": 2}
        # any other view is rebuilt on every call
        gf2.get_solver(m[:, :2])
        gf2.get_solver(m[:, :2])
        assert builds["solver"] == 4

    def test_memo_keys_on_the_owner(self):
        m = bits([[1, 1, 0], [0, 1, 1]])
        m.setflags(write=False)
        assert gf2.memo(m, "probe", gf2.rank) == 2
        assert gf2.memo(m.T, "probe", lambda a: a.shape) == (3, 2)
        assert gf2.memo(m, "probe", lambda a: None) == 2
        assert gf2.memo(m.T, "probe", lambda a: None) == (3, 2)
        # a view of all of the owner is the owner
        assert gf2.memo(m.T.T, "probe", lambda a: None) == 2
