import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homprod import gf2


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
        assert gf2.rank(m) + len(gf2.kernel_basis(m)) == m.shape[1]

    @given(bin_matrix())
    def test_rank_transpose(self, m):
        assert gf2.rank(m) == gf2.rank(m.T)


class TestKernel:
    def test_forced_by_dimension(self):
        (v,) = gf2.kernel_basis(bits([[1, 1]]))
        assert v.tolist() == [1, 1]

    def test_identity_empty(self):
        assert gf2.kernel_basis(gf2.identity(3)) == []

    def test_repetition_codeword(self):
        (v,) = gf2.kernel_basis(bits([[1, 1, 0], [0, 1, 1]]))
        assert v.tolist() == [1, 1, 1]

    @given(bin_matrix())
    def test_members_annihilate(self, m):
        for v in gf2.kernel_basis(m):
            assert not gf2.mat_vec(m, v).any()

    @given(bin_matrix(max_rows=8, max_cols=10))
    def test_one_vector_per_free_column(self, m):
        # reference: free column f's vector is red[row, f] at each row's pivot
        red, pivots = gf2._rref(m)
        expected = []
        for f in (c for c in range(m.shape[1]) if c not in pivots):
            v = np.zeros(m.shape[1], dtype=np.uint8)
            v[f] = 1
            for row, p in enumerate(pivots):
                v[p] = red[row, f]
            expected.append(v.tolist())
        assert [v.tolist() for v in gf2.kernel_basis(m)] == expected


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
    kernel = gf2.kernel_basis(a)
    basis = np.array(kernel, dtype=np.uint8).reshape(len(kernel), k)
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
        assert gf2.solve(gf2.identity(3), b).tolist() == [1, 0, 1]

    def test_free_variables_zero(self):
        x = gf2.solve(bits([[1, 1]]), bits([1]))
        assert x.tolist() == [1, 0]

    def test_no_solution(self):
        assert gf2.solve(gf2.zeros(2, 3), bits([1, 0])) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.solve(gf2.zeros(2, 3), bits([1, 0, 1]))

    @given(bin_matrix(), st.data())
    def test_solution_when_consistent(self, m, data):
        x0 = bits(data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])))
        b = gf2.mat_vec(m, x0)
        x = gf2.solve(m, b)
        assert x is not None
        assert (gf2.mat_vec(m, x) == b).all()


@st.composite
def bin_system(draw):
    """(M, b) with M possibly empty, zero or rank deficient, and b a random
    vector or an image of M (so both verdicts of in_image are drawn)."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    flat = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    m = np.array(flat, dtype=np.uint8).reshape(rows, cols)
    if draw(st.booleans()):
        x = bits(draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols)))
        b = gf2.mat_vec(m, x) if rows else np.zeros(0, dtype=np.uint8)
    else:
        b = bits(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
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
    @given(bin_system())
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

    def test_in_image_builds_no_solution(self, monkeypatch):
        m = bits([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        solver = gf2.Gf2Solver(m)

        def refuse(self, b):
            raise AssertionError("in_image called solve")

        monkeypatch.setattr(gf2.Gf2Solver, "solve", refuse)
        assert solver.in_image(bits([1, 1, 0]))
        assert not solver.in_image(bits([1, 0, 0]))


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


def dense_rref(m):
    """Reference elimination, one column at a time on a dense uint8 copy:
    the nonzero rows of the reduced row echelon form and their pivots."""
    a = m.copy()
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        p = r + below[0]
        a[[r, p]] = a[[p, r]]
        for i in np.flatnonzero(a[:, c]):
            if i != r:
                a[i] ^= a[r]
        pivots.append(c)
    return a[: len(pivots)], pivots


class TestEliminationAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(wide_matrix(), st.integers(0, 2**32 - 1))
    def test_every_output_matches(self, m, seed):
        rows, cols = m.shape
        red, pivots = dense_rref(m)
        assert gf2.rank(m) == len(pivots) == gf2.rank(m.T)
        # one kernel vector per free column, read off the reference form
        kernel = []
        for f in (c for c in range(cols) if c not in pivots):
            v = np.zeros(cols, dtype=np.uint8)
            v[f] = 1
            v[pivots] = red[:, f]
            kernel.append(v)
        got = gf2.kernel_basis(m)
        assert len(got) == len(kernel)
        assert all(g.dtype == np.uint8 and np.array_equal(g, v) for g, v in zip(got, kernel))
        solver = gf2.Gf2Solver(m)
        assert solver.rank == len(pivots)
        assert solver.pivot_index.tolist() == pivots
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


def read_only(m):
    m = m.copy()
    m.setflags(write=False)
    return m


def listed(support):
    return [a.tolist() for a in support]


def packed_row_ints(m):
    """Reference int rows: the packed rows of the dense matrix, big-endian."""
    return [int.from_bytes(row.tobytes(), "big") for row in np.packbits(m, axis=1)]


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
        found = gf2.kernel_basis(m)
        kernel = np.array(found, dtype=np.uint8).reshape(len(found), m.shape[1])
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
        sols = gf2.all_solutions_up_to_weight(m, bits([0, 0]), 3)
        assert [s.tolist() for s in sols] == [[0, 0, 0], [1, 1, 1]]


class TestSearchInputs:
    """The three weight searches share one length and one budget check."""

    M = bits([[1, 1, 0], [0, 1, 1]])

    @pytest.mark.parametrize("b", [[1], [1, 0, 0]], ids=["short", "long"])
    @pytest.mark.parametrize(
        "search", [gf2.min_weight_solution, gf2.all_solutions_up_to_weight]
    )
    def test_wrong_length_target(self, search, b):
        with pytest.raises(ValueError, match="dimension mismatch"):
            search(self.M, bits(b), 3)

    def test_negative_budget(self):
        for call in (
            lambda: gf2.min_weight_solution(self.M, bits([1, 0]), -1),
            lambda: gf2.all_solutions_up_to_weight(self.M, bits([1, 0]), -1),
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
            {"_ARRAY_MIN_RIGHT_HALVES": -1},
            {"_ARRAY_MIN_RIGHT_HALVES": 1 << 62},
            {"_ARRAY_MIN_RIGHT_HALVES": -1, "_sketch": _zero_sketch},
            {"_ARRAY_MIN_RIGHT_HALVES": -1, "_QUERY_BLOCK_HALVES": 1},
        ],
        ids=["arrays", "dicts", "arrays-colliding-sketch", "arrays-one-half-blocks"],
    )
    @given(search_case())
    @settings(max_examples=60)
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
                assert search.first_support(w, target) == (
                    expected[w][0] if expected[w] else None
                )
            listed = gf2.all_solutions_up_to_weight(m, b, 6)
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

    def test_path_follows_right_half_count(self, monkeypatch):
        monkeypatch.setattr(gf2, "_ARRAY_MIN_RIGHT_HALVES", 10)
        search = gf2._WeightSearch(gf2.identity(6))
        search.supports(3, 0)  # C(6, 1) = 6 right halves: dict
        assert list(search._hashed) == [2] and not search._sorted
        search.supports(4, 0)  # C(6, 2) = 15 right halves: arrays
        assert list(search._sorted) == [2]
        search.supports(1, 1)  # one (empty) right half: always a dict lookup
        assert sorted(search._hashed) == [1, 2] and list(search._sorted) == [2]


    @pytest.mark.parametrize(
        "threshold", [-1, 1 << 62], ids=["arrays", "dicts"]
    )
    @given(sparse_search_case())
    @settings(max_examples=60)
    # the target's highest bit on an all-zero row: no support reaches it
    @example(case=(bits([[0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 1]]), bits([1, 1, 0])))
    # columns 0, 1 and 2 all on the target's highest bit: one support, drawn 3 times
    @example(case=(bits([[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]]), bits([1, 1, 1])))
    def test_sparse_nonzero_targets_equal_brute_force(self, threshold, case):
        m, b = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_ARRAY_MIN_RIGHT_HALVES", threshold)
            search = gf2._WeightSearch(m)
            target = gf2._target_int(b)
            for w in range(7):
                expected = _brute_supports(m, b, w)
                assert search.supports(w, target) == expected
                assert search.first_support(w, target) == (expected[0] if expected else None)

    def test_pivot_row_bounds_the_lookups(self):
        # a nonzero weight-2 query on the 241-qubit Z checks looks up only
        # the columns on the target's highest set bit, not all 241
        from homprod import chain, css, product

        tilde = product.single_product(chain.ChainComplex([bits([[1, 1, 0], [0, 1, 1]])], j_min=0))
        z = css.from_complex(product.double_product(tilde)).z_checks
        assert z.shape[1] == 241
        search = gf2._WeightSearch(z)
        v = np.zeros(241, dtype=np.uint8)
        v[[17, 200]] = 1
        target = gf2._target_int(gf2.mat_vec(z, v))
        search.supports(1, target)  # builds the one-column table
        table = search._hashed[1] = _CountingDict(search._hashed[1])
        assert (17, 200) in search.supports(2, target)
        assert 0 < table.gets <= int(z.sum(axis=1).max())

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
        # the weight-2 tables take 780 entries, but the weight-4 query of an
        # all-zero row pairs 780 right halves with 780 left halves each
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 1 << 20)
        search = gf2._WeightSearch(gf2.zeros(1, 40))
        search._sorted_table(2)
        with pytest.raises(gf2.BudgetExhausted, match="608400 candidates"):
            list(gf2.kernel_vectors_by_weight(gf2.zeros(1, 40), 4))

    def test_array_peaks_stay_within_the_entry_estimate(self):
        # the cap's estimate is an upper bound: building a table of 161700
        # entries, and its heaviest query (target zero, where every right
        # half meets itself), each peak below the estimated bytes per entry
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
    def test_zero(self):
        assert not gf2.reshape_vector(gf2.zeros(1, 6)[0], 2, 3).any()

    def test_unit_vector_placement(self):
        v = np.zeros(6, dtype=np.uint8)
        v[1 * 3 + 2] = 1  # tensor index (1, 2) of a 2x3 grid
        m = gf2.reshape_vector(v, 2, 3)
        assert m[1, 2] == 1 and m.sum() == 1

    def test_round_trip(self):
        v = bits([1, 0, 1, 1, 0, 0])
        assert (gf2.flatten_matrix(gf2.reshape_vector(v, 2, 3)) == v).all()

    def test_mismatch(self):
        with pytest.raises(ValueError):
            gf2.reshape_vector(bits([1, 0, 1]), 2, 2)

    @given(st.integers(0, 2**24 - 1), st.integers(0, 2**11 - 1), st.integers(0, 2**15 - 1))
    @settings(max_examples=40)
    def test_kron_action(self, vcode, acode, bcode):
        # flatten(A @ reshape(v) @ B.T) == kron(A, B) @ v on random small inputs
        a = bits([[(acode >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)])[:2, :]
        b = bits([[(bcode >> (5 * i + j)) & 1 for j in range(5)] for i in range(3)])[:, :4]
        v = bits([(vcode >> i) & 1 for i in range(12)])  # 3 cols of a * 4 cols of b
        lhs = gf2.flatten_matrix(
            gf2.mat_mul(gf2.mat_mul(a, gf2.reshape_vector(v, 3, 4)), b.T)
        )
        rhs = gf2.mat_vec(np.kron(a, b), v)
        assert (lhs == rhs).all()


class TestSupports:
    def test_worked_example(self):
        x = bits(
            [
                [1, 0, 0, 1, 1, 0],
                [0, 1, 0, 1, 1, 0],
                [0, 0, 0, 1, 1, 0],
            ]
        )
        assert gf2.col_support(x) == frozenset({1, 2, 4, 5})
        assert gf2.row_support(x) == frozenset({1, 2, 3})

    def test_zero(self):
        assert gf2.col_support(gf2.zeros(2, 3)) == frozenset()
        assert gf2.row_support(gf2.zeros(2, 3)) == frozenset()

    def test_identity(self):
        assert gf2.col_support(gf2.identity(3)) == frozenset({1, 2, 3})
        assert gf2.row_support(gf2.identity(3)) == frozenset({1, 2, 3})

    @given(bin_matrix())
    def test_support_bounded_by_weight(self, m):
        assert len(gf2.col_support(m)) <= gf2.weight(m)
        assert len(gf2.row_support(m)) <= gf2.weight(m)

    def test_vectors_up_to_weight(self):
        vectors = list(gf2._vectors_up_to_weight(4, 2))
        supports = [tuple(np.flatnonzero(v)) for v in vectors]
        assert supports == [
            (), *itertools.combinations(range(4), 1), *itertools.combinations(range(4), 2)
        ]
        assert all(v.dtype == np.uint8 and v.shape == (4,) for v in vectors)
        vectors[0][:] = 1  # each vector is a fresh array
        assert [tuple(np.flatnonzero(v)) for v in vectors[1:]] == supports[1:]


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
                [v.tolist() for v in gf2.all_solutions_up_to_weight(m, b, 1)],
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
                gf2.all_solutions_up_to_weight(mat, b, 3)
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
