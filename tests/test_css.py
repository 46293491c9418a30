import math
from fractions import Fraction

import numpy as np
import pytest

from homprod import chain, css, gf2
from homprod.chain import ChainComplex
from homprod.css import PauliError, Syndrome

from codes import double, metasyndrome, single, solutions_up_to_weight
from dense_reference import all_pairs_min_weight, dense_kernel

REP2 = [[1, 1]]
REP3 = [[1, 1, 0], [0, 1, 1]]
CYC3 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
SIX_TWO = [
    [1, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 1, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 1],
]


@pytest.fixture(scope="module")
def code13():
    return css.from_complex(single(REP3))


class TestFromComplex:
    def test_rep3_single(self, code13):
        assert code13.n == 13
        assert code13.num_z_checks == 6
        assert code13.num_x_checks == 6
        assert not code13.has_metachecks

    def test_rep3_double(self, code241):
        assert code241.n == 241
        assert code241.num_z_checks == 156
        assert code241.num_x_checks == 156
        assert code241.has_metachecks
        assert code241.z_metachecks.shape == (36, 156)
        assert code241.x_metachecks.shape == (36, 156)

    def test_rejects_length1(self):
        with pytest.raises(ValueError):
            css.from_complex(ChainComplex([gf2.as_bin(REP3)], j_min=0))

    def test_computes_no_products(self, monkeypatch):
        # the complex was validated when built; its d.d = 0 is the proof
        # that the checks commute and the metachecks annihilate them
        complex_ = double(REP2)

        def refuse(a, b):
            raise AssertionError("from_complex multiplied matrices")

        monkeypatch.setattr(gf2, "mat_mul", refuse)
        code = css.from_complex(complex_)
        assert code.n == 33 and code.has_metachecks

    def test_rejects_invalid_complex(self):
        # an invalid complex cannot be built, so no code is read off one
        with pytest.raises(chain.ValidationError, match="composition d_0 d_-1 is nonzero"):
            css.from_complex(ChainComplex([gf2.identity(2), gf2.identity(2)], j_min=-1))


class TestMemo:
    def test_coset_annihilator_is_memoised_read_only_owner(self, code33):
        for side in ("x", "z"):
            ann = code33.coset_annihilator(side)
            # an owner, not a reshape view, so searches on it are memoised
            assert ann.base is None and not ann.flags.writeable
            assert code33.coset_annihilator(side) is ann
            span = code33.x_checks if side == "x" else code33.z_checks
            assert not gf2.mat_mul(ann, span.T).any()
            assert gf2.rank(ann) + gf2.rank(span) == code33.n

    @pytest.mark.parametrize("h", [REP2, REP3, CYC3], ids=["n33", "n241", "n486"])
    def test_coset_annihilator_is_checks_over_k_logicals(self, h):
        complex_ = double(h)
        code = css.from_complex(complex_)
        k = chain.betti_number(complex_, 0)
        for side, span, checks in (
            ("x", code.x_checks, code.z_checks),
            ("z", code.z_checks, code.x_checks),
        ):
            ann = code.coset_annihilator(side)
            # the checks, then k logicals
            assert ann.shape == (checks.shape[0] + k, code.n)
            assert np.array_equal(ann[: checks.shape[0]], checks)
            # the same row space as a dense basis of ker(span)
            kernel = dense_kernel(span)
            assert gf2.rank(ann) == len(kernel) == gf2.rank(np.vstack([ann, kernel]))

    def test_transposed_checks_are_read_only_owners(self, breve_rep3, code241):
        pairs = [
            (code241.x_checks, breve_rep3.delta(-1)),
            (code241.x_metachecks, breve_rep3.delta(-2)),
        ]
        for held, source in pairs:
            assert held.base is None and held.flags.c_contiguous
            assert not held.flags.writeable
            assert (held == source.T).all()


class TestSyndrome:
    def test_identity_zero(self, code13):
        s = code13.syndrome(PauliError.identity(13))
        assert s.weight() == 0

    def test_single_x_error_is_check_column(self, code13):
        for q in range(13):
            e = np.zeros(13, dtype=np.uint8)
            e[q] = 1
            s = code13.syndrome(PauliError(e, np.zeros_like(e)))
            assert (s.z_part == code13.z_checks[:, q]).all()
            assert not s.x_part.any()

    def test_linearity(self, code13):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = PauliError(
                gf2.as_bin(rng.integers(0, 2, 13)), gf2.as_bin(rng.integers(0, 2, 13))
            )
            b = PauliError(
                gf2.as_bin(rng.integers(0, 2, 13)), gf2.as_bin(rng.integers(0, 2, 13))
            )
            lhs = code13.syndrome(a.compose(b))
            rhs = code13.syndrome(a).compose(code13.syndrome(b))
            assert (lhs.z_part == rhs.z_part).all()
            assert (lhs.x_part == rhs.x_part).all()

    def test_length_mismatch(self, code13):
        with pytest.raises(ValueError):
            code13.syndrome(PauliError.identity(12))


class TestMetasyndrome:
    def test_zero_on_every_error(self, code33):
        rng = np.random.default_rng(3)
        for _ in range(50):
            err = PauliError(
                gf2.as_bin(rng.integers(0, 2, 33)), gf2.as_bin(rng.integers(0, 2, 33))
            )
            assert not metasyndrome(code33, code33.syndrome(err)).any()

    def test_single_flip_gives_metacheck_column(self, breve_rep2, code33):
        # the Z metachecks are d_1: a flipped Z-syndrome bit i fails column i
        base = code33.syndrome(PauliError.identity(33))
        for i in range(code33.num_z_checks):
            flip = np.zeros(code33.num_z_checks, dtype=np.uint8)
            flip[i] = 1
            s = Syndrome(base.z_part ^ flip, base.x_part)
            expected = np.concatenate(
                [
                    breve_rep2.delta(1)[:, i],
                    np.zeros(code33.x_metachecks.shape[0], dtype=np.uint8),
                ]
            )
            assert (metasyndrome(code33, s) == expected).all()

    def test_blockwise_matches_direct_multiply(self, breve_rep2, code33):
        # the metachecks act as d_1 and d_-2^T of the complex, block by block
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = Syndrome(
                gf2.as_bin(rng.integers(0, 2, code33.num_z_checks)),
                gf2.as_bin(rng.integers(0, 2, code33.num_x_checks)),
            )
            d_1, d_m2 = breve_rep2.delta(1), breve_rep2.delta(-2)
            h = np.block(
                [
                    [d_1, gf2.zeros(d_1.shape[0], code33.num_x_checks)],
                    [gf2.zeros(d_m2.shape[1], code33.num_z_checks), d_m2.T],
                ]
            )
            direct = gf2.mat_vec(h, np.concatenate([s.z_part, s.x_part]))
            assert (metasyndrome(code33, s) == direct).all()

    def test_rejects_without_metachecks(self, code13):
        # a length-2 code has no metachecks to apply
        assert not code13.has_metachecks
        assert code13.z_metachecks is None and code13.x_metachecks is None


class TestPauliMinWeight:
    def test_identity(self, code13):
        assert css.pauli_min_weight(code13, PauliError.identity(13), 2) == 0

    def test_stabiliser_is_zero(self, code13):
        f = code13.z_checks[2].copy()  # a Z-type stabiliser support
        assert css.pauli_min_weight(code13, PauliError(np.zeros_like(f), f), 2) == 0
        e = code13.x_checks[4].copy()  # an X-type stabiliser support
        assert css.pauli_min_weight(code13, PauliError(e, np.zeros_like(e)), 2) == 0

    def test_single_x_is_one(self, code13):
        e = np.zeros(13, dtype=np.uint8)
        e[5] = 1
        assert css.pauli_min_weight(code13, PauliError(e, np.zeros_like(e)), 2) == 1

    def test_exceeds_budget(self, code13):
        # a logical X (weight 3) cannot be reduced below the distance
        logical = chain.homological_distance(single(REP3), 0, 4).witness
        p = PauliError(logical, np.zeros_like(logical))
        assert css.pauli_min_weight(code13, p, 2) is None
        assert css.pauli_min_weight(code13, p, 3) == 3

    def test_joint_support_union(self, code13):
        # X and Z on the same qubit costs one qubit, not two
        e = np.zeros(13, dtype=np.uint8)
        e[3] = 1
        p = PauliError(e, e.copy())
        assert p.weight() == 1
        assert css.pauli_min_weight(code13, p, 2) == 1

    @pytest.mark.parametrize("side", ["e", "f"])
    @pytest.mark.parametrize("length", [12, 14], ids=["short", "long"])
    def test_wrong_length_raises(self, code13, side, length):
        v = np.zeros(length, dtype=np.uint8)
        v[0] = 1
        ok = np.zeros(13, dtype=np.uint8)
        p = PauliError(v, ok) if side == "e" else PauliError(ok, v)
        with pytest.raises(ValueError, match="dimension mismatch"):
            css.pauli_min_weight(code13, p, 2)

    def test_negative_budget_raises(self, code13):
        e = np.zeros(13, dtype=np.uint8)
        e[5] = 1
        with pytest.raises(ValueError, match="max_weight must be >= 0"):
            css.pauli_min_weight(code13, PauliError(e, np.zeros_like(e)), -1)
        # the identity returns before any check
        assert css.pauli_min_weight(code13, PauliError.identity(13), -1) == 0

    def test_other_dtypes_reduced_mod_2(self, code13):
        # a 2 is an even count of flips, not a one
        e = np.zeros(13, dtype=np.int64)
        e[5], e[7] = 1, 2
        f = np.zeros(13, dtype=np.int64)
        f[2] = 2
        assert css.pauli_min_weight(code13, PauliError(e, f), 2) == 1
        assert css.pauli_min_weight(code13, PauliError(2 * e, f), 2) == 0

    def test_brute_force_cross_check(self):
        # exhaustive stabiliser-coset minimum on the tiny 5-qubit patch
        code = css.from_complex(single(REP2))
        rng = np.random.default_rng(11)
        z_span = [np.zeros(5, dtype=np.uint8)]
        for row in code.z_checks:
            z_span = z_span + [v ^ row for v in z_span]
        x_span = [np.zeros(5, dtype=np.uint8)]
        for row in code.x_checks:
            x_span = x_span + [v ^ row for v in x_span]
        for _ in range(25):
            p = PauliError(
                gf2.as_bin(rng.integers(0, 2, 5)), gf2.as_bin(rng.integers(0, 2, 5))
            )
            brute = min(
                int(np.count_nonzero((p.e ^ gx) | (p.f ^ gz)))
                for gx in x_span
                for gz in z_span
            )
            # every budget, below the minimum (None) and at or above it
            for budget in range(6):
                expected = brute if brute <= budget else None
                assert css.pauli_min_weight(code, p, budget) == expected

    def test_pruned_join_matches_all_pairs(self, code33):
        # the same coset listings joined pair by pair, at every budget
        rng = np.random.default_rng(13)
        paulis = [
            PauliError(
                gf2.as_bin(rng.random(33) < 0.1), gf2.as_bin(rng.random(33) < 0.1)
            )
            for _ in range(20)
        ]
        minima = {}
        for k, p in enumerate(paulis):
            sides = [(code33.coset_annihilator(s), v) for s, v in (("x", p.e), ("z", p.f))]
            for budget in range(6):
                xs, zs = (
                    solutions_up_to_weight(ann, gf2.mat_vec(ann, v), budget) for ann, v in sides
                )
                minima[k, budget] = css.pauli_min_weight(code33, p, budget)
                assert minima[k, budget] == all_pairs_min_weight(xs, zs, budget)
        # not vacuous
        assert sum(w is not None and w > 0 for w in minima.values()) >= 5
        assert None in minima.values()


class TestCodeReport:
    def test_rep3_double(self, breve_rep3):
        rep = css.code_report(breve_rep3)
        assert rep.n == 241
        assert rep.k == 1
        assert rep.max_check_weight == 6
        assert rep.mean_check_weight == Fraction(190, 39)
        assert round(float(rep.mean_check_weight), 5) == 4.87179
        assert rep.redundancy == Fraction(13, 10)
        d_ss = css.single_shot_distance(breve_rep3, 3)
        assert math.isinf(d_ss.value) and d_ss.is_exact()
        assert css.qubit_distance(breve_rep3, 3).status == "lower_bound"

    def test_six_two_double(self):
        breve = double(SIX_TWO)
        rep = css.code_report(breve)
        assert rep.n == 3856 and rep.k == 16
        assert rep.max_check_weight == 8
        assert round(float(rep.mean_check_weight), 5) == 5.48077
        assert rep.redundancy == Fraction(13, 10)
        assert math.isinf(css.single_shot_distance(breve, 1).value)

    def test_cyclic_single_shot_distance(self):
        d_ss = css.single_shot_distance(double(CYC3), 3)
        assert d_ss.value == 3 and d_ss.is_exact()

    def test_rep2_double_exact_distance(self):
        breve = double(REP2)
        rep = css.code_report(breve)
        assert rep.n == 33 and rep.k == 1
        d_q = css.qubit_distance(breve, 4)
        assert d_q.value == 4 and d_q.is_exact()

    def test_table1_row_report_copies_no_transpose(self, monkeypatch):
        from homprod import cli

        breve = cli.build_stages(ChainComplex([cli.TABLE1_INPUTS["row4"]], j_min=0))
        copies = []
        real = css._transposed

        def counting(m):
            copies.append(m.shape)
            return real(m)

        monkeypatch.setattr(css, "_transposed", counting)
        rep = css.code_report(breve)
        assert copies == []
        # the statistics equal those of the code's own check matrices
        code = css.from_complex(breve)
        z, x = code.z_checks.astype(np.int64), code.x_checks.astype(np.int64)
        weights = np.concatenate([z.sum(axis=1), x.sum(axis=1)])
        assert len(copies) == 1  # x_checks, copied on first use
        assert rep.max_check_weight == weights.max()
        assert rep.mean_check_weight == Fraction(int(weights.sum()), len(weights))
        assert rep.max_qubit_degree == (z.sum(axis=0) + x.sum(axis=0)).max()
        assert code.num_x_checks == x.shape[0] and len(copies) == 1

    def test_zero_weight_checks_count_in_the_mean(self):
        # the last Z check (row of d_0) and the last X check (column of d_-1) are empty
        d_m1 = gf2.as_bin([[1, 0], [1, 0], [0, 0]])
        d_0 = gf2.as_bin([[1, 1, 1], [0, 0, 0]])
        rep = css.code_report(ChainComplex([d_m1, d_0], j_min=-1))
        assert (rep.n, rep.k) == (3, 1)
        assert rep.max_check_weight == 3
        assert rep.mean_check_weight == Fraction(3 + 0 + 2 + 0, 4)
        assert rep.max_qubit_degree == 2

    def test_check_weight_invariants(self, breve_rep3, code241):
        rep = css.code_report(breve_rep3)
        weights = np.concatenate(
            [code241.z_checks.sum(axis=1), code241.x_checks.sum(axis=1)]
        )
        assert (weights <= rep.max_check_weight).all()
        assert rep.mean_check_weight == Fraction(int(weights.sum()), len(weights))
