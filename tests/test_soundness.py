import gc
import hashlib
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from homprod import bounds, chain, gf2, product, soundness, stab
from homprod.chain import ChainComplex

from codes import REP2, REP3, check_partial_properties, fresh_python, make_error_state, single
from dense_reference import error_first_profile

# partial_decode's counter totals and digest over the seeded batch of
# TestPartialDecode.test_pinned_batch_digest: a change to any loop's order
# or tie-break changes them
PINNED_TOTALS = [59, 1, 63, 71, 1, 35]
PINNED_DIGEST = "2b493c50b307a28cd89ab40e844274332d113e3ffdacd489f6a65ade888246a8"
# digests over every output of the witness batches of TestWitnessDigests
PINNED_DOUBLE_DIGEST = "049c7d29c465561cb7eb1a7cfc12710267283b6e794631359639ac7131ce60c6"
PINNED_SINGLE_DIGEST = "0b90c099294bf934f867bbd783693864a29e95e9f70067e429c9171050253f72"
# digest over the states and remainder terms of the same double-product batches
PINNED_STATE_TERMS_DIGEST = "73c745b75f562714971328d303d65fdfdfdf74e7ba23e9ae91dfd297463af50c"
# the matrices a PartialDecodeState holds
STATE_MATRICES = ("r_b", "s_l", "s_r", "m", "rb_d_low", "d_high_rb")
# sha256 over the items, in order, of pauli_weight_table on the seeded
# corpus of TestCertifyChecks.test_pauli_weight_tables_are_pinned
# sha256 over every profile_map output of TestProfileDigest
PINNED_PROFILE_DIGEST = "2a34a3d2480542f152f2e0f5c2967f5a299e80c55f12751cb52114e307e70b3c"
PINNED_PAULI_TABLE_DIGEST = "6383ae1694f56c11a7d8206789d12dfa8d168fb3b8bdda628b801c91ade99f6b"
# the five-qubit code's checks XZZXI, IXZZX, XIXZZ and ZXIXZ (X half | Z half)
FIVE_QUBIT = gf2.as_bin(
    [
        [1, 0, 0, 1, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 0, 0, 1],
    ]
)


def cyclic(length):
    h = np.zeros((length, length), dtype=np.uint8)
    for i in range(length):
        h[i, i] = 1
        h[i, (i + 1) % length] = 1
    return h


@pytest.fixture
def solver_builds(monkeypatch):
    """The shape of each matrix a new Gf2Solver eliminates, in order."""
    builds = []
    real = gf2.Gf2Solver.__init__

    def counting(self, m):
        builds.append(m.shape)
        real(self, m)

    monkeypatch.setattr(gf2.Gf2Solver, "__init__", counting)
    return builds


@pytest.fixture(scope="module")
def cyclic3_non_image():
    """The single product of cyclic(3), and a weight-3 syndrome of its
    double product that passes the metachecks but is outside the image."""
    tilde = single(cyclic(3))
    breve = product.double_product(tilde)
    witness = chain.homological_distance(breve, 1, 3).witness
    s = np.concatenate([witness, np.zeros(breve.size(1) - witness.shape[0], dtype=np.uint8)])
    assert not gf2.mat_vec(breve.delta(1), s).any()
    return tilde, s


class TestProfile:
    def test_zero_syndrome_entry(self, tilde_rep3):
        prof = soundness.profile_map(tilde_rep3.delta(0).T, 2, 4)
        assert prof.worst[0] == 0

    def test_rep3_middle_maps_within_quadratic(self, tilde_rep3):
        # both product maps stay below x^2/4 for all x below the threshold
        for delta in (tilde_rep3.delta(0).T, tilde_rep3.delta(-1)):
            prof = soundness.certify_map(delta, 3, bounds.QUADRATIC_OVER_4)
            assert prof.verdict.certified

    def test_toric_direction_violates_quadratic(self):
        # the qubit-to-check map of the torus-like product: a two-check
        # syndrome can need an error crossing the lattice, growing with size
        worst_at_two = {}
        for length in (3, 4, 5):
            s = single(cyclic(length))
            prof = soundness.profile_map(s.delta(0), 2, length + 2)
            worst_at_two[length] = prof.worst[2]
            assert Fraction(prof.worst[2]) > bounds.QUADRATIC_OVER_4(2)
        assert worst_at_two == {3: 2, 4: 4, 5: 4}

    def test_non_integer_threshold_profiles_its_whole_range(self):
        # every syndrome weight below 3.5 is enumerated, 3 included
        prof = soundness.certify_map(np.eye(4, dtype=np.uint8), 3.5, bounds.LINEAR)
        assert prof.x_max == 3
        assert prof.worst == {0: 0, 1: 1, 2: 2, 3: 3}
        assert prof.preimage_budget == 4
        assert prof.verdict.certified

    def test_infinite_threshold_profiles_every_weight(self, tilde_rep2):
        # the 5 x 2 zt map: no syndrome is heavier than its 5 rows, so an
        # infinite threshold reads as rows + 1
        delta = tilde_rep2.delta(0).T
        unbounded = soundness.certify_map(delta, math.inf, bounds.QUADRATIC_OVER_4)
        capped = soundness.certify_map(delta, delta.shape[0] + 1, bounds.QUADRATIC_OVER_4)
        assert unbounded.worst == capped.worst == {0: 0, 3: 1, 4: 2}
        assert unbounded.verdict.certified and capped.verdict.certified

    def test_certify_counterexample_carries_witness(self):
        s = single(cyclic(3))
        prof = soundness.certify_map(s.delta(0), 4, bounds.QUADRATIC_OVER_4)
        assert prof.verdict.kind == "counterexample"
        r = prof.verdict.counterexample
        assert r is not None
        syndrome = gf2.mat_vec(s.delta(0), r)
        x = gf2.weight(syndrome)
        assert x < 4
        best = gf2.min_weight_solution(s.delta(0), syndrome, 8)
        assert Fraction(best[1]) > bounds.QUADRATIC_OVER_4(x)

    def test_counterexample_is_first_worst_syndrome(self):
        # the witness's syndrome is the first weight-x image syndrome in
        # (weight, lex) order whose minimum preimage is the worst one
        keys = {
            "worst_min_preimage_by_syndrome_weight", "preimage_budget",
            "x_max", "domain", "threshold", "bound", "verdict",
        }
        for length in (3, 4, 5):
            delta = single(cyclic(length)).delta(0)
            prof = soundness.certify_map(delta, 4, bounds.QUADRATIC_OVER_4)
            assert prof.verdict.kind == "counterexample"
            assert set(prof.to_json()) == keys
            syndrome = gf2.mat_vec(delta, prof.verdict.counterexample)
            x = gf2.weight(syndrome)
            budget = prof.preimage_budget
            first_worst, worst = None, -1
            for s in gf2.kernel_vectors_by_weight(gf2.cokernel_rows(delta), x):
                if gf2.weight(s) != x:
                    continue
                found = gf2.min_weight_solution(delta, s, budget)
                w = found[1] if found is not None else budget + 1
                if w > worst:
                    first_worst, worst = s, w
            assert worst == prof.worst[x]
            assert (syndrome == first_worst).all()
            assert gf2.weight(prof.verdict.counterexample) == prof.worst[x]

    def test_counterexample_is_a_minimum_weight_preimage(self):
        # the first worst weight-1 syndrome has a weight-3 preimage with all
        # free variables zero, and a weight-2 one
        delta = single([[1, 1, 1, 1, 0], [1, 1, 0, 0, 1], [1, 0, 1, 1, 1]]).delta(0)
        prof = soundness.certify_map(delta, 4, bounds.LINEAR)
        assert prof.verdict.kind == "counterexample"
        assert "needs preimage weight 2" in prof.verdict.detail
        r = prof.verdict.counterexample
        assert gf2.weight(r) == 2
        assert (gf2.mat_vec(delta, r) == prof.worst_syndrome[1]).all()

    def test_image_first_matches_error_first(self, tilde_rep2, tilde_rep3):
        # both maps into the middle level of each single product: the
        # image-first profile to every syndrome weight, with a budget every
        # preimage meets, equals the full error space's profile both ways
        for tilde in (tilde_rep2, tilde_rep3):
            for delta in (tilde.delta(0).T, tilde.delta(-1)):
                x_max, n = delta.shape
                profile = soundness.profile_map(delta, x_max, n)
                assert profile.worst == error_first_profile(delta)


class TestSingleProductPreimage:
    def test_zero(self):
        w = soundness.single_product_preimage(
            REP3, np.zeros(13, dtype=np.uint8), "from_checks", 3
        )
        assert not w.r.any() and w.bound_guaranteed

    def test_exhaustive_rep2(self, tilde_rep2):
        # every image syndrome of the redundancy-side map, any weight
        delta = tilde_rep2.delta(-1)
        for code in range(2 ** delta.shape[1]):
            r0 = gf2.as_bin([(code >> i) & 1 for i in range(delta.shape[1])])
            s = gf2.mat_vec(delta, r0)
            w = soundness.single_product_preimage(REP2, s, "from_redundancy", 2)
            assert (gf2.mat_vec(delta, w.r) == s).all()
            x = gf2.weight(s)
            if x < 2:
                assert Fraction(gf2.weight(w.r)) <= bounds.QUADRATIC_OVER_4(x)

    def test_exhaustive_rep3_both_sides(self, tilde_rep3):
        for side, delta in (
            ("from_checks", tilde_rep3.delta(0).T),
            ("from_redundancy", tilde_rep3.delta(-1)),
        ):
            for code in range(2 ** delta.shape[1]):
                r0 = gf2.as_bin([(code >> i) & 1 for i in range(delta.shape[1])])
                s = gf2.mat_vec(delta, r0)
                w = soundness.single_product_preimage(REP3, s, side, 3)
                assert (gf2.mat_vec(delta, w.r) == s).all()
                x = gf2.weight(s)
                if x < 3:
                    assert Fraction(gf2.weight(w.r)) <= bounds.QUADRATIC_OVER_4(x)

    def test_weight_three_syndromes_reduce_to_quarter(self, tilde_rep3):
        # observed on every image syndrome of weight 3: witness within 9/4
        delta = tilde_rep3.delta(0).T
        seen = 0
        for code in range(1, 2 ** delta.shape[1]):
            r0 = gf2.as_bin([(code >> i) & 1 for i in range(delta.shape[1])])
            s = gf2.mat_vec(delta, r0)
            if gf2.weight(s) != 3:
                continue
            seen += 1
            w = soundness.single_product_preimage(REP3, s, "from_checks", 3)
            assert gf2.weight(w.r) <= 2
            best = gf2.min_weight_solution(delta, s, 3)
            assert best[1] <= gf2.weight(w.r)
        assert seen > 0

    def test_rejects_non_image(self, tilde_rep3):
        s = np.zeros(13, dtype=np.uint8)
        s[0] = 1  # weight-1 vectors are never image syndromes here
        with pytest.raises(soundness.PreimageError):
            soundness.single_product_preimage(REP3, s, "from_checks", 3)


    def test_tilde_keyword_gives_identical_witnesses(self, tilde_rep3):
        for side, delta in (
            ("from_checks", tilde_rep3.delta(0).T),
            ("from_redundancy", tilde_rep3.delta(-1)),
        ):
            for code in range(2 ** delta.shape[1]):
                r0 = gf2.as_bin([(code >> i) & 1 for i in range(delta.shape[1])])
                s = gf2.mat_vec(delta, r0)
                built = soundness.single_product_preimage(REP3, s, side, 3)
                given = soundness.single_product_preimage(
                    REP3, s, side, 3, tilde=tilde_rep3
                )
                assert (built.r == given.r).all()
                assert (built.bound_guaranteed, built.reductions) == (
                    given.bound_guaranteed,
                    given.reductions,
                )

    def test_rejects_tilde_of_other_checks_of_the_same_shape(self, tilde_rep3):
        # the paper's bounds are proved only for tilde = single_product(H)
        h = gf2.as_bin([[1, 0, 1], [1, 1, 0]])
        rng = np.random.default_rng(28)
        for side, delta in (
            ("from_checks", tilde_rep3.delta(0).T),
            ("from_redundancy", tilde_rep3.delta(-1)),
        ):
            for _ in range(20):
                s = gf2.mat_vec(delta, rng.integers(0, 2, size=delta.shape[1], dtype=np.uint8))
                with pytest.raises(ValueError, match="single product"):
                    soundness.single_product_preimage(h, s, side, 3, tilde=tilde_rep3)

    def test_rejects_mismatched_tilde(self, tilde_rep2, tilde_rep3):
        zero = np.zeros(13, dtype=np.uint8)
        for wrong in (tilde_rep2, product.double_product(tilde_rep2)):
            with pytest.raises(ValueError, match="single product"):
                soundness.single_product_preimage(
                    REP3, zero, "from_checks", 3, tilde=wrong
                )

    def test_check_survives_optimize_flag(self):
        # a wrong reduction and a violated area bound are each caught by an
        # explicit raise, not an assert that -O strips
        code = (
            "import numpy as np\n"
            "from homprod import soundness\n"
            "h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)\n"
            "s = np.zeros(13, dtype=np.uint8)\n"
            "raised = 0\n"
            "real = soundness._reduce_reshaped\n"
            "def wrong(rows, col_test, row_test):\n"
            "    # entry (0, 0) of 3-column int rows: column 0 is bit 7\n"
            "    return [rows[0] ^ 128] + rows[1:], 0\n"
            "soundness._reduce_reshaped = wrong\n"
            "try:\n"
            "    soundness.single_product_preimage(h, s, 'from_checks')\n"
            "except AssertionError:\n"
            "    raised += 1\n"
            "soundness._reduce_reshaped = real\n"
            "soundness.QUADRATIC_OVER_4 = lambda x: -1\n"
            "try:\n"
            "    soundness.single_product_preimage(h, s, 'from_checks', 3)\n"
            "except AssertionError:\n"
            "    raised += 1\n"
            "raise SystemExit(7 if raised == 2 else 1)\n"
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 7

    def test_partial_decode_check_survives_optimize_flag(self, tilde_rep2, tmp_path):
        # an entry of R_b flipped as a side starts, outside any transform,
        # is caught by check_every_step's explicit raise at the next
        # transform, not by an assert that -O strips
        rng = np.random.default_rng(159)
        state = make_error_state(tilde_rep2, rng, int(rng.integers(1, 14)))
        inputs = tmp_path / "state.npz"
        np.savez(inputs, *state)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from homprod import product, soundness\n"
            "from homprod.chain import ChainComplex\n"
            "h = np.array([[1, 1]], dtype=np.uint8)\n"
            "tilde = product.single_product(ChainComplex([h], j_min=0))\n"
            "r_b, s_l, s_r = np.load(sys.argv[1]).values()\n"
            "real = soundness._shrink_side\n"
            "# entry (0, 0) of the side's int rows: column 0 is the highest bit\n"
            "top = 1 << (r_b.shape[1] - 1)\n"
            "def wrong(r, *args):\n"
            "    r[0] ^= top\n"
            "    return real(r, *args)\n"
            "soundness._shrink_side = wrong\n"
            "try:\n"
            "    soundness.partial_decode(\n"
            "        r_b, s_l, s_r, tilde.delta(0), tilde.delta(-1),\n"
            "        check_every_step=True,\n"
            "    )\n"
            "except AssertionError as exc:\n"
            "    raise SystemExit(7 if 'failed to preserve M' in str(exc) else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = fresh_python(code, "-O", argv=[str(inputs)])
        assert proc.returncode == 7

    def test_partial_decode_end_check_survives_optimize_flag(self, tilde_rep2, tmp_path):
        # with check_every_step off, an entry of R_b flipped once, outside
        # any transform, is caught by the check of M at the end of the run,
        # an explicit raise that -O keeps
        rng = np.random.default_rng(159)
        state = make_error_state(tilde_rep2, rng, int(rng.integers(1, 14)))
        inputs = tmp_path / "state.npz"
        np.savez(inputs, *state)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from homprod import product, soundness\n"
            "from homprod.chain import ChainComplex\n"
            "h = np.array([[1, 1]], dtype=np.uint8)\n"
            "tilde = product.single_product(ChainComplex([h], j_min=0))\n"
            "r_b, s_l, s_r = np.load(sys.argv[1]).values()\n"
            "real = soundness._shrink_side\n"
            "# entry (0, 0) of the side's int rows: column 0 is the highest bit\n"
            "top = 1 << (r_b.shape[1] - 1)\n"
            "calls = []\n"
            "def wrong(r, *args):\n"
            "    if not calls:\n"
            "        r[0] ^= top\n"
            "    calls.append(1)\n"
            "    return real(r, *args)\n"
            "soundness._shrink_side = wrong\n"
            "try:\n"
            "    soundness.partial_decode(\n"
            "        r_b, s_l, s_r, tilde.delta(0), tilde.delta(-1),\n"
            "        check_every_step=False,\n"
            "    )\n"
            "except AssertionError as exc:\n"
            "    raise SystemExit(7 if 'failed to preserve M' in str(exc) else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = fresh_python(code, "-O", argv=[str(inputs)])
        assert proc.returncode == 7


def reference_partial_decode(r_b, s_l, s_r, d_high, d_low):
    """The dense loops partial_decode replaced, one mat_mul per loop test:
    the reference for its R_b, loop counters and passes."""
    r_b = r_b.copy()
    counters = [0] * 6

    def side(r, d, s, first):
        while True:
            rd = gf2.mat_mul(r, d)
            extra = np.flatnonzero(rd.any(axis=1) & ~s.any(axis=1))
            if not extra.size:
                break
            i = extra[0]
            j = np.flatnonzero(rd[i])[0]
            r ^= np.outer(rd[:, j] ^ s[:, j], r[i])
            counters[first] += 1
        while True:
            rd = gf2.mat_mul(r, d)
            extra = np.flatnonzero(rd.any(axis=0) & ~s.any(axis=0))
            if not extra.size:
                break
            c = rd[:, extra[0]]
            r ^= np.outer(c, r[np.flatnonzero(c & r.any(axis=1))[0]])
            counters[first + 1] += 1
        while True:
            extra = np.flatnonzero(r.any(axis=1) & ~gf2.mat_mul(r, d).any(axis=1))
            if not extra.size:
                break
            r[extra[0]] = 0
            counters[first + 2] += 1

    passes = 0
    while True:
        fired = sum(counters)
        side(r_b, d_low, s_l, 0)
        side(r_b.T, d_high.T, s_r.T, 3)
        passes += 1
        if sum(counters) == fired:
            return r_b, counters, passes


def reference_reduce_reshaped(r_mat, col_test, row_test):
    """The dense loop _reduce_reshaped replaced: the reference for its output."""
    r_mat = r_mat.copy()
    steps = 0
    while True:
        col_ok = np.flatnonzero(r_mat.any(axis=0) & ~gf2.mat_mul(col_test, r_mat).any(axis=0))
        row_ok = np.flatnonzero(r_mat.any(axis=1) & ~gf2.mat_mul(r_mat, row_test.T).any(axis=1))
        hits = np.argwhere(r_mat[np.ix_(row_ok, col_ok)] == 1)
        if not hits.size:
            return r_mat, steps
        i, j = row_ok[hits[0][0]], col_ok[hits[0][1]]
        r_mat ^= np.outer(r_mat[:, j], r_mat[i, :])
        steps += 1


class TestAgainstDenseReferences:
    def test_partial_decode(self, tilde_rep2, tilde_rep3):
        rng = np.random.default_rng(1805)
        for tilde, count in ((tilde_rep2, 300), (tilde_rep3, 200)):
            d_low, d_high = tilde.delta(-1), tilde.delta(0)
            for _ in range(count):
                inputs = make_error_state(tilde, rng, int(rng.integers(1, 14)))
                state = soundness.partial_decode(*inputs, d_high, d_low, check_every_step=False)
                r_b, counters, passes = reference_partial_decode(*inputs, d_high, d_low)
                assert (state.r_b == r_b).all()
                assert (state.loop_counters, state.passes) == (counters, passes)

    def test_reduce_reshaped(self):
        rng = np.random.default_rng(9)
        steps_seen = set()
        for _ in range(300):
            n1, n0 = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            k = int(rng.integers(1, min(n1, n0)))
            # rank below both sides, so both kernel tests pass some vectors
            h = (rng.integers(0, 2, (n1, k)) @ rng.integers(0, 2, (k, n0)) % 2).astype(np.uint8)
            for shape, col_test, row_test in (((n1, n0), h.T, h), ((n0, n1), h, h.T)):
                r_mat = rng.integers(0, 2, shape, dtype=np.uint8)
                rows, steps = soundness._reduce_reshaped(gf2._row_ints(r_mat), col_test, row_test)
                got = gf2._int_matrix(rows, shape[1])
                want, want_steps = reference_reduce_reshaped(r_mat, col_test, row_test)
                assert got.tolist() == want.tolist() and steps == want_steps
                steps_seen.add(steps)
        assert {0, 1, 2, 3} <= steps_seen


class TestPartialDecode:
    def test_all_zero_skips_every_loop(self, tilde_rep3):
        n0 = tilde_rep3.size(0)
        state = soundness.partial_decode(
            gf2.zeros(n0, n0),
            gf2.zeros(n0, tilde_rep3.size(-1)),
            gf2.zeros(tilde_rep3.size(1), n0),
            tilde_rep3.delta(0),
            tilde_rep3.delta(-1),
        )
        assert state.loop_counters == [0] * 6
        assert not state.r_b.any()

    def test_random_error_states(self, tilde_rep2):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r_b, s_l, s_r = make_error_state(tilde_rep2, rng, int(rng.integers(1, 5)))
            state = soundness.partial_decode(
                r_b, s_l, s_r, tilde_rep2.delta(0), tilde_rep2.delta(-1)
            )
            check_partial_properties(state, tilde_rep2)

    def test_kernel_row_is_dropped(self, tilde_rep3):
        # a middle-block row invisible to the lower map is simply zeroed
        d_low = tilde_rep3.delta(-1)
        v = chain.cohomological_distance(tilde_rep3, -1, 4).witness
        assert v is not None and not gf2.mat_vec(d_low.T, v).any()
        n0 = tilde_rep3.size(0)
        r_b = gf2.zeros(n0, n0)
        r_b[4] = v
        s_l = gf2.mat_mul(r_b, d_low)
        s_r = gf2.mat_mul(tilde_rep3.delta(0), r_b)
        assert not s_l.any()
        state = soundness.partial_decode(
            r_b, s_l, s_r, tilde_rep3.delta(0), d_low
        )
        assert state.loop_counters[2] >= 1
        assert not state.r_b[4].any()

    def test_rejects_inconsistent_inputs(self, tilde_rep3):
        n0 = tilde_rep3.size(0)
        s_l = gf2.zeros(n0, tilde_rep3.size(-1))
        s_l[0, 0] = 1
        bad_sr = gf2.zeros(tilde_rep3.size(1), n0)
        with pytest.raises(ValueError, match="precondition"):
            soundness.partial_decode(
                gf2.zeros(n0, n0), s_l, bad_sr,
                tilde_rep3.delta(0), tilde_rep3.delta(-1),
            )

    def test_rejects_s_r_that_breaks_the_precondition(self, tilde_rep3):
        # an error's state with one entry of S_R flipped: d_high R_b d_low is
        # still d_high S_L, so only the public check of d_high S_L = S_R d_low,
        # which the witness leaves to its metachecks, can catch it
        d_low, d_high = tilde_rep3.delta(-1), tilde_rep3.delta(0)
        r_b, s_l, s_r = make_error_state(tilde_rep3, np.random.default_rng(3), 2)
        s_r[0, np.flatnonzero(d_low.any(axis=1))[0]] ^= 1
        with pytest.raises(ValueError, match=r"d_high @ S_L != S_R @ d_low"):
            soundness.partial_decode(r_b, s_l, s_r, d_high, d_low)

    def test_m_preserved_under_every_transform(self, tilde_rep2):
        # check_every_step asserts M after each single mutation
        rng = np.random.default_rng(11)
        for _ in range(25):
            r_b, s_l, s_r = make_error_state(tilde_rep2, rng, int(rng.integers(1, 6)))
            soundness.partial_decode(
                r_b, s_l, s_r, tilde_rep2.delta(0), tilde_rep2.delta(-1),
                check_every_step=True,
            )

    @pytest.mark.parametrize(
        "seed, counters, passes",
        [(159, [1, 1, 2, 0, 0, 1], 3), (634, [0, 0, 1, 0, 1, 1], 2)],
    )
    def test_pinned_states_fire_loops_two_and_five(
        self, tilde_rep2, seed, counters, passes
    ):
        rng = np.random.default_rng(seed)
        r_b, s_l, s_r = make_error_state(tilde_rep2, rng, int(rng.integers(1, 14)))
        state = soundness.partial_decode(
            r_b, s_l, s_r, tilde_rep2.delta(0), tilde_rep2.delta(-1)
        )
        assert state.loop_counters == counters
        assert state.passes == passes
        check_partial_properties(state, tilde_rep2)

    def test_pinned_batch_digest(self, tilde_rep2, tilde_rep3):
        # exact r_b, loop counters and passes over a seeded batch
        digest = hashlib.sha256()
        totals = [0] * 6
        for tilde in (tilde_rep2, tilde_rep3):
            rng = np.random.default_rng(2027)
            for _ in range(150):
                r_b, s_l, s_r = make_error_state(tilde, rng, int(rng.integers(1, 14)))
                state = soundness.partial_decode(
                    r_b, s_l, s_r, tilde.delta(0), tilde.delta(-1),
                    check_every_step=False,
                )
                digest.update(state.r_b.tobytes())
                digest.update(
                    np.array(state.loop_counters + [state.passes], dtype=np.int64).tobytes()
                )
                totals = [a + b for a, b in zip(totals, state.loop_counters)]
        assert totals[1] > 0 and totals[4] > 0
        assert totals == PINNED_TOTALS
        assert digest.hexdigest() == PINNED_DIGEST

    def test_every_step_check_changes_nothing(self, tilde_rep2, tilde_rep3):
        # the pinned batch, with and without the per-transform check
        for tilde in (tilde_rep2, tilde_rep3):
            rng = np.random.default_rng(2027)
            for _ in range(150):
                inputs = make_error_state(tilde, rng, int(rng.integers(1, 14)))
                checked, unchecked = (
                    soundness.partial_decode(
                        *inputs, tilde.delta(0), tilde.delta(-1), check_every_step=flag
                    )
                    for flag in (True, False)
                )
                for name in STATE_MATRICES:
                    assert (getattr(checked, name) == getattr(unchecked, name)).all()
                assert checked.loop_counters == unchecked.loop_counters
                assert checked.passes == unchecked.passes

    def test_state_products_are_those_of_the_final_block(self, tilde_rep3):
        d_low, d_high = tilde_rep3.delta(-1), tilde_rep3.delta(0)
        rng = np.random.default_rng(33)
        for _ in range(100):
            state = soundness.partial_decode(
                *make_error_state(tilde_rep3, rng, int(rng.integers(1, 8))), d_high, d_low
            )
            assert (state.rb_d_low == gf2.mat_mul(state.r_b, d_low)).all()
            assert (state.d_high_rb == gf2.mat_mul(d_high, state.r_b)).all()
            assert (state.m == gf2.mat_mul(d_high, state.s_l)).all()

    def test_rejects_mismatched_shapes(self, tilde_rep3):
        n0 = tilde_rep3.size(0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            soundness.partial_decode(
                gf2.zeros(n0, n0 - 1),
                gf2.zeros(n0, tilde_rep3.size(-1)),
                gf2.zeros(tilde_rep3.size(1), n0),
                tilde_rep3.delta(0),
                tilde_rep3.delta(-1),
            )


    @given(
        st.booleans(),
        st.sampled_from(["image", "image_plus_one", "random"]),
        st.integers(0, 2**32 - 1),
    )
    def test_metachecks_are_the_precondition(
        self, tilde_rep2, breve_rep2, tilde_rep3, breve_rep3, rep3, kind, seed
    ):
        # s = (S_L | S_R) fails the double product's metachecks exactly when
        # d_high S_L != S_R d_low, which is why the witness skips that check
        tilde, breve = (tilde_rep3, breve_rep3) if rep3 else (tilde_rep2, breve_rep2)
        d_low, d_high = tilde.delta(-1), tilde.delta(0)
        n_0, n_m1 = d_low.shape
        rng = np.random.default_rng(seed)
        if kind == "random":
            s = rng.integers(0, 2, breve.size(1), dtype=np.uint8)
        else:
            s = gf2.mat_vec(breve.delta(0), rng.integers(0, 2, breve.size(0), dtype=np.uint8))
            if kind == "image_plus_one":
                s[rng.integers(breve.size(1))] ^= 1
        s_l = s[: n_0 * n_m1].reshape(n_0, n_m1)
        s_r = s[n_0 * n_m1 :].reshape(d_high.shape[0], n_0)
        precondition = np.array_equal(gf2.mat_mul(d_high, s_l), gf2.mat_mul(s_r, d_low))
        assert gf2.mat_vec(breve.delta(1), s).any() == (not precondition)
        if kind == "image":
            assert precondition


def _error_syndromes(breve, rng, count):
    """Syndromes of count seeded weight-2 qubit errors of breve."""
    n = breve.size(0)
    for _ in range(count):
        r0 = np.zeros(n, dtype=np.uint8)
        r0[rng.choice(n, size=2, replace=False)] = 1
        yield gf2.mat_vec(breve.delta(0), r0)


class TestDoubleProductPreimage:
    def test_zero(self, tilde_rep2, breve_rep2):
        zero = np.zeros(breve_rep2.size(1), dtype=np.uint8)
        out = soundness.double_product_preimage(
            REP2, tilde_rep2, breve_rep2, zero, threshold=2
        )
        assert not out.r.any() and out.bound_guaranteed

    def test_exhaustive_weight_one_sources(self, tilde_rep2, breve_rep2):
        d0 = breve_rep2.delta(0)
        for q in range(33):
            r0 = np.zeros(33, dtype=np.uint8)
            r0[q] = 1
            s = gf2.mat_vec(d0, r0)
            out = soundness.double_product_preimage(
                REP2, tilde_rep2, breve_rep2, s, threshold=2
            )
            if not out.used_fallback:
                assert (gf2.mat_vec(d0, out.r) == s).all()
            if gf2.weight(s) < 2:
                assert out.bound_guaranteed and not out.used_fallback
                assert Fraction(gf2.weight(out.r)) <= bounds.CUBIC_OVER_4(gf2.weight(s))

    def test_assembly_bound_from_column_pieces(self, tilde_rep3):
        # |r_a| stays within the sum of quadratic bounds of its column pieces
        breve = product.double_product(tilde_rep3)
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(200):
            r0 = np.zeros(241, dtype=np.uint8)
            r0[rng.choice(241, size=2, replace=False)] = 1
            s = gf2.mat_vec(breve.delta(0), r0)
            out = soundness.double_product_preimage(
                REP3, tilde_rep3, breve, s, threshold=3
            )
            if out.used_fallback or out.r_a is None:
                continue
            budget = sum(
                bounds.QUADRATIC_OVER_4(gf2.weight(t.vector)) for t in out.left_terms
            )
            assert Fraction(gf2.weight(out.r_a)) <= budget
            budget_r = sum(
                bounds.QUADRATIC_OVER_4(gf2.weight(t.vector)) for t in out.right_terms
            )
            assert Fraction(gf2.weight(out.r_c)) <= budget_r
            checked += 1
        assert checked > 100

    def test_rejects_metacheck_failure(self, tilde_rep2, breve_rep2):
        s = np.zeros(breve_rep2.size(1), dtype=np.uint8)
        s[0] = 1
        assert gf2.mat_vec(breve_rep2.delta(1), s).any()
        with pytest.raises(soundness.PreimageError, match="metacheck"):
            soundness.double_product_preimage(
                REP2, tilde_rep2, breve_rep2, s, threshold=2
            )

    def test_rejects_non_image_metacheck_cycle(self):
        # cyclic input: a weight-3 metacheck-passing non-image syndrome exists
        tilde = single(cyclic(3))
        breve = product.double_product(tilde)
        witness = chain.homological_distance(breve, 1, 3).witness
        s = np.concatenate([witness, np.zeros(breve.size(1) - witness.shape[0], dtype=np.uint8)])
        if gf2.mat_vec(breve.delta(1), s).any():
            pytest.skip("witness embedding failed metachecks")
        with pytest.raises(soundness.PreimageError, match="image"):
            soundness.double_product_preimage(
                cyclic(3), tilde, breve, s, threshold=3
            )


    def test_rejects_tilde_of_another_matrix(self, tilde_rep3):
        # h is otherwise read only when a remainder term exists, so a zero
        # syndrome would get a witness
        breve = product.double_product(tilde_rep3)
        zero = np.zeros(breve.size(1), dtype=np.uint8)
        with pytest.raises(ValueError, match="not the single product of a 1x2 matrix"):
            soundness.double_product_preimage(REP2, tilde_rep3, breve, zero, threshold=2)

    def test_rejects_breve_of_another_complex(self, tilde_rep2, tilde_rep3):
        breve = product.double_product(tilde_rep3)
        s = gf2.mat_vec(breve.delta(0), np.eye(1, 241, 7, dtype=np.uint8)[0])
        with pytest.raises(ValueError, match=r"levels -2\.\.2.* is not the double product of"):
            soundness.double_product_preimage(REP2, tilde_rep2, breve, s, threshold=2)

    def test_rejects_checks_tilde_is_not_built_from(self, tilde_rep3, breve_rep3):
        # same shape as rep-3's checks: only tilde's factor tells them apart
        h = gf2.as_bin([[1, 0, 1], [1, 1, 0]])
        for s in _error_syndromes(breve_rep3, np.random.default_rng(28), 20):
            with pytest.raises(ValueError, match="not the single product"):
                soundness.double_product_preimage(h, tilde_rep3, breve_rep3, s, threshold=3)

    def test_refuses_a_complex_that_shares_a_map_with_tilde(self):
        # a fresh tilde, so that no memo on it is warm; other shares tilde's
        # d_0 array, so a solver memoised on d_0 alone would serve both
        tilde = single(REP3)
        other = ChainComplex([tilde.delta(-1)[:, ::-1], tilde.delta(0)], j_min=-1)
        assert other.delta(0) is tilde.delta(0)
        rng = np.random.default_rng(28)
        breve_other = product.double_product(other)
        for s in _error_syndromes(breve_other, rng, 50):
            with pytest.raises(ValueError, match="not the single product"):
                soundness.double_product_preimage(REP3, other, breve_other, s, threshold=3)
        breve = product.double_product(tilde)
        for s in _error_syndromes(breve, rng, 50):
            out = soundness.double_product_preimage(REP3, tilde, breve, s, threshold=3)
            assert (gf2.mat_vec(breve.delta(0), out.r) == s).all()

    def test_each_map_eliminated_once(self, solver_builds):
        # the middle-block map and tilde's two middle-level maps: one
        # elimination each, however many syndromes; the qubit map none,
        # since no syndrome here fails or falls back
        tilde = single(REP3)
        breve = product.double_product(tilde)
        rng = np.random.default_rng(5)
        for _ in range(60):
            r0 = np.zeros(241, dtype=np.uint8)
            r0[rng.choice(241, size=int(rng.integers(1, 3)), replace=False)] = 1
            s = gf2.mat_vec(breve.delta(0), r0)
            out = soundness.double_product_preimage(
                REP3, tilde, breve, s, threshold=3
            )
            assert not out.used_fallback
        assert solver_builds == [(36, 169), (13, 6), (13, 6)]

    def test_qubit_map_eliminated_once_for_non_image(self, solver_builds, cyclic3_non_image):
        # a non-image syndrome needs the qubit map's solver to be told
        # apart from a broken construction; it is built on the first call
        # and memoised for the next
        tilde, s = cyclic3_non_image
        breve = product.double_product(tilde)
        for _ in range(2):
            with pytest.raises(soundness.PreimageError, match="image of the qubit map"):
                soundness.double_product_preimage(cyclic(3), tilde, breve, s, threshold=3)
        assert solver_builds.count(breve.delta(0).shape) == 1

    def test_non_image_caught_by_the_final_check(self, monkeypatch, cyclic3_non_image):
        # with every remainder term given a zero witness, the assembled r
        # reaches the final check, which fails; the syndrome is then found
        # outside the image, and that is the error raised
        tilde, s = cyclic3_non_image
        breve = product.double_product(tilde)
        sides = []

        def zero_witness(h, tilde, vector, map_side, threshold):
            # no ones, no bound, no reductions
            sides.append(map_side)
            return [], False, 0

        monkeypatch.setattr(soundness, "_single_preimage", zero_witness)
        with pytest.raises(soundness.PreimageError, match="image"):
            soundness.double_product_preimage(cyclic(3), tilde, breve, s, threshold=3)
        assert sides  # every term passed, so only the final check was left

    def test_missing_remainder_preimage_breaks_the_guarantee(self, monkeypatch):
        # rep-4, t = 4: a single X error on qubit 0 has a syndrome of weight 3
        # and one remainder term.  Inside the guaranteed range, an image
        # syndrome's terms all have preimages, so a term without one is a
        # fault of the construction, not of the input; outside it, the
        # witness falls back to the plain solver
        rep4 = gf2.as_bin([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        tilde = single(rep4)
        breve = product.double_product(tilde)
        s = gf2.mat_vec(breve.delta(0), np.eye(1, breve.size(0), 0, dtype=np.uint8)[0])
        out = soundness.double_product_preimage(rep4, tilde, breve, s, threshold=4)
        assert gf2.weight(s) == 3 and out.bound_guaranteed
        assert not out.right_terms and len(out.left_terms) == 1

        def no_preimage(*args, **kwargs):
            raise soundness.PreimageError("syndrome is not in the image of the selected map")

        monkeypatch.setattr(soundness, "_single_preimage", no_preimage)
        index = out.left_terms[0].index
        with pytest.raises(
            AssertionError, match=f"from_redundancy remainder term at index {index}"
        ):
            soundness.double_product_preimage(rep4, tilde, breve, s, threshold=4)
        fallback = soundness.double_product_preimage(rep4, tilde, breve, s, threshold=3)
        assert fallback.used_fallback and not fallback.bound_guaranteed
        assert (gf2.mat_vec(breve.delta(0), fallback.r) == s).all()

    # rep-3's double product, and the syndrome of an X error on qubit q
    DOUBLE_REP3 = (
        "import numpy as np\n"
        "from homprod import gf2, product, soundness\n"
        "from homprod.chain import ChainComplex\n"
        "h = gf2.as_bin([[1, 1, 0], [0, 1, 1]])\n"
        "tilde = product.single_product(ChainComplex([h], j_min=0))\n"
        "breve = product.double_product(tilde)\n"
        "def syndrome(q):\n"
        "    return gf2.mat_vec(breve.delta(0), np.eye(1, breve.size(0), q, dtype=np.uint8)[0])\n"
    )

    def test_cubic_bound_survives_optimize_flag(self):
        # |s| = 2 < t = 3, so the bound is checked, by an explicit raise
        code = self.DOUBLE_REP3 + (
            "s = syndrome(120)\n"
            "if gf2.weight(s) != 2:\n"
            "    raise SystemExit(1)\n"
            "soundness.CUBIC_OVER_4 = lambda x: -1\n"
            "try:\n"
            "    soundness.double_product_preimage(h, tilde, breve, s, threshold=3)\n"
            "except AssertionError as exc:\n"
            "    raise SystemExit(7 if 'cubic bound violated' in str(exc) else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 7, proc.stderr

    def test_final_check_survives_optimize_flag(self):
        # qubit 0's syndrome has one left remainder term; its witness,
        # corrupted after its own check, is caught when r is checked
        # against the qubit map, by an explicit raise
        code = self.DOUBLE_REP3 + (
            "real = soundness._single_preimage\n"
            "calls = []\n"
            "def corrupt(*args):\n"
            "    # the witness's ones, with entry 0 flipped\n"
            "    ones, *rest = real(*args)\n"
            "    calls.append(1)\n"
            "    return (sorted(set(ones) ^ {0}), *rest)\n"
            "soundness._single_preimage = corrupt\n"
            "try:\n"
            "    soundness.double_product_preimage(h, tilde, breve, syndrome(0), threshold=3)\n"
            "except AssertionError as exc:\n"
            "    message = 'assembled witness does not solve the qubit map'\n"
            "    raise SystemExit(7 if calls and str(exc) == message else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 7, proc.stderr

    def test_term_check_survives_optimize_flag(self):
        # qubit 0's syndrome has one left remainder term; a wrong reduction
        # of its witness inside double_product_preimage is caught by the
        # term's own check, an explicit raise, before r is assembled
        code = self.DOUBLE_REP3 + (
            "calls = []\n"
            "def wrong(rows, col_test, row_test):\n"
            "    # entry (0, 0) of 2- or 3-column int rows: column 0 is bit 7\n"
            "    calls.append(1)\n"
            "    return [rows[0] ^ 128] + rows[1:], 0\n"
            "soundness._reduce_reshaped = wrong\n"
            "try:\n"
            "    soundness.double_product_preimage(h, tilde, breve, syndrome(0), threshold=3)\n"
            "except AssertionError as exc:\n"
            "    message = 'reduced witness no longer solves the selected map'\n"
            "    raise SystemExit(7 if calls and str(exc) == message else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 7, proc.stderr

    def test_outputs_share_no_memory_with_the_syndrome(self, tilde_rep3):
        breve = product.double_product(tilde_rep3)
        r0 = np.zeros(241, dtype=np.uint8)
        r0[[0, 210]] = 1
        s = gf2.mat_vec(breve.delta(0), r0)
        out = soundness.double_product_preimage(REP3, tilde_rep3, breve, s, threshold=3)
        assert out.left_terms and out.right_terms and not out.used_fallback
        kept = [out.r, out.r_a, out.r_b, out.r_c] + [
            getattr(out.state, name) for name in STATE_MATRICES
        ] + [term.vector for term in out.left_terms + out.right_terms]
        assert not any(np.shares_memory(a, s) for a in kept)
        assert np.shares_memory(out.r_a, out.r) and np.shares_memory(out.r_c, out.r)

    def test_plan_dies_with_its_product(self):
        # the plan is memoised on h, so it must hold no reference to h:
        # once tilde and breve are gone, so are h and its memo entry
        tilde = single(REP3)
        breve = product.double_product(tilde)
        s = next(_error_syndromes(breve, np.random.default_rng(3), 1))
        soundness.double_product_preimage(REP3, tilde, breve, s, threshold=3)
        h = tilde.factor.boundaries[0]
        assert h.base is None and ("", "double_plan") in gf2._MEMO[id(h)][1]
        owner, oid = weakref.ref(h), id(h)
        del tilde, breve, h
        gc.collect()
        assert owner() is None
        assert oid not in gf2._MEMO

    def test_products_of_equal_checks_give_identical_witnesses(self):
        # two double products of one tilde share its plan; a tilde built
        # from an equal H builds its own; each gives the same bytes
        tilde = single(REP3)
        other = single(REP3.copy())
        pairs = [
            (tilde, product.double_product(tilde)),
            (tilde, product.double_product(tilde)),
            (other, product.double_product(other)),
        ]
        for s in _error_syndromes(pairs[0][1], np.random.default_rng(44), 100):
            witnesses = set()
            for t, b in pairs:
                out = soundness.double_product_preimage(REP3, t, b, s, threshold=3)
                digest = hashlib.sha256()
                _feed(digest, out.r, [out.bound_guaranteed, out.used_fallback])
                _feed(digest, *[getattr(out.state, name) for name in STATE_MATRICES])
                for term in out.left_terms + out.right_terms:
                    _feed(digest, [term.index], term.vector)
                witnesses.add(digest.hexdigest())
            assert len(witnesses) == 1
        plans = [soundness._double_plan(t.factor.boundaries[0], t, b) for t, b in pairs]
        assert plans[0] is plans[1] and plans[2] is not plans[0]


def _feed(digest, *values):
    """Feed arrays, flags and int lists to a digest; None gets its own marker."""
    for v in values:
        if v is None:
            digest.update(b"none")
        elif isinstance(v, np.ndarray):
            digest.update(v.astype(np.uint8).tobytes())
        else:
            digest.update(np.array(v, dtype=np.int64).tobytes())


class TestWitnessDigests:
    """Every output of both witness constructions over seeded batches, pinned:
    a change to any loop, tie-break or counter changes a digest."""

    @staticmethod
    def double_witnesses(tilde_rep2, breve_rep2, tilde_rep3):
        """The double-product witness of every syndrome of both batches: all
        errors of weight 0-2 on rep-2's 33 qubits (t = 2), then 400 seeded
        errors of weight 1-3 on rep-3's 241 qubits (t = 3)."""
        breve_rep3 = product.double_product(tilde_rep3)
        batches = [
            (REP2, tilde_rep2, breve_rep2, 2,
             [s for w in (0, 1, 2) for s in itertools.combinations(range(33), w)]),
        ]
        rng = np.random.default_rng(241)
        supports = [rng.choice(241, size=int(rng.integers(1, 4)), replace=False) for _ in range(400)]
        batches.append((REP3, tilde_rep3, breve_rep3, 3, supports))
        for h, tilde, breve, t, errors in batches:
            n = breve.size(0)
            for support in errors:
                r0 = np.zeros(n, dtype=np.uint8)
                r0[list(support)] = 1
                s = gf2.mat_vec(breve.delta(0), r0)
                yield soundness.double_product_preimage(h, tilde, breve, s, threshold=t)

    def test_double_product_batches(self, tilde_rep2, breve_rep2, tilde_rep3):
        digest = hashlib.sha256()
        fallbacks = 0
        for out in self.double_witnesses(tilde_rep2, breve_rep2, tilde_rep3):
            state = out.state
            _feed(
                digest, out.r, out.r_a, out.r_b, out.r_c,
                [out.bound_guaranteed, out.used_fallback],
                None if state is None else state.loop_counters + [state.passes],
            )
            fallbacks += out.used_fallback
        assert fallbacks > 0
        assert digest.hexdigest() == PINNED_DOUBLE_DIGEST

    def test_double_product_states_and_terms(self, tilde_rep2, breve_rep2, tilde_rep3):
        # the state's six matrices and every remainder term, which the
        # digest above reaches only through r
        digest = hashlib.sha256()
        terms = 0
        for out in self.double_witnesses(tilde_rep2, breve_rep2, tilde_rep3):
            state = out.state
            if state is None:
                _feed(digest, None)
            else:
                for name in STATE_MATRICES:
                    matrix = getattr(state, name)
                    _feed(digest, list(matrix.shape), matrix)
            _feed(digest, [len(out.left_terms), len(out.right_terms)])
            for term in out.left_terms + out.right_terms:
                _feed(digest, [term.index], term.vector)
            terms += len(out.left_terms) + len(out.right_terms)
        assert terms > 0
        assert digest.hexdigest() == PINNED_STATE_TERMS_DIGEST

    def test_single_product_batches(self):
        digest = hashlib.sha256()
        reductions = 0
        h4 = gf2.as_bin([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]])
        rng = np.random.default_rng(1805)
        for h, t in ((REP2, 2), (REP3, 3), (h4, None)):
            tilde = single(h)
            for side, delta in (
                ("from_checks", tilde.delta(0).T),
                ("from_redundancy", tilde.delta(-1)),
            ):
                for _ in range(200):
                    r0 = rng.integers(0, 2, size=delta.shape[1], dtype=np.uint8)
                    s = gf2.mat_vec(delta, r0)
                    out = soundness.single_product_preimage(h, s, side, t, tilde=tilde)
                    _feed(digest, out.r, [out.bound_guaranteed, out.reductions])
                    reductions += out.reductions
        assert reductions > 0
        assert digest.hexdigest() == PINNED_SINGLE_DIGEST


def reference_pauli_weight_table(checks):
    """The per-Pauli loop pauli_weight_table ran before it took whole
    arrays: Paulis in base-4 order (digit q of qubit q: 1 X, 2 Z, 3 Y),
    each syndrome keeping its first least weight."""
    checks = gf2.as_bin(checks)
    n = checks.shape[1] // 2
    cx, cz = checks[:, :n].astype(np.int64), checks[:, n:].astype(np.int64)
    table = {}
    for code in range(4**n):
        e = np.zeros(n, dtype=np.int64)
        f = np.zeros(n, dtype=np.int64)
        c = code
        weight = 0
        for q in range(n):
            p = c & 3
            c >>= 2
            if p:
                weight += 1
                if p in (1, 3):
                    e[q] = 1
                if p in (2, 3):
                    f[q] = 1
        key = ((cx @ f + cz @ e) & 1).astype(np.uint8).tobytes()
        if key not in table or weight < table[key]:
            table[key] = weight
    return table


class TestCertifyChecks:
    def test_pauli_weight_tables_are_pinned(self):
        rng = np.random.default_rng(1805)
        corpus = [
            rng.integers(0, 2, size=(int(rng.integers(1, n + 2)), 2 * n), dtype=np.uint8)
            for n in (2, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6)
        ]
        corpus += [gf2.zeros(0, 6), FIVE_QUBIT]
        digest = hashlib.sha256()
        for checks in corpus:
            digest.update(repr(checks.shape).encode() + checks.tobytes())
            for key, w in soundness.pauli_weight_table(checks).items():
                digest.update(key + bytes([w]))
        assert digest.hexdigest() == PINNED_PAULI_TABLE_DIGEST

    def test_tables_stop_at_the_qubit_limit(self):
        checks = gf2.zeros(1, 2 * (soundness.PAULI_TABLE_MAX_QUBITS + 1))
        with pytest.raises(ValueError, match="limited to 7 qubits"):
            soundness.pauli_weight_table(checks)
        with pytest.raises(ValueError, match="limited to 7 qubits"):
            soundness.certify_checks(checks, 2, bounds.LINEAR)

    def test_pauli_weight_table_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            checks = rng.integers(0, 2, size=(int(rng.integers(0, 2 * n + 1)), 2 * n), dtype=np.uint8)
            got = soundness.pauli_weight_table(checks)
            want = reference_pauli_weight_table(checks)
            assert list(got.items()) == list(want.items())

    def test_diagonalized_frames_linear_sound(self):
        hamming = gf2.as_bin(
            [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
        )
        rep3_quantum = np.zeros((2, 6), dtype=np.uint8)
        rep3_quantum[0, 3] = rep3_quantum[0, 4] = 1
        rep3_quantum[1, 4] = rep3_quantum[1, 5] = 1
        check_sets = [
            stab.SymplecticChecks.from_css(hamming, hamming),
            stab.SymplecticChecks(rep3_quantum),
        ]
        for checks in check_sets:
            diag = stab.diagonalize(checks)
            verdict = soundness.certify_checks(diag.generators, math.inf, bounds.LINEAR)
            assert verdict.certified

    def test_counterexample_detected(self):
        # plain toric-patch checks are not linearly sound
        patch = single(REP2)
        from homprod import css

        code = css.from_complex(patch)
        checks = stab.SymplecticChecks.from_css(code.z_checks, code.x_checks)
        verdict = soundness.certify_checks(checks.matrix, math.inf, bounds.PolyBound(1, Fraction(1, 4)))
        assert verdict.kind == "counterexample"


class TestProfileDigest:
    """profile_map's worst preimage weights and the bytes of every worst
    syndrome, pinned: any change to the image listing's (weight, lex) order
    or to the preimage search changes the digest."""

    def test_worst_and_worst_syndromes(self, breve_rep2):
        from homprod import cli

        digest = hashlib.sha256()
        rows = [
            cli.build_stages(ChainComplex([cli.TABLE1_INPUTS[name]], j_min=0))
            for name in ("row1", "row2")
        ]
        for breve, x_max in [(breve_rep2, 4)] + [(b, 3) for b in rows]:
            for delta in (breve.delta(0), breve.delta(-1).T, breve.delta(0).T, breve.delta(-1)):
                prof = soundness.profile_map(delta, x_max, 4)
                _feed(digest, [[x, w] for x, w in sorted(prof.worst.items())])
                for x, s in sorted(prof.worst_syndrome.items()):
                    _feed(digest, [x], s)
        assert digest.hexdigest() == PINNED_PROFILE_DIGEST
