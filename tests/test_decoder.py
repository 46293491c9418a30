import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from homprod import bounds, chain, css, decoder, gf2, product
from homprod.chain import ChainComplex, Distance
from homprod.css import PauliError

from codes import budget241, budget33, double, fresh_python, metasyndrome
from dense_reference import dense_kernel

REP2 = [[1, 1]]
REP3 = [[1, 1, 0], [0, 1, 1]]
CYC3 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def unit_u(m, i):
    u = np.zeros(m, dtype=np.uint8)
    u[i] = 1
    return u


def single_x(n, q):
    e = np.zeros(n, dtype=np.uint8)
    e[q] = 1
    return PauliError(e, np.zeros_like(e))


class TestSplitMeasurementError:
    def test_wrong_length_is_refused(self, code33):
        with pytest.raises(ValueError, match="does not match check count"):
            decoder.split_measurement_error(code33, np.zeros(39, dtype=np.uint8))


class TestRepairSyndrome:
    def test_clean_syndrome_needs_no_repair(self, code241):
        err = single_x(241, 17)
        out = decoder.repair_syndrome(code241, code241.syndrome(err), 3)
        assert out.s_rec.weight() == 0
        assert not out.metacheck_failure

    def test_single_measurement_error(self, code241):
        err = single_x(241, 17)
        s = code241.syndrome(err).compose(
            decoder.split_measurement_error(code241, unit_u(312, 40))
        )
        out = decoder.repair_syndrome(code241, s, 3)
        assert out.s_rec.weight() <= 1
        assert not out.metacheck_failure
        repaired = s.compose(out.s_rec)
        assert not metasyndrome(code241, repaired).any()

    def test_all_weight_one_u_on_cyclic_code(self, code486):
        # strictly below half the single-shot distance: no failure possible
        for i in range(0, 648, 13):
            s = decoder.split_measurement_error(code486, unit_u(648, i))
            out = decoder.repair_syndrome(code486, s, 2)
            assert out.s_rec.weight() <= 1
            assert not out.metacheck_failure

    def test_metacheck_failure_on_nontrivial_cycle(self, code486):
        # a weight-3 syndrome that passes metachecks but has no explanation
        witness = chain.homological_distance(double(CYC3), 1, 3).witness
        u = np.concatenate([witness, np.zeros(324, dtype=np.uint8)])
        s = decoder.split_measurement_error(code486, u)
        out = decoder.repair_syndrome(code486, s, 3)
        assert out.metacheck_failure
        assert out.s_rec.weight() == 0  # already metacheck-consistent

    def test_rejects_code_without_metachecks(self):
        code = css.from_complex(
            product.single_product(ChainComplex([gf2.as_bin(REP3)], j_min=0))
        )
        with pytest.raises(ValueError):
            decoder.repair_syndrome(code, code.syndrome(PauliError.identity(13)), 2)


class TestQubitDecode:
    """The qubit stage of single_shot_decode: a syndrome with no measurement
    error needs no repair, so the decode is the minimum-weight Pauli."""

    def test_zero_syndrome(self, code33):
        result = decoder.single_shot_decode(
            code33, code33.syndrome(PauliError.identity(33)), 3
        )
        assert result.s_rec.weight() == 0
        assert result.e_rec.is_identity() and result.minimality_certified

    def test_single_error_recovered_exactly(self, code33):
        # distance 4 > 2: weight-1 errors decode to themselves
        for q in range(33):
            err = single_x(33, q)
            result = decoder.single_shot_decode(code33, code33.syndrome(err), 3)
            assert result.s_rec.weight() == 0
            assert (result.e_rec.e == err.e).all() and not result.e_rec.f.any()

    def test_weight_two_syndrome(self, code241):
        e = np.eye(241, dtype=np.uint8)[3] | np.eye(241, dtype=np.uint8)[77]
        err = PauliError(e, np.zeros_like(e))
        result = decoder.single_shot_decode(code241, code241.syndrome(err), 3)
        assert result.s_rec.weight() == 0 and result.minimality_certified
        e_rec = result.e_rec
        assert e_rec.weight() <= 2
        assert (code241.syndrome(e_rec).z_part == code241.syndrome(err).z_part).all()

    def test_rejects_unexplainable_syndrome(self, code486):
        # metacheck-consistent, but no Pauli explains it: no recovery is applied
        witness = chain.homological_distance(double(CYC3), 1, 3).witness
        s = decoder.split_measurement_error(
            code486, np.concatenate([witness, np.zeros(324, dtype=np.uint8)])
        )
        result = decoder.single_shot_decode(code486, s, 3)
        assert result.metacheck_failure and not result.minimality_certified
        assert result.e_rec.is_identity()


class TestSingleShotDecode:
    def test_no_image_test_and_obstruction_rows_built_once(self, monkeypatch):
        built = []
        real_rows = gf2.cokernel_rows

        def counting(h, known=None):
            built.append((h.shape, known))
            return real_rows(h, known)

        def refused(self, b):
            raise AssertionError("decode made an image test")

        monkeypatch.setattr(gf2, "cokernel_rows", counting)
        monkeypatch.setattr(gf2.Gf2Solver, "in_image", refused)
        code = css.from_complex(double(REP3))  # fresh: nothing cached yet
        m = code.num_z_checks + code.num_x_checks
        cases = [(single_x(241, q), unit_u(m, i)) for q, i in [(0, 0), (7, 3), (240, m - 1)]]
        cases.append((PauliError.identity(241), np.zeros(m, dtype=np.uint8)))
        for err, u in cases:
            s = code.syndrome(err).compose(decoder.split_measurement_error(code, u))
            decoder.single_shot_decode(code, s, 6, true_error=err, residual_budget=2)
        # one build per side, on the first decode
        assert [shape for shape, _ in built] == [code.z_checks.shape, code.x_checks.shape]
        assert built[0][1] is code.z_metachecks and built[1][1] is code.x_metachecks

    def test_zero_syndrome(self, code33):
        res = decoder.single_shot_decode(
            code33,
            code33.syndrome(PauliError.identity(33)),
            3,
            true_error=PauliError.identity(33),
        )
        assert res.e_rec.is_identity()
        assert res.residual_min_weight == 0
        assert res.minimality_certified

    def test_residual_bounded_for_unit_errors(self, code241):
        # one qubit error plus one measurement error: residual within f(2) = 2
        for (q, i) in [(0, 0), (13, 40), (200, 300), (77, 156)]:
            err = single_x(241, q)
            s = code241.syndrome(err).compose(
                decoder.split_measurement_error(code241, unit_u(312, i))
            )
            res = decoder.single_shot_decode(
                code241, s, 6, true_error=err, residual_budget=2
            )
            assert not res.metacheck_failure
            assert res.s_rec.weight() <= 1
            assert res.residual_min_weight is not None
            assert res.residual_min_weight <= 2

    def test_measurement_error_only(self, code241):
        for i in (5, 100, 311):
            s = decoder.split_measurement_error(code241, unit_u(312, i))
            res = decoder.single_shot_decode(
                code241, s, 6, true_error=PauliError.identity(241), residual_budget=2
            )
            assert res.residual_min_weight is not None
            assert res.residual_min_weight <= 2

    def test_first_decode_imports_nothing(self):
        # a measurement error alone leaves a weight-1 residual, so both coset
        # annihilators are built (np.setdiff1d there would import numpy.ma).
        # pytest may hold numpy.ma already: a fresh interpreter decodes
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from homprod import chain, css, decoder, gf2, product\n"
            "h = gf2.as_bin([[1, 1, 0], [0, 1, 1]])\n"
            "tilde = product.single_product(chain.ChainComplex([h], j_min=0))\n"
            "code = css.from_complex(product.double_product(tilde))\n"
            "u = np.zeros(code.num_z_checks + code.num_x_checks, dtype=np.uint8)\n"
            "u[119] = 1\n"
            "before = set(sys.modules)\n"
            "res = decoder.single_shot_decode(code, decoder.split_measurement_error(code, u), 6,\n"
            "    true_error=css.PauliError.identity(code.n), residual_budget=2)\n"
            "new = sorted(set(sys.modules) - before)\n"
            "print(res.residual_min_weight, new, 'numpy.ma' in sys.modules)\n"
        )
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["1 [] False", ""]

    def test_determinism(self, code241):
        err = single_x(241, 99)
        s = code241.syndrome(err).compose(
            decoder.split_measurement_error(code241, unit_u(312, 250))
        )
        a = decoder.single_shot_decode(code241, s, 6, true_error=err, residual_budget=2)
        b = decoder.single_shot_decode(code241, s, 6, true_error=err, residual_budget=2)
        assert (a.e_rec.e == b.e_rec.e).all() and (a.e_rec.f == b.e_rec.f).all()
        assert (a.s_rec.z_part == b.s_rec.z_part).all()
        assert a.residual_min_weight == b.residual_min_weight


# sha256 over every single_shot_decode output of the seeded corpus below
PINNED_DECODE_DIGEST = "cb8e5352a9bf4cb0883e988b6d5093955c9fb28f58ec3ab2b091901186c639c2"


def random_pauli(rng, n, weight):
    """A Pauli on `weight` distinct qubits, each X, Z or Y at random."""
    e = np.zeros(n, dtype=np.uint8)
    f = np.zeros(n, dtype=np.uint8)
    for q, kind in zip(rng.choice(n, size=weight, replace=False), rng.integers(0, 3, size=weight)):
        e[q] = kind != 1
        f[q] = kind != 0
    return PauliError(e, f)


class TestDecodeDigest:
    """Every field of single_shot_decode over seeded (E, u) pairs, pinned:
    500 in-contract pairs on the 241-qubit code (|u| <= 1, |E| <= 2,
    residual budget f(2|u|)), and 500 pairs with |u| from 1 to 3 on the
    486-qubit code, whose homology at the syndrome levels lets a repaired
    syndrome fail its metachecks (residual budget f(2|u|), at most the
    search weight 6).  A decode that runs out of budget contributes its
    BudgetExhausted message."""

    def test_seeded_corpus(self, code241, code486):
        digest = hashlib.sha256()
        failures = exhausted = 0
        for code, seed, u_weights in ((code241, 241, (0, 1)), (code486, 486, (1, 2, 3))):
            rng = np.random.default_rng(seed)
            m = code.num_z_checks + code.num_x_checks
            for _ in range(500):
                u = np.zeros(m, dtype=np.uint8)
                u_weight = int(rng.choice(u_weights))
                u[rng.choice(m, size=u_weight, replace=False)] = 1
                error = random_pauli(rng, code.n, int(rng.integers(0, 3)))
                s = code.syndrome(error).compose(decoder.split_measurement_error(code, u))
                budget = min(int(bounds.CUBIC_OVER_4(2 * u_weight)), 6)
                try:
                    r = decoder.single_shot_decode(code, s, 6, true_error=error, residual_budget=budget)
                except gf2.BudgetExhausted as exc:
                    exhausted += 1
                    digest.update(f"BudgetExhausted: {exc}".encode())
                    continue
                failures += r.metacheck_failure
                for v in (r.s_rec.z_part, r.s_rec.x_part, r.e_rec.e, r.e_rec.f):
                    digest.update(v.astype(np.uint8).tobytes())
                digest.update(repr((r.metacheck_failure, r.residual_min_weight, r.minimality_certified)).encode())
        # the corpus reaches metacheck failures, and five residual searches on
        # the 486-qubit code whose C(486, 3) tables fit the memory cap
        assert (failures, exhausted) == (3, 0)
        assert digest.hexdigest() == PINNED_DECODE_DIGEST


class TestSyndromeObstructions:
    """The rows that decide metacheck failure: ker(H^T) modulo M's rows."""

    @pytest.mark.parametrize(
        "h, counts",
        [(REP2, (0, 0)), (REP3, (0, 0)), (CYC3, (4, 4))],
        ids=["code33", "code241", "code486"],
    )
    def test_row_counts_are_betti_numbers(self, h, counts):
        complex_ = double(h)
        z_rows, x_rows = css.from_complex(complex_).syndrome_obstructions
        assert (len(z_rows), len(x_rows)) == counts
        assert counts == (chain.betti_number(complex_, 1), chain.betti_number(complex_, -1))

    def test_rows_are_read_only_kernel_rows_of_the_checks(self, code486):
        for rows, h, m in (
            (*code486.syndrome_obstructions[:1], code486.z_checks, code486.z_metachecks),
            (*code486.syndrome_obstructions[1:], code486.x_checks, code486.x_metachecks),
        ):
            assert not rows.flags.writeable
            assert not gf2.mat_mul(rows, h).any()
            # independent of each other and of m's rows
            assert gf2.rank(np.vstack([m, rows])) == gf2.rank(m) + len(rows)

    def test_failure_flag_matches_solver_membership(self, code486):
        # metacheck-consistent syndromes: an error's syndrome plus, on each
        # side with probability 1/2, a random vector of ker M
        rng = np.random.default_rng(1805)
        z_kernel = dense_kernel(code486.z_metachecks)
        x_kernel = dense_kernel(code486.x_metachecks)
        solvers = gf2.get_solver(code486.z_checks), gf2.get_solver(code486.x_checks)
        flags = []
        for _ in range(300):
            s = code486.syndrome(random_pauli(rng, 486, int(rng.integers(0, 4))))
            parts = [s.z_part, s.x_part]
            for i, kernel in enumerate((z_kernel, x_kernel)):
                if rng.integers(0, 2):
                    mix = rng.integers(0, 2, size=len(kernel))
                    parts[i] = parts[i] ^ gf2.mat_vec(kernel.T, mix)
            s = css.Syndrome(*parts)
            assert not metasyndrome(code486, s).any()
            expected = not (solvers[0].in_image(s.z_part) and solvers[1].in_image(s.x_part))
            outcome = decoder.repair_syndrome(code486, s, 3)
            assert outcome.s_rec.weight() == 0
            assert outcome.metacheck_failure == expected
            assert code486.obstructed(s) == expected
            flags.append(expected)
        assert 50 < sum(flags) < 250

    @pytest.mark.parametrize("h", [REP3, CYC3], ids=["rep3", "cyc3"])
    def test_membership_matches_solvers_on_any_syndrome(self, h):
        # arbitrary syndromes, metacheck-consistent or not, on the double
        # product and on the single product (no metachecks)
        rng = np.random.default_rng(7)
        single = product.single_product(ChainComplex([gf2.as_bin(h)], j_min=0))
        for code in (css.from_complex(single), css.from_complex(double(h))):
            solvers = gf2.get_solver(code.z_checks), gf2.get_solver(code.x_checks)
            for _ in range(200):
                s = css.Syndrome(
                    rng.integers(0, 2, size=code.num_z_checks, dtype=np.uint8),
                    rng.integers(0, 2, size=code.num_x_checks, dtype=np.uint8),
                )
                if rng.integers(0, 2):
                    s = code.syndrome(random_pauli(rng, code.n, 3))
                expected = solvers[0].in_image(s.z_part) and solvers[1].in_image(s.x_part)
                # a syndrome of a Pauli passes every metacheck and every obstruction row
                consistent = not code.has_metachecks or not metasyndrome(code, s).any()
                assert (consistent and not code.obstructed(s)) == expected

    def test_betti_guard_survives_optimize_flag(self):
        # a row count that disagrees with the Betti number is caught by an
        # explicit raise, not an assert that -O strips
        code = (
            "from homprod import chain, css, gf2, product\n"
            "h = gf2.as_bin([[1, 1, 0], [0, 1, 1], [1, 0, 1]])\n"
            "complex_ = product.double_product(product.single_product(chain.ChainComplex([h], j_min=0)))\n"
            "real = css.betti_number\n"
            "css.betti_number = lambda c, j: real(c, j) + 1\n"
            "try:\n"
            "    css.from_complex(complex_).syndrome_obstructions\n"
            "except AssertionError as exc:\n"
            "    raise SystemExit(7 if 'Betti number is 5' in str(exc) else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 7, proc.stderr


class TestBudget:
    def test_rep3_double(self):
        b = budget241()
        assert b.measurement_budget == Fraction(3, 2)
        assert b.qubit_budget == Fraction(9, 2)
        assert b.qubit_status == "external"

    def test_cyclic_values(self):
        b = decoder.single_shot_budget(
            Distance(3, "exact"),
            Distance(3, "exact"),
            Distance(9, "external"),
            bounds.CUBIC_OVER_4,
        )
        assert b.measurement_budget == Fraction(3, 2)

    def test_zero_threshold_blocks_measurement_errors(self):
        b = decoder.single_shot_budget(
            Distance(math.inf, "exact"),
            Distance(0, "exact"),
            Distance(4, "exact"),
            bounds.CUBIC_OVER_4,
        )
        assert b.measurement_budget == 0
        # even a perfect measurement round falls outside the contract
        assert not b.admits(0, 1)


class TestAdversarialSweep:
    def test_exhaustive_33(self, code33):
        report = decoder.adversarial_sweep(
            code33, budget33(), u_max=1, e_max=1, max_weight=6
        )
        assert report.pairs_tested == 100  # identity + 3 Paulis on 33 qubits
        assert report.ok
        assert not report.sampled

    def test_sampled_241(self, code241):
        report = decoder.adversarial_sweep(
            code241,
            budget241(),
            u_max=1, e_max=2, samples=300, seed=7,
            max_weight=6,
        )
        assert report.pairs_tested == 300
        assert report.ok
        assert report.sampled and report.seed == 7

    def test_shallow_sweep_builds_no_pair_table(self):
        # in contract, |u| <= 1 and |E| <= 2: every nonzero query up to
        # weight 3 draws from pivot rows and needs only the index
        code = css.from_complex(double(REP3))  # fresh: nothing cached yet
        report = decoder.adversarial_sweep(
            code, budget241(), u_max=1, e_max=2, samples=300, seed=1
        )
        assert report.pairs_tested == 300 and report.ok
        for m in (code.z_checks, code.x_checks):
            search = gf2._searcher(m)
            assert not search._sorted

    def test_sampled_budget_admitting_nothing(self, code33, deadline):
        # rejection sampling used to spin forever when no pair is in contract
        budget = decoder.SingleShotBudget(0, 0, bounds.CUBIC_OVER_4)
        with deadline(10):
            report = decoder.adversarial_sweep(code33, budget, 1, 1, samples=3, seed=1)
        assert report.pairs_tested == 0 and report.ok
        assert report.sampled and report.seed == 1

    def test_sampled_deterministic(self, code241):
        kw = dict(u_max=1, e_max=2, samples=50, seed=3, max_weight=6)
        a = decoder.adversarial_sweep(code241, budget241(), **kw)
        b = decoder.adversarial_sweep(code241, budget241(), **kw)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("u_max, e_max", [(1, 4), (20, 1)], ids=["emax4", "umax20"])
    def test_exhaustive_stops_at_the_contract(self, code33, deadline, u_max, e_max):
        # the contract (p = 1, q = 2, f = x^3/4) admits |u| = 0 with
        # wt(E) <= 1 and no |u| >= 1, so higher caps add no pair; a sweep
        # that listed every Pauli up to weight 4, or every u up to weight
        # 20, and filtered each pair would run for minutes
        with deadline(10):
            report = decoder.adversarial_sweep(code33, budget33(), u_max, e_max)
        assert report.to_json() == decoder.adversarial_sweep(code33, budget33(), 1, 1).to_json()

    def test_sampled_caps_are_bounded_by_the_lengths(self, code33, deadline):
        # 40 checks: a u cap above 40 draws as 40 does, instead of rejecting
        # every over-long draw (at 100,000, about 2,400 rejections per pair)
        with deadline(5):
            report = decoder.adversarial_sweep(code33, budget33(), 100000, 1, samples=50, seed=1)
        expected = decoder.adversarial_sweep(code33, budget33(), 40, 1, samples=50, seed=1)
        assert report.to_json() == expected.to_json()


class TestMultiRound:
    def test_all_zero_schedule(self, code33):
        schedule = [(PauliError.identity(33), np.zeros(40, dtype=np.uint8))] * 5
        records = decoder.simulate_rounds(code33, budget33(), schedule, max_weight=6)
        assert all(r.in_contract for r in records)
        assert all(r.residual_min_weight == 0 for r in records)

    def test_ten_rounds_single_qubit_errors(self, code33):
        # in-contract rounds: no measurement errors, one new error per round
        rng = np.random.default_rng(2)
        schedule = []
        for _ in range(10):
            e = np.zeros(33, dtype=np.uint8)
            e[rng.integers(0, 33)] = 1
            schedule.append((PauliError(e, np.zeros_like(e)), np.zeros(40, dtype=np.uint8)))
        records = decoder.simulate_rounds(code33, budget33(), schedule, max_weight=6)
        assert all(r.in_contract for r in records)
        assert all(r.residual_bounded for r in records)
        assert all(r.residual_min_weight == 0 for r in records)

    def test_out_of_contract_rounds_marked_not_asserted(self, code33):
        # one measurement error per round exceeds the qubit budget of 2
        schedule = []
        for i in range(10):
            schedule.append((PauliError.identity(33), unit_u(40, (3 * i) % 40)))
        records = decoder.simulate_rounds(code33, budget33(), schedule, max_weight=6)
        assert all(not r.in_contract for r in records)
        assert all(r.residual_bounded is None for r in records)
        # observed behaviour on this schedule: residuals stay within f(2) = 2
        assert all(
            r.residual_min_weight is not None and r.residual_min_weight <= 2
            for r in records
        )

    def test_rounds_on_241_with_measurement_errors(self, code241):
        # q = 9/2 leaves room for one measurement error per round
        rng = np.random.default_rng(4)
        schedule = []
        for _ in range(10):
            schedule.append(
                (PauliError.identity(241), unit_u(312, int(rng.integers(0, 312))))
            )
        records = decoder.simulate_rounds(code241, budget241(), schedule, max_weight=6)
        assert all(r.in_contract for r in records)
        assert all(r.residual_bounded for r in records)

    def test_rounds_on_486_are_pinned(self, code486, monkeypatch):
        # the 486-qubit code's syndrome-level homology makes each of these
        # u a metacheck failure: in contract (rounds 0 and 2) and out of it
        # (round 3).  A failed round applies no recovery, so round 0's X
        # error carries into round 1's syndrome; the digest covers every
        # syndrome decoded and every record.
        decoded = []
        real = decoder.single_shot_decode

        def spy(code, s, *args, **kwargs):
            result = real(code, s, *args, **kwargs)
            decoded.append((s.z_part.tobytes() + s.x_part.tobytes(), result.metacheck_failure))
            return result

        monkeypatch.setattr(decoder, "single_shot_decode", spy)

        def pauli(x=(), z=()):
            e, f = np.zeros(486, dtype=np.uint8), np.zeros(486, dtype=np.uint8)
            e[list(x)], f[list(z)] = 1, 1
            return PauliError(e, f)

        def u(*bits):
            v = np.zeros(648, dtype=np.uint8)
            v[list(bits)] = 1
            return v

        schedule = [
            (pauli(x=[5]), u(162, 163)),
            (pauli(), u()),
            (pauli(), u(227, 520, 538)),
            (pauli(z=[100]), u(241, 242)),
            (pauli(), u(7)),
            (pauli(x=[300]), u()),
        ]
        budget = decoder.SingleShotBudget(4, Fraction(19, 2), bounds.LINEAR)
        records = decoder.simulate_rounds(code486, budget, schedule, max_weight=6)
        assert [failed for _, failed in decoded] == [True, False, True, True, False, False]
        assert [r.in_contract for r in records] == [True, True, True, False, True, True]
        assert [r.residual_bounded for r in records] == [False, True, False, None, True, True]
        assert decoded[1][0] == code486.syndrome(pauli(x=[5])).z_part.tobytes() + bytes(324)
        digest = hashlib.sha256()
        for s_bytes, _ in decoded:
            digest.update(s_bytes)
        digest.update(json.dumps([r.to_json() for r in records], sort_keys=True).encode())
        assert digest.hexdigest() == (
            "ff59e7e21280e56e4e003f3ee242e227e8c461c45e0c44312c02d7eec7977761"
        )
