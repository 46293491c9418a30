import math
from fractions import Fraction

import numpy as np
import pytest

from homprod import bounds, chain, css, decoder, gf2, product
from homprod.chain import ChainComplex, Distance
from homprod.css import PauliError
from homprod.decoder import SweepLimits

REP2 = [[1, 1]]
REP3 = [[1, 1, 0], [0, 1, 1]]
CYC3 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def double(h):
    return product.double_product(
        product.single_product(ChainComplex([gf2.as_bin(h)], j_min=0))
    )


@pytest.fixture(scope="module")
def code33():
    return css.from_complex(double(REP2))


@pytest.fixture(scope="module")
def code241():
    return css.from_complex(double(REP3))


@pytest.fixture(scope="module")
def code486():
    return css.from_complex(double(CYC3))


def budget33():
    # 33-qubit patch: d_ss infinite, soundness threshold 2, exact distance 4
    return decoder.single_shot_budget(
        Distance(math.inf, "exact"),
        Distance(2, "exact"),
        Distance(4, "exact"),
        bounds.CUBIC_OVER_4,
    )


def budget241():
    # distance 9 is an external result; our own witness confirms <= 9
    return decoder.single_shot_budget(
        Distance(math.inf, "exact"),
        Distance(3, "exact"),
        Distance(9, "external"),
        bounds.CUBIC_OVER_4,
    )


def unit_u(m, i):
    u = np.zeros(m, dtype=np.uint8)
    u[i] = 1
    return u


def single_x(n, q):
    e = np.zeros(n, dtype=np.uint8)
    e[q] = 1
    return PauliError.x_only(e)


class TestRepairSyndrome:
    def test_clean_syndrome_needs_no_repair(self, code241):
        err = single_x(241, 17)
        out = decoder.repair_syndrome(code241, code241.syndrome(err), 3)
        assert out.repaired_weight == 0
        assert not out.metacheck_failure

    def test_single_measurement_error(self, code241):
        err = single_x(241, 17)
        s = code241.syndrome(err).compose(
            decoder.split_measurement_error(code241, unit_u(312, 40))
        )
        out = decoder.repair_syndrome(code241, s, 3)
        assert out.repaired_weight <= 1
        assert not out.metacheck_failure
        repaired = s.compose(out.s_rec)
        assert not code241.metasyndrome(repaired).any()

    def test_all_weight_one_u_on_cyclic_code(self, code486):
        # strictly below half the single-shot distance: no failure possible
        for i in range(0, 648, 13):
            s = decoder.split_measurement_error(code486, unit_u(648, i))
            out = decoder.repair_syndrome(code486, s, 2)
            assert out.repaired_weight <= 1
            assert not out.metacheck_failure

    def test_metacheck_failure_on_nontrivial_cycle(self, code486):
        # a weight-3 syndrome that passes metachecks but has no explanation
        witness = chain.homological_distance(double(CYC3), 1, 3).witness
        u = np.concatenate([witness, np.zeros(324, dtype=np.uint8)])
        s = decoder.split_measurement_error(code486, u)
        out = decoder.repair_syndrome(code486, s, 3)
        assert out.metacheck_failure
        assert out.repaired_weight == 0  # already metacheck-consistent

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
        assert result.s_rec.is_zero()
        assert result.e_rec.is_identity() and result.minimality_certified

    def test_single_error_recovered_exactly(self, code33):
        # distance 4 > 2: weight-1 errors decode to themselves
        for q in range(33):
            err = single_x(33, q)
            result = decoder.single_shot_decode(code33, code33.syndrome(err), 3)
            assert result.s_rec.is_zero()
            assert (result.e_rec.e == err.e).all() and not result.e_rec.f.any()

    def test_weight_two_syndrome(self, code241):
        err = PauliError.x_only(
            gf2.as_bin(np.eye(241, dtype=np.uint8)[3] | np.eye(241, dtype=np.uint8)[77])
        )
        result = decoder.single_shot_decode(code241, code241.syndrome(err), 3)
        assert result.s_rec.is_zero() and result.minimality_certified
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
    def test_one_membership_check_per_decode(self, code33, monkeypatch):
        calls = []
        real = css.CssCode.in_syndrome_image

        def counted(self, s):
            calls.append(1)
            return real(self, s)

        monkeypatch.setattr(css.CssCode, "in_syndrome_image", counted)
        m = code33.num_z_checks + code33.num_x_checks
        cases = [(single_x(33, q), unit_u(m, i)) for q, i in [(0, 0), (7, 3), (32, m - 1)]]
        cases.append((PauliError.identity(33), np.zeros(m, dtype=np.uint8)))
        for err, u in cases:
            s = code33.syndrome(err).compose(decoder.split_measurement_error(code33, u))
            calls.clear()
            decoder.single_shot_decode(code33, s, 3, true_error=err)
            assert len(calls) == 1

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
            code33, budget33(), SweepLimits(u_max=1, e_max=1), max_weight=6
        )
        assert report.pairs_tested == 100  # identity + 3 Paulis on 33 qubits
        assert report.ok
        assert not report.sampled

    def test_sampled_241(self, code241):
        report = decoder.adversarial_sweep(
            code241,
            budget241(),
            SweepLimits(u_max=1, e_max=2, samples=300, seed=7),
            max_weight=6,
        )
        assert report.pairs_tested == 300
        assert report.ok
        assert report.sampled and report.seed == 7

    def test_sampled_budget_admitting_nothing(self, code33, deadline):
        # rejection sampling used to spin forever when no pair is in contract
        budget = decoder.SingleShotBudget(0, 0, bounds.CUBIC_OVER_4)
        limits = SweepLimits(u_max=1, e_max=1, samples=3, seed=1)
        with deadline(10):
            report = decoder.adversarial_sweep(code33, budget, limits)
        assert report.pairs_tested == 0 and report.ok
        assert report.sampled and report.seed == 1

    def test_sampled_deterministic(self, code241):
        kw = dict(max_weight=6)
        lim = SweepLimits(u_max=1, e_max=2, samples=50, seed=3)
        a = decoder.adversarial_sweep(code241, budget241(), lim, **kw)
        b = decoder.adversarial_sweep(code241, budget241(), lim, **kw)
        assert a.to_json() == b.to_json()


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
            schedule.append((PauliError.x_only(e), np.zeros(40, dtype=np.uint8)))
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
