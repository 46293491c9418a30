"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets and tolerances are pinned here and in codes.py; nothing is
deferred to runtime calibration.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from homprod import bounds, chain, cli, css, decoder, gf2, product, soundness, stab

from codes import (
    CYC3, REP2, REP3, budget241, budget33, check_partial_properties, complex_of, make_error_state,
)
from dense_reference import cobetti

REP4 = gf2.as_bin([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
SIX_TWO = cli.TABLE1_INPUTS["row4"]


def ok(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} ({name}): PASS")


def test_criterion_01_table_reproduction():
    start = time.monotonic()
    rows = {name: cli.run_table1_row(name) for name in cli.TABLE1_INPUTS}
    elapsed = time.monotonic() - start

    expected_n = {"row1": 241, "row2": 913, "row3": 486, "row4": 3856}
    expected_k = {"row1": 1, "row2": 1, "row3": 6, "row4": 16}
    expected_maxw = {"row1": 6, "row2": 6, "row3": 6, "row4": 8}
    expected_mean = {"row1": "4.87179", "row2": "5.18", "row3": "6", "row4": "5.48077"}
    expected_red = {"row1": "1.3", "row2": "1.31579", "row4": "1.3"}
    for name, row in rows.items():
        c = row["computed"]
        assert c["n_q"] == expected_n[name]
        assert c["k_q"] == expected_k[name]
        assert c["max_check_weight"] == expected_maxw[name]
        mean_str = expected_mean[name]
        decimals = len(mean_str.split(".")[1]) if "." in mean_str else 0
        assert abs(round(c["mean_check_weight"], decimals) - float(mean_str)) <= 1e-5
    for name, red_str in expected_red.items():
        c = rows[name]["computed"]
        decimals = len(red_str.split(".")[1]) if "." in red_str else 0
        assert abs(round(c["redundancy"], decimals) - float(red_str)) <= 1e-5
    # the cyclic row: explicit matrices give 1.35; the tabulated 1.33884
    # disagrees with both the matrices and the closed-form sizes, so the
    # mismatch is flagged instead of forced
    row3 = rows["row3"]["computed"]["redundancy"]
    assert abs(row3 - 1.35) <= 1e-5 or abs(row3 - 1.33884) <= 1e-5
    assert abs(row3 - 1.35) <= 1e-5
    assert "note" in rows["row3"]
    assert elapsed < 120, f"table reproduction took {elapsed:.1f}s"
    ok(1, "Table reproduction")


def test_criterion_02_single_shot_distance():
    start = time.monotonic()
    breve_cyc = product.double_product(product.single_product(complex_of(CYC3)))
    d1 = chain.homological_distance(breve_cyc, 1, 3)
    dm2t = chain.cohomological_distance(breve_cyc, -2, 3)
    assert d1.is_exact() and d1.value == 3
    assert dm2t.is_exact() and dm2t.value == 3
    for h in (REP3, REP4, SIX_TWO):
        breve = product.double_product(product.single_product(complex_of(h)))
        assert chain.betti_number(breve, 1) == 0
        assert chain.betti_number(breve, -1) == 0
        d_ss = css.single_shot_distance(breve, 1)
        assert math.isinf(d_ss.value) and d_ss.is_exact()
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"single-shot distances took {elapsed:.1f}s"
    ok(2, "single-shot distance")


KUNNETH_CODES = [
    REP2,
    REP3,
    REP4,
    CYC3,
    gf2.as_bin([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]),  # cyc4
    gf2.as_bin([[1, 1, 1, 1]]),  # parity4
    gf2.as_bin(
        [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    ),  # hamming74
    SIX_TWO,
    gf2.as_bin([[1, 1, 0, 1, 0], [0, 1, 1, 0, 1], [1, 0, 1, 1, 1]]),  # five_two
    gf2.as_bin(
        [
            [1, 1, 1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 1, 0, 1, 0],
        ]
    ),  # eight_four
    gf2.as_bin(
        [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, 1, 0, 0], [0, 0, 0, 1, 1]]
    ),  # redundant5
]

SMALL_DOUBLE_INDICES = [0, 1, 3, 5, 8, 10]  # doubles stay below ~1700 qubits


def test_criterion_03_kunneth_duality():
    assert len(KUNNETH_CODES) >= 10
    for h in KUNNETH_CODES:
        assert h.shape[1] <= 8
        base = complex_of(h)
        pred = product.product_params(base, stages=1)
        tilde = product.single_product(base)
        for j in tilde.levels():
            assert tilde.size(j) == pred.level_sizes[j]
            assert chain.betti_number(tilde, j) == pred.level_bettis[j]
            assert chain.betti_number(tilde, j) == cobetti(tilde, j)
        assert pred.redundancy == product.redundancy(tilde)
    for idx in SMALL_DOUBLE_INDICES:
        base = complex_of(KUNNETH_CODES[idx])
        pred = product.product_params(base, stages=2)
        breve = product.double_product(product.single_product(base))
        for j in breve.levels():
            assert breve.size(j) == pred.level_sizes[j]
            assert chain.betti_number(breve, j) == pred.level_bettis[j]
            assert chain.betti_number(breve, j) == cobetti(breve, j)
        assert pred.redundancy == product.redundancy(breve)
    ok(3, "Kunneth and duality")


def test_criterion_04_distance_identities(tilde_rep2, tilde_rep3, breve_rep2):
    tilde_cyc = product.single_product(complex_of(CYC3))
    cases = [
        (REP2, tilde_rep2, 2.0, math.inf),
        (REP3, tilde_rep3, 3.0, math.inf),
        (CYC3, tilde_cyc, 3.0, 3.0),
    ]
    for h, tilde, d0, d0t in cases:
        closed = product.product_params(complex_of(h), stages=1).distances
        product_value = d0 * d0t if not math.isinf(d0t) else math.inf
        dm1 = chain.homological_distance(tilde, -1, 9)
        d0t_level = chain.cohomological_distance(tilde, 0, 9)
        assert dm1.is_exact() and dm1.value == product_value == closed["d_-1"].value
        assert d0t_level.is_exact() and d0t_level.value == closed["d_0^T"].value
        assert d0t_level.value == product_value
        d_mid = chain.homological_distance(tilde, 0, 6)
        dm1t = chain.cohomological_distance(tilde, -1, 6)
        assert d_mid.is_exact() and d_mid.value == closed["d_0"].value == min(d0, d0t)
        assert dm1t.is_exact() and dm1t.value == closed["d_-1^T"].value == min(d0, d0t)
    # the cyclic case hits the product identity at 9 = 3 * 3
    assert chain.homological_distance(tilde_cyc, -1, 9).value == 9

    # every distance enumerated on double products equals the closed form
    # where the search is exact, and lies at or below it where it is a floor
    for h, breve, w in [
        (REP2, breve_rep2, 4),
        (CYC3, product.double_product(tilde_cyc), 3),
    ]:
        closed = product.product_params(complex_of(h)).distances
        found = {
            "d_0": chain.homological_distance(breve, 0, w),
            "d_-1^T": chain.cohomological_distance(breve, -1, w),
            "d_1": chain.homological_distance(breve, 1, w),
            "d_-2^T": chain.cohomological_distance(breve, -2, w),
        }
        for key, got in found.items():
            if got.is_exact():
                assert got.value == closed[key].value, key
            else:
                assert got.value <= closed[key].value, key
    ok(4, "distance identities")


def test_criterion_05_quadratic_soundness_certification(tilde_rep2, tilde_rep3):
    for tilde, t in ((tilde_rep2, 2), (tilde_rep3, 3)):
        for delta in (tilde.delta(0).T, tilde.delta(-1)):
            profile = soundness.certify_map(delta, t, bounds.QUADRATIC_OVER_4)
            assert profile.verdict.certified, profile.verdict.detail
    ok(5, "quadratic soundness certification")


def test_criterion_06_cubic_constructive_bound(
    tilde_rep2, breve_rep2, tilde_rep3, breve_rep3
):
    # 33-qubit code: every source error of weight <= 2
    d0 = breve_rep2.delta(0)
    checked = 0
    for w in (0, 1, 2):
        for supp in itertools.combinations(range(33), w):
            r0 = np.zeros(33, dtype=np.uint8)
            for i in supp:
                r0[i] = 1
            s = gf2.mat_vec(d0, r0)
            x = gf2.weight(s)
            out = soundness.double_product_preimage(
                REP2, tilde_rep2, breve_rep2, s, threshold=2
            )
            if not out.used_fallback:
                assert (gf2.mat_vec(d0, out.r) == s).all()
            if x < 2:
                assert not out.used_fallback
                assert Fraction(gf2.weight(out.r)) <= bounds.CUBIC_OVER_4(x)
                checked += 1
    assert checked >= 1

    # 241-qubit code: seeded samples
    d0 = breve_rep3.delta(0)
    rng = np.random.default_rng(2026)
    in_range = 0
    for _ in range(10_000):
        w = int(rng.integers(1, 3))
        r0 = np.zeros(241, dtype=np.uint8)
        r0[rng.choice(241, size=w, replace=False)] = 1
        s = gf2.mat_vec(d0, r0)
        x = gf2.weight(s)
        out = soundness.double_product_preimage(
            REP3, tilde_rep3, breve_rep3, s, threshold=3
        )
        if not out.used_fallback:
            assert (gf2.mat_vec(d0, out.r) == s).all()
        if x < 3:
            assert not out.used_fallback
            assert Fraction(gf2.weight(out.r)) <= bounds.CUBIC_OVER_4(x)
            in_range += 1
    ok(6, f"cubic constructive bound ({in_range} in-range samples)")


def test_criterion_07_partial_decoder_properties(tilde_rep2, tilde_rep3):
    rng = np.random.default_rng(7)
    instances = 0
    for tilde, count, wmax in ((tilde_rep2, 700, 6), (tilde_rep3, 300, 5)):
        for _ in range(count):
            r_b, s_l, s_r = make_error_state(
                tilde, rng, int(rng.integers(1, wmax))
            )
            state = soundness.partial_decode(
                r_b, s_l, s_r, tilde.delta(0), tilde.delta(-1),
                check_every_step=True,  # M is asserted after every transform
            )
            check_partial_properties(state, tilde)
            instances += 1
    assert instances >= 1000
    ok(7, f"partial decoder properties ({instances} instances)")


def test_criterion_08_decoder_guarantee(code33, code241):
    report33 = decoder.adversarial_sweep(
        code33, budget33(), u_max=1, e_max=1, max_weight=6
    )
    assert not report33.sampled
    assert report33.pairs_tested == 100
    assert report33.violations == []
    assert report33.repairs_bounded_by_u

    report241 = decoder.adversarial_sweep(
        code241,
        budget241(),
        u_max=1, e_max=2, samples=10_000, seed=2026,
        max_weight=6,
    )
    assert report241.pairs_tested == 10_000
    assert report241.violations == []
    assert report241.repairs_bounded_by_u
    ok(8, "decoder guarantee")


def test_criterion_09_multi_round_containment(code33, code241):
    rng = np.random.default_rng(33)
    # 33-qubit code: in-contract schedules carry fresh weight-1 errors
    schedule = []
    for _ in range(10):
        e = np.zeros(33, dtype=np.uint8)
        e[int(rng.integers(0, 33))] = 1
        z = np.zeros_like(e)
        err = css.PauliError(e, z) if rng.integers(0, 2) else css.PauliError(z, e)
        schedule.append((err, np.zeros(40, dtype=np.uint8)))
    records = decoder.simulate_rounds(code33, budget33(), schedule, max_weight=6)
    assert len(records) == 10
    assert all(r.in_contract for r in records)
    assert all(r.residual_bounded for r in records)

    # 241-qubit code: alternate a measurement-error round with a fresh
    # qubit-error round; each pairing stays inside the round condition
    schedule = []
    for i in range(10):
        e = np.zeros(241, dtype=np.uint8)
        u = np.zeros(312, dtype=np.uint8)
        if i % 2 == 0:
            u[int(rng.integers(0, 312))] = 1
        else:
            e[int(rng.integers(0, 241))] = 1
        schedule.append((css.PauliError(e, np.zeros_like(e)), u))
    records = decoder.simulate_rounds(code241, budget241(), schedule, max_weight=6)
    assert all(r.in_contract for r in records)
    assert all(r.residual_bounded for r in records)
    ok(9, "multi-round containment")


DIAG_SUITE = {
    "rep3_quantum": None,
    "steane": None,
    "five_qubit": None,
    "ising4": None,
    "surface_patch": None,
}


def _diag_suite():
    hamming = gf2.as_bin(
        [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    )
    rep3_quantum = np.zeros((2, 6), dtype=np.uint8)
    rep3_quantum[0, 3] = rep3_quantum[0, 4] = 1
    rep3_quantum[1, 4] = rep3_quantum[1, 5] = 1
    five = np.zeros((4, 10), dtype=np.uint8)
    for r, text in enumerate(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]):
        for q, ch in enumerate(text):
            if ch in "XY":
                five[r, q] = 1
            if ch in "ZY":
                five[r, q + 5] = 1
    chain4 = np.zeros((3, 4), dtype=np.uint8)
    for i in range(3):
        chain4[i, i] = chain4[i, i + 1] = 1
    patch = css.from_complex(product.single_product(complex_of(REP2)))
    return {
        "rep3_quantum": stab.SymplecticChecks(rep3_quantum),
        "steane": stab.SymplecticChecks.from_css(hamming, hamming),
        "five_qubit": stab.SymplecticChecks(five),
        "ising4": stab.SymplecticChecks.from_css(chain4, gf2.zeros(0, 4)),
        "surface_patch": stab.SymplecticChecks.from_css(patch.z_checks, patch.x_checks),
    }


def test_criterion_10_diagonalized_checks():
    suite = _diag_suite()
    assert len(suite) >= 5
    assert any(c.n == 7 for c in suite.values())  # includes the 7-qubit code
    for name, checks in suite.items():
        assert checks.n <= 7
        diag = stab.diagonalize(checks)
        r = diag.num_generators
        pattern = np.array(
            [diag.syndrome(diag.pure_error(j)) for j in range(r)], dtype=np.uint8
        ).T
        assert (pattern == gf2.identity(r)).all(), name
        # exhaustive linear soundness of the diagonalized frame
        verdict = soundness.certify_checks(diag.generators, math.inf, bounds.LINEAR)
        assert verdict.certified, name
        # every syndrome also inverts constructively within weight |s|
        for code_bits in range(2**r):
            s = gf2.as_bin([(code_bits >> i) & 1 for i in range(r)])
            e = stab.pure_error_preimage(diag, s)
            assert (diag.syndrome(e) == s).all()
            assert stab.pauli_vector_weight(e) <= int(s.sum())
        if diag.num_logical > 0:
            witness = stab.low_weight_logical(diag)
            degrees = (
                diag.generators[:, : diag.n] | diag.generators[:, diag.n :]
            ).sum(axis=0)
            assert not diag.syndrome(witness.pauli).any()
            assert witness.weight <= int(degrees.max()) + 1
    ok(10, "check diagonalization")


def _largest_certified_threshold(delta, bound, t_cap):
    """Largest t <= t_cap such that the (t, bound) claim certifies."""
    best = 1
    for t in range(1, t_cap + 1):
        profile = soundness.certify_map(delta, t, bound)
        if profile.verdict.certified:
            best = t
        else:
            break
    return best


def test_criterion_11_energy_barriers(breve_rep2, breve_rep3):
    quad = bounds.QUADRATIC_OVER_4
    # open repetition chains: barrier exactly 1, bound honest and satisfied
    for n in range(3, 9):
        h = np.zeros((n - 1, n), dtype=np.uint8)
        for i in range(n - 1):
            h[i, i] = h[i, i + 1] = 1
        checks = stab.SymplecticChecks.from_css(h, gf2.zeros(0, n))
        report = stab.energy_barrier(checks, "x")
        assert report.barrier == 1
        t_cert = _largest_certified_threshold(h, quad, n)
        d_q = 1  # single-qubit Z errors are undetected logicals here
        bound = stab.barrier_bound(d_q, t_cert, quad, int(checks.qubit_degrees().max()))
        assert bound.satisfied_by(report.barrier)

    # the 5-qubit patch: certify both check directions, then compare
    patch_complex = product.single_product(complex_of(REP2))
    patch = css.from_complex(patch_complex)
    checks = stab.SymplecticChecks.from_css(patch.z_checks, patch.x_checks)
    report = stab.energy_barrier(checks, "x")
    assert report.barrier == 1
    t_z = _largest_certified_threshold(patch_complex.delta(0), quad, 4)
    t_x = _largest_certified_threshold(patch_complex.delta(-1).T, quad, 4)
    t_cert = min(t_z, t_x)
    d_q = int(css.qubit_distance(patch_complex, 4).value)
    bound = stab.barrier_bound(d_q, t_cert, quad, int(checks.qubit_degrees().max()))
    assert bound.satisfied_by(report.barrier)

    # a diagonalized frame gives a nontrivial certified bound met exactly
    five = _diag_suite()["five_qubit"]
    diag = stab.diagonalize(five)
    assert soundness.certify_checks(diag.generators, math.inf, bounds.LINEAR).certified
    diag_checks = stab.SymplecticChecks(diag.generators)
    report = stab.energy_barrier(diag_checks, "full")
    bound = stab.barrier_bound(
        3, math.inf, bounds.LINEAR, int(diag_checks.qubit_degrees().max())
    )
    assert bound.w == 1
    assert bound.satisfied_by(report.barrier)

    # double products: cubic soundness below t = min(d(H), d(H^T)), with the
    # exact d_q of the closed form
    cube = bounds.CUBIC_OVER_4
    for h, breve, sectors, barrier in ((REP2, breve_rep2, "xz", 2), (REP3, breve_rep3, "x", 4)):
        base = complex_of(h)
        t = css.combine_distances(
            chain.homological_distance(base, 0, h.shape[1]),
            chain.cohomological_distance(base, 0, h.shape[0]),
        )
        closed = product.product_params(base).distances
        d_q = css.combine_distances(closed["d_0"], closed["d_-1^T"])
        assert t.is_exact() and d_q.is_exact()
        code = css.from_complex(breve)
        checks = stab.SymplecticChecks.from_css(code.z_checks, code.x_checks)
        bound = stab.barrier_bound(
            int(d_q.value), int(t.value), cube, int(checks.qubit_degrees().max())
        )
        for sector in sectors:
            report = stab.energy_barrier(checks, sector)
            assert (checks.n, report.barrier) == (breve.size(0), barrier)
            assert bound.satisfied_by(report.barrier)
    ok(11, "energy barrier bound")
