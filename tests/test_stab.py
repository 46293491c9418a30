import dataclasses
import hashlib
import heapq
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod import bounds, chain, css, gf2, product, stab
from homprod.chain import ChainComplex

from dense_reference import dense_kernel

HAMMING = gf2.as_bin(
    [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
)


def pauli_rows(strings):
    n = len(strings[0])
    rows = np.zeros((len(strings), 2 * n), dtype=np.uint8)
    for r, s in enumerate(strings):
        for q, ch in enumerate(s):
            if ch in "XY":
                rows[r, q] = 1
            if ch in "ZY":
                rows[r, n + q] = 1
    return rows


def rep_chain(n):
    h = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        h[i, i] = h[i, i + 1] = 1
    return h


FIVE_QUBIT = pauli_rows(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])

DIAG_CODES = {
    "single_z": gf2.as_bin([[0, 1]]),
    "rep3_quantum": pauli_rows(["ZZI", "IZZ"]),
    "steane": stab.SymplecticChecks.from_css(HAMMING, HAMMING).matrix,
    "five_qubit": FIVE_QUBIT,
    "ising4": stab.SymplecticChecks.from_css(rep_chain(4), gf2.zeros(0, 4)).matrix,
    "surface_patch": None,  # filled in below
}


def surface_patch_checks():
    patch = product.single_product(ChainComplex([gf2.as_bin([[1, 1]])], j_min=0))
    code = css.from_complex(patch)
    return stab.SymplecticChecks.from_css(code.z_checks, code.x_checks).matrix


DIAG_CODES["surface_patch"] = surface_patch_checks()


class TestSymplecticChecks:
    def test_rejects_noncommuting(self):
        with pytest.raises(ValueError, match="commute"):
            stab.SymplecticChecks(pauli_rows(["XII", "ZII"]))

    @pytest.mark.parametrize(
        "rows",
        [
            ["YII", "XII"],
            # one pair anticommutes, on the ninth qubit
            ["XXXXXXXXX", "ZZIIIIIII", "IIZZIIIII", "IIIIIIIIY"],
            ["ZZIIIIIII", "IIIIIIIIX", "IIIIIIIIZ"],
        ],
    )
    def test_rejects_noncommuting_sets(self, rows):
        with pytest.raises(ValueError, match="commute"):
            stab.SymplecticChecks(pauli_rows(rows))

    def test_entries_read_mod_2_for_every_dtype(self):
        # x_0 = 2 is 0 mod 2, so the two rows commute
        rows = [[2, 0, 0, 1], [0, 0, 1, 0]]
        for dtype in (np.uint8, np.int64):
            checks = stab.SymplecticChecks(np.array(rows, dtype=dtype))
            assert checks.matrix.tolist() == [[0, 0, 0, 1], [0, 0, 1, 0]]

    @given(st.integers(1, 6), st.integers(1, 10), st.data())
    @settings(max_examples=100)
    def test_accepts_exactly_the_commuting_sets(self, m, n, data):
        rows = [
            "".join(data.draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
            for _ in range(m)
        ]
        matrix = pauli_rows(rows)
        x, z = matrix[:, :n].astype(int), matrix[:, n:].astype(int)
        commute = not ((x @ z.T + z @ x.T) % 2).any()
        if commute:
            assert stab.SymplecticChecks(matrix).num_checks == m
        else:
            with pytest.raises(ValueError, match="commute"):
                stab.SymplecticChecks(matrix)

    def test_counts(self):
        checks = stab.SymplecticChecks(FIVE_QUBIT)
        assert checks.n == 5
        assert checks.num_generators == 4
        assert checks.num_logical == 1

    def test_syndromes_read_a_memoised_support(self):
        checks = stab.SymplecticChecks(FIVE_QUBIT)
        diag = stab.diagonalize(checks)
        for matrix, syndrome in ((checks.matrix, checks.syndrome), (diag.generators, diag.syndrome)):
            syndrome(np.ones(10, dtype=np.uint8))
            # a memo hit returns the kept support and never calls the builder
            support = gf2.memo(matrix, "support", lambda m: None)
            assert support is not None
            assert all((a == b).all() for a, b in zip(support, np.nonzero(matrix)))

    def test_css_split(self):
        assert stab.SymplecticChecks(DIAG_CODES["steane"]).is_css()
        assert not stab.SymplecticChecks(FIVE_QUBIT).is_css()


class TestDiagonalize:
    def test_single_qubit_z(self):
        diag = stab.diagonalize(stab.SymplecticChecks(DIAG_CODES["single_z"]))
        assert diag.generators.tolist() == [[1, 0]]  # became X after the frame swap
        s = diag.syndrome(diag.pure_error(0))
        assert s.tolist() == [1]

    def test_rep3_pure_errors_on_first_two_qubits(self):
        diag = stab.diagonalize(stab.SymplecticChecks(DIAG_CODES["rep3_quantum"]))
        assert diag.num_generators == 2
        for j in range(2):
            e = diag.pure_error(j)
            # single-qubit Z at position j
            assert stab.pauli_vector_weight(e) == 1
            assert e[diag.n + j] == 1

    @pytest.mark.parametrize("name", sorted(k for k in DIAG_CODES))
    def test_anticommutation_identity_pattern(self, name):
        diag = stab.diagonalize(stab.SymplecticChecks(DIAG_CODES[name]))
        r = diag.num_generators
        pattern = np.array(
            [diag.syndrome(diag.pure_error(j)) for j in range(r)], dtype=np.uint8
        ).T
        assert (pattern == gf2.identity(r)).all()

    @pytest.mark.parametrize("name", sorted(k for k in DIAG_CODES))
    def test_span_preserved_through_frame(self, name):
        checks = stab.SymplecticChecks(DIAG_CODES[name])
        diag = stab.diagonalize(checks)
        back = np.array(
            [diag.to_original_frame(g) for g in diag.generators], dtype=np.uint8
        )
        stacked = np.vstack([checks.matrix, back])
        assert gf2.rank(stacked) == gf2.rank(checks.matrix) == gf2.rank(back)

    def test_frame_round_trip(self):
        diag = stab.diagonalize(stab.SymplecticChecks(FIVE_QUBIT))
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = gf2.as_bin(rng.integers(0, 2, 10))
            there = diag.from_original_frame(v)
            assert (diag.to_original_frame(there) == v).all()
            assert stab.pauli_vector_weight(there) == stab.pauli_vector_weight(v)

    def test_steane_six_generators(self):
        diag = stab.diagonalize(stab.SymplecticChecks(DIAG_CODES["steane"]))
        assert diag.num_generators == 6
        assert diag.num_logical == 1


class TestPureErrorPreimage:
    def test_zero_syndrome(self):
        diag = stab.diagonalize(stab.SymplecticChecks(DIAG_CODES["steane"]))
        assert not stab.pure_error_preimage(diag, np.zeros(6, dtype=np.uint8)).any()

    def test_unit_syndromes(self):
        diag = stab.diagonalize(stab.SymplecticChecks(FIVE_QUBIT))
        for j in range(4):
            s = np.zeros(4, dtype=np.uint8)
            s[j] = 1
            e = stab.pure_error_preimage(diag, s)
            assert stab.pauli_vector_weight(e) == 1
            assert (diag.syndrome(e) == s).all()

    @pytest.mark.parametrize("name", sorted(k for k in DIAG_CODES))
    def test_exhaustive_weight_bound(self, name):
        diag = stab.diagonalize(stab.SymplecticChecks(DIAG_CODES[name]))
        r = diag.num_generators
        for code in range(2**r):
            s = gf2.as_bin([(code >> i) & 1 for i in range(r)])
            e = stab.pure_error_preimage(diag, s)
            assert (diag.syndrome(e) == s).all()
            assert stab.pauli_vector_weight(e) <= int(s.sum())


class TestLowWeightLogical:
    @pytest.mark.parametrize(
        "name", [k for k in sorted(DIAG_CODES) if k not in ("ising4",)]
    )
    def test_witness_properties(self, name):
        checks = stab.SymplecticChecks(DIAG_CODES[name])
        diag = stab.diagonalize(checks)
        if diag.num_logical == 0:
            pytest.skip("no logical qubits")
        witness = stab.low_weight_logical(diag)
        degrees = (
            diag.generators[:, : diag.n] | diag.generators[:, diag.n :]
        ).sum(axis=0)
        assert witness.weight <= int(degrees.max()) + 1
        assert not diag.syndrome(witness.pauli).any()
        stacked = np.vstack([diag.generators, witness.pauli])
        assert gf2.rank(stacked) == diag.num_generators + 1

    def test_rejects_zero_logical(self):
        # a [2, 0] code: stabilisers fill the space
        checks = stab.SymplecticChecks(pauli_rows(["XX", "ZZ"]))
        diag = stab.diagonalize(checks)
        with pytest.raises(ValueError):
            stab.low_weight_logical(diag)


class TestEnergyBarrier:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
    def test_ising_chain_barrier_is_one(self, n):
        checks = stab.SymplecticChecks.from_css(rep_chain(n), gf2.zeros(0, n))
        report = stab.energy_barrier(checks, "x")
        assert report.barrier == 1
        assert report.sector == "x"
        self._replay(checks, report, "x")

    def test_surface_patch_barrier(self):
        checks = stab.SymplecticChecks(DIAG_CODES["surface_patch"])
        report = stab.energy_barrier(checks, "x")
        assert report.barrier == 1
        self._replay(checks, report, "x")

    def test_weight_one_logical_degenerate(self):
        # a qubit untouched by any check carries a weight-1 logical; the
        # walk steps straight into the target at zero cost
        checks = stab.SymplecticChecks.from_css(
            gf2.as_bin([[1, 1, 0]]), gf2.zeros(0, 3)
        )
        report = stab.energy_barrier(checks, "x")
        assert report.barrier == 0
        assert len(report.walk) == 1

    def test_full_sector_five_qubit(self):
        checks = stab.SymplecticChecks(FIVE_QUBIT)
        report = stab.energy_barrier(checks, "full")
        assert report.barrier >= 1
        self._replay(checks, report, "full")

    def test_search_past_the_cap_raises(self, monkeypatch):
        checks = stab.SymplecticChecks.from_css(rep_chain(9), gf2.zeros(0, 9))
        cap = 4 * stab._CLASS_BYTES
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", cap)
        with pytest.raises(gf2.BudgetExhausted) as info:
            stab.energy_barrier(checks, "x")
        found = re.fullmatch(
            r"an energy-barrier search of (\d+) classes needs about (\d+) bytes, "
            rf"above the {cap}-byte cap",
            str(info.value),
        )
        classes, need = int(found[1]), int(found[2])
        assert cap < need and classes * stab._CLASS_BYTES <= need

    def test_z_classes_are_charged_less_than_x_classes(self, monkeypatch, code33):
        # a Z-sector class has no X bits, and its syndrome covers only the
        # X-type checks, which from_css stacks after the Z-type ones
        checks = stab.SymplecticChecks.from_css(code33.z_checks, code33.x_checks)
        cap = 100 * stab._CLASS_BYTES
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", cap)
        per_class = {}
        for sector in ("x", "z"):
            with pytest.raises(gf2.BudgetExhausted) as info:
                stab.energy_barrier(checks, sector)
            found = re.fullmatch(
                r"an energy-barrier search of (\d+) classes needs about (\d+) bytes, "
                rf"above the {cap}-byte cap",
                str(info.value),
            )
            classes, need = int(found[1]), int(found[2])
            assert cap < need and need % classes == 0
            per_class[sector] = need // classes
        assert stab._CLASS_BYTES < per_class["z"] < per_class["x"]

    @pytest.mark.parametrize("sector", ["x", "z"])
    def test_traced_peak_stays_within_the_charge(self, monkeypatch, code241, sector):
        # what a capped search holds, set-up included, is within the bytes it
        # charged.  Under this cap it holds a few thousand classes; below about
        # 0.3 MB the set-up's copies of the check matrix would be the peak
        checks = stab.SymplecticChecks.from_css(code241.z_checks, code241.x_checks)
        cap = 1 << 20
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", cap)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(gf2.BudgetExhausted) as info:
                stab.energy_barrier(checks, sector)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        need = int(re.search(r"needs about (\d+) bytes", str(info.value))[1])
        assert cap < need and peak <= need

    @staticmethod
    def _replay(checks, report, sector):
        """The witness walk reaches a zero-syndrome nontrivial class while
        never exceeding the claimed barrier."""
        n = checks.n
        state = np.zeros(2 * n, dtype=np.uint8)
        peak = 0
        for qubit, letter in report.walk:
            q = qubit - 1
            if letter in ("X", "Y"):
                state[q] ^= 1
            if letter in ("Z", "Y"):
                state[n + q] ^= 1
            peak = max(peak, int(checks.syndrome(state).sum()))
        assert not checks.syndrome(state).any()
        assert peak <= report.barrier
        assert state.any()


class TestBarrierBound:
    def test_identity_bound(self):
        b = stab.barrier_bound(3, math.inf, bounds.LINEAR, 2)
        assert b.w == 1 and b.as_float == 1.0
        assert b.satisfied_by(1)

    def test_quadratic_bound(self):
        b = stab.barrier_bound(3, 3, bounds.QUADRATIC_OVER_4, 4)
        assert float(b.w) == 0.5
        assert abs(b.as_float - math.sqrt(2)) < 1e-12
        assert not b.satisfied_by(1)
        assert b.satisfied_by(2)

    def test_degenerate_threshold(self):
        b = stab.barrier_bound(5, 1, bounds.CUBIC_OVER_4, 3)
        assert b.w == 0 and b.as_float == 0.0
        assert b.satisfied_by(0)

    def test_diagonalized_five_qubit_meets_bound(self):
        # certified linear soundness of the diagonalized frame plus the
        # known distance give barrier >= 1; the search agrees exactly
        diag = stab.diagonalize(stab.SymplecticChecks(FIVE_QUBIT))
        from homprod import soundness

        assert soundness.certify_checks(diag.generators, math.inf, bounds.LINEAR).certified
        diag_checks = stab.SymplecticChecks(diag.generators)
        report = stab.energy_barrier(diag_checks, "full")
        bound = stab.barrier_bound(3, math.inf, bounds.LINEAR, int(diag_checks.qubit_degrees().max()))
        assert bound.satisfied_by(report.barrier)
        assert report.barrier >= 1


# -- pinned outputs ----------------------------------------------------------------

# sha256 over the seeded corpus below (see TestStabDigest): every barrier
# outcome, and every other output of stab
PINNED_BARRIER_DIGEST = "7c02f4215db82585c6950dc1429da5aa58d2366c3e02ab7e2da1d618116bc222"
PINNED_FRAME_DIGEST = "392c084153205dbd0ae9e2f07642740e9222f913857eb10a511be5ba1c03891f"
# sha256 of diagonalize's generators, permutation and local maps on the Z
# and X checks of Table I rows 1-3 (see TestStabDigest.test_table1_frames)
PINNED_TABLE1_FRAME_DIGESTS = {
    "row1": "b84d3b4808978e72d1a0379a32e2605d4e661ffc64d86cba4f26eb9fbf70a7b1",
    "row2": "b5f39338bf0cbb8ce321d203211784c5758002b839931fa1685450237d847358",
    "row3": "c5990cde6747b1088ca5de10d117a49346485e7a8b6521da2aa97d126a41af7c",
}

# per-qubit local Cliffords on (x, z) bit pairs: the six invertible 2 x 2 maps
LOCAL_CLIFFORDS = [
    np.array(m, dtype=np.uint8)
    for m in (
        [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
        [[1, 0], [1, 1]], [[0, 1], [1, 1]], [[1, 1], [1, 0]],
    )
]


def random_css_checks(rng):
    """A CSS check set on 2-8 qubits: random X-type rows, and Z-type rows
    drawn from the span of their annihilator, so every pair commutes."""
    n = int(rng.integers(2, 9))
    h_x = rng.integers(0, 2, size=(int(rng.integers(0, n)), n), dtype=np.uint8)
    ann = dense_kernel(h_x)
    # mostly near-full Z-type spans, so few qubits carry a weight-1 logical
    rows = int(rng.integers(max(ann.shape[0] - 3, 0), ann.shape[0] + 2))
    mix = rng.integers(0, 2, size=(rows, ann.shape[0]))
    h_z = gf2.mat_mul(mix, ann)
    return stab.SymplecticChecks.from_css(h_z, h_x)


def scrambled(checks, rng):
    """The same checks after a random local Clifford on each qubit."""
    n = checks.n
    m = checks.matrix.copy()
    for q in range(n):
        pair = gf2.mat_mul(LOCAL_CLIFFORDS[int(rng.integers(0, 6))], m[:, [q, n + q]].T)
        m[:, q], m[:, n + q] = pair
    return stab.SymplecticChecks(m)


def _canonical_reducer(span_rows: np.ndarray):
    """Reduce vectors to canonical coset representatives of a row space."""
    if span_rows.shape[0] == 0:
        return lambda v: v
    reduced, pivots = gf2._rref(span_rows)
    basis = reduced[: len(pivots)]

    def reduce(v: np.ndarray) -> np.ndarray:
        out = v.copy()
        for row_idx, p in enumerate(pivots):
            if out[p]:
                out ^= basis[row_idx]
        return out

    return reduce


def _bottleneck_search(start, neighbours, cost, is_target):
    """Min over walks of the max node cost, plus one witness walk."""
    start_key = start.tobytes()
    best = {start_key: int(cost(start))}
    prev: dict[bytes, tuple[bytes, tuple]] = {}
    heap = [(best[start_key], start_key, start)]
    target_hit = None
    while heap:
        d, key, node = heapq.heappop(heap)
        if d > best.get(key, float("inf")):
            continue
        if is_target(node):
            target_hit = (key, node)
            break
        for step, nxt in neighbours(node):
            nkey = nxt.tobytes()
            nd = max(d, int(cost(nxt)))
            if nd < best.get(nkey, float("inf")):
                best[nkey] = nd
                prev[nkey] = (key, step)
                heapq.heappush(heap, (nd, nkey, nxt))
    if target_hit is None:
        raise ValueError("no walk reaches a nontrivial ground state")
    key, node = target_hit
    steps = []
    while key != start_key:
        key, step = prev[key]
        steps.append(step)
    steps.reverse()
    return best[node.tobytes()], steps, node


def reference_barrier(checks, sector):
    """The search energy_barrier ran on 0/1 arrays, with no size limit:
    2n-bit Pauli vectors keyed by their bytes, each step copied, flipped
    and reduced, node cost a fresh syndrome."""
    n = checks.n
    if sector not in ("x", "z", "full"):
        raise ValueError("sector must be 'x', 'z', or 'full'")
    if sector != "full" and not checks.is_css():
        raise ValueError("sector barriers need a CSS-split check set")
    rows = checks.matrix
    if sector == "x":
        rows = rows[~rows[:, n:].any(axis=1)]
    elif sector == "z":
        rows = rows[~rows[:, :n].any(axis=1)]
    reduce = _canonical_reducer(rows)
    # each step letter with the halves it flips: x at q, z at n + q
    steps = [(p, p != "Z", p != "X") for p in {"x": "X", "z": "Z", "full": "XZY"}[sector]]

    def neighbours(v):
        for q in range(n):
            for letter, flip_x, flip_z in steps:
                step = v.copy()
                if flip_x:
                    step[q] ^= 1
                if flip_z:
                    step[n + q] ^= 1
                yield (q + 1, letter), reduce(step)

    def cost(v):
        return np.count_nonzero(checks.syndrome(v))

    def is_target(v):
        return cost(v) == 0 and v.any()

    start = np.zeros(2 * n, dtype=np.uint8)
    barrier, walk, node = _bottleneck_search(start, neighbours, cost, is_target)
    return stab.EnergyReport(barrier, walk, sector, stab.pauli_vector_weight(node))


def reference_css_barrier(checks, sector):
    """The CSS-sector search energy_barrier ran before all sectors shared
    one path: n-bit X (or Z) vectors modulo the X-type (Z-type) stabiliser
    supports, node cost the Z-type (X-type) checks they violate."""
    n = checks.n
    if not checks.is_css():
        raise ValueError("sector barriers need a CSS-split check set")
    x_rows = checks.matrix[:, :n]
    z_rows = checks.matrix[:, n:]
    is_x_type = x_rows.any(axis=1)
    if sector == "x":
        detect = z_rows[~is_x_type]  # Z-type checks catch X errors
        span = x_rows[is_x_type]  # X-type stabiliser supports
    else:
        detect = x_rows[is_x_type]
        span = z_rows[~is_x_type]
    span = span.reshape(-1, n)
    detect = detect.reshape(-1, n)
    reduce = _canonical_reducer(span)
    letter = "X" if sector == "x" else "Z"

    def neighbours(e):
        for q in range(n):
            step = e.copy()
            step[q] ^= 1
            yield (q + 1, letter), reduce(step)

    def cost(e):
        return int(gf2.mat_vec(detect, e).sum())

    def is_target(e):
        return cost(e) == 0 and e.any()

    start = np.zeros(n, dtype=np.uint8)
    barrier, steps, node = _bottleneck_search(start, neighbours, cost, is_target)
    return stab.EnergyReport(barrier, steps, sector, int(node.sum()))


def _outcome(call, *args, **kwargs):
    """A call's result, or its ValueError's message."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _feed(digest, *values):
    """Feed strings, arrays and JSON values to a digest."""
    for v in values:
        if isinstance(v, str):
            digest.update(v.encode())
        elif isinstance(v, np.ndarray):
            digest.update(repr(v.shape).encode() + v.astype(np.uint8).tobytes())
        else:
            digest.update(json.dumps(v, sort_keys=True).encode())


def _stab_corpus():
    """The seeded corpus both stab pins read, and its generator after the draws."""
    rng = np.random.default_rng(1805)
    corpus = [random_css_checks(rng) for _ in range(120)]
    corpus += [scrambled(c, rng) for c in corpus if c.n <= 5]
    corpus += [stab.SymplecticChecks(m) for m in DIAG_CODES.values()]
    corpus += [scrambled(stab.SymplecticChecks(FIVE_QUBIT), rng) for _ in range(4)]
    return corpus, rng


class TestStabDigest:
    """Every output of stab over a seeded corpus, pinned: barriers of every
    sector (or their ValueError messages) in one digest; diagonal frames,
    frame conversions, pure-error preimages and logical witnesses in the
    other."""

    def test_barrier_outcomes(self):
        # full-sector walks on more than 5 qubits are left out, so the pin
        # reads the same whatever the search can reach
        digest = hashlib.sha256()
        errors = 0
        for checks in _stab_corpus()[0]:
            _feed(digest, checks.matrix)
            for sector in ("x", "z", "full", "y"):
                if sector == "full" and checks.n > 5:
                    continue
                out = _outcome(stab.energy_barrier, checks, sector)
                errors += isinstance(out, str)
                _feed(digest, out if isinstance(out, str) else out.to_json())
        assert errors > 100
        assert digest.hexdigest() == PINNED_BARRIER_DIGEST

    def test_frames_and_witnesses(self):
        digest = hashlib.sha256()

        def feed(*values):
            _feed(digest, *values)

        corpus, rng = _stab_corpus()
        for checks in corpus:
            n = checks.n
            feed(checks.matrix)
            diag = stab.diagonalize(checks)
            feed(diag.generators, diag.qubit_permutation, [m.tolist() for m in diag.local_maps])
            for _ in range(3):
                v = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
                there = diag.from_original_frame(v)
                feed(v, there, diag.to_original_frame(v), checks.syndrome(v), diag.syndrome(there))
                s = rng.integers(0, 2, size=diag.num_generators, dtype=np.uint8)
                feed(stab.pure_error_preimage(diag, s))
            feed(_outcome(stab.pure_error_preimage, diag, np.ones(diag.num_generators + 1)))
            witness = _outcome(stab.low_weight_logical, diag)
            feed(witness if isinstance(witness, str) else [witness.weight, witness.probe_qubit])
            if not isinstance(witness, str):
                feed(witness.pauli)
        singular = dataclasses.replace(diag, local_maps=[gf2.zeros(2, 2)] * diag.n)
        feed(_outcome(singular.to_original_frame, np.zeros(2 * diag.n, dtype=np.uint8)))
        assert digest.hexdigest() == PINNED_FRAME_DIGEST

    @pytest.mark.parametrize("name", sorted(PINNED_TABLE1_FRAME_DIGESTS))
    def test_table1_frames(self, name):
        # the diagonal frame of a Table I double product's Z and X checks
        from homprod import cli

        breve = cli.build_stages(ChainComplex([cli.TABLE1_INPUTS[name]], j_min=0))
        code = css.from_complex(breve)
        diag = stab.diagonalize(stab.SymplecticChecks.from_css(code.z_checks, code.x_checks))
        digest = hashlib.sha256()
        _feed(digest, diag.generators, diag.qubit_permutation, [m.tolist() for m in diag.local_maps])
        assert digest.hexdigest() == PINNED_TABLE1_FRAME_DIGESTS[name]

    def test_css_sectors_match_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            checks = random_css_checks(rng)
            for sector in ("x", "z"):
                want = _outcome(reference_css_barrier, checks, sector)
                got = _outcome(stab.energy_barrier, checks, sector)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert got.to_json() == want.to_json()

    def test_all_sectors_match_reference(self):
        # every sector on the whole corpus, full-sector walks on 6-8 qubits
        # included
        large_full = 0
        for checks in _stab_corpus()[0]:
            for sector in ("x", "z", "full"):
                want = _outcome(reference_barrier, checks, sector)
                got = _outcome(stab.energy_barrier, checks, sector)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert got.to_json() == want.to_json()
                large_full += sector == "full" and checks.n > 5
        assert large_full == 45
