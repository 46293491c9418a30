"""Soundness profiling and constructive preimage witnesses.

A map d is (t, f)-sound when every syndrome s = d r with |s| < t admits a
preimage of weight at most f(|s|).  This module measures that profile
exhaustively (image-first: syndromes enumerated by weight), certifies or
refutes claims, and produces constructive witnesses for the two product
constructions:

* single product: both maps into the middle level satisfy f(x) = x^2/4
  up to t = min(d_0, d_0^T), via repeated rank-one reductions of the
  reshaped solution;

* double product: the map out of the qubit level satisfies f(x) = x^3/4
  up to the same t, via a support-shrinking transformation of the middle
  reshaped block followed by columnwise/rowwise reuse of the single
  product witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import gf2, product
from .bounds import PolyBound, QUADRATIC_OVER_4, CUBIC_OVER_4
from .chain import ChainComplex

__all__ = [
    "SoundnessProfile",
    "Verdict",
    "PreimageError",
    "profile_map",
    "profile_map_error_first",
    "certify_map",
    "pauli_weight_table",
    "certify_checks",
    "SingleWitness",
    "single_product_preimage",
    "PartialDecodeState",
    "partial_decode",
    "RemainderTerm",
    "DoubleWitness",
    "double_product_preimage",
]


class PreimageError(ValueError):
    """Requested witness does not exist (syndrome outside the map's image)."""


@dataclass(frozen=True)
class Verdict:
    kind: str  # "certified" | "counterexample" | "budget_limited"
    detail: str
    counterexample: Optional[np.ndarray] = None

    @property
    def certified(self) -> bool:
        return self.kind == "certified"


@dataclass
class SoundnessProfile:
    """Worst-case minimum preimage weight per syndrome weight.

    worst[x] is the largest "minimum |r| with d r = s" over all syndromes
    s in the image with |s| = x; entries equal to budget+1 mean the
    minimum exceeded the preimage search budget.  worst_syndrome[x] is
    the first such s in (weight, lex) order that reaches worst[x] (kept
    by the image-first profile only, and not part of to_json).
    """

    worst: dict[int, int]
    preimage_budget: int
    x_max: int
    domain: str
    threshold: Optional[float] = None
    bound: Optional[PolyBound] = None
    verdict: Optional[Verdict] = None
    worst_syndrome: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def to_json(self) -> dict:
        out = {
            "worst_min_preimage_by_syndrome_weight": {
                str(x): w for x, w in sorted(self.worst.items())
            },
            "preimage_budget": self.preimage_budget,
            "x_max": self.x_max,
            "domain": self.domain,
        }
        if self.threshold is not None:
            out["threshold"] = (
                "inf" if math.isinf(self.threshold) else int(self.threshold)
            )
        if self.bound is not None:
            out["bound"] = self.bound.to_json()
        if self.verdict is not None:
            out["verdict"] = {
                "kind": self.verdict.kind,
                "detail": self.verdict.detail,
            }
        return out


def profile_map(
    delta,
    x_max: int,
    preimage_budget: int,
) -> SoundnessProfile:
    """Image-first profile: enumerate image syndromes by weight.

    Exhaustive over every syndrome of weight <= x_max, so a verdict drawn
    from this profile is a certificate, not a sample.
    """
    delta = gf2.as_bin(delta)
    ann = gf2.annihilator(delta.T)  # ker(ann) = im(delta)
    worst: dict[int, int] = {0: 0}
    worst_syndrome: dict[int, np.ndarray] = {}
    for s in gf2.kernel_vectors_by_weight(ann, x_max):
        x = gf2.weight(s)
        found = gf2.min_weight_solution(delta, s, preimage_budget)
        w = found[1] if found is not None else preimage_budget + 1
        if w > worst.get(x, 0):
            worst[x] = w
            worst_syndrome[x] = s
    return SoundnessProfile(
        worst,
        preimage_budget,
        x_max,
        domain=f"all image syndromes of weight <= {x_max}",
        worst_syndrome=worst_syndrome,
    )


def profile_map_error_first(delta, w_domain_max: Optional[int] = None) -> SoundnessProfile:
    """Definition-shaped profile: enumerate errors r, then their syndromes.

    Only for tiny domains (full space when the domain dimension is at
    most 20, else all r with |r| <= w_domain_max); used to cross-check
    the image-first computation.
    """
    delta = gf2.as_bin(delta)
    n = delta.shape[1]
    syndromes: dict[bytes, np.ndarray] = {}
    if n <= 20 and w_domain_max is None:
        rs = (
            np.array([(code >> i) & 1 for i in range(n)], dtype=np.uint8)
            for code in range(2**n)
        )
        domain = "full error space"
    elif w_domain_max is not None:
        def gen():
            yield np.zeros(n, dtype=np.uint8)
            for w in range(1, w_domain_max + 1):
                for support in itertools.combinations(range(n), w):
                    r = np.zeros(n, dtype=np.uint8)
                    for i in support:
                        r[i] = 1
                    yield r

        rs = gen()
        domain = f"all errors of weight <= {w_domain_max}"
    else:
        raise ValueError("domain too large; pass w_domain_max")
    best: dict[bytes, int] = {}
    weights: dict[bytes, int] = {}
    for r in rs:
        s = gf2.mat_vec(delta, r)
        key = s.tobytes()
        w = gf2.weight(r)
        if key not in best or w < best[key]:
            best[key] = w
            weights[key] = gf2.weight(s)
    worst: dict[int, int] = {}
    for key, w in best.items():
        x = weights[key]
        if w > worst.get(x, -1):
            worst[x] = w
    budget = max(worst.values(), default=0)
    return SoundnessProfile(worst, budget, max(weights.values(), default=0), domain)


def certify_map(
    delta,
    threshold: float,
    bound: PolyBound,
    x_max: Optional[int] = None,
    preimage_budget: Optional[int] = None,
) -> SoundnessProfile:
    """Certify or refute a (threshold, bound) soundness claim for a map.

    The syndrome range x < threshold is enumerated exhaustively; a
    counterexample is a concrete minimum-weight preimage heavier than
    bound(x).  Out-of-range weights up to x_max are profiled for
    information only.
    """
    delta = gf2.as_bin(delta)
    if math.isinf(threshold):
        range_max = delta.shape[0]
    else:
        range_max = int(threshold) - 1
    x_max = range_max if x_max is None else max(x_max, range_max)
    x_max = min(x_max, delta.shape[0])
    if preimage_budget is None:
        preimage_budget = int(bound(max(range_max, 0))) + 1
    profile = profile_map(delta, x_max, preimage_budget)
    profile.threshold = threshold
    profile.bound = bound
    verdict = Verdict("certified", f"all syndrome weights below {threshold} within {bound.name}")
    for x in sorted(profile.worst):
        if not x < threshold:
            continue
        w = profile.worst[x]
        if Fraction(w) > bound(x):
            if w > preimage_budget and Fraction(preimage_budget) < bound(x):
                verdict = Verdict(
                    "budget_limited",
                    f"syndrome weight {x}: preimage search stopped at {preimage_budget}",
                )
                break
            r = gf2.solve(delta, profile.worst_syndrome[x])
            verdict = Verdict(
                "counterexample",
                f"syndrome weight {x} needs preimage weight {w} > {bound.name}({x})",
                counterexample=r,
            )
            break
    profile.verdict = verdict
    return profile


# -- Pauli-space soundness (general stabiliser checks) --------------------------


def pauli_weight_table(checks: np.ndarray) -> dict[bytes, int]:
    """Min Pauli weight per syndrome, brute-forced over all Paulis.

    checks is an m x 2n symplectic matrix (X half | Z half).  Only
    feasible for small n; the table is exact.
    """
    checks = gf2.as_bin(checks)
    m, two_n = checks.shape
    n = two_n // 2
    cx, cz = checks[:, :n].astype(np.int64), checks[:, n:].astype(np.int64)
    table: dict[bytes, int] = {}
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
        syndrome = ((cx @ f + cz @ e) & 1).astype(np.uint8)
        key = syndrome.tobytes()
        if key not in table or weight < table[key]:
            table[key] = weight
    return table


def certify_checks(
    checks: np.ndarray, threshold: float, bound: PolyBound
) -> Verdict:
    """Exhaustively certify (threshold, bound)-soundness of a Pauli check set."""
    checks = gf2.as_bin(checks)
    if checks.shape[1] // 2 > 7:
        raise ValueError("brute-force Pauli certification is limited to 7 qubits")
    table = pauli_weight_table(checks)
    for key, w in table.items():
        s = np.frombuffer(key, dtype=np.uint8)
        x = int(s.sum())
        if x < threshold and Fraction(w) > bound(x):
            return Verdict(
                "counterexample",
                f"syndrome weight {x} needs Pauli weight {w} > {bound.name}({x})",
                counterexample=s.copy(),
            )
    return Verdict("certified", f"exhaustive over all {len(table)} achievable syndromes")


# -- constructive witness: single product ---------------------------------------


@dataclass(frozen=True)
class SingleWitness:
    r: np.ndarray
    bound_guaranteed: bool
    reductions: int


def _single_map_pieces(h: np.ndarray, tilde: ChainComplex, map_side: str):
    """The selected middle-level map of tilde, reshape dims, and kernel tests.

    "from_checks": d_0^T, domain C_1 (x) C_0 (reshaped checks x bits);
    transforms add outer products of ker(h^T) columns with ker(h) rows.
    "from_redundancy": d_{-1}, domain C_0 (x) C_1; the mirror.
    """
    n1, n0 = h.shape
    if map_side == "from_checks":
        return tilde.delta(0).T, (n1, n0), h.T, h
    if map_side == "from_redundancy":
        return tilde.delta(-1), (n0, n1), h, h.T
    raise ValueError("map_side must be 'from_checks' or 'from_redundancy'")


def _reduce_reshaped(
    r_mat: np.ndarray, col_test: np.ndarray, row_test: np.ndarray
) -> tuple[np.ndarray, int]:
    """Cancel intersecting kernel column/row pairs by rank-one updates.

    While some column a of R lies in ker(col_test), some row b of R lies
    in ker(row_test), and they intersect (R[i, j] = 1), replace
    R <- R + a b.  Each step strictly shrinks both supports, and the
    image constraints are untouched.  Pairs are chosen smallest row
    index first, then smallest column index.
    """
    r_mat = r_mat.copy()
    steps = 0
    while True:
        nonzero_cols = np.flatnonzero(r_mat.any(axis=0))
        nonzero_rows = np.flatnonzero(r_mat.any(axis=1))
        if nonzero_cols.size == 0 or nonzero_rows.size == 0:
            break
        col_ok = nonzero_cols[
            ~gf2.mat_mul(col_test, r_mat[:, nonzero_cols]).any(axis=0)
        ]
        row_ok = nonzero_rows[
            ~gf2.mat_mul(row_test, r_mat[nonzero_rows].T).any(axis=0)
        ]
        if col_ok.size == 0 or row_ok.size == 0:
            break
        sub = r_mat[np.ix_(row_ok, col_ok)]
        hits = np.argwhere(sub == 1)
        if hits.size == 0:
            break
        i, j = int(row_ok[hits[0][0]]), int(col_ok[hits[0][1]])
        r_mat ^= np.outer(r_mat[:, j], r_mat[i, :])
        steps += 1
    return r_mat, steps


def single_product_preimage(
    h,
    s,
    map_side: str,
    threshold: Optional[int] = None,
    *,
    tilde: Optional[ChainComplex] = None,
) -> SingleWitness:
    """Constructive bounded preimage for one of a single product's two
    middle-level maps.

    map_side "from_checks" targets the transpose of the qubit-to-Z-check
    map (domain: checks x bits); "from_redundancy" targets the map out of
    the lowest level (domain: bits x checks).  The returned r satisfies
    (selected map) r = s exactly, with |r| <= |s|^2 / 4 whenever
    |s| < min(d_0, d_0^T); heavier syndromes still get a witness but the
    bound flag is dropped.

    tilde is the single product of h, built here when not given; pass it
    to reuse the solvers memoised on its maps.
    """
    h = gf2.as_bin(h)
    n1, n0 = h.shape
    s = gf2.as_bin(s).reshape(-1)
    if s.shape[0] != n0 * n0 + n1 * n1:
        raise ValueError("syndrome length does not match the product's middle level")
    sizes = [n0 * n1, n0 * n0 + n1 * n1, n1 * n0]
    if tilde is None:
        tilde = product.single_product(ChainComplex([h], j_min=0))
    elif tilde.j_min != -1 or [tilde.size(j) for j in tilde.levels()] != sizes:
        raise ValueError(f"{tilde!r} is not the single product of a {n1}x{n0} matrix")
    the_map, shape, col_test, row_test = _single_map_pieces(h, tilde, map_side)
    r0 = gf2.get_solver(the_map).solve(s)
    if r0 is None:
        raise PreimageError("syndrome is not in the image of the selected map")
    r_mat, steps = _reduce_reshaped(
        gf2.reshape_vector(r0, *shape), col_test, row_test
    )
    r = gf2.flatten_matrix(r_mat)
    if not (gf2.mat_vec(the_map, r) == s).all():
        raise AssertionError("reduced witness no longer solves the selected map")
    x = gf2.weight(s)
    guaranteed = threshold is not None and x < threshold
    if guaranteed and Fraction(gf2.weight(r)) > QUADRATIC_OVER_4(x):
        raise AssertionError("area bound violated inside the guaranteed range")
    return SingleWitness(r, guaranteed, steps)


# -- constructive witness: double product ---------------------------------------


@dataclass
class PartialDecodeState:
    """Bookkeeping for the middle-block reduction of the double product."""

    r_b: np.ndarray
    s_l: np.ndarray
    s_r: np.ndarray
    m: np.ndarray
    loop_counters: list[int] = field(default_factory=lambda: [0] * 6)
    passes: int = 0

    def support_conditions(self, d_high: np.ndarray, d_low: np.ndarray) -> list[bool]:
        """The six terminal support conditions, in pseudocode order."""
        return _side_conditions(self.r_b, d_low, self.s_l) + _side_conditions(
            self.r_b.T, d_high.T, self.s_r.T
        )


def _side_conditions(r: np.ndarray, d: np.ndarray, s: np.ndarray) -> list[bool]:
    """Conditions 1-3 for (R_b, d_low, S_L); 4-6 for the transposes."""
    rd = gf2.mat_mul(r, d)
    return [
        gf2.row_support(rd) <= gf2.row_support(s),
        gf2.col_support(rd) <= gf2.col_support(s),
        gf2.row_support(rd) == gf2.row_support(r),
    ]


def _assert_m_preserved(state: PartialDecodeState, d_high, d_low) -> None:
    if not (gf2.mat_mul(gf2.mat_mul(d_high, state.r_b), d_low) == state.m).all():
        raise AssertionError("middle-block transform failed to preserve M")


def _shrink_side(r, d, s, step) -> None:
    """Loops 1-3 of partial_decode: r is R_b, d is d_low, s is S_L.

    Each transform XORs a rank-one matrix into r in place, so on a view
    (R_b^T for loops 4-6) it lands in R_b.  step(k) is called after every
    transform of loop k + 1 of the three.
    """
    s_rows = s.any(axis=1)
    s_cols = s.any(axis=0)
    # loop 1: push rows of r @ d into the rows of s
    while True:
        rd = gf2.mat_mul(r, d)
        extra = np.flatnonzero(rd.any(axis=1) & ~s_rows)
        if not extra.size:
            break
        i = extra[0]
        j = np.flatnonzero(rd[i])[0]
        r ^= np.outer(rd[:, j] ^ s[:, j], r[i])
        step(0)
    # loop 2: push columns of r @ d into the columns of s
    while True:
        rd = gf2.mat_mul(r, d)
        extra = np.flatnonzero(rd.any(axis=0) & ~s_cols)
        if not extra.size:
            break
        c = rd[:, extra[0]]
        k = np.flatnonzero(c & r.any(axis=1))[0]
        r ^= np.outer(c, r[k])
        step(1)
    # loop 3: drop rows of r invisible to d
    while True:
        extra = np.flatnonzero(r.any(axis=1) & ~gf2.mat_mul(r, d).any(axis=1))
        if not extra.size:
            break
        r[extra[0]] = 0
        step(2)


def partial_decode(
    r_b,
    s_l,
    s_r,
    d_high,
    d_low,
    check_every_step: bool = True,
) -> PartialDecodeState:
    """Shrink the middle block's support while preserving M.

    Runs the six while loops (smallest admissible index everywhere) and
    repeats the pass until none of them fires, which pins down all six
    terminal support conditions.  Loops 4-6 are loops 1-3 on the
    transposed problem: d_high @ R_b = (R_b^T @ d_high^T)^T, so
    (R_b^T, d_high^T, S_R^T) takes the place of (R_b, d_low, S_L).
    M = d_high @ r_b @ d_low is asserted after every single transform
    when check_every_step is set.
    """
    d_high = gf2.as_bin(d_high)
    d_low = gf2.as_bin(d_low)
    r_b = gf2.as_bin(r_b).copy()
    s_l = gf2.as_bin(s_l)
    s_r = gf2.as_bin(s_r)
    m_from_sl = gf2.mat_mul(d_high, s_l)
    m_from_sr = gf2.mat_mul(s_r, d_low)
    m_from_rb = gf2.mat_mul(gf2.mat_mul(d_high, r_b), d_low)
    if not (m_from_sl == m_from_sr).all():
        raise ValueError("precondition failed: d_high @ S_L != S_R @ d_low")
    if not (m_from_sl == m_from_rb).all():
        raise ValueError("precondition failed: d_high @ R_b @ d_low != d_high @ S_L")
    state = PartialDecodeState(r_b, s_l, s_r, m_from_sl)
    counters = state.loop_counters
    guard = 4 * (r_b.shape[0] + r_b.shape[1] + 2) ** 2

    def step(loop: int) -> None:
        counters[loop] += 1
        if check_every_step:
            _assert_m_preserved(state, d_high, d_low)
        # loops 3 and 6 only delete rows or columns, so they always stop
        if loop % 3 < 2 and counters[loop] > guard:
            raise AssertionError(f"loop {loop + 1} failed to terminate")

    while True:
        fired = sum(counters)
        _shrink_side(r_b, d_low, s_l, step)
        _shrink_side(r_b.T, d_high.T, s_r.T, lambda loop: step(3 + loop))
        state.passes += 1
        if sum(counters) == fired:
            break
        if state.passes > guard:
            raise AssertionError("outer pass failed to reach a fixed point")
    return state


@dataclass(frozen=True)
class RemainderTerm:
    """One tensor term (vector at a unit position) of a remainder syndrome."""

    vector: np.ndarray
    index: int


@dataclass
class DoubleWitness:
    r: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray
    r_c: np.ndarray
    bound_guaranteed: bool
    used_fallback: bool
    left_terms: list[RemainderTerm]
    right_terms: list[RemainderTerm]
    state: Optional[PartialDecodeState]


def double_product_preimage(
    h,
    tilde: ChainComplex,
    breve: ChainComplex,
    s,
    threshold: Optional[int] = None,
) -> DoubleWitness:
    """Constructive bounded preimage under the double product's qubit map.

    Pipeline: solve the reshaped middle-block equation for any R_b, run
    partial_decode to shrink its support, then solve each remainder
    column (rows on the right side) with the single-product witnesses and
    assemble.  The cubic bound |r| <= |s|^3 / 4 is guaranteed for
    |s| < threshold; outside that range the remainder pieces can fall
    outside the single product's image, in which case the plain solver
    supplies a correct (unbounded) witness.  Every solver is memoised on
    a map of tilde or breve, so repeated calls on one pair of complexes
    eliminate each map once.
    """
    h = gf2.as_bin(h)
    s = gf2.as_bin(s).reshape(-1)
    d_low, d_high = tilde.delta(-1), tilde.delta(0)
    n_m1, n_0, n_1 = tilde.size(-1), tilde.size(0), tilde.size(1)
    len_l = n_0 * n_m1
    if s.shape[0] != breve.size(1):
        raise ValueError("syndrome length does not match the double product's checks")
    if gf2.mat_vec(breve.delta(1), s).any():
        raise PreimageError("syndrome fails the metachecks")
    breve_solver = gf2.get_solver(breve.delta(0))
    plain = breve_solver.solve(s)
    if plain is None:
        raise PreimageError("syndrome is not in the image of the qubit map")
    s_l_mat = gf2.reshape_vector(s[:len_l], n_0, n_m1)
    s_r_mat = gf2.reshape_vector(s[len_l:], n_1, n_0)
    x = gf2.weight(s)
    guaranteed = threshold is not None and x < threshold

    mid_solver = gf2.memo(
        d_high, "mid_map_solver", lambda d: gf2.Gf2Solver(np.kron(d, d_low.T))
    )
    m_mat = gf2.mat_mul(d_high, s_l_mat)
    r_b0 = mid_solver.solve(gf2.flatten_matrix(m_mat))
    if r_b0 is None:
        raise AssertionError("middle-block equation must be solvable for image syndromes")
    state = partial_decode(
        gf2.reshape_vector(r_b0, n_0, n_0), s_l_mat, s_r_mat, d_high, d_low,
        check_every_step=False,
    )
    _assert_m_preserved(state, d_high, d_low)

    q_l = s_l_mat ^ gf2.mat_mul(state.r_b, d_low)
    q_r = s_r_mat ^ gf2.mat_mul(d_high, state.r_b)
    left_terms = [
        RemainderTerm(q_l[:, j].copy(), j) for j in np.flatnonzero(q_l.any(axis=0))
    ]
    right_terms = [
        RemainderTerm(q_r[i].copy(), i) for i in np.flatnonzero(q_r.any(axis=1))
    ]
    r_a_mat = gf2.zeros(n_m1, n_m1)
    r_c_mat = gf2.zeros(n_1, n_1)
    try:
        for term in left_terms:
            # each leftover column lives in ker(d_high) and, inside the
            # guaranteed range, below the product distance, so it has a
            # bounded preimage under the lowest map
            witness = single_product_preimage(
                h, term.vector, "from_redundancy", threshold, tilde=tilde
            )
            r_a_mat[:, term.index] = witness.r
        for term in right_terms:
            witness = single_product_preimage(
                h, term.vector, "from_checks", threshold, tilde=tilde
            )
            r_c_mat[term.index, :] = witness.r
    except PreimageError:
        if guaranteed:
            raise
        return DoubleWitness(
            plain, None, None, None, False, True, left_terms, right_terms, None
        )
    r = np.concatenate(
        [
            gf2.flatten_matrix(r_a_mat),
            gf2.flatten_matrix(state.r_b),
            gf2.flatten_matrix(r_c_mat),
        ]
    )
    if not (gf2.mat_vec(breve.delta(0), r) == s).all():
        raise AssertionError("assembled witness does not solve the qubit map")
    if guaranteed and Fraction(gf2.weight(r)) > CUBIC_OVER_4(x):
        raise AssertionError("cubic bound violated inside the guaranteed range")
    return DoubleWitness(
        r,
        gf2.flatten_matrix(r_a_mat),
        gf2.flatten_matrix(state.r_b),
        gf2.flatten_matrix(r_c_mat),
        guaranteed,
        False,
        left_terms,
        right_terms,
        state,
    )


