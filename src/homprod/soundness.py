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

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

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

# The witness loops run on int rows in gf2's convention: row i of a matrix
# is one int, column 0 in its highest bit, a whole number of bytes wide.


def _rows(m: np.ndarray) -> list[int]:
    """m's int rows (gf2's convention), memoised while m is read-only."""
    return gf2.memo(m, "row_ints", gf2._row_ints)


def _any_row(rows: list[int]) -> int:
    """The columns that hold a one in some row, as one int row."""
    out = 0
    for v in rows:
        out |= v
    return out


@dataclass(frozen=True)
class SingleWitness:
    r: np.ndarray
    bound_guaranteed: bool
    reductions: int


def _require_levels(c: ChainComplex, j_min: int, sizes: list[int], what: str) -> None:
    """Raise ValueError naming what c should be unless it spans levels j_min..
    with these sizes, read from its maps' shapes."""
    shapes = [(n_out, n_in) for n_in, n_out in zip(sizes, sizes[1:])]
    if c.j_min != j_min or [m.shape for m in c.boundaries] != shapes:
        raise ValueError(f"{c!r} is not {what}")


def _require_single_product(h: np.ndarray, tilde: ChainComplex) -> None:
    n1, n0 = h.shape
    sizes = [n0 * n1, n0 * n0 + n1 * n1, n1 * n0]
    _require_levels(tilde, -1, sizes, f"the single product of a {n1}x{n0} matrix")


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

    While some column a = R[:, j] lies in ker(col_test), some row b = R[i]
    lies in ker(row_test), and they intersect (R[i, j] = 1), replace
    R <- R + a b.  Each step strictly shrinks both supports, and the
    image constraints are untouched.  Pairs are chosen smallest row
    index first, then smallest column index.

    R runs as int rows (gf2's convention).  The kernel tests read the
    products ct = col_test R and rt = R row_test^T, formed once: the
    update changes them by outer(ct[:, j], b) and outer(a, rt[i]), and a
    chosen pair has ct[:, j] = 0 and rt[i] = 0, so both stay as they are.
    """
    rows = gf2._row_ints(r_mat)
    kernel_cols = ~_any_row(gf2._mul_rows(_rows(col_test), rows))
    kernel_rows = [i for i, v in enumerate(gf2._mul_rows(rows, _rows(row_test.T))) if not v]
    steps = 0
    while True:
        for i in kernel_rows:
            hit = rows[i] & kernel_cols
            if hit:
                break
        else:
            break
        bit, b = hit.bit_length() - 1, rows[i]
        for k, v in enumerate(rows):
            if v >> bit & 1:
                rows[k] = v ^ b
        steps += 1
    return gf2._int_matrix(rows, r_mat.shape[1]), steps


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
    if tilde is None:
        tilde = product.single_product(ChainComplex([h], j_min=0))
    else:
        _require_single_product(h, tilde)
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
    """Bookkeeping for the middle-block reduction of the double product.

    rb_d_low and d_high_rb are the products R_b d_low and d_high R_b of
    the final R_b: S_L + R_b d_low and S_R + d_high R_b are the leftover
    blocks that the single-product witnesses solve.
    """

    r_b: np.ndarray
    s_l: np.ndarray
    s_r: np.ndarray
    m: np.ndarray
    rb_d_low: np.ndarray
    d_high_rb: np.ndarray
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


def _shrink_side(r: list[int], d: list[int], s: list[int], step) -> list[int]:
    """Loops 1-3 of partial_decode: r is R_b, d is d_low, s is S_L.

    All three are int rows (gf2's convention), and r changes in place,
    one transform at a time; loops 4-6 pass the rows of R_b^T, d_high^T
    and S_R^T.  rd = r d is formed once and then kept up to date: every
    transform is rank one, r ^= outer(w, r[k]) for a 0/1 column w, which
    changes r d by outer(w, rd[k]), and zeroing a row of r whose row of
    rd is zero leaves rd as it is.  step(k) is called after every
    transform of loop k + 1 of the three.  Returns the final rd.
    """
    rd = gf2._mul_rows(r, d)
    s_cols = _any_row(s)

    def add_row(k: int, w: Callable[[int], bool]) -> None:
        # r ^= outer(w, r[k]) and rd ^= outer(w, rd[k]), w read before the update
        r_k, rd_k = r[k], rd[k]
        for row in range(len(r)):
            if w(row):
                r[row] ^= r_k
                rd[row] ^= rd_k

    # loop 1: push rows of r @ d into the rows of s
    while True:
        i = next((i for i, v in enumerate(rd) if v and not s[i]), None)
        if i is None:
            break
        # rd[i]'s first column j: the row's highest bit
        bit = rd[i].bit_length() - 1
        add_row(i, lambda row: (rd[row] ^ s[row]) >> bit & 1)
        step(0)
    # loop 2: push columns of r @ d into the columns of s
    while True:
        extra = _any_row(rd) & ~s_cols
        if not extra:
            break
        bit = extra.bit_length() - 1
        # a row of rd with a one in that column; its row of r is not zero
        k = next(k for k, v in enumerate(rd) if v >> bit & 1)
        add_row(k, lambda row: rd[row] >> bit & 1)
        step(1)
    # loop 3: drop rows of r invisible to d
    while True:
        i = next((i for i, v in enumerate(r) if v and not rd[i]), None)
        if i is None:
            break
        r[i] = 0
        step(2)
    return rd


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

    The loops run on int rows (see _shrink_side): R_b, S_L and S_R are
    converted once, the maps' int rows are memoised on the maps, and R_b's
    rows are transposed once at each switch of side.  The last pass transforms
    nothing, so its two running products are R_b d_low and d_high R_b of
    the final R_b, which the state keeps.  With check_every_step,
    M = d_high @ R_b @ d_low is recomputed in full from R_b as it stands
    after every single transform.
    """
    d_high = gf2.as_bin(d_high)
    d_low = gf2.as_bin(d_low)
    r_b = gf2.as_bin(r_b)
    s_l = gf2.as_bin(s_l)
    s_r = gf2.as_bin(s_r)
    n_1, n_0 = d_high.shape
    n_m1 = d_low.shape[1]
    shapes = [(n_0, n_0), (n_0, n_m1), (n_1, n_0), (n_0, n_m1)]
    if [r_b.shape, s_l.shape, s_r.shape, d_low.shape] != shapes:
        raise ValueError(
            f"dimension mismatch: R_b {r_b.shape}, S_L {s_l.shape}, S_R {s_r.shape}, "
            f"d_high {d_high.shape}, d_low {d_low.shape}"
        )
    low, high = _rows(d_low), _rows(d_high)
    rows, sl, sr = gf2._row_ints(r_b), gf2._row_ints(s_l), gf2._row_ints(s_r)
    m = gf2._mul_rows(high, sl)
    if m != gf2._mul_rows(sr, low):
        raise ValueError("precondition failed: d_high @ S_L != S_R @ d_low")
    if m != gf2._mul_rows(high, gf2._mul_rows(rows, low)):
        raise ValueError("precondition failed: d_high @ R_b @ d_low != d_high @ S_L")
    # side 2 is side 1 on transposes
    sides = [(low, sl), (_rows(d_high.T), gf2._transpose_ints(sr, n_0))]
    if check_every_step:
        # e, the other side's map, makes e @ r @ d M on side 1 and M^T on side 2
        checks = [(high, m), (_rows(d_low.T), gf2._transpose_ints(m, n_m1))]
    counters = [0] * 6
    guard = 4 * (2 * n_0 + 2) ** 2
    passes = 0

    def step(side: int, loop: int) -> None:
        # rows holds the side's rows of R_b (or R_b^T) as they stand
        loop += 3 * side
        counters[loop] += 1
        if check_every_step:
            e, target = checks[side]
            if gf2._mul_rows(e, gf2._mul_rows(rows, sides[side][0])) != target:
                raise AssertionError("middle-block transform failed to preserve M")
        # loops 3 and 6 only delete rows or columns, so they always stop
        if loop % 3 < 2 and counters[loop] > guard:
            raise AssertionError(f"loop {loop + 1} failed to terminate")

    while True:
        fired = sum(counters)
        products = []
        for side, (d, s) in enumerate(sides):
            products.append(_shrink_side(rows, d, s, functools.partial(step, side)))
            rows = gf2._transpose_ints(rows, n_0)
        passes += 1
        if sum(counters) == fired:
            break
        if passes > guard:
            raise AssertionError("outer pass failed to reach a fixed point")
    return PartialDecodeState(
        gf2._int_matrix(rows, n_0),
        s_l,
        s_r,
        gf2._int_matrix(m, n_m1),
        gf2._int_matrix(products[0], n_m1),
        gf2._int_matrix(products[1], n_1).T.copy(),
        counters,
        passes,
    )


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
    _require_single_product(h, tilde)
    d_low, d_high = tilde.delta(-1), tilde.delta(0)
    n_0, n_m1 = d_low.shape
    n_1 = d_high.shape[0]
    len_l = n_0 * n_m1
    # levels -2..2 of tilde (x) tilde*: sum of n_i n_j over i - j = level
    sizes = [
        n_m1 * n_1,
        n_m1 * n_0 + n_0 * n_1,
        n_m1**2 + n_0**2 + n_1**2,
        len_l + n_1 * n_0,
        n_1 * n_m1,
    ]
    _require_levels(breve, -2, sizes, f"the double product of {tilde!r}")
    if s.shape[0] != sizes[3]:
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

    q_l = s_l_mat ^ state.rb_d_low
    q_r = s_r_mat ^ state.d_high_rb
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
    r = np.concatenate([m.reshape(-1) for m in (r_a_mat, state.r_b, r_c_mat)])
    if not (gf2.mat_vec(breve.delta(0), r) == s).all():
        raise AssertionError("assembled witness does not solve the qubit map")
    if guaranteed and Fraction(gf2.weight(r)) > CUBIC_OVER_4(x):
        raise AssertionError("cubic bound violated inside the guaranteed range")
    # views of r's three blocks, so a kept witness holds each bit once
    r_a, r_b, r_c = np.split(r, [n_m1 * n_m1, n_m1 * n_m1 + n_0 * n_0])
    return DoubleWitness(
        r, r_a, r_b, r_c, guaranteed, False, left_terms, right_terms, state
    )


