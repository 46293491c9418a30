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
    "certify_map",
    "PAULI_TABLE_MAX_QUBITS",
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
    kind: str  # "certified" | "counterexample"
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
    the first such s in (weight, lex) order that reaches worst[x] (not
    part of to_json).
    """

    worst: dict[int, int]
    preimage_budget: int
    x_max: int
    worst_syndrome: dict[int, np.ndarray] = field(repr=False)
    threshold: Optional[float] = None
    bound: Optional[PolyBound] = None
    verdict: Optional[Verdict] = None

    def to_json(self) -> dict:
        out = {
            "worst_min_preimage_by_syndrome_weight": {
                str(x): w for x, w in sorted(self.worst.items())
            },
            "preimage_budget": self.preimage_budget,
            "x_max": self.x_max,
            "domain": f"all image syndromes of weight <= {self.x_max}",
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
    worst: dict[int, int] = {0: 0}
    worst_syndrome: dict[int, np.ndarray] = {}
    # the image of delta is the kernel of its cokernel rows
    for s in gf2.kernel_vectors_by_weight(gf2.cokernel_rows(delta), x_max):
        x = gf2.weight(s)
        found = gf2.min_weight_solution(delta, s, preimage_budget)
        w = found[1] if found is not None else preimage_budget + 1
        if w > worst.get(x, 0):
            worst[x] = w
            worst_syndrome[x] = s
    return SoundnessProfile(worst, preimage_budget, x_max, worst_syndrome)


def certify_map(
    delta,
    threshold: float,
    bound: PolyBound,
    x_max: Optional[int] = None,
) -> SoundnessProfile:
    """Certify or refute a (threshold, bound) soundness claim for a map.

    The syndrome range x < threshold is enumerated exhaustively; a
    counterexample is a concrete minimum-weight preimage heavier than
    bound(x).  When a syndrome has no preimage within the search budget,
    the counterexample is the preimage gf2.get_solver(delta) gives (free
    variables zero) instead: every preimage of it, the minimum included,
    is then heavier than the bound.
    Out-of-range weights up to x_max are profiled for information only.
    """
    delta = gf2.as_bin(delta)
    if math.isinf(threshold):
        range_max = delta.shape[0]
    else:
        range_max = math.ceil(threshold) - 1
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
            s = profile.worst_syndrome[x]
            found = gf2.min_weight_solution(delta, s, preimage_budget)
            r = found[0] if found is not None else gf2.get_solver(delta).solve(s)
            verdict = Verdict(
                "counterexample",
                f"syndrome weight {x} needs preimage weight {w} > {bound.name}({x})",
                counterexample=r,
            )
            break
    profile.verdict = verdict
    return profile


# -- Pauli-space soundness (general stabiliser checks) --------------------------

# pauli_weight_table holds all 4^n Paulis in one array (4^7 x 14 int64 entries
# is 1.8 MB), so it takes at most this many qubits
PAULI_TABLE_MAX_QUBITS = 7


def pauli_weight_table(checks: np.ndarray) -> dict[bytes, int]:
    """Min Pauli weight per syndrome, brute-forced over all Paulis.

    checks is an m x 2n symplectic matrix (X half | Z half), with n at
    most PAULI_TABLE_MAX_QUBITS; the table is exact.  Syndromes are keyed
    in the order they first occur over the Paulis in base-4 order (digit q
    of a Pauli is qubit q: 1 = X, 2 = Z, 3 = Y).
    """
    checks = gf2.as_bin(checks)
    n = checks.shape[1] // 2
    if n > PAULI_TABLE_MAX_QUBITS:
        raise ValueError(
            f"the brute-force Pauli weight table is limited to {PAULI_TABLE_MAX_QUBITS} qubits"
        )
    digits = (np.arange(4**n)[:, None] >> 2 * np.arange(n)) & 3
    # each Pauli's Z half first, so that it meets the checks' X half
    products = np.hstack([digits >> 1, digits & 1]) @ checks.T.astype(np.int64)
    syndromes = (products & 1).astype(np.uint8)
    keys, first, which = np.unique(syndromes, axis=0, return_index=True, return_inverse=True)
    least = np.full(len(keys), n)
    np.minimum.at(least, which, np.count_nonzero(digits, axis=1))
    return {keys[k].tobytes(): int(least[k]) for k in np.argsort(first)}


def certify_checks(
    checks: np.ndarray, threshold: float, bound: PolyBound
) -> Verdict:
    """Exhaustively certify (threshold, bound)-soundness of a Pauli check set."""
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

# The witness loops run on gf2's int rows: row i of a c-column matrix is
# one c-bit int, column j in bit c - 1 - j (see gf2._row_ints), read
# through gf2._rows, memoised while the matrix is read-only.


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


def _checks_of(tilde: ChainComplex, h: np.ndarray) -> np.ndarray:
    """h as tilde.factor holds it, a read-only owner that the memos hold on;
    ValueError unless tilde is the single product of checks equal to h."""
    base = tilde.factor
    b = None if base is None or base.length != 1 else base.boundaries[0]
    if b is None or b.shape != h.shape or b.tobytes() != h.tobytes():
        n1, n0 = h.shape
        raise ValueError(f"{tilde!r} is not the single product of a {n1}x{n0} matrix equal to h")
    return b


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
    rows: list[int], col_test: np.ndarray, row_test: np.ndarray
) -> tuple[list[int], int]:
    """Cancel intersecting kernel column/row pairs by rank-one updates.

    While some column a = R[:, j] lies in ker(col_test), some row b = R[i]
    lies in ker(row_test), and they intersect (R[i, j] = 1), replace
    R <- R + a b.  Each step strictly shrinks both supports, and the
    image constraints are untouched.  Pairs are chosen smallest row
    index first, then smallest column index.

    R's int rows change in place and are returned with the step count.
    ct = col_test R and rt = R row_test^T are formed once: the update
    adds outer(ct[:, j], b) and outer(a, rt[i]), zero for a chosen pair.
    """
    kernel_cols = ~_any_row(gf2._mul_rows(gf2._rows(col_test), rows))
    kernel_rows = [i for i, v in enumerate(gf2._mul_rows(rows, gf2._rows(row_test.T))) if not v]
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
    return rows, steps


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
    to reuse the solvers memoised on its maps.  h is read from its factor,
    and ValueError raised unless the two are equal.
    """
    h = gf2.as_bin(h)
    if tilde is None:
        tilde = product.single_product(ChainComplex([h], j_min=0))
    h = _checks_of(tilde, h)
    s = gf2.as_bin(s).reshape(-1)
    if s.shape[0] != tilde.size(0):
        raise ValueError("syndrome length does not match the product's middle level")
    ones, guaranteed, steps = _single_preimage(h, tilde, gf2._target_int(s), map_side, threshold)
    r = np.zeros(tilde.size(-1 if map_side == "from_redundancy" else 1), dtype=np.uint8)
    r[ones] = 1
    return SingleWitness(r, guaranteed, steps)


def _single_preimage(h, tilde, s: int, map_side, threshold) -> tuple[list[int], bool, int]:
    """single_product_preimage of checked inputs on int rows, s one int row:
    r is returned as the flat indices of its ones, then the flag and steps."""
    the_map, shape, col_test, row_test = _single_map_pieces(h, tilde, map_side)
    ones = gf2.get_solver(the_map)._solve_int(s)
    if ones is None:
        raise PreimageError("syndrome is not in the image of the selected map")
    rows, steps = _reduce_reshaped(gf2._from_ones(ones, *shape), col_test, row_test)
    ones = gf2._ones(rows, shape[1])
    if gf2._column_sum(gf2._rows(the_map.T), ones) != s:
        raise AssertionError("reduced witness no longer solves the selected map")
    x = s.bit_count()
    guaranteed = threshold is not None and x < threshold
    if guaranteed and Fraction(len(ones)) > QUADRATIC_OVER_4(x):
        raise AssertionError("area bound violated inside the guaranteed range")
    return ones, guaranteed, steps


# -- constructive witness: double product ---------------------------------------


def _held_matrix(k: int):
    def read(state):
        held = state._held[k]
        if isinstance(held, list):
            held = state._held[k] = gf2._int_matrix(held, state._cols[k])
        return held

    return property(read)


class PartialDecodeState:
    """Bookkeeping for the middle-block reduction of the double product.

    rb_d_low and d_high_rb are the products R_b d_low and d_high R_b of
    the final R_b: S_L + R_b d_low and S_R + d_high R_b are the leftover
    blocks that the single-product witnesses solve.  The six matrices
    are int rows until first read, then uint8 arrays.
    """

    __slots__ = ("_held", "_cols", "loop_counters", "passes")
    r_b, s_l, s_r, m, rb_d_low, d_high_rb = map(_held_matrix, range(6))

    def __init__(self, held, cols, loop_counters, passes):
        self._held, self._cols = held, cols
        self.loop_counters = loop_counters
        self.passes = passes


def _shrink_side(r: list[int], d: list[int], s: list[int], step, rd: list[int]) -> list[int]:
    """Loops 1-3 of partial_decode: r is R_b, d is d_low, s is S_L.

    All three are int rows (gf2's convention), and r changes in place,
    one transform at a time; loops 4-6 pass the rows of R_b^T, d_high^T
    and S_R^T.  rd = r d, passed in, is kept up to date in place: every
    transform is rank one, r ^= outer(w, r[k]) for a 0/1 column w, which
    changes r d by outer(w, rd[k]), and zeroing a row of r whose row of
    rd is zero leaves rd as it is.  step(k) is called after every
    transform of loop k + 1 of the three.  Returns the final rd.
    """
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

    The inputs become int rows once, and the loops run there (see
    _shrink_side).  d_high @ R_b @ d_low is checked against M at the end
    by an explicit raise that python -O keeps, and with check_every_step
    after every transform too.
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
    rows, sl, sr = gf2._row_ints(r_b), gf2._row_ints(s_l), gf2._row_ints(s_r)
    m = gf2._mul_rows(gf2._rows(d_high), sl)
    if m != gf2._mul_rows(sr, gf2._rows(d_low)):
        raise ValueError("precondition failed: d_high @ S_L != S_R @ d_low")
    return _partial_decode(rows, sl, sr, m, d_high, d_low, check_every_step)


def _partial_decode(rows, sl, sr, m, d_high, d_low, check_every_step) -> PartialDecodeState:
    """partial_decode on int rows of R_b, S_L, S_R and M = d_high S_L, with
    d_high S_L = S_R d_low already checked (the double product's metachecks)."""
    n_1, n_0 = d_high.shape
    n_m1 = d_low.shape[1]
    low, high = gf2._rows(d_low), gf2._rows(d_high)
    rd = gf2._mul_rows(rows, low)  # R_b d_low, handed to the first side
    if m != gf2._mul_rows(high, rd):
        raise ValueError("precondition failed: d_high @ R_b @ d_low != d_high @ S_L")
    # side 2 is side 1 on transposes
    sides = [(low, sl), (gf2._rows(d_high.T), gf2._transpose_ints(sr, n_0))]
    if check_every_step:
        # e, the other side's map, makes e @ r @ d M on side 1 and M^T on side 2
        checks = [(high, m), (gf2._rows(d_low.T), gf2._transpose_ints(m, n_m1))]
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
        for side, (d, s) in enumerate(sides):
            # on side 2, the rows of (d_high R_b)^T; rd is formed afresh for the next side
            product_rows = _shrink_side(rows, d, s, functools.partial(step, side), rd)
            rows = gf2._transpose_ints(rows, n_0)
            rd = gf2._mul_rows(rows, sides[1 - side][0])
        passes += 1
        if sum(counters) == fired:
            break
        if passes > guard:
            raise AssertionError("outer pass failed to reach a fixed point")
    rb_d_low = rd
    if gf2._mul_rows(high, rb_d_low) != m:
        raise AssertionError("middle-block transform failed to preserve M")
    d_high_rb = gf2._transpose_ints(product_rows, n_1)
    return PartialDecodeState(
        [rows, sl, sr, m, rb_d_low, d_high_rb], (n_0, n_m1, n_0, n_m1, n_m1, n_0),
        counters, passes,
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


def _qubit_map_preimage(qubit_map: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The plain solver's preimage of s; PreimageError when there is none."""
    r = gf2.get_solver(qubit_map).solve(s)
    if r is None:
        raise PreimageError("syndrome is not in the image of the qubit map")
    return r


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
    assemble, on int rows from s to r; each map check XORs column ints.
    The cubic bound |r| <= |s|^3 / 4 is guaranteed for |s| < threshold;
    outside it the remainder pieces can fall outside the single product's
    image, where the plain solver supplies a correct (unbounded) witness.

    Each check is an explicit raise that python -O keeps: the metachecks
    (PreimageError), which state partial_decode's precondition
    d_high S_L = S_R d_low, so the core skips it; middle-block
    solvability; d_high R_b d_low = M before and after partial_decode;
    each term's solution and quadratic bound; r solves s; the cubic
    bound.  The qubit map is solved only for the
    fallback witness and when a stage fails, to raise PreimageError
    ("syndrome is not in the image of the qubit map") first when s is
    outside the image; otherwise the stage's error stands, and a term
    without a preimage inside the guaranteed range is an AssertionError.
    A witness is returned only once it solves s.

    tilde is the single product of h and breve that of tilde, as their
    factors record (ValueError otherwise); h is read from tilde.factor,
    once per call.  Every solver is memoised on h or a map of tilde or
    breve.  The witness and its state share no memory with s.
    """
    h = _checks_of(tilde, gf2.as_bin(h))
    if breve.factor is not tilde:
        raise ValueError(f"{breve!r} is not the double product of {tilde!r}")
    s = gf2.as_bin(s).reshape(-1)
    d_low, d_high = tilde.delta(-1), tilde.delta(0)
    n_0, n_m1 = d_low.shape
    n_1 = d_high.shape[0]
    len_l = n_0 * n_m1
    if s.shape[0] != breve.size(1):
        raise ValueError("syndrome length does not match the double product's checks")
    ones = np.flatnonzero(s).tolist()
    if gf2._column_sum(gf2._rows(breve.delta(1).T), ones):
        raise PreimageError("syndrome fails the metachecks")
    qubit_map = breve.delta(0)
    sl = gf2._from_ones([i for i in ones if i < len_l], n_0, n_m1)
    sr = gf2._from_ones([i - len_l for i in ones if i >= len_l], n_1, n_0)
    m = gf2._mul_rows(gf2._rows(d_high), sl)
    x = len(ones)
    guaranteed = threshold is not None and x < threshold

    # the middle-block map is built from both of tilde's maps, so it is
    # memoised on h, which they are a function of; its input is M flattened
    mid_solver = gf2.memo(
        h, "mid_map_solver", lambda _: gf2.Gf2Solver(np.kron(d_high, d_low.T))
    )
    r_b0 = mid_solver._solve_int(gf2._from_ones(gf2._ones(m, n_m1), 1, n_1 * n_m1)[0])
    if r_b0 is None:
        # here and at each failure below: PreimageError if s is not an image
        _qubit_map_preimage(qubit_map, s)
        raise AssertionError("middle-block equation must be solvable for image syndromes")
    try:
        state = _partial_decode(gf2._from_ones(r_b0, n_0, n_0), sl, sr, m, d_high, d_low, False)
    except ValueError:
        # a precondition, which every image syndrome meets
        _qubit_map_preimage(qubit_map, s)
        raise

    # inside the guaranteed range each column of Q_L = S_L + R_b d_low lies
    # in ker(d_high), below the product distance, so has a bounded preimage
    # under the lowest map; each row of Q_R = S_R + d_high R_b likewise
    # under the highest; all of them n_0 wide
    rows, _, _, _, rb_d_low, d_high_rb = state._held
    q_l = [a ^ b for a, b in zip(sl, rb_d_low)]
    q_l = gf2._transpose_ints(q_l, n_m1) if any(q_l) else []
    q_r = [a ^ b for a, b in zip(sr, d_high_rb)]
    left = [i for i, v in enumerate(q_l) if v]
    right = [i for i, v in enumerate(q_r) if v]
    term_rows = [q_l[i] for i in left] + [q_r[i] for i in right]
    vectors = gf2._int_matrix(term_rows, n_0) if term_rows else ()
    left_terms = [RemainderTerm(v, i) for v, i in zip(vectors, left)]
    right_terms = [RemainderTerm(v, i) for v, i in zip(vectors[len(left):], right)]
    # r's ones: R_b's, each left term's in a column of R_a, each right term's in a row of R_c
    a_end, b_end = n_m1 * n_m1, n_m1 * n_m1 + n_0 * n_0
    r_ones = [a_end + i for i in gf2._ones(rows, n_0)]
    for terms, targets, map_side, place in (
        (left_terms, term_rows, "from_redundancy", lambda i, p: p * n_m1 + i),
        (right_terms, term_rows[len(left) :], "from_checks", lambda i, p: b_end + i * n_1 + p),
    ):
        for term, target in zip(terms, targets):
            try:
                term_ones = _single_preimage(h, tilde, target, map_side, threshold)[0]
            except PreimageError as exc:
                plain = _qubit_map_preimage(qubit_map, s)
                if guaranteed:
                    raise AssertionError(
                        f"the {map_side} remainder term at index {term.index} has no "
                        "preimage, although the syndrome is in the image and inside "
                        "the guaranteed range"
                    ) from exc
                return DoubleWitness(
                    plain, None, None, None, False, True, left_terms, right_terms, None
                )
            r_ones += [place(term.index, p) for p in term_ones]
    if gf2._column_sum(gf2._rows(qubit_map.T), r_ones) != gf2._from_ones(ones, 1, s.shape[0])[0]:
        _qubit_map_preimage(qubit_map, s)
        raise AssertionError("assembled witness does not solve the qubit map")
    if guaranteed and Fraction(len(r_ones)) > CUBIC_OVER_4(x):
        raise AssertionError("cubic bound violated inside the guaranteed range")
    r = np.zeros(breve.size(0), dtype=np.uint8)
    r[r_ones] = 1
    # r's three blocks are views of it, so a kept witness holds each bit once
    return DoubleWitness(
        r, r[:a_end], r[a_end:b_end], r[b_end:], guaranteed, False, left_terms, right_terms, state
    )
