"""General stabiliser codes in binary symplectic form.

A Pauli on n qubits (phases ignored) is a length-2n vector: the first n
bits flag X action, the last n flag Z action.  Check sets are rows of an
m x 2n matrix; commutation is the symplectic product
x(g).z(h) + z(g).x(h).

The check diagonaliser brings any commuting generator set, by qubit
relabelling and single-qubit frame changes, into a form where generator
j acts as X on qubit j and as Z or identity on the other pivot qubits.
In that frame Z on qubit j anticommutes with generator j alone, so
syndromes invert trivially: a weight-|s| Pauli reproduces any syndrome s.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .bounds import PolyBound

__all__ = [
    "SymplecticChecks",
    "DiagonalizedChecks",
    "LogicalWitness",
    "EnergyReport",
    "BarrierBound",
    "diagonalize",
    "pure_error_preimage",
    "low_weight_logical",
    "energy_barrier",
    "barrier_bound",
    "pauli_vector_weight",
]

def pauli_vector_weight(v: np.ndarray) -> int:
    v = gf2.as_bin(v).reshape(-1)
    n = v.shape[0] // 2
    return int(np.count_nonzero(v[:n] | v[n:]))


def _symplectic_products(checks: np.ndarray, pauli) -> np.ndarray:
    # x(g).z(v) + z(g).x(v) for every row g: the rows times v with its halves
    # swapped, one mat_vec that reads the read-only checks' memoised support
    return gf2.mat_vec(checks, gf2.as_bin(pauli).reshape(2, -1)[::-1])


class SymplecticChecks:
    """A set of commuting Pauli checks, rows of an m x 2n binary matrix."""

    def __init__(self, matrix) -> None:
        # reduced mod 2 whatever the dtype, as_bin leaves uint8 as it is
        self.matrix = gf2.as_bin(matrix) & 1
        if self.matrix.ndim != 2 or self.matrix.shape[1] % 2:
            raise ValueError("check matrix must be m x 2n")
        # read-only, so gf2.memo keeps its support for every syndrome
        self.matrix.setflags(write=False)
        self.n = self.matrix.shape[1] // 2
        x, z = self.matrix[:, : self.n], self.matrix[:, self.n :]
        # M [z|x]^T = x z^T + z x^T holds every pair's symplectic product
        if not gf2.product_is_zero(self.matrix, np.hstack([z, x]).T):
            raise ValueError("check rows do not commute")

    @property
    def num_checks(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_generators(self) -> int:
        return gf2.rank(self.matrix)

    @property
    def num_logical(self) -> int:
        return self.n - self.num_generators

    def syndrome(self, pauli: np.ndarray) -> np.ndarray:
        return _symplectic_products(self.matrix, pauli)

    def qubit_degrees(self) -> np.ndarray:
        x, z = self.matrix[:, : self.n], self.matrix[:, self.n :]
        return (x | z).sum(axis=0).astype(np.int64)

    def is_css(self) -> bool:
        x, z = self.matrix[:, : self.n], self.matrix[:, self.n :]
        return bool((~(x.any(axis=1) & z.any(axis=1))).all())

    @staticmethod
    def from_css(z_checks, x_checks) -> "SymplecticChecks":
        """Stack Z-type rows (z supports) and X-type rows (x supports)."""
        z, x = gf2.as_bin(z_checks), gf2.as_bin(x_checks)
        return SymplecticChecks(np.block([[np.zeros_like(z), z], [x, np.zeros_like(x)]]))


@dataclass
class DiagonalizedChecks:
    """Minimal generators in the single-X-pivot frame plus the frame log."""

    generators: np.ndarray  # r x 2n in the transformed frame
    n: int
    qubit_permutation: list[int]  # position -> original qubit
    local_maps: list[np.ndarray]  # per position, applied to original (x, z)

    @property
    def num_generators(self) -> int:
        return self.generators.shape[0]

    @property
    def num_logical(self) -> int:
        return self.n - self.num_generators

    def pure_error(self, j: int) -> np.ndarray:
        """Z on qubit j (transformed frame): anticommutes with generator j only."""
        v = np.zeros(2 * self.n, dtype=np.uint8)
        v[self.n + j] = 1
        return v

    def syndrome(self, pauli: np.ndarray) -> np.ndarray:
        return _symplectic_products(self.generators, pauli)

    def _maps(self) -> np.ndarray:
        return gf2.as_bin(np.asarray(self.local_maps)).reshape(self.n, 2, 2)

    def to_original_frame(self, pauli: np.ndarray) -> np.ndarray:
        maps = self._maps()
        a, b, c, d = maps[:, 0, 0], maps[:, 0, 1], maps[:, 1, 0], maps[:, 1, 1]
        if not ((a & d) ^ (b & c)).all():
            raise ValueError("frame map is singular")
        # over GF(2) the inverse of [[a, b], [c, d]] is [[d, b], [c, a]]
        inverses = maps[:, ::-1, ::-1].transpose(0, 2, 1)
        pairs = _map_pairs(inverses, gf2.as_bin(pauli).reshape(2, self.n).T)
        out = np.zeros((2, self.n), dtype=np.uint8)
        out[:, self.qubit_permutation] = pairs.T
        return out.reshape(-1)

    def from_original_frame(self, pauli: np.ndarray) -> np.ndarray:
        pairs = gf2.as_bin(pauli).reshape(2, self.n)[:, self.qubit_permutation].T
        return _map_pairs(self._maps(), pairs).T.reshape(-1)


def _map_pairs(maps: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Row p of pairs, an (x, z) bit pair, times its own 2 x 2 map maps[p]."""
    return (maps @ pairs[:, :, None])[:, :, 0] & 1


def diagonalize(checks: SymplecticChecks) -> DiagonalizedChecks:
    """Bring a commuting check set into the single-X-pivot frame.

    Produces a minimal generating set (redundant rows dropped by row
    reduction); commutation guarantees a usable pivot exists at every
    step, so the procedure never stalls.
    """
    n = checks.n
    reduced, pivots = gf2._rref(checks.matrix)
    g = reduced[: len(pivots)].copy()
    r = g.shape[0]
    perm = list(range(n))
    # per position, the map on original (x, z) bit pairs: a product of the
    # two frame changes below, which between them relabel {X, Y, Z} any way
    local = np.repeat(np.eye(2, dtype=np.uint8)[None], n, axis=0)

    for i in range(r):
        # the first qubit from i on that a row from i on acts on, and that row
        for q in range(i, n):
            acts = g[i:, q] | g[i:, n + q]
            if acts.any():
                break
        else:
            raise AssertionError(
                "no pivot available; independent commuting rows must act "
                "on an unused qubit"
            )
        row = i + int(acts.argmax())
        if q != i:
            g[:, [i, q, n + i, n + q]] = g[:, [q, i, n + q, n + i]]
            perm[i], perm[q] = perm[q], perm[i]
            local[[i, q]] = local[[q, i]]
        if row != i:
            g[[i, row]] = g[[row, i]]
        # a pivot Z becomes X (swap x and z), a pivot Y becomes X (z ^= x)
        if not g[i, i]:
            g[:, [i, n + i]] = g[:, [n + i, i]]
            local[i] = local[i, ::-1]
        elif g[i, n + i]:
            g[:, n + i] ^= g[:, i]
            local[i, 1] ^= local[i, 0]
        hits = g[:, i].nonzero()[0]
        g[hits[hits != i]] ^= g[i]

    # later eliminations may turn earlier pivots into Y; restore pure X
    ys = np.flatnonzero(g[:, n : n + r].diagonal())
    g[:, n + ys] ^= g[:, ys]
    local[ys, 1] ^= local[ys, 0]
    if (g[:, :r] != np.eye(r, dtype=np.uint8)).any() or g[:, n : n + r].diagonal().any():
        raise AssertionError("the final frame is not one pure X pivot per generator")
    g.setflags(write=False)
    return DiagonalizedChecks(g, n, perm, list(local))


def pure_error_preimage(diag: DiagonalizedChecks, s) -> np.ndarray:
    """Product of pure errors matching syndrome s; weight is exactly |s|."""
    s = gf2.as_bin(s).reshape(-1)
    if s.shape[0] != diag.num_generators:
        raise ValueError("syndrome length does not match generator count")
    # pure error j is Z on qubit j, so the product is s on the first Z bits
    v = np.zeros(2 * diag.n, dtype=np.uint8)
    v[diag.n : diag.n + s.shape[0]] = s
    return v


@dataclass(frozen=True)
class LogicalWitness:
    pauli: np.ndarray  # transformed frame
    weight: int
    probe_qubit: int


def low_weight_logical(diag: DiagonalizedChecks) -> LogicalWitness:
    """A zero-syndrome non-stabiliser Pauli of weight at most (max qubit
    degree) + 1, built from a probe on a non-pivot qubit."""
    r, n = diag.num_generators, diag.n
    if diag.num_logical == 0:
        raise ValueError("code has no logical qubits")
    degrees = (
        (diag.generators[:, :n] | diag.generators[:, n:]).sum(axis=0).astype(np.int64)
    )
    cap = int(degrees.max())
    probe_qubit = r  # first position beyond the pivots
    probe = np.zeros(2 * n, dtype=np.uint8)
    probe[n + probe_qubit] = 1  # Z probe
    s = diag.syndrome(probe)
    f = pure_error_preimage(diag, s) ^ probe
    if diag.syndrome(f).any():
        raise AssertionError("logical witness has a nonzero syndrome")
    w = pauli_vector_weight(f)
    if w > cap + 1:
        raise AssertionError("logical witness exceeded the degree bound")
    # outside the generator span: appending it must raise the rank
    stacked = np.vstack([diag.generators, f])
    if gf2.rank(stacked) != r + 1:
        raise AssertionError("witness landed in the stabiliser span")
    return LogicalWitness(f, w, probe_qubit)


# -- energy barriers -------------------------------------------------------------


@dataclass
class EnergyReport:
    barrier: int
    walk: list[tuple[int, str]]  # (1-based qubit, pauli letter) steps
    sector: str
    target_weight: int

    def to_json(self) -> dict:
        return {
            "barrier": self.barrier,
            "sector": self.sector,
            "walk": [{"qubit": q, "pauli": p} for q, p in self.walk],
            "target_weight": self.target_weight,
        }


# Peak bytes per visited class of an energy-barrier search besides the
# payload of its two ints, the class and its syndrome (CPython holds 30 bits
# in 4 bytes; see energy_barrier), measured with tracemalloc: the class's entry in the
# dict of walk maxima, its heap tuple (stale ones included) and, once it
# pops, its last step.  Table I row 1, both sectors, and the first 400,000
# classes of rows 2 and 3, X sector, peaked at 129-171 bytes a class; the
# 33-qubit double product's 829-1,067 classes, both sectors, at 178-193.
_CLASS_BYTES = 200


def energy_barrier(checks: SymplecticChecks, sector: str = "x") -> EnergyReport:
    """Exact energy barrier by bottleneck search over error classes.

    Every sector walks 2n-bit Pauli vectors; the sector picks the steps:
    single-qubit X for "x", Z for "z", and X, Z or Y for "full".  Nodes
    are error classes modulo the check rows that act only where the steps
    act (the X-type rows for "x", the Z-type rows for "z", every row for
    "full"), each held as its canonical representative, zero at every
    pivot of the reduced span, an int in gf2's row convention; node cost
    is the number of violated checks.  The barrier is the smallest
    achievable walk maximum, walking from the trivial class to any
    zero-syndrome class outside that span.  Ties pop in order of
    representative, which fixes the walk returned.

    Reduction is linear and a representative holds no pivot bit, so a
    step is two precomputed ints: its reduced vector, XORed into the
    class, and the checks it flips, XORed into the syndrome.  The visited
    classes are charged against gf2's memory cap, each for the widest
    class and syndrome ints the steps' XORs can make, the bit lengths of
    the OR of the step vectors and of the step flips (a Z-sector class
    holds no X bit, so it is about half as wide as an X-sector one).  A
    search past the cap raises BudgetExhausted naming the class count.
    """
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
    basis, _ = gf2._eliminate(gf2._row_ints(rows), reduced=True)
    # column c of a 2n-bit row is bit top - c; X on qubit q flips the checks
    # with Z on q (column n + q of the matrix), Z flips those with X on q
    top = 2 * n - 1
    columns = gf2._row_ints(checks.matrix.T)
    steps = []
    class_bits = syndrome_bits = 0  # the OR of every step's vector, and of its flips
    for q in range(n):
        x, z = 1 << (top - q), 1 << (top - n - q)
        by_letter = {
            "X": (x, columns[n + q]),
            "Z": (z, columns[q]),
            "Y": (x ^ z, columns[q] ^ columns[n + q]),
        }
        for letter in {"x": "X", "z": "Z", "full": "XZY"}[sector]:
            vector, flips = by_letter[letter]
            for row in basis:  # a reduced row holds one pivot, its lead
                if vector >> (row.bit_length() - 1) & 1:
                    vector ^= row
            steps.append((vector, flips, (q + 1, letter)))
            class_bits |= vector
            syndrome_bits |= flips

    del rows, basis, columns  # held no longer, so no part of the search's peak
    best = {0: 0}
    # a class's last step is kept once it pops: the entry that pops is the
    # one its best walk maximum pushed, and it pops once
    prev: dict[int, tuple] = {}
    heap = [(0, 0, 0, 0, None)]  # (walk maximum, class, syndrome, last class, step)
    class_bytes = _CLASS_BYTES + 4 * (class_bits.bit_length() + syndrome_bits.bit_length()) // 30
    most = gf2._TABLE_BYTES_MAX // class_bytes
    while heap:
        d, v, syndrome, u, last = heapq.heappop(heap)
        if d > best[v]:
            continue
        prev[v] = (u, last)
        if not syndrome and v:
            break
        for vector, flips, step in steps:
            w, s = v ^ vector, syndrome ^ flips
            nd = max(d, s.bit_count())
            if nd < best.get(w, nd + 1):
                best[w] = nd
                heapq.heappush(heap, (nd, w, s, v, step))
        if len(best) > most:
            gf2._require_under_cap(
                len(best) * class_bytes, f"an energy-barrier search of {len(best)} classes"
            )
    else:
        raise ValueError("no walk reaches a nontrivial ground state")
    walk, node = [], v
    while node:
        node, step = prev[node]
        walk.append(step)
    return EnergyReport(d, walk[::-1], sector, ((v >> n | v) & ((1 << n) - 1)).bit_count())


@dataclass(frozen=True)
class BarrierBound:
    """Lower bound f^{-1}(w) on the energy barrier from soundness data."""

    w: Fraction
    bound: PolyBound

    @property
    def as_float(self) -> float:
        if self.w <= 0:
            return 0.0
        return self.bound.inverse_float(self.w)

    def satisfied_by(self, barrier: int) -> bool:
        if self.w <= 0:
            return True
        # barrier >= f^{-1}(w), tested exactly as f(barrier) >= w
        return self.bound(barrier) >= self.w


def barrier_bound(
    d_q: float, threshold: float, bound: PolyBound, max_degree: int
) -> BarrierBound:
    """w = min((t - 1)/degree, (d_q - 1)/2); the barrier is at least
    f^{-1}(w) whenever the soundness inputs are certified."""
    if max_degree <= 0:
        raise ValueError("max_degree must be positive")
    parts = []
    if not (isinstance(threshold, float) and np.isinf(threshold)):
        parts.append(Fraction(int(threshold) - 1, max_degree))
    if not (isinstance(d_q, float) and np.isinf(d_q)):
        parts.append(Fraction(int(d_q) - 1, 2))
    w = min(parts) if parts else Fraction(0)
    if w < 0:
        w = Fraction(0)
    return BarrierBound(w, bound)
