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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

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

# single-qubit frame maps on (x, z) bit pairs; any relabelling of
# {X, Y, Z} is a product of the two generators recorded in the log
_FRAME_MAPS = {
    "identity": np.array([[1, 0], [0, 1]], dtype=np.uint8),
    "swap_xz": np.array([[0, 1], [1, 0]], dtype=np.uint8),  # Hadamard-like
    "swap_zy": np.array([[1, 1], [0, 1]], dtype=np.uint8),  # phase-like, fixes X
    "swap_xy": np.array([[1, 0], [1, 1]], dtype=np.uint8),  # fixes Z
}


def pauli_vector_weight(v: np.ndarray) -> int:
    v = gf2.as_bin(v).reshape(-1)
    n = v.shape[0] // 2
    return int(np.count_nonzero(v[:n] | v[n:]))


def _symplectic_products(checks: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = checks.shape[1] // 2
    return (
        gf2.mat_vec(checks[:, :n], v[n:]) ^ gf2.mat_vec(checks[:, n:], v[:n])
    )


class SymplecticChecks:
    """A set of commuting Pauli checks, rows of an m x 2n binary matrix."""

    def __init__(self, matrix) -> None:
        # reduced mod 2 whatever the dtype, as_bin leaves uint8 as it is
        self.matrix = gf2.as_bin(matrix) & 1
        if self.matrix.ndim != 2 or self.matrix.shape[1] % 2:
            raise ValueError("check matrix must be m x 2n")
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
        return _symplectic_products(self.matrix, gf2.as_bin(pauli).reshape(-1))

    def qubit_degrees(self) -> np.ndarray:
        x, z = self.matrix[:, : self.n], self.matrix[:, self.n :]
        return (x | z).sum(axis=0).astype(np.int64)

    def is_css(self) -> bool:
        x, z = self.matrix[:, : self.n], self.matrix[:, self.n :]
        return bool((~(x.any(axis=1) & z.any(axis=1))).all())

    @staticmethod
    def from_css(z_checks, x_checks) -> "SymplecticChecks":
        """Stack Z-type rows (z supports) and X-type rows (x supports)."""
        z_checks = gf2.as_bin(z_checks)
        x_checks = gf2.as_bin(x_checks)
        n = z_checks.shape[1]
        rows = []
        for r in z_checks:
            rows.append(np.concatenate([np.zeros(n, dtype=np.uint8), r]))
        for r in x_checks:
            rows.append(np.concatenate([r, np.zeros(n, dtype=np.uint8)]))
        return SymplecticChecks(np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n))


@dataclass
class DiagonalizedChecks:
    """Minimal generators in the single-X-pivot frame plus the frame log."""

    generators: np.ndarray  # r x 2n in the transformed frame
    n: int
    qubit_permutation: list[int]  # position -> original qubit
    local_maps: list[np.ndarray]  # per position, applied to original (x, z)
    source: SymplecticChecks

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
        return _symplectic_products(self.generators, gf2.as_bin(pauli).reshape(-1))

    def to_original_frame(self, pauli: np.ndarray) -> np.ndarray:
        pauli = gf2.as_bin(pauli).reshape(-1)
        out = np.zeros_like(pauli)
        for pos in range(self.n):
            pair = np.array([pauli[pos], pauli[self.n + pos]], dtype=np.uint8)
            inv = _invert_2x2(self.local_maps[pos])
            orig_pair = gf2.mat_vec(inv, pair)
            q = self.qubit_permutation[pos]
            out[q] = orig_pair[0]
            out[self.n + q] = orig_pair[1]
        return out

    def from_original_frame(self, pauli: np.ndarray) -> np.ndarray:
        pauli = gf2.as_bin(pauli).reshape(-1)
        out = np.zeros_like(pauli)
        for pos in range(self.n):
            q = self.qubit_permutation[pos]
            pair = np.array([pauli[q], pauli[self.n + q]], dtype=np.uint8)
            new_pair = gf2.mat_vec(self.local_maps[pos], pair)
            out[pos] = new_pair[0]
            out[self.n + pos] = new_pair[1]
        return out


def _invert_2x2(m: np.ndarray) -> np.ndarray:
    a, b, c, d = int(m[0, 0]), int(m[0, 1]), int(m[1, 0]), int(m[1, 1])
    det = (a * d + b * c) % 2
    if det != 1:
        raise ValueError("frame map is singular")
    return np.array([[d, b], [c, a]], dtype=np.uint8)


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
    local = [_FRAME_MAPS["identity"].copy() for _ in range(n)]

    def apply_local(pos: int, name: str) -> None:
        m = _FRAME_MAPS[name]
        pair = g[:, [pos, n + pos]].T
        new_pair = gf2.mat_mul(m, pair)
        g[:, pos] = new_pair[0]
        g[:, n + pos] = new_pair[1]
        local[pos] = gf2.mat_mul(m, local[pos])

    for i in range(r):
        found = None
        for q in range(i, n):
            for row in range(i, r):
                if g[row, q] or g[row, n + q]:
                    found = (q, row)
                    break
            if found:
                break
        if found is None:
            raise AssertionError(
                "no pivot available; independent commuting rows must act "
                "on an unused qubit"
            )
        q, row = found
        if q != i:
            g[:, [i, q]] = g[:, [q, i]]
            g[:, [n + i, n + q]] = g[:, [n + q, n + i]]
            perm[i], perm[q] = perm[q], perm[i]
            local[i], local[q] = local[q], local[i]
        if row != i:
            g[[i, row]] = g[[row, i]]
        x_bit, z_bit = int(g[i, i]), int(g[i, n + i])
        if (x_bit, z_bit) == (0, 1):
            apply_local(i, "swap_xz")
        elif (x_bit, z_bit) == (1, 1):
            apply_local(i, "swap_xy")
        if not (g[i, i] == 1 and g[i, n + i] == 0):
            raise AssertionError(f"pivot {i} is not a pure X after the local swap")
        hits = np.flatnonzero(g[:, i])
        for other in hits:
            if other != i:
                g[other] ^= g[i]

    # later eliminations may turn earlier pivots into Y; restore pure X
    for i in range(r):
        if g[i, n + i]:
            apply_local(i, "swap_xy")
    for i in range(r):
        if not (g[i, i] == 1 and g[i, n + i] == 0):
            raise AssertionError(f"pivot {i} is not a pure X in the final frame")
        if any(g[j, i] for j in range(r) if j != i):
            raise AssertionError(f"pivot column {i} is not cleared in the final frame")
    return DiagonalizedChecks(g, n, perm, local, checks)


def pure_error_preimage(diag: DiagonalizedChecks, s) -> np.ndarray:
    """Product of pure errors matching syndrome s; weight is exactly |s|."""
    s = gf2.as_bin(s).reshape(-1)
    if s.shape[0] != diag.num_generators:
        raise ValueError("syndrome length does not match generator count")
    v = np.zeros(2 * diag.n, dtype=np.uint8)
    for j in np.flatnonzero(s):
        v ^= diag.pure_error(int(j))
    return v


@dataclass(frozen=True)
class LogicalWitness:
    pauli: np.ndarray  # transformed frame
    weight: int
    probe_qubit: int


def low_weight_logical(diag: DiagonalizedChecks, degree_cap: Optional[int] = None) -> LogicalWitness:
    """A zero-syndrome non-stabiliser Pauli of weight at most (max qubit
    degree) + 1, built from a probe on a non-pivot qubit."""
    r, n = diag.num_generators, diag.n
    if diag.num_logical == 0:
        raise ValueError("code has no logical qubits")
    degrees = (
        (diag.generators[:, :n] | diag.generators[:, n:]).sum(axis=0).astype(np.int64)
    )
    cap = int(degrees.max()) if degree_cap is None else degree_cap
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


def energy_barrier(
    checks: SymplecticChecks, sector: str = "x", n_limit: int = 8
) -> EnergyReport:
    """Exact energy barrier by bottleneck search over error classes.

    Nodes are error vectors modulo the relevant stabiliser span, edges are
    single-qubit Pauli steps, node cost is the number of violated checks;
    the barrier is the smallest achievable walk maximum, walking from the
    trivial class to any zero-syndrome class outside the stabiliser span.
    """
    n = checks.n
    if sector in ("x", "z"):
        if n > n_limit:
            raise ValueError(f"{n} qubits exceeds the sector search limit {n_limit}")
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
        return EnergyReport(barrier, steps, sector, int(node.sum()))

    if sector == "full":
        if n > min(n_limit, 5):
            raise ValueError("full-sector walks are limited to 5 qubits")
        reduce = _canonical_reducer(checks.matrix)
        paulis = [("X", 0), ("Z", 1), ("Y", 2)]

        def neighbours(v):
            for q in range(n):
                for letter, kind in paulis:
                    step = v.copy()
                    if kind in (0, 2):
                        step[q] ^= 1
                    if kind in (1, 2):
                        step[n + q] ^= 1
                    yield (q + 1, letter), reduce(step)

        def cost(v):
            return int(checks.syndrome(v).sum())

        def is_target(v):
            return cost(v) == 0 and v.any()

        start = np.zeros(2 * n, dtype=np.uint8)
        barrier, steps, node = _bottleneck_search(start, neighbours, cost, is_target)
        return EnergyReport(barrier, steps, sector, pauli_vector_weight(node))

    raise ValueError("sector must be 'x', 'z', or 'full'")


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
        return self.bound.inverse_at_least(barrier, self.w)


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
