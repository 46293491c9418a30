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

# single-qubit frame maps on (x, z) bit pairs; any relabelling of
# {X, Y, Z} is a product of the two swaps recorded in the log
_FRAME_MAPS = {
    "identity": np.array([[1, 0], [0, 1]], dtype=np.uint8),
    "swap_xz": np.array([[0, 1], [1, 0]], dtype=np.uint8),  # Hadamard-like
    "swap_xy": np.array([[1, 0], [1, 1]], dtype=np.uint8),  # fixes Z
}


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
    local = [_FRAME_MAPS["identity"].copy() for _ in range(n)]

    def apply_local(pos: int, name: str) -> None:
        m = _FRAME_MAPS[name]
        pair = g[:, [pos, n + pos]].T
        new_pair = gf2.mat_mul(m, pair)
        g[:, pos] = new_pair[0]
        g[:, n + pos] = new_pair[1]
        local[pos] = gf2.mat_mul(m, local[pos])

    for i in range(r):
        # the first qubit from i on that a row from i on acts on, and that row
        acts = g[i:, i:n] | g[i:, n + i :]
        hit = acts.any(axis=0)
        if not hit.any():
            raise AssertionError(
                "no pivot available; independent commuting rows must act "
                "on an unused qubit"
            )
        q = i + int(hit.argmax())
        row = i + int(acts[:, q - i].argmax())
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
    g.setflags(write=False)
    return DiagonalizedChecks(g, n, perm, local, checks)


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

    Every sector walks 2n-bit Pauli vectors; the sector picks the steps:
    single-qubit X for "x", Z for "z", and X, Z or Y for "full".  Nodes
    are error classes modulo the check rows that act only where the steps
    act (the X-type rows for "x", the Z-type rows for "z", every row for
    "full"), each held as its canonical representative; node cost is the
    number of violated checks.  The barrier is the smallest achievable
    walk maximum, walking from the trivial class to any zero-syndrome
    class outside that span.
    """
    n = checks.n
    if sector not in ("x", "z", "full"):
        raise ValueError("sector must be 'x', 'z', or 'full'")
    if sector == "full":
        if n > min(n_limit, 5):
            raise ValueError("full-sector walks are limited to 5 qubits")
    elif n > n_limit:
        raise ValueError(f"{n} qubits exceeds the sector search limit {n_limit}")
    elif not checks.is_css():
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
    return EnergyReport(barrier, walk, sector, pauli_vector_weight(node))


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
