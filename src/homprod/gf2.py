"""GF(2) linear algebra on numpy uint8 arrays.

Matrices are row-major uint8 arrays with entries in {0, 1}.  The
elimination kernels and the zero-product test (product_is_zero) pack
rows into bit-packed buffers (8 columns per byte) so that row
operations run as vectorised byte XORs; unpacked arrays remain the
interchange format at every API boundary.  mat_mul forms products
through float64 BLAS, which is faster for the small dense ones.

Pivoting is always left-to-right over columns and tie-breaks are
lexicographic (smallest support indices first), so every routine is
deterministic.  Support sets are reported 1-based.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Iterator, Optional, TypeVar

import numpy as np

__all__ = [
    "as_bin",
    "zeros",
    "identity",
    "mat_mul",
    "product_is_zero",
    "mat_vec",
    "rank",
    "kernel_basis",
    "annihilator",
    "solve",
    "Gf2Solver",
    "get_solver",
    "memo",
    "min_weight_solution",
    "all_solutions_up_to_weight",
    "kernel_vectors_by_weight",
    "reshape_vector",
    "flatten_matrix",
    "col_support",
    "row_support",
    "weight",
    "read_pcm",
    "write_pcm",
    "parse_pcm",
    "format_pcm",
]


def as_bin(a) -> np.ndarray:
    """Array-like input as uint8: other dtypes are reduced mod 2, uint8 is
    returned as it is, assumed 0/1 (no copy, no check: this runs on
    every decode).  ChainComplex reduces its maps once on the way in."""
    out = np.asarray(a)
    if out.dtype != np.uint8:
        out = (out % 2).astype(np.uint8)
    return out


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def weight(v) -> int:
    """Hamming weight of a binary vector or matrix."""
    return int(np.count_nonzero(as_bin(v)))


def mat_mul(a, b) -> np.ndarray:
    """Matrix product mod 2.

    Uses float64 BLAS for the inner product (exact for the sizes in
    play: column counts stay far below 2**53) and reduces mod 2.
    """
    a = as_bin(a)
    b = as_bin(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def product_is_zero(a, b) -> bool:
    """Is a @ b = 0 mod 2?  Answers without forming the product.

    Row i of a @ b is the XOR of the rows of b that row i of a picks.  So
    b's rows are packed once (8 columns per byte), a's support is read
    with one nonzero scan, and one reduceat XORs each row's picks
    together.  The XOR work and its buffer scale with the ones in a, not
    with a's size, which suits sparse boundary maps; small dense products
    are faster through mat_mul.
    """
    a = as_bin(a)
    b = as_bin(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    rows, cols = np.nonzero(a)
    if rows.size == 0 or b.shape[1] == 0:
        return True
    picked = np.packbits(b, axis=1)[cols]
    # rows come sorted, so each row of a is one run of picks
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return not np.bitwise_xor.reduceat(picked, starts, axis=0).any()


def mat_vec(m, v) -> np.ndarray:
    m = as_bin(m)
    v = as_bin(v).reshape(-1)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} @ ({v.shape[0]},)")
    if m.shape[0] == 0:
        return np.zeros(0, dtype=np.uint8)
    if m.shape[1] == 0:
        return np.zeros(m.shape[0], dtype=np.uint8)
    return ((m.astype(np.int64) @ v.astype(np.int64)) & 1).astype(np.uint8)


# -- memo of facts about read-only matrices ----------------------------------

_T = TypeVar("_T")

# id(owner) -> (weak reference to owner, {(view, key): value})
_MEMO: dict[int, tuple[weakref.ref, dict[tuple[str, str], object]]] = {}


def memo(m: np.ndarray, key: str, build: Callable[[np.ndarray], _T]) -> _T:
    """build(m), memoised for as long as m's memory lives and cannot change.

    The rule: m is memoised only when m and the array that owns its
    memory are both read-only, and m is that owner or its full transpose.
    Any other input, a writable array or a read-only view of one
    included, is rebuilt on every call, so no answer goes stale.  Entries
    hang off a weak reference to the owner, keyed by "" or "T" plus key:
    transposes made on different calls share one entry, and every entry
    dies with its array.  A value must not reference m, or the array
    could never die.
    """
    owner = m.base
    if owner is None:
        owner, view = m, ""
    elif (
        type(owner) is np.ndarray
        and owner.base is None
        and owner.dtype == m.dtype
        and m.strides == owner.strides[::-1]
        and m.shape == owner.shape[::-1]
    ):
        view = "T"
    else:
        return build(m)
    # a read-only owner makes every view of it read-only too
    if owner.flags.writeable:
        return build(m)
    oid = id(owner)
    entry = _MEMO.get(oid)
    if entry is None or entry[0]() is not owner:
        entry = _MEMO[oid] = (weakref.ref(owner, lambda _: _MEMO.pop(oid, None)), {})
    values = entry[1]
    slot = (view, key)
    if slot not in values:
        values[slot] = build(m)
    return values[slot]


# -- bit-packed elimination kernels -----------------------------------------


def _pack(m: np.ndarray) -> np.ndarray:
    return np.packbits(m, axis=1)


def _unpack(p: np.ndarray, cols: int) -> np.ndarray:
    return np.unpackbits(p, axis=1, count=cols)


def _echelon_packed(packed: np.ndarray, cols: int, reduced: bool) -> list[int]:
    """In-place row echelon form on a packed buffer; returns pivot columns."""
    rows = packed.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        byte = c >> 3
        mask = np.uint8(0x80 >> (c & 7))
        below = packed[r:, byte] & mask
        nz = np.nonzero(below)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            packed[[r, p]] = packed[[p, r]]
        if reduced:
            hits = np.nonzero(packed[:, byte] & mask)[0]
            hits = hits[hits != r]
        else:
            hits = r + 1 + np.nonzero(packed[r + 1 :, byte] & mask)[0]
        if hits.size:
            packed[hits] ^= packed[r]
        pivots.append(c)
        r += 1
    return pivots


def rank(m) -> int:
    """GF(2) rank; rank(M) == rank(M.T)."""
    m = as_bin(m)
    if m.size == 0:
        return 0
    packed = _pack(m)
    return len(_echelon_packed(packed, m.shape[1], reduced=False))


def _rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (unpacked) plus pivot column list."""
    if m.shape[0] == 0 or m.shape[1] == 0:
        return m.copy(), []
    packed = _pack(m)
    pivots = _echelon_packed(packed, m.shape[1], reduced=True)
    return _unpack(packed, m.shape[1]), pivots


def kernel_basis(m) -> list[np.ndarray]:
    """Basis of {v : Mv = 0}, one vector per free column, ascending order."""
    m = as_bin(m)
    n = m.shape[1]
    red, pivots = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for row_idx, p in enumerate(pivots):
            v[p] = red[row_idx, f]
        basis.append(v)
    return basis


def annihilator(m) -> np.ndarray:
    """Read-only matrix B with ker(B) = row space of m: rows span ker(m).

    B owns its memory, so facts memoised on it (see memo) are kept.
    """
    m = as_bin(m)
    basis = kernel_basis(m)
    ann = np.array(basis, dtype=np.uint8).reshape(len(basis), m.shape[1]).copy()
    ann.setflags(write=False)
    return ann


class Gf2Solver:
    """Reusable solver for Mx = b: one elimination, many right-hand sides.

    Row-reduces the augmented system [M | I] once.  in_image(b) then costs
    one packed matrix-vector product; solve(b) adds one scatter of the
    pivot entries.  The solver keeps only M's shape, so it can be memoised
    on M.
    """

    def __init__(self, m) -> None:
        m = as_bin(m)
        self.shape = m.shape
        rows, cols = m.shape
        aug = np.hstack([m, identity(rows)]) if rows else zeros(0, cols)
        packed = _pack(aug) if aug.size else _pack(np.zeros((0, 1), dtype=np.uint8))
        pivots = _echelon_packed(packed, cols, reduced=True) if rows else []
        if rows:
            full = _unpack(packed, cols + rows)
            self.transform = np.packbits(full[:, cols:], axis=1)
        else:
            self.transform = np.zeros((0, 0), dtype=np.uint8)
        self.pivot_index = np.array(pivots, dtype=np.intp)
        self.rank = len(pivots)

    def _transformed(self, b) -> np.ndarray:
        """T b, where T is the row reduction: Mx = b is consistent iff
        (T b)[rank:] is zero, and then x[pivots] = (T b)[:rank]."""
        b = as_bin(b).reshape(-1)
        if b.shape[0] != self.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix has {self.shape[0]} rows, "
                f"vector has {b.shape[0]}"
            )
        if self.shape[0] == 0:
            return np.zeros(0, dtype=np.uint8)
        packed_b = np.packbits(b)
        acc = np.bitwise_and(self.transform, packed_b[np.newaxis, :])
        return (np.bitwise_count(acc).sum(axis=1) & 1).astype(np.uint8)

    def in_image(self, b) -> bool:
        """Is Mx = b consistent?  Builds no solution vector."""
        return not self._transformed(b)[self.rank :].any()

    def solve(self, b) -> Optional[np.ndarray]:
        """Solution with all free variables zero, or None if inconsistent."""
        t = self._transformed(b)
        if t[self.rank :].any():
            return None
        x = np.zeros(self.shape[1], dtype=np.uint8)
        x[self.pivot_index] = t[: self.rank]
        return x


def get_solver(m) -> Gf2Solver:
    """Gf2Solver for m, memoised on m while m is read-only (see memo)."""
    return memo(as_bin(m), "solver", Gf2Solver)


def solve(m, b) -> Optional[np.ndarray]:
    """One-shot Mx = b solve; see Gf2Solver for the repeated-use path."""
    return Gf2Solver(m).solve(b)


# -- weight-ordered search ---------------------------------------------------


def _columns_as_ints(m: np.ndarray) -> list[int]:
    packed = np.packbits(m.T, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def _combinations_by_sum(
    cols: list[int], size: int
) -> dict[int, list[tuple[int, ...]]]:
    table: dict[int, list[tuple[int, ...]]] = {}
    for combo in itertools.combinations(range(len(cols)), size):
        acc = 0
        for j in combo:
            acc ^= cols[j]
        table.setdefault(acc, []).append(combo)
    return table


class _WeightSearch:
    """Shared machinery: supports S with |S| = w and sum of columns = target.

    Enumerates solutions of fixed support size by meet-in-the-middle over
    column subsets; memoises the half-combination tables per matrix.
    """

    def __init__(self, m: np.ndarray) -> None:
        self.n = m.shape[1]
        self.cols = _columns_as_ints(m)
        self._tables: dict[int, dict[int, list[tuple[int, ...]]]] = {}

    def _table(self, size: int) -> dict[int, list[tuple[int, ...]]]:
        if size not in self._tables:
            self._tables[size] = _combinations_by_sum(self.cols, size)
        return self._tables[size]

    def supports(self, w: int, target: int) -> list[tuple[int, ...]]:
        """All supports of size w whose column sum equals target, lex sorted.

        The larger half of the split is hashed once (memoised); the
        smaller half is enumerated per query, so repeated queries against
        one matrix stay cheap.
        """
        if w == 0:
            return [()] if target == 0 else []
        left = (w + 1) // 2
        right = w - left
        out = []
        if right == 0:
            for combo in self._table(left).get(target, ()):
                out.append(combo)
        else:
            left_table = self._table(left)
            cols = self.cols
            for rc in itertools.combinations(range(self.n), right):
                acc = target
                for j in rc:
                    acc ^= cols[j]
                matches = left_table.get(acc)
                if not matches:
                    continue
                first_rc = rc[0]
                for lc in matches:
                    if lc[-1] < first_rc:
                        out.append(lc + rc)
        out.sort()
        return out


def _searcher(m: np.ndarray) -> _WeightSearch:
    return memo(m, "search", _WeightSearch)


def _target_int(v: np.ndarray) -> int:
    return int.from_bytes(np.packbits(v).tobytes(), "big")


def _support_to_vector(support: tuple[int, ...], n: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.uint8)
    for j in support:
        v[j] = 1
    return v


def min_weight_solution(
    m, b, max_weight: int
) -> Optional[tuple[np.ndarray, int]]:
    """Minimum-weight x with Mx = b, provided that minimum is <= max_weight.

    Search proceeds by increasing weight; among equal-weight solutions the
    lexicographically smallest support wins.  Returns None when every
    solution (if any) is heavier than the budget.
    """
    m = as_bin(m)
    b = as_bin(b).reshape(-1)
    if b.shape[0] != m.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix has {m.shape[0]} rows, "
            f"vector has {b.shape[0]}"
        )
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    search = _searcher(m)
    target = _target_int(b)
    for w in range(max_weight + 1):
        supports = search.supports(w, target)
        if supports:
            return _support_to_vector(supports[0], m.shape[1]), w
    return None


def all_solutions_up_to_weight(m, b, max_weight: int) -> list[np.ndarray]:
    """Every x with Mx = b and |x| <= max_weight, in (weight, lex) order."""
    m = as_bin(m)
    b = as_bin(b).reshape(-1)
    search = _searcher(m)
    target = _target_int(b)
    out = []
    for w in range(max_weight + 1):
        for support in search.supports(w, target):
            out.append(_support_to_vector(support, m.shape[1]))
    return out


def kernel_vectors_by_weight(m, max_weight: int) -> Iterator[np.ndarray]:
    """Nonzero kernel vectors of M in increasing (weight, lex) order."""
    m = as_bin(m)
    search = _searcher(m)
    for w in range(1, max_weight + 1):
        for support in search.supports(w, 0):
            yield _support_to_vector(support, m.shape[1])


# -- reshaping and supports --------------------------------------------------


def reshape_vector(v, rows: int, cols: int) -> np.ndarray:
    """Reshape a length rows*cols vector to a rows x cols matrix.

    Index convention: entry (i, j) of the result is component i*cols + j
    of v, i.e. the left tensor factor is the major index.  Under this
    convention kron(M, N) @ v flattens to M @ V @ N.T.
    """
    v = as_bin(v).reshape(-1)
    if v.shape[0] != rows * cols:
        raise ValueError(f"cannot reshape length {v.shape[0]} to {rows}x{cols}")
    return v.reshape(rows, cols).copy()


def flatten_matrix(v: np.ndarray) -> np.ndarray:
    return as_bin(v).reshape(-1).copy()


def col_support(m) -> frozenset[int]:
    """1-based indices of columns with at least one nonzero entry."""
    m = as_bin(m)
    return frozenset(int(c) + 1 for c in np.nonzero(m.any(axis=0))[0])


def row_support(m) -> frozenset[int]:
    """1-based indices of rows with at least one nonzero entry."""
    m = as_bin(m)
    return frozenset(int(r) + 1 for r in np.nonzero(m.any(axis=1))[0])


# -- .pcm text format ---------------------------------------------------------


def format_pcm(m) -> str:
    """Render a matrix in .pcm text form: "ROWS COLS" then 0/1 rows."""
    m = as_bin(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append("".join("1" if x else "0" for x in row))
    return "\n".join(lines) + "\n"


def parse_pcm(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty .pcm data")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad .pcm header: {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    m = zeros(rows, cols)
    if len(lines) < rows + 1:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    for i in range(rows):
        line = lines[i + 1]
        if len(line) != cols or set(line) - {"0", "1"}:
            raise ValueError(f"bad .pcm row {i + 1}: {line!r}")
        if cols:
            m[i] = np.frombuffer(line.encode(), dtype=np.uint8) - ord("0")
    return m


def read_pcm(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_pcm(fh.read())


def write_pcm(path, m) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_pcm(m))
