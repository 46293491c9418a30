"""GF(2) linear algebra on numpy uint8 arrays.

Matrices are row-major uint8 arrays with entries in {0, 1}; they are
the interchange format at every API boundary.  Elimination (rank,
kernel_basis, annihilator, Gf2Solver) runs on rows held as Python ints,
column 0 in the highest bit, inserted one by one into an XOR basis keyed
by leading bit (see _eliminate): the maps eliminated here are sparse
boundary maps and products of them, whose rows meet few pivots, so a
row costs a few int XORs where a column step of a packed array costs
several numpy calls.  Those maps hold a few ones per row, so the
zero-product test (product_is_zero), mat_vec and the int rows read a
matrix's support, the row and column indices of its ones (_support),
memoised on read-only matrices and handed over with each product map
and its transpose (_from_support): no dense map is scanned or packed.
mat_mul forms products through float64 BLAS, faster for small dense ones.
The constructive witnesses (soundness) keep their small matrices in the
same int rows, multiplied and transposed by _mul_rows and _transpose_ints.

Pivoting is always left-to-right over columns and tie-breaks are
lexicographic (smallest support indices first), so every routine is
deterministic.  Support sets are reported 1-based.

The weight-ordered searches (min_weight_solution,
all_solutions_up_to_weight, kernel_vectors_by_weight) meet in the
middle over half tables of column combinations (see _WeightSearch).  A
query that enumerates up to 384 right halves looks them up in a Python
dict keyed by the exact packed column sum: the many shallow decoding
queries pay per-call overhead, and a dict lookup has the least.  A
nonzero weight-2 or weight-3 target draws its one right column from the
columns on its highest set bit, not from all of them, and the kernel's
supports of each weight are kept with the search.  A larger query runs
on sorted numpy arrays keyed by a 64-bit linear sketch of the column
sum, a fixed-size block of right halves at a time; every candidate is
verified against the exact sum, so a sketch collision costs work, never
a wrong answer, and results keep their (weight, lex) order.  A table whose estimated size exceeds a memory cap
is never built, and a block whose candidates, with the supports found
before it, would exceed the cap is never expanded: the search raises
BudgetExhausted.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    "BudgetExhausted",
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

    Entry (i, j) of a @ b counts the pairs of a one (i, k) of a and a one
    (k, j) of b.  So each one of a is paired with the ones of b's row k,
    read from both supports, and the product is zero when every (i, j)
    occurs an even number of times.  The work scales with those pairs,
    not with the matrices' size, which suits sparse boundary maps; small
    dense products are faster through mat_mul.
    """
    a = as_bin(a)
    b = as_bin(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    a_rows, a_cols = _support(a)
    b_rows, b_cols = _support(b)
    # b's ones of row k are b_cols[starts[k] : starts[k + 1]]
    starts = np.searchsorted(b_rows, np.arange(b.shape[0] + 1))
    counts = starts[a_cols + 1] - starts[a_cols]
    first = np.repeat(starts[a_cols] - np.cumsum(counts) + counts, counts)
    keys = np.repeat(a_rows, counts) * b.shape[1] + b_cols[first + np.arange(first.size)]
    keys.sort()
    # sorted, every key occurs an even number of times iff the keys pair off
    return keys.size % 2 == 0 and bool((keys[::2] == keys[1::2]).all())


def mat_vec(m, v) -> np.ndarray:
    m = as_bin(m)
    v = as_bin(v).reshape(-1)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} @ ({v.shape[0]},)")
    rows, cols = _support(m)
    return (np.bincount(rows[v[cols] == 1], minlength=m.shape[0]) & 1).astype(np.uint8)


# -- memo of facts about read-only matrices ----------------------------------

_T = TypeVar("_T")

# id(owner) -> (weak reference to owner, {(view, key): value})
_MEMO: dict[int, tuple[weakref.ref, dict[tuple[str, str], object]]] = {}


def memo(m: np.ndarray, key: str, build: Callable[[np.ndarray], _T]) -> _T:
    """build(m), memoised for as long as m's memory lives and cannot change.

    The rule: m is memoised only when m and the array that owns its
    memory are both read-only, and m is that owner (or a view of all of
    it) or its full transpose.
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
    elif type(owner) is not np.ndarray or owner.base is not None or owner.dtype != m.dtype:
        return build(m)
    elif (m.shape, m.strides) == (owner.shape, owner.strides):
        view = ""  # a view of all of the owner, such as m.T.T
    elif (m.shape, m.strides) == (owner.shape[::-1], owner.strides[::-1]):
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


def _support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of m's ones, in row-major order (np.nonzero's),
    memoised on m while m is read-only (see memo)."""
    return memo(m, "support", np.nonzero)


def _from_support(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Read-only uint8 matrix of the given shape with ones at (rows, cols),
    distinct and in any order.  It owns its memory, and the support of it
    and of its transpose are memoised, so neither is ever scanned."""
    m = np.zeros(shape, dtype=np.uint8)
    m[rows, cols] = 1
    m.setflags(write=False)
    for view, major, minor in ((m, rows, cols), (m.T, cols, rows)):
        order = np.lexsort((minor, major))
        support = major[order], minor[order]
        memo(view, "support", lambda _: support)
    return m


# -- elimination on Python-int rows ------------------------------------------


def _row_ints(m: np.ndarray) -> list[int]:
    """Each row of m as one int: column 0 in the highest bit of an int whose
    width is a whole number of bytes (the packed row, read big-endian).

    A read-only m is packed from its memoised support; a writable one has
    none to keep, so its dense rows are packed directly, one scan either way.
    """
    if m.flags.writeable:
        packed = np.packbits(m, axis=1)
    else:
        rows, cols = _support(m)
        packed = np.zeros((m.shape[0], -(-m.shape[1] // 8)), dtype=np.uint8)
        np.bitwise_or.at(packed, (rows, cols >> 3), (128 >> (cols & 7)).astype(np.uint8))
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def _int_rows(ints: list[int], nbytes: int) -> np.ndarray:
    """Ints of 8 * nbytes bits back to packed rows: (len(ints), nbytes) uint8."""
    raw = b"".join(v.to_bytes(nbytes, "big") for v in ints)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), nbytes)


def _int_matrix(ints: list[int], cols: int) -> np.ndarray:
    """Int rows that hold `cols` columns back to a uint8 matrix."""
    return np.unpackbits(_int_rows(ints, -(-cols // 8)), axis=1, count=cols)


def _mul_rows(a: list[int], b: list[int]) -> list[int]:
    """a @ b mod 2 on int rows: a's rows hold one column per row of b, and
    row i of the product is the XOR of b's rows at the ones of a's row i."""
    width = 8 * -(-len(b) // 8)
    out = []
    for v in a:
        acc = 0
        while v:
            low = v & -v
            acc ^= b[width - low.bit_length()]
            v ^= low
        out.append(acc)
    return out


def _transpose_ints(rows: list[int], cols: int) -> list[int]:
    """The transpose of int rows that hold `cols` columns, as int rows."""
    width = 8 * -(-cols // 8)
    top = 8 * -(-len(rows) // 8) - 1
    out = [0] * cols
    for i, v in enumerate(rows):
        bit = 1 << (top - i)
        while v:
            low = v & -v
            out[width - low.bit_length()] |= bit
            v ^= low
    return out


def _eliminate(rows: list[int], low: int = 0, reduced: bool = False) -> tuple[list[int], list[int]]:
    """Row reduction of int rows into an XOR basis keyed by leading bit.

    Only bits at or above bit `low` can be pivots.  Each row in turn is
    XORed with the basis row of its leading bit until that lead is new,
    and joins the basis there, or until no bit at or above low is left:
    the row has cancelled, and what remains of it (its low bits) is kept
    apart.  Returns the basis rows in descending order of lead, which is
    ascending pivot column, and the cancelled rows in input order.

    With reduced, the basis is then fully reduced, from the last pivot
    column to the first: each row's bits at pivots already seen are
    cleared one XOR each, which leaves the reduced row echelon form.
    """
    basis: dict[int, int] = {}
    cancelled = []
    floor = 1 << low
    for v in rows:
        while v >= floor:
            lead = v.bit_length() - 1
            pivot_row = basis.get(lead)
            if pivot_row is None:
                basis[lead] = v
                break
            v ^= pivot_row
        else:
            cancelled.append(v)
    leads = sorted(basis)
    if reduced:
        seen = 0
        for lead in leads:
            v = basis[lead]
            hits = v & seen
            while hits:
                bit = hits.bit_length() - 1
                # basis[bit] is reduced: of the pivots, it holds only bit
                v ^= basis[bit]
                hits ^= 1 << bit
            basis[lead] = v
            seen |= 1 << lead
    return [basis[lead] for lead in reversed(leads)], cancelled


def rank(m) -> int:
    """GF(2) rank; rank(M) == rank(M.T)."""
    m = as_bin(m)
    return len(_eliminate(_row_ints(m))[0])


def _rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of m's reduced row echelon form, plus their pivot columns."""
    width = 8 * -(-m.shape[1] // 8)
    basis, _ = _eliminate(_row_ints(m), reduced=True)
    pivots = [width - v.bit_length() for v in basis]
    return _int_matrix(basis, m.shape[1]), pivots


def kernel_basis(m) -> list[np.ndarray]:
    """Basis of {v : Mv = 0}, one vector per free column, ascending order."""
    m = as_bin(m)
    n = m.shape[1]
    red, pivots = _rref(m)
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    # free column f's vector takes red[row, f] at the pivot of each row
    basis[:, pivots] = red[:, free].T
    return list(basis)


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

    Eliminates M's rows once, row i carrying the unit vector e_i in bits
    below M's, where no pivot is taken.  Those low bits end up holding the
    row reduction T, with T M in reduced row echelon form: one row per
    pivot first, then one per row of M that cancelled, which together span
    the left null space.  in_image(b) then costs one packed matrix-vector
    product; solve(b) adds one scatter of the pivot entries.  The solver
    keeps only M's shape, so it can be memoised on M.
    """

    def __init__(self, m) -> None:
        m = as_bin(m)
        self.shape = rows, cols = m.shape
        # T's rows are packed whole bytes wide, below M's bits
        low = 8 * -(-rows // 8)
        augmented = [(v << low) | (1 << (low - 1 - i)) for i, v in enumerate(_row_ints(m))]
        basis, cancelled = _eliminate(augmented, low, reduced=True)
        width = 8 * -(-cols // 8) + low
        self.pivot_index = np.array([width - v.bit_length() for v in basis], dtype=np.intp)
        self.rank = len(basis)
        mask = (1 << low) - 1
        self.transform = _int_rows([v & mask for v in basis] + cancelled, low // 8)

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


class BudgetExhausted(RuntimeError):
    """An enumeration or memory budget ran out before any admissible solution."""


# A query that enumerates more right halves than this runs on sorted numpy
# half tables, a block of right halves at a time; a smaller one looks its
# right halves up in a Python dict.  Looping over all right halves costs
# about 0.35 us per half on the dict path; the array path about 100 us per
# query plus a little per half.  So weight-2 and weight-3 loops cost the
# same on both near 384 halves (the dict path wins at 256, the array path
# at 512).  Nonzero weight-2 and weight-3 targets skip the loop, so this
# governs zero targets and wider right halves, table1's zero-target
# queries among them.  Below it sit the shallow queries that dominate
# decoding.
_ARRAY_MIN_RIGHT_HALVES = 384

# Largest half table a search may build, in estimated bytes (C(n, k) entries
# times the bytes per entry below); a larger one raises BudgetExhausted.
_TABLE_BYTES_MAX = 1 << 30
# Peak bytes per entry, measured with tracemalloc: a dict entry holds a
# tuple, a list slot and its share of the dict (230-245 bytes); an array
# entry holds one 8-byte key, and building the table in place peaks at
# 8.1-9.6 bytes per entry (the shorter key list it is extended from).  A
# query on it adds one block's temporaries, under 0.9 MB (5.6 bytes per
# entry of a C(100, 3) table, 0.4 of a C(241, 3) one), and its candidates.
_DICT_ENTRY_BYTES = 256
_ARRAY_ENTRY_BYTES = 10
# Peak bytes per candidate of a block of an array query (a left half whose
# sketch matches a right half's), the same way: 33 bytes of codes before the
# index-order filter, or 17 plus 7.5-7.9 per column word while the ones that
# pass it (at most half) are verified.
_CANDIDATE_BYTES = 33
_CANDIDATE_WORD_BYTES = 8
# Right halves an array query keys at once: about 40 bytes of temporaries
# each, and the keys their needles reach stay in cache.  On the weight-6
# queries of the 241-qubit code, blocks of 1 << 13 and 1 << 16 ran slower.
_QUERY_BLOCK_HALVES = 1 << 14

_SKETCH_SEED = 20180524
# rows of packed vectors sketched per block, so the byte lookups of a wide
# matrix stay near a megabyte
_SKETCH_BLOCK_BYTES = 1 << 17


@functools.lru_cache(maxsize=None)
def _sketch_bytes(nbytes: int) -> np.ndarray:
    """Sketch of every byte value at every byte position, (nbytes, 256)."""
    # one pseudo-random word per bit position: splitmix64 of its index
    z = (np.arange(8 * nbytes, dtype=np.uint64) + np.uint64(_SKETCH_SEED)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    words = (z ^ (z >> np.uint64(31))).reshape(nbytes, 8)
    table = np.zeros((nbytes, 256), dtype=np.uint64)
    for j in range(8):
        # every byte value with bit j set, bit 0 the most significant as in packbits
        table[:, (np.arange(256) >> (7 - j)) & 1 == 1] ^= words[:, j, np.newaxis]
    table.setflags(write=False)
    return table


def _sketch(packed: np.ndarray) -> np.ndarray:
    """64-bit linear sketch of each row of a packed (8 bits per byte) array.

    A fixed, seeded GF(2) projection: bit i of a vector contributes one
    pseudo-random 64-bit word, and the sketch is the XOR of the words of
    its set bits, so sketch(a ^ b) = sketch(a) ^ sketch(b).  Looked up one
    byte at a time.
    """
    rows, nbytes = packed.shape
    table, positions = _sketch_bytes(nbytes), np.arange(nbytes)
    out = np.zeros(rows, dtype=np.uint64)
    step = max(1, _SKETCH_BLOCK_BYTES // max(1, 8 * nbytes))
    for i in range(0, rows, step):
        out[i : i + step] = np.bitwise_xor.reduce(table[positions, packed[i : i + step]], axis=1)
    return out


def _require_under_cap(need: int, what: str) -> None:
    if need > _TABLE_BYTES_MAX:
        raise BudgetExhausted(
            f"{what} needs about {need} bytes, above the {_TABLE_BYTES_MAX}-byte cap"
        )


def _reserve(n: int, size: int, entry_bytes: int) -> None:
    """Raise BudgetExhausted if a C(n, size)-entry table exceeds the cap."""
    entries = math.comb(n, size)
    what = f"weight-search table of C({n}, {size}) = {entries} entries"
    _require_under_cap(entries * entry_bytes, what)


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
    """Supports S with |S| = w whose columns sum to a target, by meet in the middle.

    A size-w support splits into a left half of ceil(w/2) columns and a
    right half of the rest, every left index below every right one.  The
    left halves come from a table of all column combinations of that size,
    built once per size and memoised with the search; the right halves are
    enumerated per query, and each asks the table for the left halves whose
    column sum is the target's plus its own.

    The path follows the number of right halves a query enumerates,
    C(n, right):

    * up to _ARRAY_MIN_RIGHT_HALVES, a dict from the packed column sum (a
      Python int) to its combinations.  A nonzero target with a one-column
      right half (w = 2 or 3) draws that column only from the columns on
      the target's highest set bit, since every support has one there; the
      other queries loop over all their right halves.  This is the path of
      the many shallow decoding queries, whose cost is per-call overhead.
    * above it, the left table is one sorted uint64 array of composite
      keys: the 64-bit linear _sketch of a combination's column sum, with
      its low bits replaced by the combination's code (its indices,
      _index_bits each, first index highest, so codes order like lex
      order).  A sum's sketch is the XOR of its columns' sketches, so the
      right halves are keyed a block at a time (slices of the right table,
      sorted the same way), and the left halves whose sketch matches one
      right half are one searchsorted range.  Each candidate is then
      checked for index order and verified against the exact packed
      column sum, so a sketch collision costs work, never a wrong answer;
      the supports of all blocks are gathered, and one lexsort restores
      lex order.  Only the tables and one block's temporaries are held at
      once.

    Before a table is built its size is estimated, and before a block's
    candidates are expanded their size is, with the supports found so far;
    above _TABLE_BYTES_MAX the search raises BudgetExhausted instead of
    running out of memory.
    """

    def __init__(self, m: np.ndarray) -> None:
        self.n = m.shape[1]
        # column j of m as the big-endian int of its packed bytes
        self.cols = _row_ints(m.T)
        self._nbytes = -(-m.shape[0] // 8)
        self._hashed: dict[int, dict[int, list[tuple[int, ...]]]] = {}
        self._sorted: dict[int, np.ndarray] = {}
        # bit of the column ints -> the columns that have it, ascending
        self._by_bit: dict[int, list[int]] = {}
        # weight -> supports(w, 0), the kernel's supports of that weight
        self._kernel: dict[int, list[tuple[int, ...]]] = {}
        # bits per index in a combination code: n itself must fit
        self._index_bits = self.n.bit_length()

    def _padded(self, ints: list[int]) -> np.ndarray:
        """Packed column sums as rows of whole uint64 words, zero-padded."""
        width = -(-self._nbytes // 8) * 8
        pad = 8 * (width - self._nbytes)
        return _int_rows([v << pad for v in ints], width).view(np.uint64)

    @functools.cached_property
    def _words(self) -> np.ndarray:
        return self._padded(self.cols)

    def _bit_columns(self, bit: int) -> list[int]:
        """The columns whose int has this bit set, ascending."""
        found = self._by_bit.get(bit)
        if found is None:
            found = self._by_bit[bit] = [j for j, v in enumerate(self.cols) if v >> bit & 1]
        return found

    def _code_mask(self, size: int) -> np.uint64:
        return np.uint64((1 << (size * self._index_bits)) - 1)

    def _sorted_table(self, size: int) -> np.ndarray:
        """Sorted composite keys of every size-`size` combination."""
        if size not in self._sorted:
            _reserve(self.n, size, _ARRAY_ENTRY_BYTES)
            # longer codes would leave the sketch too few bits to keep
            # candidates rare; only searches for about half of all columns
            # of a narrow matrix get here
            if size * self._index_bits > 48:
                raise BudgetExhausted(
                    f"codes of {size} indices below {self.n} need "
                    f"{size * self._index_bits} bits, leaving too few for the sketch"
                )
            sketches = _sketch(self._words.view(np.uint8))
            keys = (sketches & ~self._code_mask(1)) | np.arange(self.n, dtype=np.uint64)
            for longer in range(2, size + 1):
                keys = self._extended(keys, longer, sketches)
            keys.sort()
            self._sorted[size] = keys
        return self._sorted[size]

    def _extended(self, shorter: np.ndarray, size: int, sketches: np.ndarray) -> np.ndarray:
        """Keys of every size-`size` combination in lex order, from the keys
        of every (size - 1)-combination in lex order.

        A combination is its first index i followed by a shorter one whose
        indices all exceed i, and those shorter ones are a tail of the lex
        order.  So the combinations that start at i are that tail with its
        sketch bits cleared where the longer code goes, XORed with i's
        sketch and code: one run of the output array, filled in place.
        """
        n, bits = self.n, self._index_bits
        mask = self._code_mask(size)
        heads = (sketches & ~mask) | (np.arange(n, dtype=np.uint64) << np.uint64((size - 1) * bits))
        keep = ~mask | self._code_mask(size - 1)
        out = np.empty(math.comb(n, size), dtype=np.uint64)
        filled = tail = 0
        for i in range(n - size + 1):
            # skip the shorter combinations that start at i
            tail += math.comb(n - 1 - i, size - 2)
            run = out[filled : filled + shorter.size - tail]
            np.bitwise_and(shorter[tail:], keep, out=run)
            run ^= heads[i]
            filled += run.size
        return out

    def _columns(self, codes: np.ndarray, size: int) -> Iterator[np.ndarray]:
        """The indices of combination codes of `size` indices, one array per
        position, first index first."""
        for j in range(size - 1, -1, -1):
            yield ((codes >> np.uint64(j * self._index_bits)) & self._code_mask(1)).astype(np.intp)

    def _matches(self, w: int, target: int):
        """Supports of size w summing to target, in no particular order:
        a list of tuples from the dict path, an int array (one support per
        row) from the array path."""
        if w == 0:
            return [()] if target == 0 else []
        right = w // 2
        left = w - right
        if right and math.comb(self.n, right) > _ARRAY_MIN_RIGHT_HALVES:
            return self._array_matches(left, right, target)
        table = self._hashed.get(left)
        if table is None:
            _reserve(self.n, left, _DICT_ENTRY_BYTES)
            table = self._hashed[left] = _combinations_by_sum(self.cols, left)
        if right == 0:
            return list(table.get(target, ()))
        cols = self.cols
        if right == 1 and target:
            # every support has a column on the target's highest set bit:
            # draw the right column from that bit's columns, the others from
            # the left table; a support with 3 columns on it is drawn 3 times
            out = set()
            for c in self._bit_columns(target.bit_length() - 1):
                for lc in table.get(target ^ cols[c], ()):
                    if c not in lc:
                        out.add(tuple(sorted(lc + (c,))))
            return list(out)
        out = []
        for rc in itertools.combinations(range(self.n), right):
            acc = target
            for j in rc:
                acc ^= cols[j]
            matches = table.get(acc)
            if not matches:
                continue
            first_rc = rc[0]
            for lc in matches:
                if lc[-1] < first_rc:
                    out.append(lc + rc)
        return out

    def _array_matches(self, left: int, right: int, target: int) -> np.ndarray:
        keys = self._sorted_table(left)
        target_words = self._padded([target])
        target_sketch = _sketch(target_words.view(np.uint8))[0]
        left_mask, right_mask = self._code_mask(left), self._code_mask(right)
        sketch_bits = ~left_mask
        right_keys = self._sorted_table(right)
        found, held = [], 0  # the supports found so far, and their count
        for start in range(0, right_keys.size, _QUERY_BLOCK_HALVES):
            block = right_keys[start : start + _QUERY_BLOCK_HALVES]
            # each needle: the sketch a matching left half must have, above
            # the right half's own code; sorted, they walk the keys in one
            # direction, which searchsorted answers far faster than scattered ones
            needles = block ^ target_sketch
            needles &= sketch_bits
            needles |= block & right_mask
            needles.sort()
            # the keys the block's needles can reach are one run of the table,
            # about as long as the block, so the searches stay in cache
            window = keys[
                np.searchsorted(keys, needles[0] & sketch_bits) : np.searchsorted(
                    keys, needles[-1] | left_mask, side="right"
                )
            ]
            if not window.size:
                continue
            lo = np.searchsorted(window, needles & sketch_bits)
            # a needle hits when the first key at or after it shares its sketch
            at = window.take(lo, mode="clip")
            at ^= needles
            at &= sketch_bits
            hit = np.flatnonzero((at == 0) & (lo < window.size))
            del at
            lo, needles = lo[hit], needles[hit]
            del hit
            # a sketch mostly occurs once; search for the end of the others' runs
            counts = np.ones(lo.size, dtype=np.intp)
            at = window.take(lo + 1, mode="clip")
            at ^= needles
            at &= sketch_bits
            longer = np.flatnonzero((at == 0) & (lo + 1 < window.size))
            del at
            counts[longer] = np.searchsorted(window, needles[longer] | left_mask, side="right")
            counts[longer] -= lo[longer]
            candidates = int(counts.sum())
            need = held * (left + right) * np.dtype(np.intp).itemsize + candidates * (
                _CANDIDATE_BYTES + _CANDIDATE_WORD_BYTES * self._words.shape[1]
            )
            _require_under_cap(
                need,
                f"weight-search query of {candidates} candidates in one block, "
                f"after {held} supports found",
            )
            right_codes = np.repeat(needles & right_mask, counts)
            rows = np.repeat(lo - np.cumsum(counts) + counts, counts)
            # the block's per-needle arrays go before the candidates peak
            del lo, needles, counts
            rows += np.arange(rows.size)
            left_codes = window[rows]
            del rows
            left_codes &= left_mask
            # every left index below every right one: last below first
            last = left_codes & self._code_mask(1)
            ordered = last < right_codes >> np.uint64((right - 1) * self._index_bits)
            del last
            halves = ((left_codes[ordered], left), (right_codes[ordered], right))
            del left_codes, right_codes
            # the exact column sum, one column at a time; only the supports
            # that reach the target are decoded whole
            sums = np.repeat(target_words, ordered.sum(), axis=0)
            for codes, size in halves:
                for column in self._columns(codes, size):
                    sums ^= self._words[column]
            exact = ~sums.any(axis=1)
            del sums
            supports = np.column_stack(
                [column for codes, size in halves for column in self._columns(codes[exact], size)]
            )
            found.append(supports)
            held += len(supports)
        if not found:
            return np.zeros((0, left + right), dtype=np.intp)
        return found[0] if len(found) == 1 else np.concatenate(found)

    def supports(self, w: int, target: int) -> list[tuple[int, ...]]:
        """All supports of size w whose column sum equals target, lex sorted.

        The kernel's supports (target 0) are kept per weight; each call
        returns a fresh list of them."""
        if target:
            return self._sorted_supports(w, target)
        if w not in self._kernel:
            self._kernel[w] = self._sorted_supports(w, 0)
        return list(self._kernel[w])

    def _sorted_supports(self, w: int, target: int) -> list[tuple[int, ...]]:
        found = self._matches(w, target)
        if isinstance(found, list):
            found.sort()
            return found
        found = found[np.lexsort(found.T[::-1])]
        return [tuple(s) for s in found.tolist()]

    def first_support(self, w: int, target: int) -> Optional[tuple[int, ...]]:
        """The lex-first support of size w summing to target, or None."""
        found = self._matches(w, target)
        if isinstance(found, list):
            return min(found) if found else None
        if not len(found):
            return None
        # narrow to the smallest entry column by column: no full sort
        for j in range(w):
            found = found[found[:, j] == found[:, j].min()]
        return tuple(found[0].tolist())


def _searcher(m: np.ndarray) -> _WeightSearch:
    return memo(m, "search", _WeightSearch)


def _target_int(v: np.ndarray) -> int:
    return int.from_bytes(np.packbits(v).tobytes(), "big")


def _support_to_vector(support: tuple[int, ...], n: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.uint8)
    for j in support:
        v[j] = 1
    return v


def _vectors_up_to_weight(n: int, max_weight: int) -> Iterator[np.ndarray]:
    """The zero vector, then every length-n vector of weight 1..max_weight in
    (weight, lex) order of support, each a fresh array."""
    yield np.zeros(n, dtype=np.uint8)
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            yield _support_to_vector(support, n)


def _search_inputs(m, b, max_weight: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """m and b (unless None) as uint8, after the checks every search shares."""
    m = as_bin(m)
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    if b is not None:
        b = as_bin(b).reshape(-1)
        if b.shape[0] != m.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix has {m.shape[0]} rows, "
                f"vector has {b.shape[0]}"
            )
    return m, b


def min_weight_solution(
    m, b, max_weight: int
) -> Optional[tuple[np.ndarray, int]]:
    """Minimum-weight x with Mx = b, provided that minimum is <= max_weight.

    Search proceeds by increasing weight; among equal-weight solutions the
    lexicographically smallest support wins.  Returns None when every
    solution (if any) is heavier than the budget.
    """
    m, b = _search_inputs(m, b, max_weight)
    target = _target_int(b)
    if target == 0:
        # weight 0 needs no table: skip the searcher's memo lookup
        return np.zeros(m.shape[1], dtype=np.uint8), 0
    search = _searcher(m)
    for w in range(1, max_weight + 1):
        support = search.first_support(w, target)
        if support is not None:
            return _support_to_vector(support, m.shape[1]), w
    return None


def all_solutions_up_to_weight(m, b, max_weight: int) -> list[np.ndarray]:
    """Every x with Mx = b and |x| <= max_weight, in (weight, lex) order."""
    m, b = _search_inputs(m, b, max_weight)
    search = _searcher(m)
    target = _target_int(b)
    out = []
    for w in range(max_weight + 1):
        for support in search.supports(w, target):
            out.append(_support_to_vector(support, m.shape[1]))
    return out


def kernel_vectors_by_weight(m, max_weight: int) -> Iterator[np.ndarray]:
    """Nonzero kernel vectors of M in increasing (weight, lex) order."""
    m, _ = _search_inputs(m, None, max_weight)
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
    """Render a matrix in .pcm text form: "ROWS COLS" then 0/1 rows.

    The text is one uint8 array of character codes, the header and then
    each row with a newline column, decoded once.
    """
    m = as_bin(m)
    rows, cols = m.shape
    header = f"{rows} {cols}\n".encode("ascii")
    text = np.empty(len(header) + rows * (cols + 1), dtype=np.uint8)
    text[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    body = text[len(header) :].reshape(rows, cols + 1)
    # a nonzero entry is a "1"
    np.minimum(m, 1, out=body[:, :cols])
    body[:, :cols] += ord("0")
    body[:, cols] = ord("\n")
    return str(text, "ascii")


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
    for k, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line.strip():
            raise ValueError(f"unexpected .pcm line {k} after {rows} rows: {line!r}")
    return m


def read_pcm(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_pcm(fh.read())


def write_pcm(path, m) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_pcm(m))
