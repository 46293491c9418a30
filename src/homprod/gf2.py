"""GF(2) linear algebra on numpy uint8 arrays.

Matrices are row-major uint8 arrays with entries in {0, 1}; they are
the interchange format at every API boundary.  Inside, a row of a
c-column matrix is one c-bit Python int, column j in bit c - 1 - j (so
column 0 is the highest bit), with no padding.  Four functions alone
pack or unpack bytes or words: _row_ints packs a matrix's rows and
_target_int a vector, _int_matrix unpacks int rows, and
_WeightSearch._padded pads them to 64-bit words for the sketches.
_rows memoises a read-only matrix's int rows, the one cache of them.

Elimination (rank, Gf2Solver and cokernel_rows, which reads every
image, coset and obstruction off a solver) inserts int rows one by one
into an XOR basis keyed by leading bit (see _eliminate): the maps
eliminated here are sparse boundary maps and products of them, whose
rows meet few pivots, so a row costs a few int XORs where a column step
of a packed array costs several numpy calls.  Those maps hold a few
ones per row, so the zero-product test (product_is_zero), mat_vec and
the int rows read a matrix's support, the row and column indices of its
ones (_support), memoised on read-only matrices and handed over with
each product map and its transpose (_from_support): no dense map is
scanned or packed.  mat_mul forms products through float64 BLAS, faster
for small dense ones.  The constructive witnesses (soundness) keep
their small matrices in the same int rows: _mul_rows, _transpose_ints
and _column_sum act on them.

Pivoting is always left-to-right over columns and tie-breaks are
lexicographic (smallest support indices first), so every routine is
deterministic.

The weight-ordered searches (min_weight_solution and the decoder, through
one loop, _lightest; kernel_vectors_by_weight; css.pauli_min_weight's
coset listings, which read _searcher(m).supports) meet in the middle (see
_WeightSearch) over sorted numpy half tables keyed by a 64-bit linear
sketch of the column sum, a fixed-size block of keys at a time (an even
weight joins one table with itself, meeting each pair of halves once);
every candidate is verified against the exact sum, so a sketch
collision costs work, never a wrong answer.  The shallow
decoding queries, whose cost is per-call overhead, use a dict from each
column to its indices instead: weight-1 lookups, pivot-row draws of
nonzero weight-2 and weight-3 targets, and pairs of equal columns.
Every path returns support tuples, which _WeightSearch.supports sorts
into (weight, lex) order, and the kernel's supports of each weight are
kept with the search.  A table whose estimated size exceeds a memory
cap is never built, and a block whose candidates, with the supports
found before it, would exceed the cap is never expanded: the search
raises BudgetExhausted.
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
    "Gf2Solver",
    "get_solver",
    "cokernel_rows",
    "memo",
    "BudgetExhausted",
    "min_weight_solution",
    "kernel_vectors_by_weight",
    "flatten_matrix",
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
    else:
        # each layout tuple read once: the transposed hit is the common view
        shape, strides, owner_strides = m.shape, m.strides, owner.strides
        if strides == owner_strides and shape == owner.shape:
            view = ""  # a view of all of the owner, such as m.T.T
        elif strides[::-1] == owner_strides and shape[::-1] == owner.shape:
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
    try:
        return values[slot]
    except KeyError:
        out = values[slot] = build(m)
        return out


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
    """Each row of m as one int of m.shape[1] bits, column j in bit
    m.shape[1] - 1 - j, packed from m's support (memoised while m is
    read-only, see memo)."""
    rows, cols = _support(m)
    packed = np.zeros((m.shape[0], -(-m.shape[1] // 8)), dtype=np.uint8)
    np.bitwise_or.at(packed, (rows, cols >> 3), (128 >> (cols & 7)).astype(np.uint8))
    pad = -m.shape[1] % 8
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def _rows(m: np.ndarray) -> list[int]:
    """m's int rows (see _row_ints), memoised while m is read-only; the
    list is shared, so it must not be changed."""
    return memo(m, "row_ints", _row_ints)


def _int_rows(ints: list[int], nbytes: int) -> np.ndarray:
    """Ints of 8 * nbytes bits back to packed rows: (len(ints), nbytes) uint8."""
    raw = b"".join(v.to_bytes(nbytes, "big") for v in ints)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), nbytes)


def _int_matrix(ints: list[int], cols: int) -> np.ndarray:
    """Int rows of `cols` columns (see _row_ints) back to a uint8 matrix
    that owns its memory."""
    nbytes = -(-cols // 8)
    pad = -cols % 8
    return np.unpackbits(_int_rows([v << pad for v in ints], nbytes), axis=1, count=cols)


def _ones(rows: list[int], cols: int) -> list[int]:
    """The flat (row-major) indices of the ones of int rows of `cols` columns."""
    out = []
    for k, v in enumerate(rows):
        while v:
            low = v & -v
            out.append((k + 1) * cols - low.bit_length())
            v ^= low
    return out


def _from_ones(ones, rows: int, cols: int) -> list[int]:
    """The int rows of a rows x cols matrix, from the flat indices of its
    ones; an index given twice cancels, as in a sum mod 2."""
    top = cols - 1
    out = [0] * rows
    for i in ones:
        k, j = divmod(i, cols)
        out[k] ^= 1 << (top - j)
    return out


def _column_sum(columns: list[int], ones) -> int:
    """m v as an int row, for columns = m^T's int rows and v given by its ones."""
    acc = 0
    for i in ones:
        acc ^= columns[i]
    return acc


def _mul_rows(a: list[int], b: list[int]) -> list[int]:
    """a @ b mod 2 on int rows: a's rows hold one column per row of b, and
    row i of the product is the XOR of b's rows at the ones of a's row i."""
    width = len(b)
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
    top = len(rows) - 1
    out = [0] * cols
    for i, v in enumerate(rows):
        bit = 1 << (top - i)
        while v:
            low = v & -v
            out[cols - low.bit_length()] |= bit
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
    basis, _ = _eliminate(_row_ints(m), reduced=True)
    pivots = [m.shape[1] - v.bit_length() for v in basis]
    return _int_matrix(basis, m.shape[1]), pivots


class Gf2Solver:
    """Reusable solver for Mx = b: one elimination, many right-hand sides.

    Eliminates M's rows once, row i carrying the unit vector e_i in bits
    below M's, where no pivot is taken.  Those low bits end up holding the
    row reduction T, kept as int rows laid out as _target_int lays out b,
    with T M in reduced row echelon form: one row per pivot first, then one
    per row of M that cancelled, which together span the left null space.
    Every query runs through _solve_int(b), one parity of row & b per row
    of T.  The solver keeps only M's shape, so it can be memoised on M.
    """

    def __init__(self, m) -> None:
        m = as_bin(m)
        self.shape = rows, cols = m.shape
        # T's rows are the `rows` bits below M's
        augmented = [(v << rows) | (1 << (rows - 1 - i)) for i, v in enumerate(_row_ints(m))]
        basis, cancelled = _eliminate(augmented, rows, reduced=True)
        self.pivot_index = [cols + rows - v.bit_length() for v in basis]
        self.rank = len(basis)
        mask = (1 << rows) - 1
        self.transform = [v & mask for v in basis] + cancelled

    def _solve_int(self, b: int) -> Optional[list[int]]:
        """Mx = b for b as an int row: None if inconsistent, else the
        ascending columns of x's ones, with every free variable zero.

        Row k of T b is the parity of T's row k and b: it must be zero past
        the rank, and up to it it is x at the k-th pivot."""
        t = self.transform
        for k in range(self.rank, len(t)):
            if (t[k] & b).bit_count() & 1:
                return None
        return [p for p, v in zip(self.pivot_index, t) if (v & b).bit_count() & 1]

    def in_image(self, b) -> bool:
        """Is Mx = b consistent?  Builds no solution vector."""
        return self._solve_int(_checked_target(b, self.shape[0])) is not None

    def solve(self, b) -> Optional[np.ndarray]:
        """Solution with all free variables zero, or None if inconsistent."""
        ones = self._solve_int(_checked_target(b, self.shape[0]))
        return None if ones is None else _support_to_vector(ones, self.shape[1])


def get_solver(m) -> Gf2Solver:
    """Gf2Solver for m, memoised on m while m is read-only (see memo)."""
    return memo(as_bin(m), "solver", Gf2Solver)


def cokernel_rows(h, known=None) -> np.ndarray:
    """Rows that, with known's rows, span the left null space {y : y h = 0}.

    known's rows must each satisfy row . h = 0.  The left null space is
    spanned by the rows of h's solver transform past its rank (see
    Gf2Solver); eliminated after known's rows, those that still take a new
    pivot lie outside known's row space, and they are returned, as a
    read-only matrix with h.shape[0] columns that owns its memory, so
    facts memoised on it (see memo) are kept.
    """
    solver = get_solver(h)
    kernel = solver.transform[solver.rank :]
    known_rows = [] if known is None else _row_ints(as_bin(known))
    known_leads = {v.bit_length() for v in _eliminate(known_rows)[0]}
    rows = [v for v in _eliminate(known_rows + kernel)[0] if v.bit_length() not in known_leads]
    out = _int_matrix(rows, solver.shape[0])
    out.setflags(write=False)
    return out


# -- weight-ordered search ---------------------------------------------------


class BudgetExhausted(RuntimeError):
    """An enumeration or memory budget ran out before any admissible solution."""


# Pivot draws and equal-column pairs run on matrices of at most this many
# columns.  On a dense matrix with more, a draw costs |bit columns|^2
# lookups per query, and the sorted tables amortise that better.
_DRAW_MAX_COLUMNS = 384

# Largest half table a search may build, in estimated bytes (C(n, k) entries
# times the bytes per entry below); a larger one raises BudgetExhausted.
_TABLE_BYTES_MAX = 1 << 30
# Peak bytes per entry, measured with tracemalloc: an index entry holds a
# column index, a list and its share of the dict (116-147 bytes on dense
# matrices of 241-2,000 columns); an array entry holds one 8-byte key, and
# building the table in place peaks at 8.1-9.6 bytes per entry (the shorter
# key list it is extended from).  A query on it adds one block's
# temporaries, under 0.9 MB (5.6 bytes per entry of a C(100, 3) table, 0.4
# of a C(241, 3) one), and its candidates.
_DICT_ENTRY_BYTES = 256
_ARRAY_ENTRY_BYTES = 10
# Peak bytes per candidate of a block of an array query (a pair of halves
# whose sketches match), the same way: 33-34 bytes of codes before the
# index-order filter, and up to 26 plus 16 per column word while the pairs
# that pass it are verified (58 in all while pairs of single columns are
# decoded).  A pair of halves from one table is one candidate, found once,
# so every candidate can pass; of a left and a right table, at most half.
_CANDIDATE_BYTES = 48
_CANDIDATE_WORD_BYTES = 16
# Peak bytes per support an array query returns, the same way: a tuple of
# Python ints in the returned list, plus, while that list is built, the
# support's row of indices and its column lists.  Supports of 2, 3 and 4
# columns, indices at or above 256 (past the interpreter's cached small
# ints), peaked at 177, 233 and 267 bytes each; the lists that supports
# then sorts and copies them into hold less.
_SUPPORT_BYTES = 64
_SUPPORT_INDEX_BYTES = 64
# Halves (keys of a table) an array query walks at once: about 40 bytes of
# temporaries each, and the keys their needles reach stay in cache.  The
# temporaries of 8 bytes a key (120,000 bytes) stay under glibc's default
# mmap threshold of 128 KiB, so a block reuses heap pages instead of
# mapping fresh ones, whatever ran before it.  On the weight-6 queries of
# the 241-qubit code, blocks of 8,192 and 12,000 keys ran slower, and of
# 16,384 (temporaries at the threshold) as fast in one process.
_QUERY_BLOCK_HALVES = 15_000

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


class _WeightSearch:
    """Supports S with |S| = w whose columns sum to a target, by meet in the middle.

    The shallow queries, whose cost is per-call overhead, use the index: a
    dict from a column's int to the indices of the columns equal to it.

    * Weight 1 is one lookup.
    * On up to _DRAW_MAX_COLUMNS columns, a nonzero target of weight 2 or
      3 is drawn from pivot rows: every support has a column on the
      target's highest set bit, so one column comes from that bit's
      columns, and for weight 3 a second from the columns on the highest
      bit of what remains (or, when nothing remains, the other two are a
      pair of equal columns, supports(2, 0)); the last is looked up.  The
      weight-2 kernel supports are the pairs inside each group of equal
      columns.

    Every other query splits a size-w support into a left half of
    ceil(w/2) columns and a right half of the rest, every left index below
    every right one.  Each half size has one sorted uint64 array of
    composite keys, built once and memoised with the search: the 64-bit
    linear _sketch of a combination's column sum, with its low bits
    replaced by the combination's code (its indices, _index_bits each,
    first index highest, so codes order like lex order).  A sum's sketch
    is the XOR of its columns' sketches, so two halves can sum to the
    target only if their sketches XOR to the target's.  A query walks a
    table a block of keys (a slice) at a time, by one of three joins:

    * Odd w, halves of two sizes (_needle_join): each right half of the
      block gives a needle, the sketch its left half must have, and the
      left halves that have it are one searchsorted range.
    * Even w, target sketch zero (_run_join): both halves come from one
      table with equal sketches, so they are a key and a later key of one
      run of equal sketches; the lower key is the left half.
    * Even w, nonzero target sketch (_split_join): the halves' sketches
      differ on the target sketch's highest set bit, so only the halves
      of the block with that bit clear give needles into the one table,
      and a match is kept in whichever order is index-ordered.

    So an even-weight query meets each pair of halves once, and no half
    meets itself.  Each candidate is checked for index order and verified
    against the exact packed column sum, so a sketch collision costs
    work, never a wrong answer.  Only the tables and one block's
    temporaries are held at once.

    Every path returns a list of ascending support tuples in no set order,
    which supports, the one query entry, sorts into lex order.

    Before a table is built its size is estimated, and before a block's
    candidates are expanded their size is, with the supports found so far,
    each charged as the tuple it becomes; so are all of them before they
    are returned, and the pairs of equal columns before they are listed.  A
    weight-3 draw charges its supports after each first column, and a
    weight-2 draw once drawn.  Above _TABLE_BYTES_MAX the search raises
    BudgetExhausted instead of running out of memory.
    """

    def __init__(self, m: np.ndarray) -> None:
        self.n = m.shape[1]
        # column j of m as an int row (see _row_ints), shared with _rows(m.T)
        self.cols = _rows(m.T)
        self._bits = m.shape[0]
        self._sorted: dict[int, np.ndarray] = {}
        # bit of the column ints -> the columns that have it, ascending
        self._by_bit: dict[int, list[int]] = {}
        # weight -> supports(w, 0), the kernel's supports of that weight
        self._kernel: dict[int, list[tuple[int, ...]]] = {}
        # bits per index in a combination code: n itself must fit
        self._index_bits = self.n.bit_length()
        # the index (_column_index), built on the first query that needs it;
        # the most ones in two columns, found on the first weight-3 draw; and
        # the columns as _padded word rows, made on the first array query
        # (_column_words).  All are set here because an attribute added later
        # would slow every attribute read of the shallow queries
        self._index: Optional[dict[int, list[int]]] = None
        self._pair_reach: Optional[int] = None
        self._words: Optional[np.ndarray] = None

    def _padded(self, ints: list[int]) -> np.ndarray:
        """Column sums as rows of whole uint64 words, zero-padded at the end."""
        width = -(-self._bits // 64) * 8
        pad = 8 * width - self._bits
        return _int_rows([v << pad for v in ints], width).view(np.uint64)

    def _column_index(self) -> dict[int, list[int]]:
        """Each column's int -> the indices of the columns equal to it, ascending."""
        if self._index is None:
            _reserve(self.n, 1, _DICT_ENTRY_BYTES)
            index: dict[int, list[int]] = {}
            for j, v in enumerate(self.cols):
                index.setdefault(v, []).append(j)
            self._index = index
        return self._index

    def _column_words(self) -> np.ndarray:
        if self._words is None:
            self._words = self._padded(self.cols)
        return self._words

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
            sketches = _sketch(self._column_words().view(np.uint8))
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

    def _drawn(self, w: int, target: int, index: dict[int, list[int]]) -> list[tuple[int, ...]]:
        """Supports of size w = 2 or 3 summing to a nonzero target, drawn
        from pivot rows, the last column looked up in the index."""
        cols = self.cols
        # every support has a column on the target's highest set bit
        top = self._bit_columns(target.bit_length() - 1)
        if w == 2:
            # and its other column is not on it: each pair is drawn once
            out = []
            for c in top:
                for b in index.get(target ^ cols[c], ()):
                    out.append((b, c) if b < c else (c, b))
            # at most C(_DRAW_MAX_COLUMNS, 2) pairs, so they are charged once
            _require_under_cap(len(out) * _DICT_ENTRY_BYTES, "a weight-2 pivot draw")
            return out
        # after a column a on that bit, the other two sum to rest =
        # target ^ a: one of them is on rest's highest set bit and the
        # other is looked up, or, if rest is 0, they are a pair of equal
        # columns.  A support with 3 columns on the target's highest bit
        # is drawn 3 times.  Two columns sum to at most twice the
        # heaviest column's ones, which on sparse checks rules out most a
        reach = self._pair_reach
        if reach is None:
            reach = self._pair_reach = 2 * max((v.bit_count() for v in cols), default=0)
        found = set()
        for a in top:
            rest = target ^ cols[a]
            if rest.bit_count() > reach:
                continue
            if rest:
                for b in self._bit_columns(rest.bit_length() - 1):
                    for c in index.get(rest ^ cols[b], ()):
                        if a != b and a != c:
                            found.add(tuple(sorted((a, b, c))))
            else:
                for b, c in self.supports(2, 0):
                    if a != b and a != c:
                        found.add(tuple(sorted((a, b, c))))
            _require_under_cap(len(found) * _DICT_ENTRY_BYTES, "a weight-3 pivot draw")
        return list(found)

    def _matches(self, w: int, target: int) -> list[tuple[int, ...]]:
        """Supports of size w summing to target, as ascending tuples in no
        particular order."""
        if w == 0:
            return [()] if target == 0 else []
        if w == 1:
            return [(j,) for j in self._column_index().get(target, ())]
        if w <= 3 and self.n <= _DRAW_MAX_COLUMNS:
            if target:
                return self._drawn(w, target, self._column_index())
            if w == 2:
                groups = self._column_index().values()
                pairs = sum(math.comb(len(group), 2) for group in groups)
                _require_under_cap(pairs * _DICT_ENTRY_BYTES, f"{pairs} pairs of equal columns")
                return [pair for group in groups for pair in itertools.combinations(group, 2)]
        return self._array_matches(w - w // 2, w // 2, target)

    def _array_matches(self, left: int, right: int, target: int) -> list[tuple[int, ...]]:
        """Supports of a left half of `left` columns and a right half of
        `right` summing to target, joined a block at a time under the cap."""
        if left + right > self.n:
            return []  # no support has more than n columns
        target_words = self._padded([target])
        target_sketch = _sketch(target_words.view(np.uint8))[0]
        found: list[np.ndarray] = []  # each block's supports, one row each
        # a support is charged as what it becomes, a tuple in a list
        support_bytes = _SUPPORT_BYTES + _SUPPORT_INDEX_BYTES * (left + right)

        def charge(candidates: int) -> None:
            held = sum(map(len, found))
            need = held * support_bytes + candidates * (
                _CANDIDATE_BYTES + _CANDIDATE_WORD_BYTES * target_words.shape[1]
            )
            _require_under_cap(
                need,
                f"weight-search query of {candidates} candidates in one block, "
                f"after {held} supports found",
            )

        if left > right:
            blocks = self._needle_join(left, right, target_sketch, charge)
        elif target_sketch & ~self._code_mask(right):
            blocks = self._split_join(right, target_sketch, charge)
        else:
            blocks = self._run_join(right, charge)
        for left_codes, right_codes in blocks:
            halves = ((left_codes, left), (right_codes, right))
            found.append(self._verified(halves, target_words))
        held = sum(map(len, found))
        _require_under_cap(held * support_bytes, f"weight-search query of {held} supports")
        return [s for block in found for s in zip(*block.T.tolist())]

    def _needle_join(
        self, left: int, right: int, target_sketch: np.uint64, charge: Callable[[int], None]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Index-ordered (left, right) codes whose sketches sum to the
        target's, a block of right halves at a time, each looked up in the
        left table."""
        keys = self._sorted_table(left)
        left_mask, right_mask = self._code_mask(left), self._code_mask(right)
        right_keys = self._sorted_table(right)
        for start in range(0, right_keys.size, _QUERY_BLOCK_HALVES):
            block = right_keys[start : start + _QUERY_BLOCK_HALVES]
            # each needle: the sketch a matching left half must have, above
            # the right half's own code
            needles = block ^ target_sketch
            needles &= ~left_mask
            needles |= block & right_mask
            left_codes, needles = self._probe(keys, needles, left_mask, charge)
            right_codes = needles & right_mask
            del needles
            ordered = self._last(left_codes) < self._first(right_codes, right)
            left_codes, right_codes = left_codes[ordered], right_codes[ordered]
            yield left_codes, right_codes

    def _split_join(
        self, size: int, target_sketch: np.uint64, charge: Callable[[int], None]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Index-ordered pairs of halves of the size-`size` table whose
        sketches sum to the target's nonzero one, each pair found once.

        The two sketches of a pair differ on the target sketch's highest
        set bit, so only the halves that have it clear are looked up, and
        each match is kept in whichever order puts its indices in order."""
        keys = self._sorted_table(size)
        mask = self._code_mask(size)
        target_sketch &= ~mask
        top = np.uint64(1 << (int(target_sketch).bit_length() - 1))
        for start in range(0, keys.size, _QUERY_BLOCK_HALVES):
            block = keys[start : start + _QUERY_BLOCK_HALVES]
            needles = block[(block & top) == 0]
            needles ^= target_sketch
            matches, needles = self._probe(keys, needles, mask, charge)
            needles &= mask
            # a pair is index-ordered one way at most: a needle half on the
            # left keeps its place, one on the right swaps with its match
            swap = self._last(matches) < self._first(needles, size)
            ordered = swap | (self._last(needles) < self._first(matches, size))
            swap = swap[ordered]
            matches, needles = matches[ordered], needles[ordered]
            matches[swap], needles[swap] = needles[swap], matches[swap]
            yield needles, matches

    def _run_join(
        self, size: int, charge: Callable[[int], None]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Index-ordered pairs of halves of the size-`size` table with
        equal sketches, each pair found once.

        Such pairs lie in runs of equal sketch in the sorted table, a key
        and a later key of its run; in a run the keys are ordered by their
        codes, so the lower one is the left half.  A block walks the keys
        that open a pair, those whose next key shares their sketch."""
        keys = self._sorted_table(size)
        mask = self._code_mask(size)
        for start in range(0, keys.size - 1, _QUERY_BLOCK_HALVES):
            block = keys[start : start + _QUERY_BLOCK_HALVES + 1]
            heads = np.flatnonzero(block[1:] <= block[:-1] | mask)
            if not heads.size:
                continue
            heads += start
            # a head pairs with each later key of its run, up to the last
            # key that has its sketch
            counts = np.searchsorted(keys, keys[heads] | mask, side="right")
            counts -= heads + 1
            charge(int(counts.sum()))
            left_codes = np.repeat(keys[heads], counts)
            left_codes &= mask
            right_codes = keys[self._spread(heads + 1, counts)]
            del heads, counts
            right_codes &= mask
            ordered = self._last(left_codes) < self._first(right_codes, size)
            left_codes, right_codes = left_codes[ordered], right_codes[ordered]
            yield left_codes, right_codes

    def _probe(
        self, keys: np.ndarray, needles: np.ndarray, mask: np.uint64, charge: Callable[[int], None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every key whose sketch (the bits above `mask`) is some needle's,
        each next to that needle: (the keys' codes, the needles).  The
        needles are sorted in place."""
        if not needles.size:
            return needles, needles
        sketch_bits = ~mask
        # sorted, the needles walk the keys in one direction, which
        # searchsorted answers far faster than scattered ones
        needles.sort()
        # the keys the needles can reach are one run of the table, about as
        # long as the block, so the searches stay in cache
        window = keys[
            np.searchsorted(keys, needles[0] & sketch_bits) : np.searchsorted(
                keys, needles[-1] | mask, side="right"
            )
        ]
        if not window.size:
            return needles[:0], needles[:0]
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
        counts[longer] = np.searchsorted(window, needles[longer] | mask, side="right")
        counts[longer] -= lo[longer]
        charge(int(counts.sum()))
        needles = np.repeat(needles, counts)
        codes = window[self._spread(lo, counts)]
        codes &= mask
        return codes, needles

    @staticmethod
    def _spread(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """For each i in turn, the counts[i] consecutive positions from starts[i]."""
        rows = np.repeat(starts - np.cumsum(counts) + counts, counts)
        rows += np.arange(rows.size)
        return rows

    def _first(self, codes: np.ndarray, size: int) -> np.ndarray:
        """The first (lowest) index of each code of `size` indices."""
        return codes >> np.uint64((size - 1) * self._index_bits)

    def _last(self, codes: np.ndarray) -> np.ndarray:
        """The last (highest) index of each code."""
        return codes & self._code_mask(1)

    def _verified(
        self, halves: tuple[tuple[np.ndarray, int], ...], target_words: np.ndarray
    ) -> np.ndarray:
        """The supports, one row each, of the index-ordered (codes, size)
        halves whose exact column sum is the target.

        The sum is taken one column at a time; only the supports that
        reach the target are decoded whole."""
        words = self._column_words()
        sums = np.repeat(target_words, halves[0][0].size, axis=0)
        for codes, size in halves:
            for column in self._columns(codes, size):
                sums ^= words[column]
        exact = ~sums.any(axis=1)
        del sums
        return np.column_stack(
            [column for codes, size in halves for column in self._columns(codes[exact], size)]
        )

    def supports(self, w: int, target: int) -> list[tuple[int, ...]]:
        """All supports of size w whose column sum equals target, lex sorted.

        The kernel's supports (target 0) are kept per weight; each call
        returns a fresh list of them."""
        if target:
            return sorted(self._matches(w, target))
        if w not in self._kernel:
            self._kernel[w] = sorted(self._matches(w, 0))
        return list(self._kernel[w])


def _searcher(m: np.ndarray) -> _WeightSearch:
    return memo(m, "search", _WeightSearch)


def _target_int(v: np.ndarray) -> int:
    """A 0/1 vector as one int row of len(v) bits (see _row_ints)."""
    return int.from_bytes(np.packbits(v).tobytes(), "big") >> (-len(v) % 8)


def _support_to_vector(support: tuple[int, ...], n: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.uint8)
    for j in support:
        v[j] = 1
    return v


def _checked_target(b, rows: int) -> int:
    """b as an int row (see _target_int), refused unless it has `rows` entries."""
    b = as_bin(b).reshape(-1)
    if b.shape[0] != rows:
        raise ValueError(f"dimension mismatch: matrix has {rows} rows, vector has {b.shape[0]}")
    return _target_int(b)


def min_weight_solution(m, b, max_weight: int) -> Optional[tuple[np.ndarray, int]]:
    """Minimum-weight x with Mx = b, provided that minimum is <= max_weight.

    Search proceeds by increasing weight; among equal-weight solutions the
    lexicographically smallest support wins.  Returns None when every
    solution (if any) is heavier than the budget.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    m = as_bin(m)
    support = _lightest(m, _checked_target(b, m.shape[0]), max_weight)
    return None if support is None else (_support_to_vector(support, m.shape[1]), len(support))


def _lightest(m: np.ndarray, target: int, max_weight: int, what: str = "") -> Optional[tuple]:
    """The (weight, lex) first support of weight <= max_weight whose columns
    of m sum to the int row target: the one search loop, which
    min_weight_solution and the decoder share.  If there is none: None,
    or, given what, BudgetExhausted naming it."""
    if target == 0:
        # weight 0 needs no table: skip the searcher's memo lookup
        return ()
    search = _searcher(m)
    for w in range(1, max_weight + 1):
        found = search.supports(w, target)
        if found:
            return found[0]
    if what:
        raise BudgetExhausted(f"no {what} within weight {max_weight}")
    return None


def kernel_vectors_by_weight(m, max_weight: int) -> Iterator[np.ndarray]:
    """Nonzero kernel vectors of M in increasing (weight, lex) order."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    m = as_bin(m)
    search = _searcher(m)
    for w in range(1, max_weight + 1):
        for support in search.supports(w, 0):
            yield _support_to_vector(support, m.shape[1])


# -- flattening --------------------------------------------------------------


def flatten_matrix(v: np.ndarray) -> np.ndarray:
    return as_bin(v).reshape(-1).copy()


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
    if rows < 0 or cols < 0:
        raise ValueError(f"bad .pcm header: {lines[0]!r}")
    # the header is trusted only once every row it promises is read
    if len(lines) < rows + 1:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    body = lines[1 : rows + 1]
    for i, line in enumerate(body, start=1):
        if len(line) != cols or set(line) - {"0", "1"}:
            raise ValueError(f"bad .pcm row {i}: {line!r}")
    for k, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line.strip():
            raise ValueError(f"unexpected .pcm line {k} after {rows} rows: {line!r}")
    m = zeros(rows, cols)
    if cols:
        for i, line in enumerate(body):
            m[i] = np.frombuffer(line.encode(), dtype=np.uint8) - ord("0")
    return m


def read_pcm(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_pcm(fh.read())


def write_pcm(path, m) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_pcm(m))
