"""Dense references shared by the tests: elimination one column at a time on
a uint8 copy, independent of the library's int-row elimination, the
counts and profiles built on it or on plain enumeration, and the
all-pairs packed join of two coset listings."""

import numpy as np


def dense_rref(m):
    """The nonzero rows of m's reduced row echelon form and their pivots."""
    a = m.copy()
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        p = r + below[0]
        a[[r, p]] = a[[p, r]]
        for i in np.flatnonzero(a[:, c]):
            if i != r:
                a[i] ^= a[r]
        pivots.append(c)
    return a[: len(pivots)], pivots


def dense_kernel(m):
    """Basis of {v : m v = 0} as the rows of a uint8 matrix: one vector per
    free column of the reduced form, ascending, with a one at that column
    and the reduced form's entries of the column at the pivots."""
    red, pivots = dense_rref(m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = red[:, free].T
    return basis


def cobetti(complex_, j):
    """dim ker(d_{j-1}^T) - rank(d_j^T), from the kernels of the transposed
    maps: the cohomology count that equals the Betti number by duality."""
    up, down = complex_.delta(j).T, complex_.delta(j - 1).T
    return len(dense_kernel(down)) - (up.shape[1] - len(dense_kernel(up)))


def error_first_profile(delta):
    """Largest minimum preimage weight per syndrome weight, by the definition:
    every r of the full 2^n error space, then its syndrome delta r."""
    n = delta.shape[1]
    best = {}
    for code in range(2**n):
        r = np.array([(code >> i) & 1 for i in range(n)], dtype=np.uint8)
        key = ((delta.astype(np.int64) @ r) % 2).astype(np.uint8).tobytes()
        best[key] = min(best.get(key, n), int(r.sum()))
    worst = {}
    for key, w in best.items():
        x = sum(key)
        worst[x] = max(worst.get(x, 0), w)
    return worst


def all_pairs_min_weight(xs, zs, max_weight):
    """Least |e | f| over every pair of X-side and Z-side coset elements
    (uint8 rows), on bit-packed rows, or None when a side is empty or the
    least exceeds max_weight."""
    if not len(xs) or not len(zs):
        return None
    e = np.packbits(xs, axis=1)
    f = np.packbits(zs, axis=1)
    best = int(np.bitwise_count(e[:, np.newaxis] | f).sum(axis=2).min())
    return best if best <= max_weight else None
