"""Dense reference elimination shared by the tests: one column at a time on
a uint8 copy, independent of the library's int-row elimination."""

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
