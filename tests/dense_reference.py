"""Dense references shared by the tests: elimination one column at a time on
a uint8 copy, independent of the library's int-row elimination, the
counts and profiles built on it or on plain enumeration, the
all-pairs packed join of two coset listings, and the decoder's array
pipeline (mat_vec and min_weight_solution on uint8 vectors)."""

import numpy as np

from homprod import gf2
from homprod.css import PauliError, Syndrome, pauli_min_weight
from homprod.decoder import DecodeResult


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


def _reference_solve(m, target, max_weight, what):
    found = gf2.min_weight_solution(m, target, max_weight)
    if found is None:
        raise gf2.BudgetExhausted(f"no {what} within weight {max_weight}")
    return found[0]


def reference_repair(code, s, max_weight):
    """repair_syndrome as the array pipeline computes it: metacheck targets
    by mat_vec, each repair by min_weight_solution, and the obstruction
    test by mat_vec of the obstruction rows.  Returns (s_rec, failure)."""
    if not code.has_metachecks:
        raise ValueError("repair needs a code with metachecks")
    mz, mx = code.z_metachecks, code.x_metachecks
    s_rec = Syndrome(
        _reference_solve(mz, gf2.mat_vec(mz, s.z_part), max_weight, "Z-side syndrome repair"),
        _reference_solve(mx, gf2.mat_vec(mx, s.x_part), max_weight, "X-side syndrome repair"),
    )
    repaired = s.compose(s_rec)
    z_rows, x_rows = code.syndrome_obstructions
    failure = bool(
        (len(z_rows) and gf2.mat_vec(z_rows, repaired.z_part).any())
        or (len(x_rows) and gf2.mat_vec(x_rows, repaired.x_part).any())
    )
    return s_rec, failure


def reference_decode(code, s, max_weight, true_error=None, residual_budget=None):
    """single_shot_decode on the array pipeline: reference_repair, then
    each recovery by min_weight_solution on the repaired syndrome."""
    s_rec, failure = reference_repair(code, s, max_weight)
    if failure:
        return DecodeResult(s_rec, PauliError.identity(code.n), True, None, False)
    repaired = s.compose(s_rec)
    e_rec = PauliError(
        _reference_solve(code.z_checks, repaired.z_part, max_weight, "X-part recovery"),
        _reference_solve(code.x_checks, repaired.x_part, max_weight, "Z-part recovery"),
    )
    residual = None
    if true_error is not None:
        budget = residual_budget if residual_budget is not None else max_weight
        residual = pauli_min_weight(code, true_error.compose(e_rec), budget)
    return DecodeResult(s_rec, e_rec, False, residual, True)
