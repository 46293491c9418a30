"""Classical codes, their products, the decoder budgets, the
metasyndrome, the middle-block helpers, a solution listing and the
fresh-interpreter runner that several test modules share; conftest.py
holds the fixtures built from them."""

import math
import os
import subprocess
import sys

import numpy as np

from homprod import bounds, decoder, gf2, product
from homprod.chain import ChainComplex, Distance

REP2 = gf2.as_bin([[1, 1]])
REP3 = gf2.as_bin([[1, 1, 0], [0, 1, 1]])
CYC3 = gf2.as_bin([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def fresh_python(code, *flags, argv=()):
    """Run code in a new interpreter that imports this homprod, with the
    interpreter's flags and then the script's arguments argv."""
    src = os.path.dirname(os.path.dirname(gf2.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv], env=env, capture_output=True, text=True
    )


def complex_of(h):
    return ChainComplex([gf2.as_bin(h)], j_min=0)


def single(h):
    return product.single_product(complex_of(h))


def double(h):
    return product.double_product(single(h))


def budget33():
    return decoder.single_shot_budget(
        Distance(math.inf, "exact"),  # no finite single-shot distance
        Distance(2, "exact"),  # soundness threshold of the rep-2 input
        Distance(4, "exact"),  # exact distance, enumerated on 33 qubits
        bounds.CUBIC_OVER_4,
    )


def budget241():
    return decoder.single_shot_budget(
        Distance(math.inf, "exact"),
        Distance(3, "exact"),
        Distance(9, "external"),  # witnessed <= 9; equality is an external result
        bounds.CUBIC_OVER_4,
    )


def metasyndrome(code, s):
    """The metachecks applied to each side of syndrome s; zero on every
    syndrome of a Pauli."""
    return np.concatenate(
        [gf2.mat_vec(code.z_metachecks, s.z_part), gf2.mat_vec(code.x_metachecks, s.x_part)]
    )


def make_error_state(tilde, rng, weight):
    """A partial-decode input triple harvested from an actual error."""
    n_m1, n_0, n_1 = tilde.size(-1), tilde.size(0), tilde.size(1)
    r_a = gf2.zeros(n_m1, n_m1)
    r_b = gf2.zeros(n_0, n_0)
    r_c = gf2.zeros(n_1, n_1)
    total = n_m1 * n_m1 + n_0 * n_0 + n_1 * n_1
    for flat in rng.choice(total, size=weight, replace=False):
        if flat < n_m1 * n_m1:
            r_a[flat // n_m1, flat % n_m1] ^= 1
        elif flat < n_m1 * n_m1 + n_0 * n_0:
            flat -= n_m1 * n_m1
            r_b[flat // n_0, flat % n_0] ^= 1
        else:
            flat -= n_m1 * n_m1 + n_0 * n_0
            r_c[flat // n_1, flat % n_1] ^= 1
    d_low, d_high = tilde.delta(-1), tilde.delta(0)
    s_l = gf2.mat_mul(d_low, r_a) ^ gf2.mat_mul(r_b, d_low)
    s_r = gf2.mat_mul(d_high, r_b) ^ gf2.mat_mul(r_c, d_high)
    return r_b, s_l, s_r


def rows_of(m):
    """Indices of the rows of m that hold a one."""
    return set(np.flatnonzero(m.any(axis=1)).tolist())


def cols_of(m):
    """Indices of the columns of m that hold a one."""
    return set(np.flatnonzero(m.any(axis=0)).tolist())


def solutions_up_to_weight(m, b, max_weight):
    """Every x with m x = b and |x| <= max_weight as uint8 vectors, in
    (weight, lex) order, read off the library's memoised search."""
    m = gf2.as_bin(m)
    search = gf2._searcher(m)
    target = gf2._target_int(gf2.as_bin(b))
    out = []
    for w in range(max_weight + 1):
        for support in search.supports(w, target):
            v = np.zeros(m.shape[1], dtype=np.uint8)
            v[list(support)] = 1
            out.append(v)
    return out


def check_partial_properties(state, tilde):
    d_low, d_high = tilde.delta(-1), tilde.delta(0)
    assert (gf2.mat_mul(gf2.mat_mul(d_high, state.r_b), d_low) == state.m).all()
    # the six terminal support conditions, in pseudocode order: 1-3 on
    # (R_b, d_low, S_L), 4-6 on the transposes (R_b^T, d_high^T, S_R^T)
    for r, d, s in ((state.r_b, d_low, state.s_l), (state.r_b.T, d_high.T, state.s_r.T)):
        rd = gf2.mat_mul(r, d)
        assert rows_of(rd) <= rows_of(s)
        assert cols_of(rd) <= cols_of(s)
        assert rows_of(rd) == rows_of(r)
    # middle block no heavier than the product of syndrome block weights
    assert gf2.weight(state.r_b) <= gf2.weight(state.s_l) * gf2.weight(state.s_r)
    # left remainder: kernel columns confined to the left block's supports
    q_l = state.s_l ^ gf2.mat_mul(state.r_b, d_low)
    assert rows_of(q_l) <= rows_of(state.s_l)
    assert cols_of(q_l) <= cols_of(state.s_l)
    w_l = gf2.weight(state.s_l)
    cols = [q_l[:, j] for j in np.flatnonzero(q_l.any(axis=0))]
    assert len(cols) <= w_l
    for alpha in cols:
        assert gf2.weight(alpha) <= w_l
        assert not gf2.mat_vec(d_high, alpha).any()
    # right remainder: mirrored
    q_r = state.s_r ^ gf2.mat_mul(d_high, state.r_b)
    assert rows_of(q_r) <= rows_of(state.s_r)
    assert cols_of(q_r) <= cols_of(state.s_r)
    w_r = gf2.weight(state.s_r)
    rows = [q_r[i] for i in np.flatnonzero(q_r.any(axis=1))]
    assert len(rows) <= w_r
    for beta in rows:
        assert gf2.weight(beta) <= w_r
        assert not gf2.mat_vec(d_low.T, beta).any()
