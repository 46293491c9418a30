"""Single and double homological products of chain complexes.

Both products are one operation, x (x) y*, where y* is y with its levels
negated and its maps transposed.  The rule pins it down bit-exactly:

* Level m is the direct sum of the components x_i (x) y_j over i - j = m,
  listed by ascending i.  Within a component the LEFT factor is major:
  basis vector a (x) b sits at flat index a*dim(y_j) + b, as in numpy.kron.

* d_m sends x_i (x) y_j to x_{i+1} (x) y_j by kron(d^x_i, I) and to
  x_i (x) y_{j-1} by kron(I, (d^y_{j-1})^T).  Every other block is zero.

So the single product of length-1 complexes A: A0 -> A1 and B: B0 -> B1 is

      A0(x)B1  ->  (A0(x)B0) + (A1(x)B1)  ->  A1(x)B0

at levels -1..1, with the A0(x)B0 block first in the middle level; the
double product of two length-2 complexes at levels -1..1 spans -2..2.

Applied twice to the minimal complex of an [n, k, d] classical code
with k >= 1 this yields a quantum code on n^4 + 4 n^2 (n-k)^2 + (n-k)^4
qubits with k^4 logical qubits, distance exactly d^2, infinite
single-shot distance, and check redundancy below 2.  product_params
gives every parameter of either product exactly, for any input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import gf2
from .chain import (
    ChainComplex,
    Distance,
    betti_number,
    homological_distance,
    cohomological_distance,
)

__all__ = [
    "minimal_complex",
    "single_product",
    "double_product",
    "ProductParams",
    "product_params",
    "redundancy",
    "double_distance_witness",
]


def minimal_complex(h) -> ChainComplex:
    """Length-1 complex of a full-row-rank parity check matrix.

    Redundant check sets are rejected; callers that want redundancy
    build ChainComplex([h]) directly.
    """
    h = gf2.as_bin(h)
    r = gf2.rank(h)
    if r != h.shape[0]:
        raise ValueError(
            f"not minimal: check matrix has {h.shape[0]} rows but rank {r}"
        )
    return ChainComplex([h], j_min=0)


def single_product(a: ChainComplex) -> ChainComplex:
    """Homological product of a length-1 complex with itself."""
    if a.length != 1:
        raise ValueError("single_product expects length-1 complexes")
    return _tensor(a, a)


def double_product(a: ChainComplex) -> ChainComplex:
    """Homological product of a length-2 complex with itself."""
    if a.length != 2:
        raise ValueError("double_product expects length-2 complexes")
    if a.j_min != -1:
        raise ValueError("double_product expects levels -1..1")
    return _tensor(a, a)


def _tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """x (x) y*, by the block rule of the module docstring, as a complex
    that is valid by construction like its factors.  A square, x (x) x*,
    records x as its factor; any other product has none.

    Each map is built from its support: for each one (r, c) of an n_r x n_c
    factor map d, kron(d, I_n) has ones at (r*n + b, c*n + b), b < n, and
    kron(I_m, d^T) at (a*n_c + c, a*n_r + r), a < m.  The map and its
    transpose keep that support (gf2._from_support), so none is scanned.
    """
    levels: dict[int, list[tuple[int, int]]] = {}
    for i in x.levels():
        for j in y.levels():
            levels.setdefault(i - j, []).append((i, j))
    # each component's first row or column within its level, and each level's size
    start, size = {}, {}
    for m, components in levels.items():
        size[m] = 0
        for i, j in components:
            start[i, j] = size[m]
            size[m] += x.size(i) * y.size(j)
    maps = []
    for m in range(min(levels), max(levels)):
        rows, cols = [], []
        for i, j in levels[m]:
            if x.has_level(i + 1):
                r, c = gf2._support(x.delta(i))
                b = np.arange(y.size(j))
                rows.append(start[i + 1, j] + (r[:, np.newaxis] * b.size + b).ravel())
                cols.append(start[i, j] + (c[:, np.newaxis] * b.size + b).ravel())
            if y.has_level(j - 1):
                r, c = gf2._support(y.delta(j - 1))
                n_r, n_c = y.delta(j - 1).shape
                a = np.arange(x.size(i))[:, np.newaxis]
                rows.append(start[i, j - 1] + (a * n_c + c).ravel())
                cols.append(start[i, j] + (a * n_r + r).ravel())
        shape = (size[m + 1], size[m])
        maps.append(gf2._from_support(shape, np.concatenate(rows), np.concatenate(cols)))
    out = ChainComplex(maps, j_min=min(levels))
    if x is y:
        out._factor = x
    return out


@dataclass(frozen=True)
class ProductParams:
    """Every parameter of a single or double product, each one exact."""

    level_sizes: dict[int, int]
    level_bettis: dict[int, int]
    distances: dict[str, Distance]
    redundancy: Fraction

    def to_json(self) -> dict:
        return {
            "level_sizes": {str(j): n for j, n in sorted(self.level_sizes.items())},
            "level_bettis": {str(j): k for j, k in sorted(self.level_bettis.items())},
            "distances": {
                name: d.to_json() for name, d in sorted(self.distances.items())
            },
            "redundancy": str(self.redundancy),
        }


def product_params(a: ChainComplex, stages: int = 2) -> ProductParams:
    """Parameters of single_product(a) (stages=1) or of
    double_product(single_product(a)) (stages=2), all levels, in closed form.

    Distance keys follow the chain-module calls: "d_j" is
    homological_distance(p, j) and "d_j^T" is cohomological_distance(p, j),
    whose vectors sit at level j+1.  So the qubit-level distances are "d_0"
    and "d_-1^T", and the metacheck-level ones (the single-shot distance)
    "d_1" and "d_-2^T".

    Derivation.  _tensor(x, y), behind both products, builds x (x) y*
    (see the module docstring): level m holds x_i (x) y_j over
    i - j = m.  So level m has size sum n_i(x) n_j(y) and, by the Kunneth
    formula over a field, Betti number sum k_i(x) k_j(y) over i - j = m,
    since the homology of y* at level -j is the cohomology of y at level
    j, of the same dimension.
    When one factor is a two-term complex (a single map), the distances of
    a tensor product are exact products too (Zeng and Pryadko,
    arXiv:2007.12152; see also arXiv:1810.01519):

        d_m(x (x) y*)   = min over i - j = m of d_i(x) * d^j(y)
        d^m(x (x) y*)   = min over i - j = m of d^i(x) * d_j(y)

    with d_i the least weight of a nontrivial cycle at level i, d^i that of
    a nontrivial cocycle, and a term infinite when either factor's
    (co)homology at that level is trivial.  double_product(s, s) with
    s = a (x) a* is a (x) a* (x) a* (x) a up to a permutation of basis
    vectors, which keeps weights; each step of that iterated product has
    a two-term right factor, so the rule is exact at every step.  Products
    distribute over min, so the four-fold min of products equals the rule
    applied once more to s's own distances.  The loop below applies the
    three rules once per stage.  The only enumeration is over a's two
    levels: ker H, C1 minus im H, ker H^T and C0 minus row(H), each
    searched to full weight, so every result is exact.  A full-rank
    [n, k, d] input with k >= 1 gets d^2 at the qubit level of the double
    product and an infinite single-shot distance.  The redundancy follows
    from the sizes and the level-0 Betti number.
    """
    if a.length != 1:
        raise ValueError("product_params expects a length-1 complex")
    if stages not in (1, 2):
        raise ValueError("stages must be 1 (single product) or 2 (double product)")
    # per level: size, Betti number, homological and cohomological distance
    levels = {
        j: (
            a.size(j),
            betti_number(a, j),
            homological_distance(a, j, max(a.size(j), 1)).value,
            cohomological_distance(a, j - 1, max(a.size(j), 1)).value,
        )
        for j in a.levels()
    }
    for _ in range(stages):
        new: dict[int, tuple[int, int, float, float]] = {}
        for i, (n_i, k_i, hom_i, cohom_i) in levels.items():
            for j, (n_j, k_j, hom_j, cohom_j) in levels.items():
                n, k, hom, cohom = new.get(i - j, (0, 0, math.inf, math.inf))
                new[i - j] = (
                    n + n_i * n_j,
                    k + k_i * k_j,
                    min(hom, hom_i * cohom_j),
                    min(cohom, cohom_i * hom_j),
                )
        levels = new
    ordered = sorted(levels.items())
    sizes = {m: v[0] for m, v in ordered}
    bettis = {m: v[1] for m, v in ordered}
    distances = {f"d_{m}": Distance(v[2], "exact") for m, v in ordered}
    distances.update({f"d_{m - 1}^T": Distance(v[3], "exact") for m, v in ordered})
    return ProductParams(sizes, bettis, distances, _redundancy(sizes, bettis[0]))


def redundancy(c: ChainComplex) -> Fraction:
    """(n_1 + n_{-1}) / (n_0 - k_0) from actual dimensions and ranks."""
    if not (c.has_level(-1) and c.has_level(1)):
        raise ValueError("redundancy needs check levels on both sides of level 0")
    return _redundancy({j: c.size(j) for j in (-1, 0, 1)}, betti_number(c, 0))


def _redundancy(sizes: dict[int, int], k0: int) -> Fraction:
    """(n_1 + n_{-1}) / (n_0 - k_0) from level sizes and the level-0 Betti number."""
    if sizes[0] == k0:
        raise ValueError("redundancy undefined: no independent checks (n_0 = k_0)")
    return Fraction(sizes[1] + sizes[-1], sizes[0] - k0)


def double_distance_witness(breve: ChainComplex, max_weight: int) -> Optional[np.ndarray]:
    """A qubit-level logical of the double product breve in product form.

    Full enumeration at the double product's scale is hopeless, so the
    candidates are outer products of a minimum-weight middle-level cycle
    with a minimum-weight middle-level cocycle of breve.factor, the
    complex it squares; their weights multiply.  Returns a verified
    nontrivial-cycle witness, or None when the search floor finds nothing.
    """
    tilde = breve.factor
    if tilde is None or tilde.length != 2:
        raise ValueError(f"{breve!r} is not a double product")
    cycle = homological_distance(tilde, 0, max_weight)
    cocycle = cohomological_distance(tilde, -1, max_weight)
    if cycle.witness is None or cocycle.witness is None:
        return None
    # the outer product fills the middle block of level 0, tilde_0 (x) tilde_0
    start = tilde.size(-1) ** 2
    r = np.zeros(breve.size(0), dtype=np.uint8)
    r[start : start + tilde.size(0) ** 2] = np.outer(cycle.witness, cocycle.witness).ravel()
    if gf2.mat_vec(breve.delta(0), r).any():
        return None
    if gf2.get_solver(breve.delta(-1)).in_image(r):
        return None  # landed in the trivial class
    return r
