"""Single and double homological products of chain complexes.

Conventions that pin the constructions down bit-exactly:

* Tensor indices are row-major with the LEFT factor major, i.e. the
  basis vector a_i (x) b_j of A (x) B sits at flat index i*dim(B) + j.
  This matches numpy.kron, so every block below is a kron product.

* The product of two length-1 complexes A: A0 -> A1 and B: B0 -> B1 is
  the length-2 complex

      A0(x)B1  ->  (A0(x)B0) + (A1(x)B1)  ->  A1(x)B0

  with first map stack(I (x) dB^T ; dA (x) I) and second map
  concat(dA (x) I | I (x) dB^T).  The A0(x)B0 block always comes first
  in the middle level.

* The product of two length-2 complexes (levels -1..1) is the length-4
  complex with component spaces  C_m = sum over i-j=m of A_i (x) B_j,
  components ordered by ascending i.

Applied twice to the minimal complex of an [n, k, d] classical code
with k >= 1 this yields a quantum code on n^4 + 4 n^2 (n-k)^2 + (n-k)^4
qubits with k^4 logical qubits, distance exactly d^2, infinite
single-shot distance, and check redundancy below 2.  product_distances
gives every distance of either product exactly, for any input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    require_valid,
)

__all__ = [
    "minimal_complex",
    "single_product",
    "double_product",
    "ProductPrediction",
    "predict_single",
    "predict_double",
    "predict_params",
    "product_distances",
    "redundancy",
]


def _eye(n: int) -> np.ndarray:
    return gf2.identity(n)


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


def single_product(
    a: ChainComplex, b: Optional[ChainComplex] = None
) -> ChainComplex:
    """Homological product of two length-1 complexes (default: a with itself)."""
    if b is None:
        b = a
    if a.length != 1 or b.length != 1:
        raise ValueError("single_product expects length-1 complexes")
    da, db = a.delta(a.j_min), b.delta(b.j_min)
    na0, na1 = da.shape[1], da.shape[0]
    nb0, nb1 = db.shape[1], db.shape[0]
    d_low = np.vstack(
        [
            np.kron(_eye(na0), db.T),
            np.kron(da, _eye(nb1)),
        ]
    )
    d_high = np.hstack(
        [
            np.kron(da, _eye(nb0)),
            np.kron(_eye(na1), db.T),
        ]
    )
    return require_valid(ChainComplex([d_low, d_high], j_min=-1))


def double_product(
    a: ChainComplex, b: Optional[ChainComplex] = None
) -> ChainComplex:
    """Homological product of two length-2 complexes (default: a with itself).

    Only the product is validated: a factor with d.d != 0 gives the
    product a nonzero composition too.
    """
    if b is None:
        b = a
    if a.length != 2 or b.length != 2:
        raise ValueError("double_product expects length-2 complexes")
    if a.j_min != -1 or b.j_min != -1:
        raise ValueError("double_product expects levels -1..1")
    a_low, a_high = a.delta(-1), a.delta(0)
    b_low, b_high = b.delta(-1), b.delta(0)
    na = {j: a.size(j) for j in (-1, 0, 1)}
    nb = {j: b.size(j) for j in (-1, 0, 1)}

    d_m2 = np.vstack(
        [
            np.kron(_eye(na[-1]), b_high.T),
            np.kron(a_low, _eye(nb[1])),
        ]
    )
    d_m1 = np.vstack(
        [
            np.hstack(
                [np.kron(_eye(na[-1]), b_low.T), gf2.zeros(na[-1] * nb[-1], na[0] * nb[1])]
            ),
            np.hstack(
                [np.kron(a_low, _eye(nb[0])), np.kron(_eye(na[0]), b_high.T)]
            ),
            np.hstack(
                [gf2.zeros(na[1] * nb[1], na[-1] * nb[0]), np.kron(a_high, _eye(nb[1]))]
            ),
        ]
    )
    d_0 = np.vstack(
        [
            np.hstack(
                [
                    np.kron(a_low, _eye(nb[-1])),
                    np.kron(_eye(na[0]), b_low.T),
                    gf2.zeros(na[0] * nb[-1], na[1] * nb[1]),
                ]
            ),
            np.hstack(
                [
                    gf2.zeros(na[1] * nb[0], na[-1] * nb[-1]),
                    np.kron(a_high, _eye(nb[0])),
                    np.kron(_eye(na[1]), b_high.T),
                ]
            ),
        ]
    )
    d_1 = np.hstack(
        [
            np.kron(a_high, _eye(nb[-1])),
            np.kron(_eye(na[1]), b_low.T),
        ]
    )
    complex_ = ChainComplex([d_m2, d_m1, d_0, d_1], j_min=-2)
    # the complex holds read-only copies; free the originals before the
    # validation products reach peak memory
    del d_m2, d_m1, d_0, d_1
    return require_valid(complex_)


@dataclass
class ProductPrediction:
    """Closed-form parameter predictions for a product, kept separate from
    (and cross-checked against) whatever the chain module measures."""

    level_sizes: dict[int, int]
    level_bettis: dict[int, int]
    distance_bounds: dict[str, "DistanceBound"]
    redundancy_bound: Fraction
    redundancy_is_exact: bool
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "level_sizes": {str(j): n for j, n in sorted(self.level_sizes.items())},
            "level_bettis": {str(j): k for j, k in sorted(self.level_bettis.items())},
            "distance_bounds": {
                name: bound.to_json()
                for name, bound in sorted(self.distance_bounds.items())
            },
            "redundancy_bound": str(self.redundancy_bound),
            "redundancy_is_exact": self.redundancy_is_exact,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class DistanceBound:
    """Either an identity (kind == "equals") or a lower bound on a distance."""

    kind: str
    value: float
    status: str

    def to_json(self) -> dict:
        v = "inf" if math.isinf(self.value) else int(self.value)
        return {"kind": self.kind, "value": v, "status": self.status}


def _distance_product(x: Distance, y: Distance) -> DistanceBound:
    if math.isinf(x.value) or math.isinf(y.value):
        return DistanceBound("equals", math.inf, "exact")
    status = "exact" if x.is_exact() and y.is_exact() else "lower_bound"
    return DistanceBound("equals", x.value * y.value, status)


def _distance_min(x: Distance, y: Distance) -> tuple[float, str]:
    value = min(x.value, y.value)
    chosen = x if x.value <= y.value else y
    return value, chosen.status


def predict_single(
    c: ChainComplex, max_weight: int = 6
) -> ProductPrediction:
    """Predicted parameters of single_product(c, c) from c's own invariants."""
    if c.length != 1:
        raise ValueError("predict_single expects a length-1 complex")
    n0, n1 = c.size(0), c.size(1)
    k0, k1 = betti_number(c, 0), betti_number(c, 1)
    d0 = homological_distance(c, 0, max_weight)
    d0t = cohomological_distance(c, 0, max_weight)
    sizes = {-1: n0 * n1, 0: n0 * n0 + n1 * n1, 1: n1 * n0}
    bettis = {-1: k0 * k1, 0: k0 * k0 + k1 * k1, 1: k1 * k0}
    min_val, min_status = _distance_min(d0, d0t)
    bounds = {
        "d_-1": _distance_product(d0, d0t),
        "d_0^T": _distance_product(d0, d0t),
        "d_0": DistanceBound("at_least", min_val, min_status),
        "d_-1^T": DistanceBound("at_least", min_val, min_status),
    }
    # Check redundancy of the product in closed form: with input
    # redundancy u = n1/(n0-k0), the product has u*n0/(u*(n0-k0)+k0),
    # which is exactly 1 whenever u is 1.
    if n0 == k0:
        raise ValueError("input code has no checks to speak of (n = k)")
    u = Fraction(n1, n0 - k0)
    u_new = u * Fraction(n0, 1) / (u * (n0 - k0) + k0)
    notes = []
    if u == 1:
        notes.append("input has no check redundancy, so neither does the product")
    return ProductPrediction(sizes, bettis, bounds, u_new, True, notes)


def predict_double(
    c: ChainComplex, max_weight: int = 6
) -> ProductPrediction:
    """Predicted parameters of double_product(c, c) from c's own invariants."""
    if c.length != 2 or c.j_min != -1:
        raise ValueError("predict_double expects a length-2 complex at levels -1..1")
    n = {j: c.size(j) for j in (-1, 0, 1)}
    k = {j: betti_number(c, j) for j in (-1, 0, 1)}
    sizes = {
        -2: n[-1] * n[1],
        -1: n[-1] * n[0] + n[0] * n[1],
        0: n[-1] * n[-1] + n[0] * n[0] + n[1] * n[1],
        1: n[0] * n[-1] + n[1] * n[0],
        2: n[1] * n[-1],
    }
    bettis = {
        -2: k[-1] * k[1],
        -1: k[-1] * k[0] + k[0] * k[1],
        0: k[-1] * k[-1] + k[0] * k[0] + k[1] * k[1],
        1: k[0] * k[-1] + k[1] * k[0],
        2: k[1] * k[-1],
    }
    d0 = homological_distance(c, 0, max_weight)
    dm1 = homological_distance(c, -1, max_weight)
    d0t = cohomological_distance(c, 0, max_weight)
    dm1t = cohomological_distance(c, -1, max_weight)
    inner = max(d0.value, dm1t.value)
    qubit_level_bound = min(dm1.value, inner, d0t.value)
    meta_level_bound = min(d0.value, dm1t.value)
    statuses = [d0.status, dm1.status, d0t.status, dm1t.status]
    status = "exact" if all(s == "exact" for s in statuses) else "lower_bound"
    bounds = {
        "d_0": DistanceBound("at_least", qubit_level_bound, status),
        "d_-1^T": DistanceBound("at_least", qubit_level_bound, status),
        "d_1": DistanceBound("at_least", meta_level_bound, status),
        "d_-2^T": DistanceBound("at_least", meta_level_bound, status),
    }
    u_in = redundancy(c)
    return ProductPrediction(
        sizes,
        bettis,
        bounds,
        2 * u_in,
        False,
        ["redundancy bound is strict: the product stays below twice the input's"],
    )


def predict_params(c: ChainComplex, max_weight: int = 6) -> ProductPrediction:
    """Dispatch on complex length: predict the next product stage."""
    if c.length == 1:
        return predict_single(c, max_weight)
    if c.length == 2:
        return predict_double(c, max_weight)
    raise ValueError(f"no product prediction for a length-{c.length} complex")


def product_distances(a: ChainComplex, stages: int = 2) -> dict[str, Distance]:
    """Exact distances of single_product(a) (stages=1) or of
    double_product(single_product(a)) (stages=2), all levels, in closed form.

    Keys follow the chain-module calls: "d_j" is homological_distance(p, j)
    and "d_j^T" is cohomological_distance(p, j), whose vectors sit at
    level j+1.  So the qubit-level distances are "d_0" and "d_-1^T", and
    the metacheck-level ones (the single-shot distance) "d_1" and "d_-2^T".

    Derivation.  single_product(x, y) is x (x) y*, where y* is y with its
    levels negated and its maps transposed: level m holds x_i (x) y_j over
    i - j = m.  Homology of y* at level -j is cohomology of y at level j.
    When one factor is a two-term complex (a single map), the distances
    of a tensor product are exact products (Zeng and Pryadko,
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
    applied once more to s's own distances, which is what the loop below
    does.  The only enumeration is over a's two levels: ker H, C1 minus
    im H, ker H^T and C0 minus row(H), each searched to full weight, so
    every result is exact.  A full-rank [n, k, d] input with k >= 1 gets
    d^2 at the qubit level of the double product and an infinite
    single-shot distance.
    """
    if a.length != 1:
        raise ValueError("product_distances expects a length-1 complex")
    if stages not in (1, 2):
        raise ValueError("stages must be 1 (single product) or 2 (double product)")
    hom = {
        j: homological_distance(a, j, max(a.size(j), 1)).value for j in a.levels()
    }
    cohom = {
        j: cohomological_distance(a, j - 1, max(a.size(j), 1)).value
        for j in a.levels()
    }
    for _ in range(stages):
        new_hom: dict[int, float] = {}
        new_cohom: dict[int, float] = {}
        for i in hom:
            for j in hom:
                m = i - j
                new_hom[m] = min(new_hom.get(m, math.inf), hom[i] * cohom[j])
                new_cohom[m] = min(new_cohom.get(m, math.inf), cohom[i] * hom[j])
        hom, cohom = new_hom, new_cohom
    out = {f"d_{m}": Distance(v, "exact") for m, v in sorted(hom.items())}
    out.update({f"d_{m - 1}^T": Distance(v, "exact") for m, v in sorted(cohom.items())})
    return out


def redundancy(c: ChainComplex) -> Fraction:
    """(n_1 + n_{-1}) / (n_0 - k_0) from actual dimensions and ranks."""
    if not (c.has_level(-1) and c.has_level(1)):
        raise ValueError("redundancy needs check levels on both sides of level 0")
    n0 = c.size(0)
    k0 = betti_number(c, 0)
    if n0 == k0:
        raise ValueError("redundancy undefined: no independent checks (n_0 = k_0)")
    return Fraction(c.size(1) + c.size(-1), n0 - k0)


def double_distance_witness(
    tilde: ChainComplex, breve: ChainComplex, max_weight: int = 6
) -> Optional[np.ndarray]:
    """A qubit-level logical of the double product in product form.

    Full enumeration at the double product's scale is hopeless, so the
    candidates are outer products of a minimum-weight middle-level cycle
    with a minimum-weight middle-level cocycle of the input complex;
    their weights multiply.  Returns a verified nontrivial-cycle witness,
    or None when the search floor finds nothing.
    """
    cycle = homological_distance(tilde, 0, max_weight)
    cocycle = cohomological_distance(tilde, -1, max_weight)
    if cycle.witness is None or cocycle.witness is None:
        return None
    block = np.outer(cycle.witness, cocycle.witness).astype(np.uint8)
    n_a = tilde.size(-1) ** 2
    n_c = tilde.size(1) ** 2
    r = np.concatenate(
        [
            np.zeros(n_a, dtype=np.uint8),
            gf2.flatten_matrix(block),
            np.zeros(n_c, dtype=np.uint8),
        ]
    )
    if gf2.mat_vec(breve.delta(0), r).any():
        return None
    if gf2.get_solver(breve.delta(-1)).in_image(r):
        return None  # landed in the trivial class
    return r
