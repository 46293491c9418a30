"""Chain complexes over GF(2).

A complex is a tuple of boundary maps d_j : C_j -> C_{j+1} for
j = j_min .. j_max-1, with adjacent maps composing to zero.  Level 0 is
the qubit (or bit) level.  Missing maps at either end are treated as
zero matrices of the appropriate shape, so homology is defined at every
level including the endpoints.

A ChainComplex is valid by construction: its constructor checks each
adjacent pair once and raises ValidationError on the first fault, so no
caller can hold, build on or save an invalid complex.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2

__all__ = [
    "ChainComplex",
    "Distance",
    "ValidationError",
    "validate",
    "betti_number",
    "homological_distance",
    "cohomological_distance",
    "save_complex",
    "load_complex",
    "DEFAULT_DISTANCE_BUDGET",
]

DEFAULT_DISTANCE_BUDGET = 6


class ValidationError(ValueError):
    """A complex violates dimension compatibility or d.d = 0."""


@dataclass(frozen=True)
class Distance:
    """A minimum nontrivial-cycle weight, or a certified lower bound.

    status is "exact" when the value is the true distance (including
    math.inf for trivial homology) and "lower_bound" when enumeration
    exhausted its budget: the true distance is then >= value.
    """

    value: float
    status: str
    witness: Optional[np.ndarray] = None

    def is_exact(self) -> bool:
        return self.status == "exact"

    def to_json(self) -> dict:
        v = "inf" if math.isinf(self.value) else int(self.value)
        return {"value": v, "status": self.status}


def _frozen(b) -> np.ndarray:
    """A read-only 0/1 array that owns its memory, so no caller can change a
    map behind the memos: b itself if it is one (a product's map, another
    complex's: its memos are kept), else a copy reduced mod 2 whatever the
    dtype (as_bin passes uint8 through as it is)."""
    m = gf2.as_bin(b)
    owner = m.base is None and m.flags.c_contiguous and not m.flags.writeable
    if owner and m.max(initial=0) <= 1:
        return m
    m = np.bitwise_and(m, 1, order="C")
    m.setflags(write=False)
    return m


class ChainComplex:
    """Boundary maps d_{j_min} .. d_{j_max-1} with the qubit level at 0.

    Valid by construction: the constructor runs validate once and raises
    ValidationError on a fault.  The maps are a tuple of read-only 0/1
    arrays (see _frozen), so the complex stays valid and the ranks
    memoised on each map (gf2.memo) always describe them.
    factor, read-only, is the complex a product squares, set by product;
    None for a complex built or loaded any other way.
    """

    _factor: Optional[ChainComplex] = None

    def __init__(self, boundaries, j_min: int = 0) -> None:
        if not boundaries:
            raise ValueError("a complex needs at least one boundary map")
        self.boundaries = tuple(_frozen(b) for b in boundaries)
        self.j_min = j_min
        # the zero maps out of the end levels, held like the others so each
        # call returns the same read-only array and the memos on it hold
        self._below = _frozen(gf2.zeros(self.size(j_min), 0))
        self._above = _frozen(gf2.zeros(0, self.size(self.j_max)))
        fault = validate(self)
        if fault is not None:
            raise ValidationError(fault)

    @property
    def factor(self) -> Optional[ChainComplex]:
        return self._factor

    @property
    def j_max(self) -> int:
        return self.j_min + len(self.boundaries)

    @property
    def length(self) -> int:
        return len(self.boundaries)

    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def has_level(self, j: int) -> bool:
        return self.j_min <= j <= self.j_max

    def size(self, j: int) -> int:
        """Dimension of C_j."""
        self._check_level(j)
        if j < self.j_max:
            return self.boundaries[j - self.j_min].shape[1]
        return self.boundaries[-1].shape[0]

    def delta(self, j: int) -> np.ndarray:
        """Boundary map out of level j; zero matrix beyond the ends."""
        if self.j_min <= j < self.j_max:
            return self.boundaries[j - self.j_min]
        if j == self.j_max:
            return self._above
        if j == self.j_min - 1:
            return self._below
        raise ValueError(f"no level {j} in complex spanning {self.j_min}..{self.j_max}")

    def rank(self, j: int) -> int:
        """Rank of delta(j), memoised on the map."""
        if j < self.j_min or j >= self.j_max:
            return 0
        return gf2.memo(self.delta(j), "rank", gf2.rank)

    def _check_level(self, j: int) -> None:
        if not self.has_level(j):
            raise ValueError(
                f"no level {j} in complex spanning {self.j_min}..{self.j_max}"
            )

    def __repr__(self) -> str:
        sizes = ", ".join(str(self.size(j)) for j in self.levels())
        return f"ChainComplex(levels {self.j_min}..{self.j_max}, sizes [{sizes}])"


def validate(complex_: ChainComplex) -> Optional[str]:
    """None when the complex is valid, else a message naming the first fault.

    Checks that adjacent maps have matching dimensions and compose to
    zero, asking gf2.product_is_zero of each pair (the products are never
    formed).  The ChainComplex constructor runs it once on each complex,
    which is therefore valid by construction.
    """
    for j in range(complex_.j_min, complex_.j_max - 1):
        lower = complex_.delta(j)
        upper = complex_.delta(j + 1)
        if upper.shape[1] != lower.shape[0]:
            return (
                f"dimension mismatch between levels {j} and {j + 1}: "
                f"d_{j} has {lower.shape[0]} rows, d_{j + 1} has {upper.shape[1]} columns"
            )
        if not gf2.product_is_zero(upper, lower):
            return f"composition d_{j + 1} d_{j} is nonzero"
    return None


def betti_number(complex_: ChainComplex, j: int) -> int:
    """dim ker(d_j) - rank(d_{j-1})."""
    complex_._check_level(j)
    nullity = complex_.size(j) - complex_.rank(j)
    return nullity - complex_.rank(j - 1)


def _distance_search(
    kernel_map: np.ndarray,
    image_map: np.ndarray,
    homology_dim: int,
    max_weight: int,
) -> Distance:
    if homology_dim == 0:
        return Distance(math.inf, "exact")
    # the image is eliminated at the first cycle found, so a search that finds
    # none builds no solver; a map with no columns (out of an end level) has
    # image {0}, so every nonzero cycle is nontrivial and none is ever built
    image_solver = None
    for c in gf2.kernel_vectors_by_weight(kernel_map, max_weight):
        if image_solver is None and image_map.size:
            image_solver = gf2.get_solver(image_map)
        if image_solver is None or not image_solver.in_image(c):
            return Distance(float(gf2.weight(c)), "exact", c)
    return Distance(float(max_weight + 1), "lower_bound")


def homological_distance(
    complex_: ChainComplex, j: int, max_weight: int = DEFAULT_DISTANCE_BUDGET
) -> Distance:
    """Least weight over ker(d_j) \\ im(d_{j-1}), searched up to max_weight.

    Infinite (exactly) when the homology at level j is trivial; a
    lower-bound result of max_weight+1 when the budget is exhausted.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    return _distance_search(
        complex_.delta(j),
        complex_.delta(j - 1),
        betti_number(complex_, j),
        max_weight,
    )


def cohomological_distance(
    complex_: ChainComplex, j: int, max_weight: int = DEFAULT_DISTANCE_BUDGET
) -> Distance:
    """Mirror of homological_distance for ker(d_j^T) \\ im(d_{j+1}^T).

    The candidate vectors live at level j+1, so the relevant homology
    dimension is the one at level j+1 and the result is infinite exactly
    when that homology is trivial.  Valid for j_min-1 <= j <= j_max.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if not (complex_.j_min - 1 <= j <= complex_.j_max):
        raise ValueError(
            f"no transpose map at level {j} in complex spanning "
            f"{complex_.j_min}..{complex_.j_max}"
        )
    if j == complex_.j_max:
        return Distance(math.inf, "exact")
    return _distance_search(
        complex_.delta(j).T,
        complex_.delta(j + 1).T,
        betti_number(complex_, j + 1),
        max_weight,
    )


# -- serialization -------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"


def save_complex(dirpath, complex_: ChainComplex) -> None:
    """Write the manifest plus one .pcm file per boundary map."""
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, MANIFEST_NAME), "w", encoding="ascii") as fh:
        fh.write(f"LEVELS {complex_.j_min} {complex_.j_max} QUBIT_LEVEL 0\n")
    for j in range(complex_.j_min, complex_.j_max):
        gf2.write_pcm(os.path.join(dirpath, f"delta_{j}.pcm"), complex_.delta(j))


def load_complex(dirpath) -> ChainComplex:
    manifest = os.path.join(dirpath, MANIFEST_NAME)
    with open(manifest, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    # the qubit level is always 0, and save_complex writes nothing else
    if len(tokens) != 5 or tokens[0] != "LEVELS" or tokens[3:] != ["QUBIT_LEVEL", "0"]:
        raise ValueError(f"bad manifest {manifest!r}")
    j_min, j_max = int(tokens[1]), int(tokens[2])
    boundaries = [
        gf2.read_pcm(os.path.join(dirpath, f"delta_{j}.pcm"))
        for j in range(j_min, j_max)
    ]
    return ChainComplex(boundaries, j_min=j_min)
