"""CSS-code view of a chain complex: checks, syndromes, metachecks, reports.

Level conventions: qubits sit at level 0.  Z checks (detecting X errors)
are the rows of d_0; X checks (detecting Z errors) are the rows of
d_{-1}^T.  A length-4 complex additionally carries metachecks: d_1 on
the Z-syndrome bits and d_{-2}^T on the X-syndrome bits.
"""

from __future__ import annotations

import functools
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
    cohomological_distance,
    homological_distance,
)

__all__ = [
    "CssCode",
    "NotACssComplex",
    "PauliError",
    "Syndrome",
    "CodeReport",
    "from_complex",
    "pauli_min_weight",
    "combine_distances",
    "qubit_distance",
    "single_shot_distance",
    "code_report",
]


@dataclass(frozen=True)
class PauliError:
    """X[e] Z[f] in binary form: e flags X action, f flags Z action."""

    e: np.ndarray
    f: np.ndarray

    @staticmethod
    def identity(n: int) -> "PauliError":
        return PauliError(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    def compose(self, other: "PauliError") -> "PauliError":
        return PauliError(self.e ^ other.e, self.f ^ other.f)

    def weight(self) -> int:
        return int(np.count_nonzero(self.e | self.f))

    def is_identity(self) -> bool:
        return not (self.e.any() or self.f.any())


@dataclass(frozen=True)
class Syndrome:
    """Z-check outcomes (from X errors) and X-check outcomes (from Z errors)."""

    z_part: np.ndarray
    x_part: np.ndarray

    def weight(self) -> int:
        return int(self.z_part.sum()) + int(self.x_part.sum())

    def compose(self, other: "Syndrome") -> "Syndrome":
        return Syndrome(self.z_part ^ other.z_part, self.x_part ^ other.x_part)


class NotACssComplex(ValueError):
    """A complex whose length, levels or all-zero check maps give no CSS code."""


def _transposed(m: np.ndarray) -> np.ndarray:
    """m.T as a read-only array that owns its memory, built from m.T's
    support: gf2.memo finds facts about an owner about twice as fast as
    about a transposed view."""
    return gf2._from_support(m.shape[::-1], *gf2._support(m.T))


def _cokernel_rows(h: np.ndarray, known: Optional[np.ndarray], betti: int, what: str) -> np.ndarray:
    """gf2.cokernel_rows(h, known), which must hold `betti` rows."""
    rows = gf2.cokernel_rows(h, known)
    if len(rows) != betti:
        raise AssertionError(f"{len(rows)} {what} rows, but the Betti number is {betti}")
    return rows


class CssCode:
    """Checks and metachecks of a CSS code read off a chain complex.

    Built only from a complex, which is valid by construction: its
    d.d = 0 is what makes the checks commute and the metachecks
    annihilate them, so the code repeats none of those products.  The
    X-side matrices are transposes of the complex's maps, copied on first
    use into their own read-only arrays (see _transposed).
    """

    def __init__(self, complex_: ChainComplex) -> None:
        if complex_.length not in (2, 4):
            raise NotACssComplex(
                f"need a length-2 or length-4 complex with qubits at level 0, "
                f"got length {complex_.length}"
            )
        expected_min = -1 if complex_.length == 2 else -2
        if complex_.j_min != expected_min:
            raise NotACssComplex(
                f"length-{complex_.length} complex must span levels "
                f"{expected_min}..{expected_min + complex_.length}"
            )
        self._complex = complex_
        self.z_checks = complex_.delta(0)
        self.n = self.z_checks.shape[1]
        if not (self.z_checks.any() or complex_.delta(-1).any()):
            raise NotACssComplex(f"no independent checks: all {self.n} qubits are logical")
        self.z_metachecks = complex_.delta(1) if complex_.length == 4 else None

    @functools.cached_property
    def x_checks(self) -> np.ndarray:
        return _transposed(self._complex.delta(-1))

    @functools.cached_property
    def x_metachecks(self) -> Optional[np.ndarray]:
        return _transposed(self._complex.delta(-2)) if self.has_metachecks else None

    @property
    def has_metachecks(self) -> bool:
        return self.z_metachecks is not None

    @property
    def num_z_checks(self) -> int:
        return self.z_checks.shape[0]

    @property
    def num_x_checks(self) -> int:
        return self._complex.delta(-1).shape[1]

    def syndrome(self, error: PauliError) -> Syndrome:
        if error.e.shape[0] != self.n or error.f.shape[0] != self.n:
            raise ValueError(f"error length does not match {self.n} qubits")
        return Syndrome(
            gf2.mat_vec(self.z_checks, error.e),
            gf2.mat_vec(self.x_checks, error.f),
        )

    @functools.cached_property
    def syndrome_obstructions(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only obstruction rows of the Z and X syndrome sides.

        On a side with checks H and metachecks M (none on a length-2
        code), the rows span ker(H^T) modulo M's row space: a syndrome s
        with M s = 0 is an image H e exactly when every row has even
        overlap with s.  Their number is the Betti number at the syndrome
        level (1 for Z, -1 for X), so a code with no homology there
        (d_ss infinite, as on the 241-qubit code) has no rows and never
        fails.  Computed once per code.
        """
        sides = ((self.z_checks, self.z_metachecks, 1), (self.x_checks, self.x_metachecks, -1))
        return tuple(
            _cokernel_rows(h, m, betti_number(self._complex, j), "syndrome obstruction")
            for h, m, j in sides
        )

    def obstructed(self, s: Syndrome) -> bool:
        """Does some obstruction row have odd overlap with s?  For a
        metacheck-consistent s, exactly when no Pauli has syndrome s."""
        z_rows, x_rows = self.syndrome_obstructions
        return bool(
            (len(z_rows) and gf2.mat_vec(z_rows, s.z_part).any())
            or (len(x_rows) and gf2.mat_vec(x_rows, s.x_part).any())
        )

    def coset_annihilator(self, side: str) -> np.ndarray:
        """Read-only matrix B whose kernel is the stabiliser span on one side.

        side "x": X-error vectors are stabiliser-equivalent iff they have
        the same image under B.  The X-type stabilisers span x_checks' row
        space, which is ker B when B's rows span ker(x_checks): B is the Z
        checks stacked over k Z logical representatives, the rows of
        ker(x_checks) = {y : y d_-1 = 0} outside the Z checks' span.  side
        "z" mirrors: the X checks over k X logicals.  Memoised on the
        check matrix.
        """
        if side == "x":
            span, checks, h = self.x_checks, self.z_checks, self._complex.delta(-1)
        else:
            span, checks, h = self.z_checks, self.x_checks, self.z_checks.T

        def build(_) -> np.ndarray:
            logicals = _cokernel_rows(h, checks, betti_number(self._complex, 0), "logical")
            ann = np.vstack([checks, logicals])
            ann.setflags(write=False)
            return ann

        return gf2.memo(span, "annihilator", build)


def from_complex(complex_: ChainComplex) -> CssCode:
    """Read checks (and metachecks, when present) off a complex."""
    return CssCode(complex_)


def _coset_supports(code: CssCode, side: str, v: np.ndarray, budget: int) -> list[int]:
    """All vectors of weight <= budget equal to v up to stabilisers, as
    support ints (bit j for qubit j), in (weight, lex) order.

    side "x" means X-error vectors modulo X-type stabiliser supports
    (rows of x_checks); side "z" the mirror.  The target is the XOR of the
    annihilator's column ints at v's ones.
    """
    v = gf2.as_bin(v).reshape(-1)
    if len(v) != code.n:
        raise ValueError(f"dimension mismatch: {code.n} qubits, vector has {len(v)}")
    if budget < 0:
        raise ValueError("max_weight must be >= 0")
    search = gf2._searcher(code.coset_annihilator(side))
    target = gf2._column_sum(search.cols, v.nonzero()[0].tolist())
    return [
        sum(1 << j for j in support)
        for w in range(budget + 1)
        for support in search.supports(w, target)
    ]


def pauli_min_weight(code: CssCode, p: PauliError, max_weight: int) -> Optional[int]:
    """Least weight of p times any stabiliser, or None when it exceeds budget.

    The X and Z coset sides are listed independently to the budget and
    then joined on combined support, which is exact within the budget.
    The join walks both lists in weight order and stops a side once its
    elements weigh at least the best union so far: |a | b| >= max(|a|, |b|).
    """
    if p.is_identity():
        return 0
    xs = _coset_supports(code, "x", p.e, max_weight)
    zs = _coset_supports(code, "z", p.f, max_weight)
    best = max_weight + 1
    for a in xs:
        if a.bit_count() >= best:
            break
        for b in zs:
            if b.bit_count() >= best:
                break
            best = min(best, (a | b).bit_count())
    return best if best <= max_weight else None


def combine_distances(a: Distance, b: Distance) -> Distance:
    """min of two distances, exact only when the lesser one is (on a tie,
    either); a lower bound only caps from below."""
    lesser = min((a, b), key=lambda d: (d.value, not d.is_exact()))
    return lesser if lesser.is_exact() else Distance(lesser.value, "lower_bound")


def qubit_distance(complex_: ChainComplex, max_weight: int) -> Distance:
    """d_q searched to max_weight: the lesser of the X and Z logical weights."""
    return combine_distances(
        homological_distance(complex_, 0, max_weight),
        cohomological_distance(complex_, -1, max_weight),
    )


def single_shot_distance(complex_: ChainComplex, max_weight: int) -> Distance:
    """d_ss searched to max_weight: the least weight of a metacheck-consistent
    non-syndrome.  Infinite, unsearched, without metachecks or homology at 1, -1."""
    if complex_.length != 4 or betti_number(complex_, 1) == betti_number(complex_, -1) == 0:
        return Distance(math.inf, "exact")
    return combine_distances(
        homological_distance(complex_, 1, max_weight),
        cohomological_distance(complex_, -2, max_weight),
    )


@dataclass
class CodeReport:
    n: int
    k: int
    redundancy: Fraction
    max_check_weight: int
    mean_check_weight: Fraction
    max_qubit_degree: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "redundancy": {
                "value": float(self.redundancy),
                "exact": str(self.redundancy),
            },
            "max_check_weight": self.max_check_weight,
            "mean_check_weight": {
                "value": float(self.mean_check_weight),
                "exact": str(self.mean_check_weight),
            },
            "max_qubit_degree": self.max_qubit_degree,
        }


def code_report(complex_: ChainComplex) -> CodeReport:
    """Size, logical count, redundancy and check statistics of a complex.

    Check statistics pool the Z- and X-check rows together; the mean is an
    exact reduced rational.  The distances are qubit_distance and
    single_shot_distance.
    """
    from_complex(complex_)  # rejects a non-CSS complex
    from .product import redundancy as _redundancy

    # Z checks are the rows of d_0, X checks the columns of d_-1
    z_checks, z_qubits = gf2._support(complex_.delta(0))
    x_qubits, x_checks = gf2._support(complex_.delta(-1))
    checks = np.concatenate([z_checks, complex_.size(1) + x_checks])
    check_weights = np.bincount(checks, minlength=complex_.size(1) + complex_.size(-1))
    qubit_degrees = np.bincount(np.concatenate([z_qubits, x_qubits]), minlength=complex_.size(0))
    return CodeReport(
        n=complex_.size(0),
        k=betti_number(complex_, 0),
        redundancy=_redundancy(complex_),
        max_check_weight=int(check_weights.max()),
        mean_check_weight=Fraction(int(check_weights.sum()), len(check_weights)),
        max_qubit_degree=int(qubit_degrees.max()),
    )
