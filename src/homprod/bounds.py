"""Polynomial bound functions c * x^a used in soundness and decoding budgets.

All evaluations and comparisons are exact rational arithmetic; floats
only appear when a caller asks for a display value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["PolyBound", "LINEAR", "QUADRATIC_OVER_4", "CUBIC_OVER_4", "from_name"]


@dataclass(frozen=True)
class PolyBound:
    """f(x) = scale * x**degree on nonnegative integers; f(0) = 0."""

    degree: int
    scale: Fraction

    def __post_init__(self) -> None:
        if self.degree < 1 or self.scale <= 0:
            raise ValueError("bound must be monotonically increasing with f(0) = 0")

    def __call__(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError("bound evaluated at negative argument")
        return self.scale * Fraction(x) ** self.degree

    def inverse_float(self, y: Fraction) -> float:
        """f^{-1}(y) as a float, for display only."""
        return float((Fraction(y) / self.scale) ** Fraction(1, self.degree))

    @property
    def name(self) -> str:
        if self.degree == 1 and self.scale == 1:
            return "x"
        num = f"x^{self.degree}" if self.degree > 1 else "x"
        if self.scale == 1:
            return num
        if self.scale.numerator == 1:
            return f"{num}/{self.scale.denominator}"
        return f"{self.scale}*{num}"

    def to_json(self) -> dict:
        return {"degree": self.degree, "scale": str(self.scale)}


LINEAR = PolyBound(1, Fraction(1))
QUADRATIC_OVER_4 = PolyBound(2, Fraction(1, 4))
CUBIC_OVER_4 = PolyBound(3, Fraction(1, 4))

_BY_NAME = {
    "x": LINEAR,
    "x2": QUADRATIC_OVER_4,
    "x^2/4": QUADRATIC_OVER_4,
    "x3": CUBIC_OVER_4,
    "x^3/4": CUBIC_OVER_4,
}


def from_name(name: str) -> PolyBound:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown bound {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None
