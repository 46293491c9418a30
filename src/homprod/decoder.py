"""Minimum-weight single-shot decoding and adversarial sweeps.

Decoding is two staged minimisations: repair the observed syndrome to the
nearest metacheck-consistent one, then find a minimum-weight Pauli with
that syndrome.  The X and Z sides decode independently (the CSS block
structure keeps them uncoupled), each by exhaustive increasing-weight
search, so results are deterministic and minimality is certified per side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import gf2
from .bounds import PolyBound
from .chain import Distance
from .css import CssCode, PauliError, Syndrome, pauli_min_weight
from .gf2 import BudgetExhausted

__all__ = [
    "BudgetExhausted",
    "RepairOutcome",
    "DecodeResult",
    "SingleShotBudget",
    "SweepLimits",
    "SweepReport",
    "RoundRecord",
    "repair_syndrome",
    "single_shot_decode",
    "single_shot_budget",
    "adversarial_sweep",
    "simulate_rounds",
]

Number = Union[Fraction, float]


@dataclass(frozen=True)
class RepairOutcome:
    s_rec: Syndrome
    metacheck_failure: bool

    @property
    def repaired_weight(self) -> int:
        return self.s_rec.weight()


@dataclass(frozen=True)
class DecodeResult:
    s_rec: Syndrome
    e_rec: PauliError
    metacheck_failure: bool
    residual_min_weight: Optional[int]
    minimality_certified: bool


@dataclass(frozen=True)
class SingleShotBudget:
    """Error budgets under which decoding guarantees a contained residual.

    measurement_budget is half the smaller of single-shot distance and
    soundness threshold; qubit_budget is half the code distance.  The
    statuses carry how trustworthy the underlying distances are.
    """

    measurement_budget: Number
    qubit_budget: Number
    bound: PolyBound
    measurement_status: str = "exact"
    qubit_status: str = "exact"

    def admits(self, u_weight: int, new_error_weight: int, prev_u_weight: int = 0) -> bool:
        """The contract: |u| below the measurement budget, and
        f(2|u|) + f(2|u_prev|) + wt(E) below the qubit budget (f(0) = 0)."""
        return (
            u_weight < self.measurement_budget
            and self.bound(2 * u_weight) + self.bound(2 * prev_u_weight) + new_error_weight
            < self.qubit_budget
        )

    def to_json(self) -> dict:
        def num(x: Number):
            return "inf" if math.isinf(float(x)) else float(x)

        return {
            "measurement_budget": num(self.measurement_budget),
            "qubit_budget": num(self.qubit_budget),
            "bound": self.bound.to_json(),
            "measurement_status": self.measurement_status,
            "qubit_status": self.qubit_status,
        }


def single_shot_budget(
    d_ss: Distance,
    t: Distance,
    d_q: Distance,
    bound: PolyBound,
) -> SingleShotBudget:
    """Budgets (measurement, qubit) = (min(d_ss, t)/2, d_q/2)."""
    smaller, smaller_status = (
        (d_ss.value, d_ss.status) if d_ss.value <= t.value else (t.value, t.status)
    )
    p: Number = math.inf if math.isinf(smaller) else Fraction(int(smaller), 2)
    q: Number = math.inf if math.isinf(d_q.value) else Fraction(int(d_q.value), 2)
    return SingleShotBudget(p, q, bound, smaller_status, d_q.status)


def split_measurement_error(code: CssCode, u: np.ndarray) -> Syndrome:
    u = gf2.as_bin(u).reshape(-1)
    mz = code.num_z_checks
    if u.shape[0] != mz + code.num_x_checks:
        raise ValueError("measurement error length does not match check count")
    return Syndrome(u[:mz], u[mz:])


def repair_syndrome(code: CssCode, s: Syndrome, max_weight: int) -> RepairOutcome:
    """Minimum-weight flip set making the syndrome metacheck-consistent.

    The two metacheck blocks are independent, so per-side minima add up to
    the joint minimum.  Reports a metacheck failure when the repaired
    syndrome admits no Pauli explanation; raises BudgetExhausted when no
    repair at all exists within the weight budget.
    """
    if not code.has_metachecks:
        raise ValueError("repair needs a code with metachecks")
    found_z = gf2.min_weight_solution(
        code.z_metachecks, gf2.mat_vec(code.z_metachecks, s.z_part), max_weight
    )
    if found_z is None:
        raise BudgetExhausted(f"no Z-side syndrome repair within weight {max_weight}")
    found_x = gf2.min_weight_solution(
        code.x_metachecks, gf2.mat_vec(code.x_metachecks, s.x_part), max_weight
    )
    if found_x is None:
        raise BudgetExhausted(f"no X-side syndrome repair within weight {max_weight}")
    s_rec = Syndrome(found_z[0], found_x[0])
    repaired = s.compose(s_rec)
    return RepairOutcome(s_rec, not code.in_syndrome_image(repaired))


def _min_weight_pauli(code: CssCode, repaired: Syndrome, max_weight: int) -> PauliError:
    """Minimum-weight Pauli with a syndrome already known to lie in the
    image: one increasing-weight search per side, so minimality is certain
    whenever both succeed."""
    found_e = gf2.min_weight_solution(code.z_checks, repaired.z_part, max_weight)
    if found_e is None:
        raise BudgetExhausted(f"no X-part recovery within weight {max_weight}")
    found_f = gf2.min_weight_solution(code.x_checks, repaired.x_part, max_weight)
    if found_f is None:
        raise BudgetExhausted(f"no Z-part recovery within weight {max_weight}")
    return PauliError(found_e[0], found_f[0])


def single_shot_decode(
    code: CssCode,
    s: Syndrome,
    max_weight: int,
    true_error: Optional[PauliError] = None,
    residual_budget: Optional[int] = None,
) -> DecodeResult:
    """Repair-then-decode; residual min-weight is filled in when the true
    error is known (sweeps know it, field deployments do not)."""
    outcome = repair_syndrome(code, s, max_weight)
    if outcome.metacheck_failure:
        return DecodeResult(
            outcome.s_rec, PauliError.identity(code.n), True, None, False
        )
    # repair_syndrome has already checked that the repaired syndrome lies
    # in the image, so only the per-side searches remain
    e_rec = _min_weight_pauli(code, s.compose(outcome.s_rec), max_weight)
    residual_wt: Optional[int] = None
    if true_error is not None:
        residual = true_error.compose(e_rec)
        budget = residual_budget if residual_budget is not None else max_weight
        residual_wt = pauli_min_weight(code, residual, budget)
    return DecodeResult(outcome.s_rec, e_rec, False, residual_wt, True)


# -- adversarial sweeps --------------------------------------------------------


@dataclass(frozen=True)
class SweepLimits:
    """Enumeration caps for (E, u) pairs; samples=None means exhaustive."""

    u_max: int
    e_max: int
    samples: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class Violation:
    kind: str
    u_support: tuple[int, ...]
    e_support: tuple[int, ...]
    f_support: tuple[int, ...]
    detail: str


@dataclass
class SweepReport:
    pairs_tested: int
    violations: list[Violation]
    sampled: bool
    seed: int
    repairs_bounded_by_u: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and self.repairs_bounded_by_u

    def to_json(self) -> dict:
        return {
            "pairs_tested": self.pairs_tested,
            "sampled": self.sampled,
            "seed": self.seed,
            "repairs_bounded_by_u": self.repairs_bounded_by_u,
            "violations": [
                {
                    "kind": v.kind,
                    "u_support": list(v.u_support),
                    "e_support": list(v.e_support),
                    "f_support": list(v.f_support),
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


def _pauli_from_typed_support(
    n: int, support: tuple[int, ...], types: tuple[int, ...]
) -> PauliError:
    e = np.zeros(n, dtype=np.uint8)
    f = np.zeros(n, dtype=np.uint8)
    for q, t in zip(support, types):
        if t in (0, 2):
            e[q] = 1
        if t in (1, 2):
            f[q] = 1
    return PauliError(e, f)


def _iter_errors_exhaustive(n: int, e_max: int):
    """Every Pauli of weight <= e_max; a qubit's type is 0 (X), 1 (Z) or 2 (Y)."""
    yield PauliError.identity(n)
    for w in range(1, e_max + 1):
        for support in itertools.combinations(range(n), w):
            for types in itertools.product((0, 1, 2), repeat=w):
                yield _pauli_from_typed_support(n, support, types)


def _iter_u_exhaustive(m: int, u_max: int):
    yield np.zeros(m, dtype=np.uint8)
    for w in range(1, u_max + 1):
        for support in itertools.combinations(range(m), w):
            u = np.zeros(m, dtype=np.uint8)
            for i in support:
                u[i] = 1
            yield u


def _check_pair(
    code: CssCode,
    budget: SingleShotBudget,
    error: PauliError,
    u: np.ndarray,
    max_weight: int,
    violations: list[Violation],
) -> bool:
    """Decode one in-contract pair; append violations; return repair bound ok."""
    u_syn = split_measurement_error(code, u)
    u_weight = int(u.sum())
    s = code.syndrome(error).compose(u_syn)
    allowed = budget.bound(2 * u_weight)
    residual_budget = int(allowed)  # floor; the residual weight is integral
    e_supp = tuple(np.flatnonzero(error.e).tolist())
    f_supp = tuple(np.flatnonzero(error.f).tolist())
    u_supp = tuple(np.flatnonzero(u).tolist())
    result = single_shot_decode(
        code, s, max_weight, true_error=error, residual_budget=residual_budget
    )
    if result.metacheck_failure:
        violations.append(
            Violation("metacheck_failure", u_supp, e_supp, f_supp,
                      "repair left the syndrome outside the image")
        )
        return True
    repair_ok = result.s_rec.weight() <= u_weight
    if not repair_ok:
        violations.append(
            Violation(
                "repair_exceeds_u",
                u_supp,
                e_supp,
                f_supp,
                f"|s_rec| = {result.s_rec.weight()} > |u| = {u_weight}",
            )
        )
    if result.residual_min_weight is None:
        violations.append(
            Violation(
                "residual_bound",
                u_supp,
                e_supp,
                f_supp,
                f"residual min-weight exceeds f(2|u|) = {allowed}",
            )
        )
    return repair_ok


def adversarial_sweep(
    code: CssCode,
    budget: SingleShotBudget,
    limits: SweepLimits,
    max_weight: int = 6,
) -> SweepReport:
    """Decode every (or a seeded sample of) in-contract (E, u) pair and
    record each residual exceeding the bound.  Expected outcome: none."""
    m = code.num_z_checks + code.num_x_checks
    violations: list[Violation] = []
    pairs = 0
    repairs_ok = True
    if limits.samples is None:
        for u in _iter_u_exhaustive(m, limits.u_max):
            u_weight = int(u.sum())
            if not u_weight < budget.measurement_budget:
                continue
            for error in _iter_errors_exhaustive(code.n, limits.e_max):
                if not budget.admits(u_weight, error.weight()):
                    continue
                pairs += 1
                repairs_ok &= _check_pair(code, budget, error, u, max_weight, violations)
    elif budget.admits(0, 0):
        # admits only shrinks as the weights grow: a budget that refuses the
        # empty pair refuses every pair, and rejection sampling would spin
        rng = np.random.default_rng(limits.seed)
        while pairs < limits.samples:
            uw = int(rng.integers(0, limits.u_max + 1))
            u = np.zeros(m, dtype=np.uint8)
            if uw:
                u[rng.choice(m, size=uw, replace=False)] = 1
            ew = int(rng.integers(0, limits.e_max + 1))
            support = tuple(sorted(rng.choice(code.n, size=ew, replace=False).tolist())) if ew else ()
            types = tuple(int(i) for i in rng.integers(0, 3, size=ew))
            error = _pauli_from_typed_support(code.n, support, types)
            if not budget.admits(int(u.sum()), error.weight()):
                continue
            pairs += 1
            repairs_ok &= _check_pair(code, budget, error, u, max_weight, violations)
    report = SweepReport(pairs, violations, limits.samples is not None, limits.seed)
    report.repairs_bounded_by_u = repairs_ok
    return report


# -- multi-round containment ----------------------------------------------------

# least weight every round's residual search reaches, so a round with a smaller
# f(2|u|), out-of-contract rounds included, still reports its residual weight
_RESIDUAL_SEARCH_CAP = 6


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    u_weight: int
    new_error_weight: int
    in_contract: bool
    residual_min_weight: Optional[int]
    residual_bounded: Optional[bool]

    def to_json(self) -> dict:
        return {
            "round": self.round_index,
            "u_weight": self.u_weight,
            "new_error_weight": self.new_error_weight,
            "in_contract": self.in_contract,
            "residual_min_weight": self.residual_min_weight,
            "residual_bounded": self.residual_bounded,
        }


def simulate_rounds(
    code: CssCode,
    budget: SingleShotBudget,
    schedule: list[tuple[PauliError, np.ndarray]],
    max_weight: int = 6,
) -> list[RoundRecord]:
    """Iterate decoding over a schedule of (new physical error, measurement
    error) rounds, carrying the residual forward.

    A round is in contract when f(2|u_t|) + f(2|u_{t-1}|) + wt(E_t) stays
    below the qubit budget; out-of-contract rounds run anyway but carry no
    assertion.
    """
    records: list[RoundRecord] = []
    residual = PauliError.identity(code.n)
    prev_u_weight = 0
    for idx, (new_error, u) in enumerate(schedule):
        u = gf2.as_bin(u).reshape(-1)
        u_weight = int(u.sum())
        in_contract = budget.admits(u_weight, new_error.weight(), prev_u_weight)
        total = new_error.compose(residual)
        s = code.syndrome(total).compose(split_measurement_error(code, u))
        allowed = budget.bound(2 * u_weight)
        cap = max(int(allowed), _RESIDUAL_SEARCH_CAP)
        result = single_shot_decode(
            code, s, max_weight, true_error=total, residual_budget=cap
        )
        if result.metacheck_failure:
            records.append(
                RoundRecord(idx, u_weight, new_error.weight(), in_contract, None, False if in_contract else None)
            )
            # no recovery applied this round; the full error carries over
            residual = total
            prev_u_weight = u_weight
            continue
        residual = total.compose(result.e_rec)
        found = result.residual_min_weight
        bounded: Optional[bool]
        if in_contract:
            bounded = found is not None and found <= allowed
        else:
            bounded = None
        records.append(
            RoundRecord(idx, u_weight, new_error.weight(), in_contract, found, bounded)
        )
        prev_u_weight = u_weight
    return records
