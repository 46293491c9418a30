"""Minimum-weight single-shot decoding and adversarial sweeps.

Decoding is two staged minimisations: repair the observed syndrome to the
nearest metacheck-consistent one, then find a minimum-weight Pauli with
that syndrome.  The X and Z sides decode independently (the CSS block
structure keeps them uncoupled), each by exhaustive increasing-weight
search, so results are deterministic and minimality is certified per side.

A repaired syndrome fails (no Pauli has it) exactly when it has odd
overlap with one of the code's syndrome-level obstruction rows
(CssCode.syndrome_obstructions, computed once per code); a code with no
homology at levels 1 and -1 (d_ss infinite, such as the 241-qubit code)
has none, so its decodes never fail and pay nothing for the test.

Sweeps and multi-round runs share one round step: flip the measurement
error u into the error's syndrome and decode, searching the residual to a
given budget.  The exhaustive sweep lists only pairs the contract admits:
admission only shrinks as either weight grows, so each weight loop stops
at the heaviest weight the budget accepts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import gf2
from .bounds import PolyBound
from .chain import DEFAULT_DISTANCE_BUDGET, Distance
from .css import CssCode, PauliError, Syndrome, pauli_min_weight
from .gf2 import BudgetExhausted

__all__ = [
    "BudgetExhausted",
    "RepairOutcome",
    "DecodeResult",
    "SingleShotBudget",
    "Violation",
    "SweepReport",
    "RoundRecord",
    "repair_syndrome",
    "single_shot_decode",
    "single_shot_budget",
    "split_measurement_error",
    "adversarial_sweep",
    "simulate_rounds",
]

Number = Union[Fraction, float]


@dataclass(frozen=True)
class RepairOutcome:
    s_rec: Syndrome
    metacheck_failure: bool


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


def _solve(m: np.ndarray, target: np.ndarray, max_weight: int, what: str) -> np.ndarray:
    """Minimum-weight x with m x = target; BudgetExhausted names `what`
    when none has weight <= max_weight."""
    found = gf2.min_weight_solution(m, target, max_weight)
    if found is None:
        raise BudgetExhausted(f"no {what} within weight {max_weight}")
    return found[0]


def repair_syndrome(code: CssCode, s: Syndrome, max_weight: int) -> RepairOutcome:
    """Minimum-weight flip set making the syndrome metacheck-consistent.

    The two metacheck blocks are independent, so per-side minima add up to
    the joint minimum.  Reports a metacheck failure when the repaired
    syndrome admits no Pauli explanation: it passes every metacheck, so
    that is when some obstruction row of the code has odd overlap with it
    (see CssCode.syndrome_obstructions).  Raises BudgetExhausted when no
    repair at all exists within the weight budget.
    """
    if not code.has_metachecks:
        raise ValueError("repair needs a code with metachecks")
    mz, mx = code.z_metachecks, code.x_metachecks
    s_rec = Syndrome(
        _solve(mz, gf2.mat_vec(mz, s.z_part), max_weight, "Z-side syndrome repair"),
        _solve(mx, gf2.mat_vec(mx, s.x_part), max_weight, "X-side syndrome repair"),
    )
    # the repaired syndrome passes every metacheck by construction
    return RepairOutcome(s_rec, code.obstructed(s.compose(s_rec)))


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
        return DecodeResult(outcome.s_rec, PauliError.identity(code.n), True, None, False)
    # repair_syndrome has already checked that the repaired syndrome lies in
    # the image, so one increasing-weight search per side remains, and
    # minimality is certain whenever both succeed
    repaired = s.compose(outcome.s_rec)
    e_rec = PauliError(
        _solve(code.z_checks, repaired.z_part, max_weight, "X-part recovery"),
        _solve(code.x_checks, repaired.x_part, max_weight, "Z-part recovery"),
    )
    residual_wt: Optional[int] = None
    if true_error is not None:
        budget = residual_budget if residual_budget is not None else max_weight
        residual_wt = pauli_min_weight(code, true_error.compose(e_rec), budget)
    return DecodeResult(outcome.s_rec, e_rec, False, residual_wt, True)


def _decode_round(
    code: CssCode, error: PauliError, u: np.ndarray, budget: int, max_weight: int
) -> DecodeResult:
    """One round: decode the error's syndrome with u flipped into it, and
    search the residual to weight budget."""
    s = code.syndrome(error).compose(split_measurement_error(code, u))
    return single_shot_decode(code, s, max_weight, true_error=error, residual_budget=budget)


# -- adversarial sweeps --------------------------------------------------------


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

    @property
    def repairs_bounded_by_u(self) -> bool:
        return all(v.kind != "repair_exceeds_u" for v in self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "repairs_bounded_by_u": self.repairs_bounded_by_u}


def _typed_pauli(n: int, support: tuple[int, ...], types: tuple[int, ...]) -> PauliError:
    """The Pauli acting on each qubit of support as X (type 0), Z (1) or Y (2)."""
    e, f = np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
    e[[q for q, t in zip(support, types) if t != 1]] = 1
    f[[q for q, t in zip(support, types) if t != 0]] = 1
    return PauliError(e, f)


def _exhaustive_pairs(code: CssCode, budget: SingleShotBudget, u_max: int, e_max: int):
    """Every admitted (E, u) with |u| <= u_max and wt(E) <= e_max: u in
    (weight, lex) order, and for each u every Pauli in (weight, support,
    type) order.  admits only shrinks as either weight grows, so the error
    weights stop at the heaviest one admitted with |u|, and the u weights
    at the first that admits no error at all."""
    m = code.num_z_checks + code.num_x_checks
    for uw in range(min(u_max, m) + 1):
        weights = range(min(e_max, code.n) + 1)
        e_weights = list(itertools.takewhile(lambda ew: budget.admits(uw, ew), weights))
        if not e_weights:
            return
        for u_support in itertools.combinations(range(m), uw):
            u = np.zeros(m, dtype=np.uint8)
            u[list(u_support)] = 1
            for ew in e_weights:
                for support in itertools.combinations(range(code.n), ew):
                    for types in itertools.product((0, 1, 2), repeat=ew):
                        yield _typed_pauli(code.n, support, types), u


def _sampled_pairs(code: CssCode, budget: SingleShotBudget, u_max: int, e_max: int, seed: int):
    """Seeded (E, u) draws, endless: a u weight and an error weight, each
    uniform up to its cap or its vector's length, whichever is smaller,
    then uniform supports and per-qubit types.  Nothing at all when the
    budget refuses the empty pair: admits only shrinks as the weights
    grow, so it would refuse every draw."""
    if not budget.admits(0, 0):
        return
    m = code.num_z_checks + code.num_x_checks
    rng = np.random.default_rng(seed)
    while True:
        uw = int(rng.integers(0, min(u_max, m) + 1))
        u = np.zeros(m, dtype=np.uint8)
        if uw:
            u[rng.choice(m, size=uw, replace=False)] = 1
        ew = int(rng.integers(0, min(e_max, code.n) + 1))
        support = tuple(sorted(rng.choice(code.n, size=ew, replace=False).tolist())) if ew else ()
        types = tuple(int(i) for i in rng.integers(0, 3, size=ew))
        yield _typed_pauli(code.n, support, types), u


def adversarial_sweep(
    code: CssCode,
    budget: SingleShotBudget,
    u_max: int,
    e_max: int,
    samples: Optional[int] = None,
    seed: int = 0,
    max_weight: int = DEFAULT_DISTANCE_BUDGET,
) -> SweepReport:
    """Decode every (or, given samples, a seeded sample of) in-contract
    (E, u) pair with |u| <= u_max and wt(E) <= e_max, and record each
    violation of the guarantee.  Expected outcome: none."""
    if samples is None:
        stream = _exhaustive_pairs(code, budget, u_max, e_max)
    else:
        stream = _sampled_pairs(code, budget, u_max, e_max, seed)
    violations: list[Violation] = []
    pairs = 0
    for error, u in stream:
        if samples is not None and pairs >= samples:
            break
        u_weight = int(u.sum())
        if not budget.admits(u_weight, error.weight()):
            continue
        pairs += 1
        allowed = budget.bound(2 * u_weight)
        # floor; the residual weight is integral
        result = _decode_round(code, error, u, int(allowed), max_weight)
        supports = tuple(tuple(np.flatnonzero(v).tolist()) for v in (u, error.e, error.f))
        if result.metacheck_failure:
            detail = "repair left the syndrome outside the image"
            violations.append(Violation("metacheck_failure", *supports, detail))
            continue
        if result.s_rec.weight() > u_weight:
            detail = f"|s_rec| = {result.s_rec.weight()} > |u| = {u_weight}"
            violations.append(Violation("repair_exceeds_u", *supports, detail))
        if result.residual_min_weight is None:
            detail = f"residual min-weight exceeds f(2|u|) = {allowed}"
            violations.append(Violation("residual_bound", *supports, detail))
    return SweepReport(pairs, violations, samples is not None, seed)


# -- multi-round containment ----------------------------------------------------

# least weight every round's residual search reaches, so a round with a smaller
# f(2|u|), out-of-contract rounds included, still reports its residual weight
_RESIDUAL_SEARCH_CAP = 6


@dataclass(frozen=True)
class RoundRecord:
    round: int
    u_weight: int
    new_error_weight: int
    in_contract: bool
    residual_min_weight: Optional[int]
    residual_bounded: Optional[bool]

    def to_json(self) -> dict:
        return asdict(self)


def simulate_rounds(
    code: CssCode,
    budget: SingleShotBudget,
    schedule: list[tuple[PauliError, np.ndarray]],
    max_weight: int = DEFAULT_DISTANCE_BUDGET,
) -> list[RoundRecord]:
    """Iterate decoding over a schedule of (new physical error, measurement
    error) rounds, carrying the residual forward.

    A round is in contract when f(2|u_t|) + f(2|u_{t-1}|) + wt(E_t) stays
    below the qubit budget; out-of-contract rounds run anyway but carry no
    assertion.  A metacheck-failure round applies no recovery (its e_rec is
    the identity) and reports no residual weight, so the full error carries
    over and an in-contract failure counts as unbounded.
    """
    records: list[RoundRecord] = []
    residual = PauliError.identity(code.n)
    prev_u_weight = 0
    for idx, (new_error, u) in enumerate(schedule):
        u = gf2.as_bin(u).reshape(-1)
        u_weight = int(u.sum())
        in_contract = budget.admits(u_weight, new_error.weight(), prev_u_weight)
        total = new_error.compose(residual)
        allowed = budget.bound(2 * u_weight)
        result = _decode_round(code, total, u, max(int(allowed), _RESIDUAL_SEARCH_CAP), max_weight)
        residual = total.compose(result.e_rec)
        found = result.residual_min_weight
        bounded = (found is not None and found <= allowed) if in_contract else None
        records.append(RoundRecord(idx, u_weight, new_error.weight(), in_contract, found, bounded))
        prev_u_weight = u_weight
    return records
